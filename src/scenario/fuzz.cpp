#include "scenario/fuzz.hpp"

#include <algorithm>
#include <exception>
#include <sstream>
#include <utility>

#include "scenario/runner.hpp"

namespace discs::scenario {

namespace {

bool contains(const std::vector<std::string>& names, std::string_view name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// The union of `check` lines and the expected violation — everything a
/// verdict on this spec must evaluate.
std::vector<std::string> active_checks(const ScenarioSpec& spec) {
  std::vector<std::string> checks = spec.checks;
  if (!spec.expect_violation.empty() &&
      !contains(checks, spec.expect_violation)) {
    checks.push_back(spec.expect_violation);
  }
  return checks;
}

bool attack_reports_equal(const AttackReport& a, const AttackReport& b) {
  return a.packets_sent == b.packets_sent &&
         a.dropped_at_source == b.dropped_at_source &&
         a.dropped_at_destination == b.dropped_at_destination &&
         a.delivered == b.delivered;
}

bool has_attack_steps(const ScenarioSpec& spec) {
  return std::any_of(spec.schedule.begin(), spec.schedule.end(),
                     [](const ScheduleStep& s) {
                       return s.kind == ScheduleStep::Kind::kAttack;
                     });
}

/// Copy of `spec` with every attack forced onto one chunking: batch 0 =
/// one packet per `send_batch` call, otherwise `batch` packets per call.
ScenarioSpec with_attack_batch(const ScenarioSpec& spec, std::size_t batch) {
  ScenarioSpec copy = spec;
  for (ScheduleStep& s : copy.schedule) {
    if (s.kind == ScheduleStep::Kind::kAttack) s.attack.batch = batch;
  }
  return copy;
}

void check_outcome(const ScenarioSpec& spec, const ScenarioOutcome& outcome,
                   const std::vector<std::string>& checks,
                   CheckResult& result) {
  std::ostringstream detail;
  if (contains(checks, std::string(invariants::kOrphanFreedom)) &&
      outcome.residual_windows != 0) {
    detail.str("");
    detail << outcome.residual_windows
           << " function-table windows alive after the drain";
    result.violations.push_back(
        {std::string(invariants::kOrphanFreedom), detail.str()});
  }
  // Only lossless plans promise zero failures — partitions and heavy loss
  // can legitimately exhaust the retry budget.
  if (contains(checks, std::string(invariants::kNoDeliveryFailures)) &&
      spec.fault.lossless() && outcome.reliability.delivery_failures != 0) {
    detail.str("");
    detail << outcome.reliability.delivery_failures
           << " delivery failures under a lossless fault plan";
    result.violations.push_back(
        {std::string(invariants::kNoDeliveryFailures), detail.str()});
  }
  if (contains(checks, std::string(invariants::kRetransmitBound))) {
    const std::uint64_t bound =
        outcome.reliability.reliable_sends *
        static_cast<std::uint64_t>(spec.reliability.max_retries);
    if (outcome.reliability.retransmits > bound) {
      detail.str("");
      detail << outcome.reliability.retransmits << " retransmits exceed "
             << outcome.reliability.reliable_sends << " sends x "
             << spec.reliability.max_retries << " retries";
      result.violations.push_back(
          {std::string(invariants::kRetransmitBound), detail.str()});
    }
  }
  if (contains(checks, std::string(invariants::kNoAttackDelivered))) {
    std::size_t delivered = 0;
    for (const AttackReport& a : outcome.attacks) delivered += a.delivered;
    if (delivered != 0) {
      detail.str("");
      detail << delivered << " attack packets delivered across "
             << outcome.attacks.size() << " attacks";
      result.violations.push_back(
          {std::string(invariants::kNoAttackDelivered), detail.str()});
    }
  }
}

}  // namespace

CheckResult check_scenario(const ScenarioSpec& spec) {
  CheckResult result;
  const std::vector<std::string> checks = active_checks(spec);
  if (checks.empty()) return result;

  if (contains(checks, std::string(invariants::kRoundTrip))) {
    const std::string first = serialize_scenario(spec);
    const Result<ScenarioSpec> reparsed = parse_scenario(first);
    if (!reparsed.ok()) {
      result.violations.push_back({std::string(invariants::kRoundTrip),
                                   "canonical form does not re-parse: " +
                                       reparsed.error().message});
    } else if (serialize_scenario(*reparsed) != first) {
      result.violations.push_back(
          {std::string(invariants::kRoundTrip),
           "serialize(parse(serialize(s))) differs from serialize(s)"});
    }
  }

  const bool needs_run =
      contains(checks, std::string(invariants::kOrphanFreedom)) ||
      contains(checks, std::string(invariants::kNoDeliveryFailures)) ||
      contains(checks, std::string(invariants::kRetransmitBound)) ||
      contains(checks, std::string(invariants::kNoAttackDelivered));
  try {
    if (needs_run) {
      ScenarioRunner runner(spec);
      check_outcome(spec, runner.run(), checks, result);
    }
    if (contains(checks, std::string(invariants::kSerialBatchEquivalence)) &&
        has_attack_steps(spec)) {
      ScenarioRunner serial(with_attack_batch(spec, 0));
      ScenarioRunner batched(with_attack_batch(spec, 256));
      const ScenarioOutcome& a = serial.run();
      const ScenarioOutcome& b = batched.run();
      bool equal = a.attacks.size() == b.attacks.size();
      for (std::size_t i = 0; equal && i < a.attacks.size(); ++i) {
        equal = attack_reports_equal(a.attacks[i], b.attacks[i]);
      }
      if (!equal) {
        result.violations.push_back(
            {std::string(invariants::kSerialBatchEquivalence),
             "one-packet and 256-packet send_batch chunkings disagree"});
      }
    }
  } catch (const std::exception& e) {
    result.violations.push_back({"error", e.what()});
  }
  return result;
}

namespace {

// Mutation caps: mutants must stay cheap (the fuzz loop runs dozens) and
// orphan_freedom must stay decidable (durations expire inside the drain).
constexpr std::size_t kMaxAses = 24;
constexpr std::size_t kMaxPackets = 2000;
constexpr SimTime kMaxDuration = 30 * kSecond;

SimTime next_step_time(const ScenarioSpec& spec, Xoshiro256& rng) {
  const SimTime last = spec.schedule.empty() ? 0 : spec.schedule.back().at;
  return last + (1 + rng.below(10)) * kSecond;
}

/// The smallest deployment the schedule can resolve against: one past the
/// largest @-index referenced, and at least 1 when an attack step defaults
/// its victim to the first deployed AS.
std::size_t min_deployment(const ScenarioSpec& spec) {
  std::size_t need = 0;
  const auto want = [&need](int idx) {
    if (idx >= 0) need = std::max(need, static_cast<std::size_t>(idx) + 1);
  };
  for (const ScheduleStep& s : spec.schedule) {
    switch (s.kind) {
      case ScheduleStep::Kind::kRekey:
      case ScheduleStep::Kind::kInvoke:
      case ScheduleStep::Kind::kUndeploy:
        want(s.as_index);
        break;
      case ScheduleStep::Kind::kAttack:
        want(s.attack.agent_index);
        want(s.attack.victim_index);
        if (s.attack.victim == kNoAs && s.attack.victim_index < 0) {
          need = std::max<std::size_t>(need, 1);
        }
        break;
      default:
        break;
    }
  }
  return need;
}

/// True when some attack step defaults its agent to "the largest legacy
/// AS" — such specs need at least one AS outside the deployment.
bool needs_legacy_agent(const ScenarioSpec& spec) {
  for (const ScheduleStep& s : spec.schedule) {
    if (s.kind == ScheduleStep::Kind::kAttack && s.attack.agent == kNoAs &&
        s.attack.agent_index < 0) {
      return true;
    }
  }
  return false;
}

/// The deployment ceiling the schedule tolerates (full minus the legacy
/// slot the default attack agent occupies).
std::size_t max_deployment(const ScenarioSpec& spec) {
  const std::size_t ases = spec.synthetic.num_ases;
  return needs_legacy_agent(spec) && ases > 0 ? ases - 1 : ases;
}

void ensure_deployment(ScenarioSpec& spec) {
  if (spec.world == WorldKind::kSystem && spec.deploy_count == 0 &&
      spec.deploys.empty()) {
    spec.deploy_count = 2;
  }
}

/// One mutation from the menu; false when the drawn mutation does not apply
/// to this spec shape (the caller redraws).
bool apply_mutation(ScenarioSpec& spec, Xoshiro256& rng) {
  const bool system = spec.world == WorldKind::kSystem;
  switch (rng.below(11)) {
    case 0:
      spec.seed = rng.next() | 1;  // keep nonzero
      return true;
    case 1: {
      if (!system || spec.topology != TopologyKind::kSynthetic) return false;
      spec.synthetic.num_ases = 3 + rng.below(kMaxAses - 2);
      spec.synthetic.num_prefixes =
          spec.synthetic.num_ases * (1 + rng.below(4));
      spec.synthetic.head_count =
          std::min(spec.synthetic.head_count, spec.synthetic.num_ases);
      spec.deploy_count = std::min(spec.deploy_count, max_deployment(spec));
      return true;
    }
    case 2: {
      if (!system) return false;
      // Never draw fewer deployments than the schedule's @-references (and
      // default attack victims) resolve against, nor so many that the
      // default attack agent has no legacy AS left.
      const std::size_t hi = std::min<std::size_t>(max_deployment(spec), 8);
      const std::size_t lo = std::min(hi, min_deployment(spec));
      spec.deploy_count = lo + rng.below(hi - lo + 1);
      return true;
    }
    case 3: {
      if (!system) return false;
      constexpr DeploymentStrategy kStrategies[] = {
          DeploymentStrategy::kOptimal, DeploymentStrategy::kRandom,
          DeploymentStrategy::kUniform};
      spec.strategy = kStrategies[rng.below(3)];
      if (spec.strategy == DeploymentStrategy::kRandom) {
        spec.deploy_seed = 1 + rng.below(1000);
      }
      return true;
    }
    case 4:
      spec.fault.drop_probability = rng.uniform() * 0.4;
      spec.fault.seed = rng.next() | 1;
      return true;
    case 5:
      spec.fault.duplicate_probability = rng.uniform() * 0.3;
      return true;
    case 6:
      spec.fault.reorder_window = rng.below(100) * kMillisecond;
      spec.fault.latency_jitter = rng.below(50) * kMillisecond;
      return true;
    case 7:
      spec.fault = FaultPlan{};
      return true;
    case 8: {
      if (!system) return false;
      ensure_deployment(spec);
      ScheduleStep step;
      step.at = next_step_time(spec, rng);
      step.kind = ScheduleStep::Kind::kAttack;
      step.attack.type =
          rng.chance(0.5) ? AttackType::kDirect : AttackType::kReflection;
      step.attack.packets = 100 + rng.below(kMaxPackets - 100);
      step.attack.batch = rng.chance(0.5) ? 0 : 128;
      spec.schedule.push_back(step);
      spec.deploy_count = std::min(spec.deploy_count, max_deployment(spec));
      return true;
    }
    case 9: {
      ensure_deployment(spec);
      if (!system && spec.deploys.empty()) return false;
      ScheduleStep step;
      step.at = next_step_time(spec, rng);
      step.kind = ScheduleStep::Kind::kInvoke;
      step.as_index = 0;
      step.all_prefixes = true;
      step.spoofed_source = rng.chance(0.5);
      step.duration = (5 + rng.below(26)) * kSecond;  // <= kMaxDuration
      static_assert(30 * kSecond == kMaxDuration);
      spec.schedule.push_back(step);
      return true;
    }
    case 10: {
      ensure_deployment(spec);
      if (!system && spec.deploys.empty()) return false;
      ScheduleStep step;
      step.at = next_step_time(spec, rng);
      step.kind = ScheduleStep::Kind::kRekey;
      step.as_index = 0;
      spec.schedule.push_back(step);
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

ScenarioSpec mutate_scenario(const ScenarioSpec& base, Xoshiro256& rng) {
  ScenarioSpec mutant = base;
  const std::size_t mutations = 1 + rng.below(3);
  for (std::size_t applied = 0, attempts = 0;
       applied < mutations && attempts < 64; ++attempts) {
    if (apply_mutation(mutant, rng)) ++applied;
  }
  return mutant;
}

namespace {

/// A candidate survives shrinking only if it is still a valid document AND
/// the target invariant still fires on it.
bool candidate_fails(const ScenarioSpec& candidate,
                     const std::string& invariant) {
  const Result<ScenarioSpec> parsed =
      parse_scenario(serialize_scenario(candidate));
  if (!parsed.ok()) return false;
  const CheckResult result = check_scenario(*parsed);
  return std::any_of(result.violations.begin(), result.violations.end(),
                     [&](const InvariantViolation& v) {
                       return v.invariant == invariant;
                     });
}

}  // namespace

ScenarioSpec shrink_scenario(const ScenarioSpec& failing,
                             const std::string& invariant,
                             std::size_t* steps) {
  ScenarioSpec best = failing;
  best.checks.assign(1, invariant);
  if (invariant != "error") best.expect_violation = invariant;
  std::size_t accepted = 0;

  const auto try_candidate = [&](ScenarioSpec candidate) {
    if (!candidate_fails(candidate, invariant)) return false;
    best = std::move(candidate);
    ++accepted;
    return true;
  };

  bool progress = true;
  while (progress) {
    progress = false;
    // Structural removals, one element at a time.
    for (std::size_t i = 0; i < best.schedule.size();) {
      ScenarioSpec candidate = best;
      candidate.schedule.erase(candidate.schedule.begin() +
                               static_cast<std::ptrdiff_t>(i));
      if (try_candidate(std::move(candidate))) {
        progress = true;
      } else {
        ++i;
      }
    }
    for (std::size_t i = 0; i < best.deploys.size();) {
      ScenarioSpec candidate = best;
      candidate.deploys.erase(candidate.deploys.begin() +
                              static_cast<std::ptrdiff_t>(i));
      if (try_candidate(std::move(candidate))) {
        progress = true;
      } else {
        ++i;
      }
    }
    // Numeric halvings; the outer loop re-runs them to the fixed point.
    const auto reduce = [&](auto&& shrink_one) {
      ScenarioSpec candidate = best;
      if (!shrink_one(candidate)) return;
      if (try_candidate(std::move(candidate))) progress = true;
    };
    reduce([](ScenarioSpec& s) {
      bool changed = false;
      for (ScheduleStep& step : s.schedule) {
        if (step.kind == ScheduleStep::Kind::kAttack &&
            step.attack.packets > 1) {
          step.attack.packets = std::max<std::size_t>(1, step.attack.packets / 2);
          changed = true;
        }
      }
      return changed;
    });
    reduce([](ScenarioSpec& s) {
      if (s.topology != TopologyKind::kSynthetic || s.synthetic.num_ases <= 2) {
        return false;
      }
      s.synthetic.num_ases = std::max<std::size_t>(2, s.synthetic.num_ases / 2);
      s.synthetic.num_prefixes =
          std::max(s.synthetic.num_ases, s.synthetic.num_prefixes / 2);
      s.synthetic.head_count =
          std::min(s.synthetic.head_count, s.synthetic.num_ases);
      if (s.deploy_count > s.synthetic.num_ases) {
        s.deploy_count = s.synthetic.num_ases;
      }
      return true;
    });
    reduce([](ScenarioSpec& s) {
      if (s.deploy_count == 0) return false;
      s.deploy_count /= 2;
      return true;
    });
    reduce([](ScenarioSpec& s) {
      if (s.fault.lossless() && s.fault.latency_jitter == 0 &&
          s.fault.reorder_window == 0) {
        return false;
      }
      s.fault = FaultPlan{};
      return true;
    });
    reduce([](ScenarioSpec& s) {
      if (s.drain == 0) return false;
      s.drain /= 2;
      return true;
    });
  }
  if (steps != nullptr) *steps = accepted;
  return best;
}

FuzzResult fuzz_scenarios(
    const ScenarioSpec& base, const FuzzConfig& config,
    const std::function<void(const std::string&)>& progress) {
  FuzzResult result;
  Xoshiro256 rng(config.seed);
  for (std::size_t i = 0; i < config.iterations; ++i) {
    ScenarioSpec mutant = mutate_scenario(base, rng);
    mutant.name = base.name + "_m" + std::to_string(i);
    if (!config.inject.empty() && !contains(mutant.checks, config.inject)) {
      mutant.checks.push_back(config.inject);
    }
    ++result.executed;
    const CheckResult check = check_scenario(mutant);
    if (check.ok()) {
      if (progress) {
        progress("iter " + std::to_string(i) + " " + mutant.name + ": ok");
      }
      continue;
    }
    result.found = true;
    result.failing = mutant;
    result.violation = check.violations.front();
    if (progress) {
      progress("iter " + std::to_string(i) + " " + mutant.name +
               ": VIOLATION " + result.violation.invariant + " (" +
               result.violation.detail + ")");
    }
    result.shrunk =
        shrink_scenario(mutant, result.violation.invariant, &result.shrink_steps);
    result.shrunk.name = mutant.name + "_min";
    if (progress) {
      progress("shrunk in " + std::to_string(result.shrink_steps) +
               " reductions to " +
               std::to_string(serialize_scenario(result.shrunk).size()) +
               " bytes");
    }
    return result;
  }
  return result;
}

}  // namespace discs::scenario

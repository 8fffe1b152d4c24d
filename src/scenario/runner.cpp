#include "scenario/runner.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"

namespace discs::scenario {

std::string ScenarioOutcome::to_string() const {
  std::ostringstream out;
  out << "end_time " << format_time(end_time) << "\n";
  out << "deployed " << deployed << "\n";
  out << "residual_windows " << residual_windows << "\n";
  for (std::size_t i = 0; i < attacks.size(); ++i) {
    const AttackReport& a = attacks[i];
    out << "attack " << i << " sent=" << a.packets_sent
        << " src_drop=" << a.dropped_at_source
        << " dst_drop=" << a.dropped_at_destination
        << " delivered=" << a.delivered << "\n";
  }
  out << "channel messages=" << channel.messages << " bytes=" << channel.bytes
      << " handshakes=" << channel.handshakes
      << " resumptions=" << channel.session_resumptions
      << " peak_sessions=" << channel.peak_concurrent_sessions
      << " expired=" << channel.sessions_expired << "\n";
  out << "faults dropped=" << faults.dropped
      << " duplicated=" << faults.duplicated
      << " partition_drops=" << faults.partition_drops << "\n";
  out << "reliability sends=" << reliability.reliable_sends
      << " retransmits=" << reliability.retransmits
      << " failures=" << reliability.delivery_failures
      << " acks_sent=" << reliability.acks_sent
      << " acks_received=" << reliability.acks_received
      << " dups=" << reliability.duplicates_suppressed << "\n";
  out << "control ads=" << control.ads_seen
      << " peering_sent=" << control.peering_requests_sent
      << " peering_recv=" << control.peering_requests_received
      << " keys=" << control.keys_generated
      << " rekeys=" << control.rekeys_completed
      << " inv_sent=" << control.invocations_sent
      << " inv_recv=" << control.invocations_received
      << " inv_rej=" << control.invocations_rejected
      << " detector=" << control.detector_triggers << "\n";
  return out.str();
}

ScenarioRunner::ScenarioRunner(ScenarioSpec spec) : spec_(std::move(spec)) {}

ScenarioRunner::~ScenarioRunner() = default;

InternetDataset ScenarioRunner::make_dataset() const {
  if (spec_.topology == TopologyKind::kSynthetic) {
    return generate_dataset(spec_.synthetic);
  }
  std::vector<PrefixOrigin> entries;
  entries.reserve(spec_.rpki.size());
  for (const RpkiEntry& e : spec_.rpki) {
    entries.push_back({e.prefix, {e.as}});
  }
  return InternetDataset(std::move(entries));
}

const InternetDataset& ScenarioRunner::dataset() {
  if (system_ != nullptr) return system_->dataset();
  if (!dataset_.has_value()) dataset_.emplace(make_dataset());
  return *dataset_;
}

std::vector<std::size_t> ScenarioRunner::deployment_order() {
  return discs::deployment_order(dataset(), spec_.strategy, spec_.deploy_seed);
}

void ScenarioRunner::build() {
  if (built_) return;
  built_ = true;
  if (spec_.world == WorldKind::kControl) {
    const InternetDataset& rpki = dataset();  // the controllers' oracle
    loop_ = std::make_unique<EventLoop>();
    net_ = std::make_unique<ConConNetwork>(*loop_, spec_.channel_latency);
    if (!spec_.fault.lossless()) net_->set_fault_plan(spec_.fault);
    for (const DeployEntry& d : spec_.deploys) {
      if (rpki.address_space(d.as) <= 0.0) {
        throw std::runtime_error("scenario: deploy AS " + std::to_string(d.as) +
                                 " owns no prefixes in the topology");
      }
      ControllerConfig cfg = spec_.controller;
      cfg.as = d.as;
      cfg.seed = d.seed != 0 ? d.seed : derive_seed(spec_.seed, d.as);
      cfg.reliability = spec_.reliability;
      cfg.engine = spec_.engine;
      owned_controllers_.push_back(
          std::make_unique<Controller>(cfg, *loop_, *net_, rpki));
      controllers_.push_back(owned_controllers_.back().get());
      deployed_order_.push_back(d.as);
    }
    // Full-mesh discovery in the exact double-loop order the chaos fixture
    // used, so same-timestamp peering events keep their historical order.
    for (const auto& a : owned_controllers_) {
      for (const auto& b : owned_controllers_) {
        if (a != b) b->discover(a->advertisement());
      }
    }
    return;
  }

  DiscsSystem::Config cfg;
  cfg.internet = spec_.synthetic;
  cfg.channel_latency = spec_.channel_latency;
  cfg.fault_plan = spec_.fault;
  cfg.controller = spec_.controller;
  cfg.controller.reliability = spec_.reliability;
  cfg.controller.engine = spec_.engine;
  cfg.seed = spec_.seed;
  if (spec_.topology == TopologyKind::kRpki) {
    system_ = std::make_unique<DiscsSystem>(make_dataset(), cfg);
  } else {
    system_ = std::make_unique<DiscsSystem>(cfg);
  }
  dataset_.reset();  // system_->dataset() is the authority from here on
  if (spec_.deploy_count > 0) {
    const auto order = deployment_order();
    const auto& as_numbers = dataset().as_numbers();
    const std::size_t n = std::min(spec_.deploy_count, order.size());
    for (std::size_t i = 0; i < n; ++i) {
      deploy_system_as(as_numbers[order[i]]);
    }
  }
  for (const DeployEntry& d : spec_.deploys) deploy_system_as(d.as);
}

void ScenarioRunner::deploy_system_as(AsNumber as) {
  if (std::find(deployed_order_.begin(), deployed_order_.end(), as) !=
      deployed_order_.end()) {
    return;
  }
  if (system_->dataset().address_space(as) <= 0.0) {
    throw std::runtime_error("scenario: deploy AS " + std::to_string(as) +
                             " owns no prefixes in the topology");
  }
  Controller& c = system_->deploy(as);
  controllers_.push_back(&c);
  deployed_order_.push_back(as);
}

void ScenarioRunner::deploy_control_as(AsNumber as, std::uint64_t seed) {
  if (dataset_->address_space(as) <= 0.0) {
    throw std::runtime_error("scenario: deploy AS " + std::to_string(as) +
                             " owns no prefixes in the topology");
  }
  ControllerConfig cfg = spec_.controller;
  cfg.as = as;
  cfg.seed = seed != 0 ? seed : derive_seed(spec_.seed, as);
  cfg.reliability = spec_.reliability;
  cfg.engine = spec_.engine;
  owned_controllers_.push_back(
      std::make_unique<Controller>(cfg, *loop_, *net_, *dataset_));
  Controller* fresh = owned_controllers_.back().get();
  for (Controller* existing : controllers_) {
    fresh->discover(existing->advertisement());
    existing->discover(fresh->advertisement());
  }
  controllers_.push_back(fresh);
  deployed_order_.push_back(as);
}

EventLoop& ScenarioRunner::loop() {
  return spec_.world == WorldKind::kControl ? *loop_ : system_->loop();
}

ConConNetwork& ScenarioRunner::net() {
  return spec_.world == WorldKind::kControl ? *net_ : system_->channel();
}

Controller* ScenarioRunner::controller(AsNumber as) {
  for (Controller* c : controllers_) {
    if (c->as_number() == as) return c;
  }
  return nullptr;
}

std::size_t ScenarioRunner::total_windows() const {
  std::size_t windows = 0;
  for (const Controller* c : controllers_) {
    windows += c->tables().window_count();
  }
  return windows;
}

Controller& ScenarioRunner::resolve_controller(AsNumber as, int index) {
  if (index >= 0) {
    if (static_cast<std::size_t>(index) >= controllers_.size()) {
      throw std::runtime_error("scenario: @" + std::to_string(index) +
                               " exceeds the " +
                               std::to_string(controllers_.size()) +
                               " deployed controllers");
    }
    return *controllers_[static_cast<std::size_t>(index)];
  }
  Controller* c = controller(as);
  if (c == nullptr) {
    throw std::runtime_error("scenario: AS " + std::to_string(as) +
                             " is not deployed");
  }
  return *c;
}

AsNumber ScenarioRunner::resolve_attack_as(AsNumber as, int index,
                                           bool victim) {
  if (index >= 0) {
    if (static_cast<std::size_t>(index) >= deployed_order_.size()) {
      throw std::runtime_error("scenario: @" + std::to_string(index) +
                               " exceeds the deployment");
    }
    return deployed_order_[static_cast<std::size_t>(index)];
  }
  if (as != kNoAs) return as;
  if (victim) {
    if (deployed_order_.empty()) {
      throw std::runtime_error("scenario: attack victim defaults to the "
                               "first deployed AS but nothing is deployed");
    }
    return deployed_order_.front();
  }
  // Default agent: the largest AS outside the deployment.
  for (const AsNumber candidate : dataset().ases_by_space_desc()) {
    if (std::find(deployed_order_.begin(), deployed_order_.end(), candidate) ==
        deployed_order_.end()) {
      return candidate;
    }
  }
  throw std::runtime_error("scenario: no legacy AS left to host attack agents");
}

void ScenarioRunner::advance_to(SimTime when) {
  if (when > loop().now()) loop().run_until(when);
}

bool ScenarioRunner::run_step() {
  if (next_step_ >= spec_.schedule.size()) return false;
  build();
  const ScheduleStep& step = spec_.schedule[next_step_++];
  advance_to(step.at);
  switch (step.kind) {
    case ScheduleStep::Kind::kCheckpoint:
    case ScheduleStep::Kind::kSettle:
      break;
    case ScheduleStep::Kind::kRekey:
      resolve_controller(step.as, step.as_index).rekey_all_peers();
      break;
    case ScheduleStep::Kind::kInvoke: {
      Controller& c = resolve_controller(step.as, step.as_index);
      const std::optional<SimTime> duration =
          step.duration != 0 ? std::optional<SimTime>(step.duration)
                             : std::nullopt;
      if (step.all_prefixes) {
        c.invoke_ddos_defense_all(step.spoofed_source, duration);
      } else {
        c.invoke_ddos_defense(step.prefix, step.spoofed_source, duration);
      }
      break;
    }
    case ScheduleStep::Kind::kAttack: {
      const AttackStep& a = step.attack;
      const AsNumber victim =
          resolve_attack_as(a.victim, a.victim_index, /*victim=*/true);
      const AsNumber agent =
          resolve_attack_as(a.agent, a.agent_index, /*victim=*/false);
      // batch 0 runs as batch 1: one packet per send_batch call.
      outcome_.attacks.push_back(system_->run_attack_batched(
          a.type, agent, victim, a.packets, a.batch));
      break;
    }
    case ScheduleStep::Kind::kDeploy:
      if (spec_.world == WorldKind::kControl) {
        deploy_control_as(step.as, step.deploy_seed);
      } else {
        deploy_system_as(step.as);
      }
      break;
    case ScheduleStep::Kind::kUndeploy: {
      system_->undeploy(step.as);
      const auto it = std::find(deployed_order_.begin(), deployed_order_.end(),
                                step.as);
      if (it != deployed_order_.end()) {
        controllers_.erase(controllers_.begin() +
                           (it - deployed_order_.begin()));
        deployed_order_.erase(it);
      }
      break;
    }
  }
  return true;
}

bool ScenarioRunner::run_to_checkpoint(const std::string& checkpoint) {
  build();
  while (next_step_ < spec_.schedule.size()) {
    const bool hit =
        spec_.schedule[next_step_].kind == ScheduleStep::Kind::kCheckpoint &&
        spec_.schedule[next_step_].checkpoint == checkpoint;
    run_step();
    if (hit) return true;
  }
  return false;
}

const ScenarioOutcome& ScenarioRunner::run() {
  if (finished_) return outcome_;
  build();
  while (run_step()) {
  }
  finalize();
  finished_ = true;
  return outcome_;
}

void ScenarioRunner::finalize() {
  if (spec_.drain > 0) loop().run_until(loop().now() + spec_.drain);
  outcome_.end_time = loop().now();
  outcome_.deployed = controllers_.size();
  outcome_.residual_windows = total_windows();
  outcome_.channel = net().stats();
  outcome_.faults = net().fault_stats();
  for (const Controller* c : controllers_) {
    const ReliabilityStats& rs = c->link().stats();
    outcome_.reliability.reliable_sends += rs.reliable_sends;
    outcome_.reliability.retransmits += rs.retransmits;
    outcome_.reliability.delivery_failures += rs.delivery_failures;
    outcome_.reliability.acks_sent += rs.acks_sent;
    outcome_.reliability.acks_received += rs.acks_received;
    outcome_.reliability.duplicates_suppressed += rs.duplicates_suppressed;
    const Controller::Stats& cs = c->stats();
    outcome_.control.ads_seen += cs.ads_seen;
    outcome_.control.peering_requests_sent += cs.peering_requests_sent;
    outcome_.control.peering_requests_received += cs.peering_requests_received;
    outcome_.control.keys_generated += cs.keys_generated;
    outcome_.control.rekeys_completed += cs.rekeys_completed;
    outcome_.control.invocations_sent += cs.invocations_sent;
    outcome_.control.invocations_received += cs.invocations_received;
    outcome_.control.invocations_rejected += cs.invocations_rejected;
    outcome_.control.detector_triggers += cs.detector_triggers;
  }
}

}  // namespace discs::scenario

#include "scenario/spec.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>

namespace discs::scenario {
namespace {

// ---- token helpers ----

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    if (i >= line.size() || line[i] == '#') break;
    std::size_t j = i;
    while (j < line.size() && !std::isspace(static_cast<unsigned char>(line[j]))) ++j;
    tokens.emplace_back(line.substr(i, j - i));
    i = j;
  }
  return tokens;
}

bool parse_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    text.remove_prefix(2);
  }
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out, base);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

bool parse_f64(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && end != text.c_str();
}

/// "70s" / "50ms" / "0s" -> SimTime (microseconds).
bool parse_time(std::string_view text, SimTime* out) {
  std::size_t digits = 0;
  while (digits < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[digits]))) {
    ++digits;
  }
  if (digits == 0 || digits == text.size()) return false;
  std::uint64_t value = 0;
  if (!parse_u64(text.substr(0, digits), &value)) return false;
  const std::string_view unit = text.substr(digits);
  SimTime scale = 0;
  if (unit == "us") scale = kMicrosecond;
  else if (unit == "ms") scale = kMillisecond;
  else if (unit == "s") scale = kSecond;
  else if (unit == "m") scale = kMinute;
  else if (unit == "h") scale = kHour;
  else return false;
  *out = value * scale;
  return true;
}

std::string format_u64(std::uint64_t v) { return std::to_string(v); }

/// Shortest %g form that strtod round-trips exactly.
std::string format_f64(double v) {
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// An AS reference: "@i" (deployment-order index) or a literal AS number.
/// A literal 0 canonicalizes to @0 ("the first deployed AS").
bool parse_as_ref(std::string_view text, AsNumber* as, int* index) {
  *as = kNoAs;
  *index = -1;
  if (!text.empty() && text[0] == '@') {
    std::uint64_t i = 0;
    if (!parse_u64(text.substr(1), &i) || i > 1u << 20) return false;
    *index = static_cast<int>(i);
    return true;
  }
  std::uint64_t n = 0;
  if (!parse_u64(text, &n) || n > 0xffffffffull) return false;
  if (n == 0) {
    *index = 0;
  } else {
    *as = static_cast<AsNumber>(n);
  }
  return true;
}

std::string format_as_ref(AsNumber as, int index) {
  if (index >= 0) return "@" + std::to_string(index);
  return std::to_string(as);
}

const char* world_name(WorldKind w) {
  return w == WorldKind::kSystem ? "system" : "control";
}

const char* strategy_name(DeploymentStrategy s) {
  switch (s) {
    case DeploymentStrategy::kRandom: return "random";
    case DeploymentStrategy::kOptimal: return "optimal";
    case DeploymentStrategy::kUniform: return "uniform";
  }
  return "optimal";
}

const char* attack_name(AttackType t) {
  return t == AttackType::kDirect ? "direct" : "reflection";
}

// ---- parser ----

struct Parser {
  ScenarioSpec spec;
  std::string error;
  int line_no = 0;
  std::set<std::string, std::less<>> seen;  // duplicate-scalar detection
  bool topology_set = false;

  bool fail(const std::string& message) {
    if (error.empty()) {
      error = "line " + std::to_string(line_no) + ": " + message;
    }
    return false;
  }

  bool once(const std::string& key) {
    if (!seen.insert(key).second) return fail("duplicate key '" + key + "'");
    return true;
  }

  bool want_args(const std::vector<std::string>& t, std::size_t n) {
    if (t.size() != n) {
      return fail("'" + t[0] + "' expects " + std::to_string(n - 1) +
                  " argument(s)");
    }
    return true;
  }

  bool read_u64(const std::string& text, std::uint64_t* out) {
    if (!parse_u64(text, out)) return fail("malformed integer '" + text + "'");
    return true;
  }

  bool read_count(const std::string& text, std::size_t* out) {
    std::uint64_t v = 0;
    if (!read_u64(text, &v)) return false;
    *out = static_cast<std::size_t>(v);
    return true;
  }

  bool read_f64(const std::string& text, double* out) {
    if (!parse_f64(text, out)) return fail("malformed number '" + text + "'");
    return true;
  }

  bool read_probability(const std::string& text, double* out) {
    if (!read_f64(text, out)) return false;
    if (*out < 0.0 || *out > 1.0) {
      return fail("probability '" + text + "' outside [0, 1]");
    }
    return true;
  }

  bool read_time(const std::string& text, SimTime* out) {
    if (!parse_time(text, out)) {
      return fail("malformed time '" + text + "' (use us/ms/s/m/h)");
    }
    return true;
  }

  bool read_as(const std::string& text, AsNumber* out) {
    std::uint64_t v = 0;
    if (!read_u64(text, &v)) return false;
    if (v == 0 || v > 0xffffffffull) return fail("AS number '" + text + "' out of range");
    *out = static_cast<AsNumber>(v);
    return true;
  }

  bool read_prefix(const std::string& text, Prefix4* out) {
    const auto parsed = Prefix4::parse(text);
    if (!parsed) return fail("malformed prefix '" + text + "'");
    *out = *parsed;
    return true;
  }

  bool read_invariant(const std::string& text, std::string* out) {
    if (!is_known_invariant(text)) {
      return fail("unknown invariant '" + text + "'");
    }
    *out = text;
    return true;
  }

  bool handle_line(const std::vector<std::string>& t);
  bool handle_at(const std::vector<std::string>& t);
  bool handle_attack(ScheduleStep* step, const std::vector<std::string>& t);
  bool validate();
};

bool Parser::handle_attack(ScheduleStep* step,
                           const std::vector<std::string>& t) {
  // at <time> attack <type> [key=value...]
  if (t.size() < 4) return fail("'attack' expects a type");
  AttackStep& a = step->attack;
  if (t[3] == "direct") a.type = AttackType::kDirect;
  else if (t[3] == "reflection") a.type = AttackType::kReflection;
  else return fail("unknown attack type '" + t[3] + "'");
  for (std::size_t i = 4; i < t.size(); ++i) {
    const std::size_t eq = t[i].find('=');
    if (eq == std::string::npos) {
      return fail("attack option '" + t[i] + "' is not key=value");
    }
    const std::string key = t[i].substr(0, eq);
    const std::string value = t[i].substr(eq + 1);
    if (key == "agent") {
      if (!parse_as_ref(value, &a.agent, &a.agent_index)) {
        return fail("malformed AS reference '" + value + "'");
      }
    } else if (key == "victim") {
      if (!parse_as_ref(value, &a.victim, &a.victim_index)) {
        return fail("malformed AS reference '" + value + "'");
      }
    } else if (key == "packets") {
      if (!read_count(value, &a.packets)) return false;
      if (a.packets == 0) return fail("attack packets must be >= 1");
    } else if (key == "batch") {
      if (!read_count(value, &a.batch)) return false;
    } else if (key == "seed") {
      if (!read_u64(value, &a.seed)) return false;
    } else {
      return fail("unknown attack option '" + key + "'");
    }
  }
  return true;
}

bool Parser::handle_at(const std::vector<std::string>& t) {
  if (t.size() < 3) return fail("'at' expects a time and an action");
  ScheduleStep step;
  if (!read_time(t[1], &step.at)) return false;
  const std::string& action = t[2];
  if (action == "checkpoint") {
    step.kind = ScheduleStep::Kind::kCheckpoint;
    if (!want_args(t, 4)) return false;
    step.checkpoint = t[3];
  } else if (action == "settle") {
    step.kind = ScheduleStep::Kind::kSettle;
    if (!want_args(t, 3)) return false;
  } else if (action == "rekey") {
    step.kind = ScheduleStep::Kind::kRekey;
    if (!want_args(t, 4)) return false;
    if (!parse_as_ref(t[3], &step.as, &step.as_index)) {
      return fail("malformed AS reference '" + t[3] + "'");
    }
  } else if (action == "invoke") {
    step.kind = ScheduleStep::Kind::kInvoke;
    if (t.size() != 6 && t.size() != 7) {
      return fail("'invoke' expects <as> <prefix|all> <direct|reflection> "
                  "[duration]");
    }
    if (!parse_as_ref(t[3], &step.as, &step.as_index)) {
      return fail("malformed AS reference '" + t[3] + "'");
    }
    if (t[4] == "all") {
      step.all_prefixes = true;
    } else if (!read_prefix(t[4], &step.prefix)) {
      return false;
    }
    if (t[5] == "direct") step.spoofed_source = false;
    else if (t[5] == "reflection") step.spoofed_source = true;
    else return fail("unknown invocation kind '" + t[5] + "'");
    if (t.size() == 7 && !read_time(t[6], &step.duration)) return false;
  } else if (action == "attack") {
    step.kind = ScheduleStep::Kind::kAttack;
    if (!handle_attack(&step, t)) return false;
  } else if (action == "deploy") {
    step.kind = ScheduleStep::Kind::kDeploy;
    if (t.size() != 4 && t.size() != 5) {
      return fail("'deploy' step expects <as> [seed=<u64>]");
    }
    if (!read_as(t[3], &step.as)) return false;
    if (t.size() == 5) {
      if (t[4].rfind("seed=", 0) != 0) {
        return fail("deploy option '" + t[4] + "' is not seed=<u64>");
      }
      if (!read_u64(t[4].substr(5), &step.deploy_seed)) return false;
    }
  } else if (action == "undeploy") {
    step.kind = ScheduleStep::Kind::kUndeploy;
    if (!want_args(t, 4)) return false;
    if (!read_as(t[3], &step.as)) return false;
  } else {
    return fail("unknown schedule action '" + action + "'");
  }
  if (!spec.schedule.empty() && step.at < spec.schedule.back().at) {
    return fail("schedule times must be non-decreasing");
  }
  spec.schedule.push_back(std::move(step));
  return true;
}

bool Parser::handle_line(const std::vector<std::string>& t) {
  const std::string& key = t[0];
  if (key == "at") return handle_at(t);
  if (key == "rpki") {
    if (!want_args(t, 3)) return false;
    RpkiEntry entry;
    if (!read_prefix(t[1], &entry.prefix)) return false;
    if (!read_as(t[2], &entry.as)) return false;
    spec.rpki.push_back(entry);
    return true;
  }
  if (key == "deploy") {
    if (t.size() != 2 && t.size() != 3) {
      return fail("'deploy' expects <as> [seed=<u64>]");
    }
    DeployEntry entry;
    if (!read_as(t[1], &entry.as)) return false;
    if (t.size() == 3) {
      if (t[2].rfind("seed=", 0) != 0) {
        return fail("deploy option '" + t[2] + "' is not seed=<u64>");
      }
      if (!read_u64(t[2].substr(5), &entry.seed)) return false;
    }
    spec.deploys.push_back(entry);
    return true;
  }
  if (key == "check") {
    if (!want_args(t, 2)) return false;
    std::string name;
    if (!read_invariant(t[1], &name)) return false;
    if (std::find(spec.checks.begin(), spec.checks.end(), name) !=
        spec.checks.end()) {
      return fail("duplicate check '" + name + "'");
    }
    spec.checks.push_back(std::move(name));
    return true;
  }
  if (key == "fault.partition") {
    if (!want_args(t, 5)) return false;
    FaultPlan::Partition p;
    if (!read_as(t[1], &p.a) || !read_as(t[2], &p.b)) return false;
    if (!read_time(t[3], &p.start) || !read_time(t[4], &p.end)) return false;
    if (p.a == p.b) return fail("partition endpoints must differ");
    if (p.end < p.start) return fail("partition ends before it starts");
    spec.fault.partitions.push_back(p);
    return true;
  }

  // Scalar keys: exactly one value token, no repeats.
  if (!once(key)) return false;
  if (key == "scenario") {
    if (!want_args(t, 2)) return false;
    spec.name = t[1];
    return true;
  }
  if (!want_args(t, 2)) return false;
  const std::string& v = t[1];

  if (key == "seed") return read_u64(v, &spec.seed);
  if (key == "world") {
    if (v == "system") spec.world = WorldKind::kSystem;
    else if (v == "control") spec.world = WorldKind::kControl;
    else return fail("unknown world '" + v + "'");
    return true;
  }
  if (key == "drain") return read_time(v, &spec.drain);
  if (key == "channel.latency") return read_time(v, &spec.channel_latency);
  if (key == "topology") {
    topology_set = true;
    if (v == "synthetic") spec.topology = TopologyKind::kSynthetic;
    else if (v == "rpki") spec.topology = TopologyKind::kRpki;
    else return fail("unknown topology '" + v + "'");
    return true;
  }
  if (key == "synthetic.ases") return read_count(v, &spec.synthetic.num_ases);
  if (key == "synthetic.prefixes") {
    return read_count(v, &spec.synthetic.num_prefixes);
  }
  if (key == "synthetic.zipf_s") return read_f64(v, &spec.synthetic.zipf_s);
  if (key == "synthetic.zipf_q") return read_f64(v, &spec.synthetic.zipf_q);
  if (key == "synthetic.head_boost") {
    return read_f64(v, &spec.synthetic.head_boost);
  }
  if (key == "synthetic.head_count") {
    return read_count(v, &spec.synthetic.head_count);
  }
  if (key == "synthetic.moas") {
    return read_probability(v, &spec.synthetic.multi_origin_fraction);
  }
  if (key == "synthetic.seed") return read_u64(v, &spec.synthetic.seed);
  if (key == "deploy.strategy") {
    if (v == "random") spec.strategy = DeploymentStrategy::kRandom;
    else if (v == "optimal") spec.strategy = DeploymentStrategy::kOptimal;
    else if (v == "uniform") spec.strategy = DeploymentStrategy::kUniform;
    else return fail("unknown deployment strategy '" + v + "'");
    return true;
  }
  if (key == "deploy.count") return read_count(v, &spec.deploy_count);
  if (key == "deploy.seed") return read_u64(v, &spec.deploy_seed);
  if (key == "controller.peering_delay") {
    return read_time(v, &spec.controller.max_peering_delay);
  }
  if (key == "controller.rekey_interval") {
    return read_time(v, &spec.controller.rekey_interval);
  }
  if (key == "controller.default_duration") {
    return read_time(v, &spec.controller.default_duration);
  }
  if (key == "controller.tolerance") {
    return read_time(v, &spec.controller.tolerance);
  }
  if (key == "controller.detect_threshold") {
    return read_count(v, &spec.controller.detect_threshold);
  }
  if (key == "controller.detect_window") {
    return read_time(v, &spec.controller.detect_window);
  }
  if (key == "controller.con_rou_latency") {
    return read_time(v, &spec.controller.con_rou_latency);
  }
  if (key == "reliability.initial_rto") {
    return read_time(v, &spec.reliability.initial_rto);
  }
  if (key == "reliability.max_rto") {
    return read_time(v, &spec.reliability.max_rto);
  }
  if (key == "reliability.backoff") {
    if (!read_f64(v, &spec.reliability.backoff)) return false;
    if (spec.reliability.backoff < 1.0) {
      return fail("reliability.backoff must be >= 1");
    }
    return true;
  }
  if (key == "reliability.max_retries") {
    std::uint64_t n = 0;
    if (!read_u64(v, &n)) return false;
    if (n < 1 || n > 64) return fail("reliability.max_retries outside [1, 64]");
    spec.reliability.max_retries = static_cast<int>(n);
    return true;
  }
  if (key == "reliability.dedup_window") {
    if (!read_count(v, &spec.reliability.dedup_window)) return false;
    if (spec.reliability.dedup_window == 0) {
      return fail("reliability.dedup_window must be >= 1");
    }
    return true;
  }
  if (key == "fault.drop") {
    return read_probability(v, &spec.fault.drop_probability);
  }
  if (key == "fault.duplicate") {
    return read_probability(v, &spec.fault.duplicate_probability);
  }
  if (key == "fault.reorder") return read_time(v, &spec.fault.reorder_window);
  if (key == "fault.jitter") return read_time(v, &spec.fault.latency_jitter);
  if (key == "fault.seed") return read_u64(v, &spec.fault.seed);
  if (key == "engine.shards") {
    if (!read_count(v, &spec.engine.shards)) return false;
    if (spec.engine.shards > 64) return fail("engine.shards outside [0, 64]");
    return true;
  }
  if (key == "engine.ring_slots") {
    if (!read_count(v, &spec.engine.ring_slots)) return false;
    if (spec.engine.ring_slots < 2) return fail("engine.ring_slots must be >= 2");
    return true;
  }
  if (key == "engine.min_chunk") {
    if (!read_count(v, &spec.engine.min_chunk)) return false;
    if (spec.engine.min_chunk == 0) return fail("engine.min_chunk must be >= 1");
    return true;
  }
  if (key == "engine.max_chunk") return read_count(v, &spec.engine.max_chunk);
  if (key == "scale.flows") {
    if (!read_count(v, &spec.scale.flows)) return false;
    if (spec.scale.flows == 0) return fail("scale.flows must be >= 1");
    return true;
  }
  if (key == "scale.packets") {
    if (!read_count(v, &spec.scale.packets)) return false;
    if (spec.scale.packets == 0) return fail("scale.packets must be >= 1");
    return true;
  }
  if (key == "scale.chunk") {
    if (!read_count(v, &spec.scale.chunk)) return false;
    if (spec.scale.chunk == 0) return fail("scale.chunk must be >= 1");
    return true;
  }
  if (key == "scale.zipf_s") {
    if (!read_f64(v, &spec.scale.zipf_s)) return false;
    if (spec.scale.zipf_s <= 0) return fail("scale.zipf_s must be > 0");
    return true;
  }
  if (key == "scale.payload") return read_count(v, &spec.scale.payload);
  if (key == "expect_violation") {
    // Repros may pin "error": the run threw, and the replay must keep
    // throwing. Not valid for `check` — only outcomes are checkable.
    if (v == "error") {
      spec.expect_violation = v;
      return true;
    }
    return read_invariant(v, &spec.expect_violation);
  }
  return fail("unknown key '" + key + "'");
}

bool Parser::validate() {
  line_no = 0;  // whole-document errors carry "line 0"
  if (!topology_set) return fail("missing required key 'topology'");
  if (spec.topology == TopologyKind::kRpki && spec.rpki.empty()) {
    return fail("topology rpki requires at least one 'rpki' line");
  }
  if (spec.topology == TopologyKind::kSynthetic && !spec.rpki.empty()) {
    return fail("'rpki' lines require 'topology rpki'");
  }
  if (spec.synthetic.num_ases < 2) return fail("synthetic.ases must be >= 2");
  if (spec.synthetic.num_prefixes < spec.synthetic.num_ases) {
    return fail("synthetic.prefixes must be >= synthetic.ases");
  }
  if (spec.synthetic.zipf_s <= 0) return fail("synthetic.zipf_s must be > 0");
  if (spec.synthetic.head_boost <= 0) {
    return fail("synthetic.head_boost must be > 0");
  }
  if (spec.synthetic.head_count > spec.synthetic.num_ases) {
    if (seen.count("synthetic.head_count") != 0) {
      return fail("synthetic.head_count exceeds synthetic.ases");
    }
    // The default head (16) targets default-sized internets; scale it down
    // with small topologies instead of rejecting them.
    spec.synthetic.head_count = spec.synthetic.num_ases;
  }
  if (spec.engine.max_chunk < spec.engine.min_chunk) {
    return fail("engine.max_chunk must be >= engine.min_chunk");
  }
  std::set<AsNumber> deployed_as;
  for (const DeployEntry& d : spec.deploys) {
    if (!deployed_as.insert(d.as).second) {
      return fail("AS " + std::to_string(d.as) + " deployed twice");
    }
    if (spec.world == WorldKind::kSystem && d.seed != 0) {
      return fail("deploy seed= is only meaningful in control worlds "
                  "(system worlds derive controller seeds from the root seed)");
    }
  }
  if (spec.world == WorldKind::kControl) {
    if (spec.topology != TopologyKind::kRpki) {
      return fail("control worlds require 'topology rpki'");
    }
    bool deploys_somewhere = !spec.deploys.empty();
    for (const ScheduleStep& s : spec.schedule) {
      if (s.kind == ScheduleStep::Kind::kAttack) {
        return fail("attack steps require 'world system'");
      }
      if (s.kind == ScheduleStep::Kind::kUndeploy) {
        return fail("undeploy steps require 'world system'");
      }
      deploys_somewhere =
          deploys_somewhere || s.kind == ScheduleStep::Kind::kDeploy;
    }
    if (spec.deploy_count != 0) {
      return fail("deploy.count requires 'world system'");
    }
    if (!deploys_somewhere) {
      return fail("control worlds need at least one explicit 'deploy'");
    }
  }
  // A spoof flow spans three distinct ASes (agent, victim, innocent), so
  // attack steps are undecidable on smaller internets — the sampler's
  // rejection loop would spin forever.
  bool has_attack = false;
  for (const ScheduleStep& s : spec.schedule) {
    has_attack = has_attack || s.kind == ScheduleStep::Kind::kAttack;
  }
  if (has_attack) {
    std::size_t as_count = spec.synthetic.num_ases;
    if (spec.topology == TopologyKind::kRpki) {
      std::set<AsNumber> origins;
      for (const RpkiEntry& e : spec.rpki) origins.insert(e.as);
      as_count = origins.size();
    }
    if (as_count < 3) {
      return fail("attack steps require at least 3 ASes "
                  "(agent, victim, and an innocent third party)");
    }
  }
  return true;
}

}  // namespace

const std::vector<std::string>& known_invariants() {
  static const std::vector<std::string> names = {
      std::string(invariants::kRoundTrip),
      std::string(invariants::kOrphanFreedom),
      std::string(invariants::kNoDeliveryFailures),
      std::string(invariants::kSerialBatchEquivalence),
      std::string(invariants::kRetransmitBound),
      std::string(invariants::kNoAttackDelivered),
  };
  return names;
}

bool is_known_invariant(std::string_view name) {
  const auto& names = known_invariants();
  return std::find(names.begin(), names.end(), name) != names.end();
}

Result<ScenarioSpec> parse_scenario(std::string_view text) {
  Parser parser;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    ++parser.line_no;
    const auto tokens = tokenize(text.substr(pos, eol - pos));
    if (!tokens.empty() && !parser.handle_line(tokens)) {
      return Error{"scenario_parse", parser.error};
    }
    pos = eol + 1;
  }
  if (!parser.validate()) return Error{"scenario_parse", parser.error};
  return std::move(parser.spec);
}

Result<ScenarioSpec> load_scenario(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Error{"scenario_io", "cannot open " + path};
  }
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  auto result = parse_scenario(text);
  if (!result.ok()) {
    return Error{result.error().code, path + ": " + result.error().message};
  }
  return result;
}

std::string format_time(SimTime t) {
  struct Unit {
    SimTime scale;
    const char* suffix;
  };
  static constexpr Unit kUnits[] = {
      {kHour, "h"}, {kMinute, "m"}, {kSecond, "s"}, {kMillisecond, "ms"}};
  if (t == 0) return "0s";
  for (const Unit& u : kUnits) {
    if (t % u.scale == 0) return std::to_string(t / u.scale) + u.suffix;
  }
  return std::to_string(t) + "us";
}

std::string serialize_scenario(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << "scenario " << spec.name << "\n";
  out << "seed " << format_u64(spec.seed) << "\n";
  out << "world " << world_name(spec.world) << "\n";
  out << "drain " << format_time(spec.drain) << "\n";
  out << "channel.latency " << format_time(spec.channel_latency) << "\n";

  if (spec.topology == TopologyKind::kSynthetic) {
    out << "topology synthetic\n";
    out << "synthetic.ases " << spec.synthetic.num_ases << "\n";
    out << "synthetic.prefixes " << spec.synthetic.num_prefixes << "\n";
    out << "synthetic.zipf_s " << format_f64(spec.synthetic.zipf_s) << "\n";
    out << "synthetic.zipf_q " << format_f64(spec.synthetic.zipf_q) << "\n";
    out << "synthetic.head_boost " << format_f64(spec.synthetic.head_boost)
        << "\n";
    out << "synthetic.head_count " << spec.synthetic.head_count << "\n";
    out << "synthetic.moas " << format_f64(spec.synthetic.multi_origin_fraction)
        << "\n";
    out << "synthetic.seed " << format_u64(spec.synthetic.seed) << "\n";
  } else {
    out << "topology rpki\n";
    for (const RpkiEntry& e : spec.rpki) {
      out << "rpki " << e.prefix.to_string() << " " << e.as << "\n";
    }
  }

  out << "deploy.strategy " << strategy_name(spec.strategy) << "\n";
  out << "deploy.count " << spec.deploy_count << "\n";
  out << "deploy.seed " << format_u64(spec.deploy_seed) << "\n";
  for (const DeployEntry& d : spec.deploys) {
    out << "deploy " << d.as;
    if (d.seed != 0) out << " seed=" << format_u64(d.seed);
    out << "\n";
  }

  out << "controller.peering_delay "
      << format_time(spec.controller.max_peering_delay) << "\n";
  out << "controller.rekey_interval "
      << format_time(spec.controller.rekey_interval) << "\n";
  out << "controller.default_duration "
      << format_time(spec.controller.default_duration) << "\n";
  out << "controller.tolerance " << format_time(spec.controller.tolerance)
      << "\n";
  out << "controller.detect_threshold " << spec.controller.detect_threshold
      << "\n";
  out << "controller.detect_window "
      << format_time(spec.controller.detect_window) << "\n";
  out << "controller.con_rou_latency "
      << format_time(spec.controller.con_rou_latency) << "\n";

  out << "reliability.initial_rto "
      << format_time(spec.reliability.initial_rto) << "\n";
  out << "reliability.max_rto " << format_time(spec.reliability.max_rto)
      << "\n";
  out << "reliability.backoff " << format_f64(spec.reliability.backoff)
      << "\n";
  out << "reliability.max_retries " << spec.reliability.max_retries << "\n";
  out << "reliability.dedup_window " << spec.reliability.dedup_window << "\n";

  out << "fault.drop " << format_f64(spec.fault.drop_probability) << "\n";
  out << "fault.duplicate " << format_f64(spec.fault.duplicate_probability)
      << "\n";
  out << "fault.reorder " << format_time(spec.fault.reorder_window) << "\n";
  out << "fault.jitter " << format_time(spec.fault.latency_jitter) << "\n";
  for (const FaultPlan::Partition& p : spec.fault.partitions) {
    out << "fault.partition " << p.a << " " << p.b << " "
        << format_time(p.start) << " " << format_time(p.end) << "\n";
  }
  out << "fault.seed " << format_u64(spec.fault.seed) << "\n";

  out << "engine.shards " << spec.engine.shards << "\n";
  out << "engine.ring_slots " << spec.engine.ring_slots << "\n";
  out << "engine.min_chunk " << spec.engine.min_chunk << "\n";
  out << "engine.max_chunk " << spec.engine.max_chunk << "\n";

  out << "scale.flows " << spec.scale.flows << "\n";
  out << "scale.packets " << spec.scale.packets << "\n";
  out << "scale.chunk " << spec.scale.chunk << "\n";
  out << "scale.zipf_s " << format_f64(spec.scale.zipf_s) << "\n";
  out << "scale.payload " << spec.scale.payload << "\n";

  for (const ScheduleStep& s : spec.schedule) {
    out << "at " << format_time(s.at) << " ";
    switch (s.kind) {
      case ScheduleStep::Kind::kCheckpoint:
        out << "checkpoint " << s.checkpoint;
        break;
      case ScheduleStep::Kind::kSettle:
        out << "settle";
        break;
      case ScheduleStep::Kind::kRekey:
        out << "rekey " << format_as_ref(s.as, s.as_index);
        break;
      case ScheduleStep::Kind::kInvoke:
        out << "invoke " << format_as_ref(s.as, s.as_index) << " "
            << (s.all_prefixes ? std::string("all") : s.prefix.to_string())
            << " " << (s.spoofed_source ? "reflection" : "direct");
        if (s.duration != 0) out << " " << format_time(s.duration);
        break;
      case ScheduleStep::Kind::kAttack: {
        const AttackStep& a = s.attack;
        out << "attack " << attack_name(a.type);
        if (a.agent_index >= 0) out << " agent=@" << a.agent_index;
        else if (a.agent != kNoAs) out << " agent=" << a.agent;
        if (a.victim_index >= 0) out << " victim=@" << a.victim_index;
        else if (a.victim != kNoAs) out << " victim=" << a.victim;
        out << " packets=" << a.packets;
        if (a.batch != 0) out << " batch=" << a.batch;
        if (a.seed != 0) out << " seed=" << format_u64(a.seed);
        break;
      }
      case ScheduleStep::Kind::kDeploy:
        out << "deploy " << s.as;
        if (s.deploy_seed != 0) out << " seed=" << format_u64(s.deploy_seed);
        break;
      case ScheduleStep::Kind::kUndeploy:
        out << "undeploy " << s.as;
        break;
    }
    out << "\n";
  }

  for (const std::string& c : spec.checks) out << "check " << c << "\n";
  if (!spec.expect_violation.empty()) {
    out << "expect_violation " << spec.expect_violation << "\n";
  }
  return out.str();
}

bool save_scenario(const ScenarioSpec& spec, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = serialize_scenario(spec);
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

std::uint64_t scenario_hash(const ScenarioSpec& spec) {
  const std::string text = serialize_scenario(spec);
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace discs::scenario

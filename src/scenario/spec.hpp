// The deterministic scenario DSL (one declarative spec per workload): a
// ScenarioSpec names everything a run needs — topology (synthetic config or
// an explicit RPKI table), deployment, the attack mix, the con-con FaultPlan
// and ReliabilityConfig, the data-plane EngineConfig, and a timed schedule
// of control-plane actions — plus the root seed, so the same file replays
// bit-for-bit forever.
//
// The text format is line-oriented (`key value...` per line, `#` comments),
// has no external dependencies, and round-trips: parse(serialize(s))
// serializes back to the identical bytes. serialize_scenario() is the
// canonical form — content hashes stamped into bench JSON labels are taken
// over it, so cosmetic reformatting of a .scn file does not change its
// identity.
//
// Grammar (every key optional unless noted; times use us/ms/s/m/h suffixes):
//
//   scenario <name>                      # single token
//   seed <u64>                           # root seed (decimal or 0x hex)
//   world system|control                 # full DiscsSystem vs control-only
//   drain <time>                         # post-schedule settle before the
//                                        # outcome snapshot
//   channel.latency <time>
//   topology synthetic|rpki              # required
//   synthetic.ases/.prefixes/.zipf_s/.zipf_q/.head_boost/.head_count/
//     .moas/.seed <value>
//   rpki <prefix4> <as>                  # one line per table entry
//   deploy.strategy optimal|random|uniform
//   deploy.count <n>                     # deploy first n of the strategy order
//   deploy.seed <u64>                    # random-strategy order seed
//   deploy <as> [seed=<u64>]             # explicit deployment (control world
//                                        # may pin the controller seed)
//   controller.peering_delay/.rekey_interval/.default_duration/.tolerance/
//     .detect_window/.con_rou_latency <time>
//   controller.detect_threshold <n>
//   reliability.initial_rto/.max_rto <time>
//   reliability.backoff <f>  reliability.max_retries/.dedup_window <n>
//   fault.drop/.duplicate <probability>  fault.reorder/.jitter <time>
//   fault.partition <asA> <asB> <start> <end>
//   fault.seed <u64>
//   engine.shards/.ring_slots/.min_chunk/.max_chunk <n>
//   scale.flows/.packets/.chunk/.payload <n>  scale.zipf_s <f>
//                                        # streaming-workload shape for
//                                        # bench_scale (FlowStream)
//   at <time> checkpoint <name>          # named pause point for harnesses
//   at <time> settle                     # just advance simulated time
//   at <time> rekey <as|@i>
//   at <time> invoke <as|@i> <prefix4>|all direct|reflection [<duration>]
//   at <time> attack direct|reflection [agent=<as|@i>] [victim=<as|@i>]
//             [packets=<n>] [batch=<n>] [seed=<u64>]
//   at <time> deploy <as> [seed=<u64>]
//   at <time> undeploy <as>
//   check <invariant>                    # what scenario_replay verifies
//   expect_violation <invariant>         # repro files: this must still fail
//
// `@i` names the i-th deployed AS (deployment order), so specs over
// synthetic topologies need not hard-code generated AS numbers; a bare `0`
// is shorthand for `@0`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "attack/traffic.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "control/controller.hpp"
#include "control/secure_channel.hpp"
#include "eval/deployment.hpp"
#include "topology/synthetic.hpp"

namespace discs::scenario {

enum class WorldKind : std::uint8_t {
  kSystem,   // a full DiscsSystem (BGP + data plane + control plane)
  kControl,  // controllers over a ConConNetwork only (the chaos fixture)
};

enum class TopologyKind : std::uint8_t { kSynthetic, kRpki };

/// One explicit prefix-ownership line (`rpki <prefix> <as>`).
struct RpkiEntry {
  Prefix4 prefix;
  AsNumber as = kNoAs;
};

/// One explicit deployment (`deploy <as> [seed=<u64>]`). seed 0 means
/// "derive from the root seed" (system worlds always derive).
struct DeployEntry {
  AsNumber as = kNoAs;
  std::uint64_t seed = 0;
};

/// Streaming-workload shape (`scale.*` keys): the FlowStream population and
/// chunking that bench_scale drives through the batch engine. Defaults are
/// a million-flow soak in 8k-packet chunks.
struct ScaleConfig {
  std::size_t flows = std::size_t{1} << 20;    // concurrent flow population
  std::size_t packets = std::size_t{4} << 20;  // total packets streamed
  std::size_t chunk = 8192;                    // packets per engine call
  double zipf_s = 1.2;                         // flow-popularity exponent
  std::size_t payload = 16;                    // UDP payload bytes

  friend bool operator==(const ScaleConfig&, const ScaleConfig&) = default;
};

/// A scheduled attack: agent/victim kNoAs with deployed_index -1 resolve at
/// run time (victim: first deployed AS; agent: largest legacy AS).
struct AttackStep {
  AttackType type = AttackType::kDirect;
  AsNumber agent = kNoAs;
  AsNumber victim = kNoAs;
  int agent_index = -1;   // @i reference into the deployment order
  int victim_index = -1;
  std::size_t packets = 1000;
  std::size_t batch = 0;  // 0 = one packet per send_batch call
  std::uint64_t seed = 0; // flow-level Monte-Carlo seed (eval harnesses)
};

/// One timed schedule entry. The runner advances the event loop to `at`
/// before executing the action.
struct ScheduleStep {
  enum class Kind : std::uint8_t {
    kCheckpoint,
    kSettle,
    kRekey,
    kInvoke,
    kAttack,
    kDeploy,
    kUndeploy,
  };

  SimTime at = 0;
  Kind kind = Kind::kSettle;
  std::string checkpoint;     // kCheckpoint
  AsNumber as = kNoAs;        // actor of kRekey/kInvoke/kDeploy/kUndeploy
  int as_index = -1;          // @i alternative to `as`
  std::uint64_t deploy_seed = 0;  // kDeploy
  // kInvoke:
  Prefix4 prefix{};
  bool all_prefixes = false;
  bool spoofed_source = false;  // reflection = SP/CSP, direct = DP/CDP
  SimTime duration = 0;         // 0 = the controller's default_duration
  // kAttack:
  AttackStep attack{};
};

/// The whole declarative scenario. Field defaults are the canonical
/// defaults of the structs they configure, so a minimal file is a valid
/// small scenario.
struct ScenarioSpec {
  std::string name = "unnamed";
  std::uint64_t seed = 1;
  WorldKind world = WorldKind::kSystem;
  SimTime drain = 60 * kSecond;
  SimTime channel_latency = 20 * kMillisecond;

  TopologyKind topology = TopologyKind::kSynthetic;
  SyntheticConfig synthetic{.num_ases = 64, .num_prefixes = 640,
                            .seed = 20121011};
  std::vector<RpkiEntry> rpki;

  DeploymentStrategy strategy = DeploymentStrategy::kOptimal;
  std::size_t deploy_count = 0;
  std::uint64_t deploy_seed = 0;
  std::vector<DeployEntry> deploys;

  ControllerConfig controller{};      // as/name/seed overridden per deploy
  ReliabilityConfig reliability{};
  FaultPlan fault{};
  EngineConfig engine{};
  ScaleConfig scale{};

  std::vector<ScheduleStep> schedule;
  std::vector<std::string> checks;
  std::string expect_violation;
};

/// Invariant vocabulary shared by the `check` / `expect_violation` spec
/// keys, the fuzz harness, and scenario_replay. The parser rejects names
/// outside this list so a typo cannot silently skip a check.
namespace invariants {
inline constexpr std::string_view kRoundTrip = "round_trip";
inline constexpr std::string_view kOrphanFreedom = "orphan_freedom";
inline constexpr std::string_view kNoDeliveryFailures = "no_delivery_failures";
inline constexpr std::string_view kSerialBatchEquivalence =
    "serial_batch_equivalence";
inline constexpr std::string_view kRetransmitBound = "retransmit_bound";
/// Deliberately falsifiable (floods through partial deployments deliver):
/// the injection target that proves the shrink loop works end to end.
inline constexpr std::string_view kNoAttackDelivered = "no_attack_delivered";
}  // namespace invariants

[[nodiscard]] const std::vector<std::string>& known_invariants();
[[nodiscard]] bool is_known_invariant(std::string_view name);

/// Parses and validates a scenario document. Errors carry "line N: ..."
/// messages; unknown keys, malformed values, and out-of-range settings are
/// all rejected (no silent defaults for typos).
[[nodiscard]] Result<ScenarioSpec> parse_scenario(std::string_view text);

/// Reads `path` and parses it.
[[nodiscard]] Result<ScenarioSpec> load_scenario(const std::string& path);

/// The canonical text form: every field serialized, stable ordering, stable
/// number formatting. parse(serialize(s)) == s and
/// serialize(parse(text)) == serialize(parse(serialize(parse(text)))).
[[nodiscard]] std::string serialize_scenario(const ScenarioSpec& spec);

/// Writes serialize_scenario(spec) to `path`; false when not writable.
bool save_scenario(const ScenarioSpec& spec, const std::string& path);

/// FNV-1a 64-bit over the canonical serialized form — the identity stamped
/// into bench JSON labels ("scenario_hash") and repro filenames.
[[nodiscard]] std::uint64_t scenario_hash(const ScenarioSpec& spec);

/// Formats a SimTime with the largest evenly-dividing unit (e.g. "70s",
/// "50ms"); parse_time inverts it. Exposed for harness output.
[[nodiscard]] std::string format_time(SimTime t);

}  // namespace discs::scenario

// Property-based fuzzing over the scenario DSL: mutate a base spec from a
// root seed, run each mutant, evaluate its invariants, and greedily shrink
// the first failure to a minimal .scn repro.
//
// The pipeline is fully deterministic — same base + same FuzzConfig.seed
// replays the identical mutation sequence, so a CI failure reproduces
// locally from just the seed. The shrunk spec is stamped with
// `expect_violation <name>`, which flips scenario_replay's exit-code
// contract: the replay succeeds iff the recorded violation still fires,
// turning checked-in repros into regression tests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "scenario/spec.hpp"

namespace discs::scenario {

/// One failed invariant. `invariant` is a name from the invariants
/// vocabulary, or "error" when the run itself threw (also shrinkable).
struct InvariantViolation {
  std::string invariant;
  std::string detail;
};

struct CheckResult {
  std::vector<InvariantViolation> violations;
  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Runs `spec` and evaluates its `check` lines plus `expect_violation` (the
/// union). round_trip is syntactic (no world); the rest fold the
/// ScenarioOutcome; serial_batch_equivalence runs the spec twice (one
/// packet per send_batch call vs. 256-packet chunks) and compares the
/// attack reports, pinning chunking invariance.
/// Exceptions from the runner surface as an "error" violation rather than
/// propagating, so the fuzz loop can shrink crashes too.
[[nodiscard]] CheckResult check_scenario(const ScenarioSpec& spec);

/// Draws a structurally valid mutant of `base`: 1–3 mutations from a menu
/// of seed/topology/deployment/fault tweaks and schedule extensions.
/// Invocation durations are capped so orphan_freedom stays decidable within
/// the drain window; topology sizes are capped so mutants stay cheap.
[[nodiscard]] ScenarioSpec mutate_scenario(const ScenarioSpec& base,
                                           Xoshiro256& rng);

/// Greedy shrink to fixed point: drop schedule steps and explicit deploys,
/// halve packet counts / topology sizes / deployment, zero the fault plan —
/// keeping a candidate only when `invariant` still fails. `steps`, when
/// non-null, receives the number of accepted reductions.
[[nodiscard]] ScenarioSpec shrink_scenario(const ScenarioSpec& failing,
                                           const std::string& invariant,
                                           std::size_t* steps = nullptr);

struct FuzzConfig {
  std::uint64_t seed = 1;
  std::size_t iterations = 50;
  /// Invariant injected into every mutant's checks (e.g.
  /// no_attack_delivered, the deliberately falsifiable one that proves the
  /// shrink loop works end to end). Empty = only the base spec's checks.
  std::string inject;
};

struct FuzzResult {
  std::size_t executed = 0;
  bool found = false;
  ScenarioSpec failing;  // first failing mutant, unshrunk
  ScenarioSpec shrunk;   // minimal repro (expect_violation stamped)
  InvariantViolation violation;
  std::size_t shrink_steps = 0;
};

/// The fuzz loop. `progress`, when set, receives one line per iteration /
/// shrink milestone (the CLI wires this to stderr).
[[nodiscard]] FuzzResult fuzz_scenarios(
    const ScenarioSpec& base, const FuzzConfig& config,
    const std::function<void(const std::string&)>& progress = {});

}  // namespace discs::scenario

// The four benchmark workloads. Each sets up its inputs from the run seed
// (kSetupReps times, untimed work outside setup), drives the library through
// its public entry points for the run's seconds, checks the outputs against
// its oracle, and reports the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run).
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

/// Faults the tests inject to prove each oracle fires on the bug it guards.
enum class Fault {
  kNone,
  kFlipPeerVerifyKey,  // stamp_soak: the re-verifying peer holds a wrong key
  kCorruptSealedPfx2as,  // stamp_soak: sealed table disagrees with the trie
  kRekeyWithoutGrace,  // verify_churn: re-keys drop the key still in use
  kWrongVerifyKeyAtVictim,  // system_mix: a victim verifies with a wrong key
  kDetachPeerBeforeInvoke,  // control_mesh: one peer leaves the channel
};

Outcome run_stamp_soak(const RunConfig& config, Fault fault = Fault::kNone);
Outcome run_verify_churn(const RunConfig& config, Fault fault = Fault::kNone);
Outcome run_system_mix(const RunConfig& config, Fault fault = Fault::kNone);
Outcome run_control_mesh(const RunConfig& config, Fault fault = Fault::kNone);

}  // namespace perfbench

// ScenarioRunner — turns a ScenarioSpec into a live world and replays its
// schedule through the event loop.
//
// Two world shapes, one driver:
//  * system worlds assemble a full DiscsSystem (synthetic internet or an
//    explicit RPKI table, BGP Ad flooding, the per-DAS data-plane engines)
//    and run attack steps through send_batch, one packet per call or in
//    chunks (AttackStep::batch);
//  * control worlds assemble bare controllers over a ConConNetwork — the
//    chaos fixture — with per-controller seeds pinned by the spec, so the
//    PR 4 convergence assertions replay bit-for-bit.
//
// Harnesses that need to assert between phases run the schedule in slices
// with run_to_checkpoint("name"); batch consumers call run() and read the
// ScenarioOutcome, whose to_string() is canonical text — two runs of the
// same spec produce byte-identical outcomes (the determinism test pins
// this).
//
// Eval harnesses (bench_fig6/bench_fig7) use the runner without building a
// world at all: dataset() and deployment_order() expose the spec's topology
// and strategy sections for closed-form curve machinery.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/discs_system.hpp"
#include "eval/deployment.hpp"
#include "scenario/spec.hpp"

namespace discs::scenario {

/// Everything a finished run folds down to. All fields are deterministic
/// functions of (spec, seed); to_string() is the canonical byte form the
/// determinism test and the fuzz invariants compare.
struct ScenarioOutcome {
  std::vector<AttackReport> attacks;  // one per attack step, schedule order
  SimTime end_time = 0;
  std::size_t deployed = 0;
  std::size_t residual_windows = 0;  // function windows alive after drain
  ChannelStats channel;
  FaultStats faults;
  ReliabilityStats reliability;  // summed over controllers
  Controller::Stats control;     // summed over controllers

  [[nodiscard]] std::string to_string() const;
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioSpec spec);
  ~ScenarioRunner();

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  /// Assembles the world (idempotent; run paths call it lazily). Throws
  /// std::runtime_error when the spec names an AS the topology cannot
  /// satisfy (e.g. deploying an AS that owns no prefixes).
  void build();

  /// Executes schedule steps up to and including `checkpoint`. Returns
  /// false (having executed everything) when no such checkpoint remains.
  bool run_to_checkpoint(const std::string& checkpoint);

  /// Executes the remaining schedule, drains for spec.drain, and snapshots
  /// the outcome. Idempotent once finished.
  const ScenarioOutcome& run();

  // ---- world access (valid after build()) ----

  [[nodiscard]] EventLoop& loop();
  [[nodiscard]] ConConNetwork& net();
  /// Deployed controllers in deployment order.
  [[nodiscard]] const std::vector<Controller*>& controllers() const {
    return controllers_;
  }
  [[nodiscard]] Controller* controller(AsNumber as);
  /// The DiscsSystem of a system world; nullptr for control worlds.
  [[nodiscard]] DiscsSystem* system() { return system_.get(); }

  /// Function-table windows currently live across every controller (the
  /// orphan-freedom invariant wants 0 after the drain).
  [[nodiscard]] std::size_t total_windows() const;

  // ---- eval access (usable without build()) ----

  /// The dataset the spec's topology section describes (generated once).
  [[nodiscard]] const InternetDataset& dataset();

  /// The spec-selected deployment order over dataset() (indices into
  /// as_numbers()), honouring strategy + deploy.seed.
  [[nodiscard]] std::vector<std::size_t> deployment_order();

  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }

 private:
  /// Executes the next schedule step; false when exhausted.
  bool run_step();
  void advance_to(SimTime when);
  void finalize();

  /// Resolves an (as, index) reference to a live controller.
  Controller& resolve_controller(AsNumber as, int index);
  /// Resolves attack endpoints: victim defaults to the first deployed AS,
  /// agent to the largest AS outside the deployment.
  AsNumber resolve_attack_as(AsNumber as, int index, bool victim);

  void deploy_control_as(AsNumber as, std::uint64_t seed);
  void deploy_system_as(AsNumber as);

  /// Builds the dataset the topology section describes (datasets are
  /// move-only; system worlds move it into the DiscsSystem).
  [[nodiscard]] InternetDataset make_dataset() const;

  ScenarioSpec spec_;
  std::optional<InternetDataset> dataset_;

  // Control worlds own their loop/net; system worlds borrow the system's.
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<ConConNetwork> net_;
  std::vector<std::unique_ptr<Controller>> owned_controllers_;
  std::unique_ptr<DiscsSystem> system_;
  std::vector<Controller*> controllers_;
  std::vector<AsNumber> deployed_order_;

  bool built_ = false;
  bool finished_ = false;
  std::size_t next_step_ = 0;
  ScenarioOutcome outcome_;
};

}  // namespace discs::scenario

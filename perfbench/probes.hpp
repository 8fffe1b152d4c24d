// Per-layer probes for the traced run. Each probe times one layer's public
// entry points from outside, on the workload's own tables, packets and
// worlds, and stores the result under its kPerLayer name.
//
// Three probe families:
//  * probe_dataplane  — crypto / lpm / tuple / router / engine / txn / seal /
//                       stream / sampler / origin_of / path, over a stamping
//                       side and a verifying side and a packet sample.
//  * probe_facade     — DiscsSystem::send_batch against the same batches sent
//                       straight through the source and destination engines,
//                       plus the con-con send cost at the world's session
//                       count.
//  * run_invocation_round — victims invoke, the EventLoop is stepped from
//                       here and every peer's out-table is probed until the
//                       function lands: time-to-protection (simulated) and
//                       wall time to quiescence.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "attack/stream.hpp"
#include "common.hpp"
#include "core/discs_system.hpp"

namespace perfbench {

/// A stamping side, a verifying side, and pristine packets leaving the
/// stamping AS toward the verifying AS.
struct DataplaneProbeInputs {
  const discs::InternetDataset* dataset = nullptr;
  discs::DataPlaneEngine* out_engine = nullptr;
  const discs::RouterTables* out_tables = nullptr;
  discs::AsNumber out_as = discs::kNoAs;
  discs::DataPlaneEngine* in_engine = nullptr;
  const discs::RouterTables* in_tables = nullptr;
  discs::AsNumber in_as = discs::kNoAs;
  std::vector<discs::BatchPacket> outbound;
  /// The workload's own generator; a 64k-flow stream between the two ASes
  /// is built when null.
  const discs::FlowStream* stream = nullptr;
  discs::SimTime now = 0;
  std::uint64_t seed = 1;
  /// Transaction apply latencies the workload itself measured, per kind
  /// (ms); when empty the probe applies verdict-neutral transactions.
  std::vector<double> apply_ms_key, apply_ms_function, apply_ms_pfx2as;
};

void probe_dataplane(DataplaneProbeInputs& in, Outcome& out);

/// The engine worker-protocol counters per batch between two snapshots
/// (all zero for single-shard engines, which bypass the rings).
void report_worker_stats(const discs::DataPlaneEngine::WorkerStats& before,
                         const discs::DataPlaneEngine::WorkerStats& after,
                         std::size_t batches, Outcome& out);

/// Pre-generated send_batch work: one origin AS per batch.
struct SystemBatch {
  discs::AsNumber origin = discs::kNoAs;
  discs::PacketBatch packets;
  std::vector<bool> attack;  // aligned with packets: spoofed vs legitimate
};

/// Sampler-built batches mixing legitimate, d-DDoS and s-DDoS packets from
/// `origins` (one per batch, cycled) toward many destinations; attack
/// packets target `victims`.
[[nodiscard]] std::vector<SystemBatch> make_system_batches(
    discs::TrafficSampler& sampler, const discs::InternetDataset& dataset,
    const std::vector<discs::AsNumber>& origins,
    const std::vector<discs::AsNumber>& victims, std::size_t batches,
    std::size_t batch_size);

/// Facade probes (system.*, concon.send_ns, spoof_filtered_frac) over
/// `batches` on `system`.
void probe_facade(discs::DiscsSystem& system,
                  const std::vector<SystemBatch>& batches, Outcome& out);

/// Groups consecutive control-plane units — EventLoop steps and the
/// benchmark's own calls into Controllers — into timed calls of `per_call`
/// units each: a closed-loop call is `per_call` units back to back, its
/// service time their summed duration, its operations the con-con messages
/// they sent.
class StepBatcher {
 public:
  StepBatcher(LoopStats& st, const discs::ConConNetwork& channel,
              std::size_t per_call)
      : st_(&st), channel_(&channel), per_call_(per_call) {}

  /// Runs and times one unit; returns its wall nanoseconds.
  template <typename Fn>
  double run(Fn&& fn) {
    const std::uint64_t before = channel_->stats().messages;
    const auto t0 = Clock::now();
    if (units_ == 0) lag_ns_ = ns_between(previous_end_, t0);
    fn();
    previous_end_ = Clock::now();
    const double ns = ns_between(t0, previous_end_);
    service_ns_ += ns;
    ops_ += static_cast<double>(channel_->stats().messages - before);
    if (++units_ == per_call_) flush();
    return ns;
  }
  /// Records the units accumulated so far as one (shorter) call.
  void flush() {
    if (units_ == 0) return;
    st_->record(service_ns_, service_ns_, lag_ns_, ops_);
    units_ = 0;
    service_ns_ = ops_ = 0;
  }

 private:
  LoopStats* st_;
  const discs::ConConNetwork* channel_;
  std::size_t per_call_;
  std::size_t units_ = 0;
  double service_ns_ = 0, lag_ns_ = 0, ops_ = 0;
  Clock::time_point previous_end_ = Clock::now();
};

/// One invocation round observed from outside.
struct RoundResult {
  std::vector<double> ttp_ms;  // simulated, one per (victim, peer)
  double converge_s = 0;       // wall time to quiescence
  std::uint64_t events = 0;    // EventLoop steps taken
  double step_ns = 0;          // wall time inside EventLoop::step
  std::uint64_t messages = 0;  // con-con messages sent during the round
  std::uint64_t expected = 0;  // (victim, peer) pairs asked
  std::uint64_t landed = 0;    // ... whose function was observed
};

/// Victims invoke DP+CDP for their first prefix; steps `loop` until every
/// peer's Out-Dst lookup for that prefix returns the function, then until
/// no event is due within `horizon` of simulated time. Each invoke and step
/// runs through `batcher` when given.
[[nodiscard]] RoundResult run_invocation_round(
    discs::EventLoop& loop, const discs::ConConNetwork& channel,
    const std::vector<discs::Controller*>& victims,
    const std::vector<const discs::Controller*>& peers,
    discs::SimTime duration, discs::SimTime horizon, StepBatcher* batcher,
    Tracer* tracer);

/// The round's oracle: every asked peer saw the function, and no controller
/// gave up on a con-con message.
void check_round(const RoundResult& round,
                 const std::vector<const discs::Controller*>& controllers,
                 Outcome& out);

/// Fills control.* / eventloop.* from a round and concon.* / reliable.* /
/// con_rou.* from the world's channel and controllers.
void report_control(const RoundResult& round, const discs::ConConNetwork& channel,
                    const std::vector<const discs::Controller*>& controllers,
                    Outcome& out);

/// A DiscsSystem over `dataset` with `dases` deployed and settled
/// (con-con latency jittered from `seed`): the facade and control-plane
/// world for workloads that have none of their own.
[[nodiscard]] std::unique_ptr<discs::DiscsSystem> make_facade_twin(
    discs::InternetDataset dataset,
    const std::vector<discs::AsNumber>& dases, std::uint64_t seed);

/// Times ConConNetwork::send from `from` to an unattached AS at the
/// channel's current session count, then drains the deliveries.
[[nodiscard]] double probe_concon_send_ns(discs::ConConNetwork& channel,
                                          discs::EventLoop& loop,
                                          discs::AsNumber from);

/// The facade + control probes on a twin of a world that has neither: the
/// internet regenerated from `internet`, `victim` invokes, its peers are
/// the other `dases`.
void probe_twin(const discs::SyntheticConfig& internet,
                const std::vector<discs::AsNumber>& dases,
                discs::AsNumber victim, std::uint64_t seed, Outcome& out);

}  // namespace perfbench

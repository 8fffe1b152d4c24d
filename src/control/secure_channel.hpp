// The con-con channel (paper §IV-B): SSL-secured controller-to-controller
// messaging, simulated as a latency-delayed bus over the event loop with
// TLS cost accounting (handshakes, session-cache hits, bytes, concurrent
// session memory) feeding the §VI-C controller cost model.
//
// Confidentiality/integrity are assumed (the simulator does not model an
// on-path adversary inside the channel; §VI-E treats BGP security
// separately), so "SSL" here is the cost model plus delivery. Delivery is
// *not* assumed reliable: a seeded FaultPlan can drop, duplicate, reorder,
// jitter, and partition messages deterministically, modelling the lossy
// inter-AS paths real controller traffic rides. The default FaultPlan is
// lossless and reproduces exactly-once fixed-latency delivery bit-for-bit
// (no RNG draws, identical scheduling, identical ChannelStats).
//
// A send costs O(1) and allocates nothing in steady state: the TLS session
// cache is a hash map keyed by the packed controller pair, the live-session
// count behind peak_concurrent_sessions comes from a sorted vector of
// expiry buckets (expiries are appended in time order, so no tree), and an
// in-flight envelope waits in a reusable slot while its delivery event
// carries only the slot number.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "control/messages.hpp"
#include "simkit/event_loop.hpp"
#include "telemetry/metrics.hpp"
#include "transport/transport.hpp"

namespace discs {

struct ChannelStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;           // payload + record overhead
  std::uint64_t handshakes = 0;      // full TLS handshakes performed
  std::uint64_t session_resumptions = 0;  // session-cache hits
  std::size_t peak_concurrent_sessions = 0;
  std::uint64_t sessions_expired = 0;  // cache entries swept after the TTL

  friend bool operator==(const ChannelStats&, const ChannelStats&) = default;
};

/// Cost constants from the paper's cited benchmarks (§VI-C1).
struct ChannelCostModel {
  std::size_t record_overhead_bytes = 29;      // TLS record + MAC overhead
  std::size_t handshake_bytes = 1500;          // certs + key exchange
  std::size_t per_session_memory_bytes = 10 * 1024;  // "less than 10kB" [39]
  SimTime handshake_latency = 2 * kMillisecond;
  SimTime session_ttl = 10 * kMinute;          // session cache lifetime
};

/// Deterministic, seeded fault model for the con-con channel. All faults
/// are decided at send time from one RNG stream, so a given (plan, message
/// sequence) replays identically. The default-constructed plan is lossless
/// and draws nothing from the RNG.
struct FaultPlan {
  /// Each transmitted copy is independently lost with this probability.
  double drop_probability = 0.0;
  /// An extra copy of the message is transmitted with this probability
  /// (both copies are then subject to drop/jitter independently).
  double duplicate_probability = 0.0;
  /// Uniform extra queueing delay in [0, reorder_window] drawn once per
  /// message: messages sent within the window may overtake each other.
  SimTime reorder_window = 0;
  /// Uniform extra path latency in [0, latency_jitter] drawn per copy
  /// (duplicates take independently jittered paths).
  SimTime latency_jitter = 0;
  /// Total outage between two ASes (both directions) during [start, end).
  struct Partition {
    AsNumber a = kNoAs;
    AsNumber b = kNoAs;
    SimTime start = 0;
    SimTime end = 0;
  };
  std::vector<Partition> partitions;
  std::uint64_t seed = 0x5eed;

  [[nodiscard]] bool lossless() const {
    return drop_probability <= 0.0 && duplicate_probability <= 0.0 &&
           reorder_window == 0 && latency_jitter == 0 && partitions.empty();
  }
};

/// Counters for the faults actually injected (all zero under a lossless
/// plan — pinned by the chaos suite's equivalence check).
struct FaultStats {
  std::uint64_t dropped = 0;          // copies lost to drop_probability
  std::uint64_t duplicated = 0;       // extra copies transmitted
  std::uint64_t partition_drops = 0;  // messages sent into a partition

  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

/// Star-free full-mesh message bus: any registered controller can message
/// any other by AS number. Delivery is asynchronous via the event loop.
/// This is the simulated Transport backend — the default everywhere.
class ConConNetwork : public Transport {
 public:
  using Handler = Transport::Handler;

  ConConNetwork(EventLoop& loop, SimTime latency = 50 * kMillisecond,
                ChannelCostModel cost = {})
      : loop_(&loop), latency_(latency), cost_(cost) {}
  ~ConConNetwork() override { unbind_metrics(); }

  ConConNetwork(const ConConNetwork&) = delete;
  ConConNetwork& operator=(const ConConNetwork&) = delete;

  /// Registers the controller of `as`; replaces any previous handler.
  void attach(AsNumber as, Handler handler) override {
    handlers_[as] = std::move(handler);
  }
  void detach(AsNumber as) override { handlers_.erase(as); }

  /// Installs the fault model (resets its RNG stream from plan.seed).
  void set_fault_plan(FaultPlan plan);
  [[nodiscard]] const FaultPlan& fault_plan() const { return fault_plan_; }

  /// Sends a message; silently dropped when the destination is not attached
  /// (the sender only learns through its own timeouts, like real networks).
  void send(AsNumber from, AsNumber to, ControlMessage message) {
    send(Envelope{from, to, std::move(message)});
  }
  /// Full-envelope variant used by the reliability layer (sequence number
  /// and ack flag travel with the message; retransmissions reuse them).
  void send(Envelope envelope) override;

  /// Simulated time: the event loop's clock.
  [[nodiscard]] std::uint64_t clock_us() const override {
    return loop_->now();
  }

  [[nodiscard]] const ChannelStats& stats() const { return stats_; }
  [[nodiscard]] const FaultStats& fault_stats() const { return fault_stats_; }

  /// Registers the channel's telemetry into `registry`: a native histogram
  /// of per-copy delivery delay (milliseconds, handshake latency and fault
  /// jitter included) plus a pull-mode view over ChannelStats, FaultStats
  /// and the session-cache size. Re-binding replaces; the destructor
  /// unbinds.
  void bind_metrics(telemetry::MetricsRegistry& registry,
                    telemetry::Labels labels = {});
  void unbind_metrics();

  /// Number of currently live TLS sessions (cache entries not yet expired),
  /// counted by a scan of every cache entry: O(pairs), a query for tests
  /// and metrics. send() never calls it; it keeps an exact running count.
  [[nodiscard]] std::size_t live_sessions(SimTime now) const;
  /// Session-cache entries held (live + not yet swept); bounded by the
  /// periodic expiry sweep, unlike the pre-sweep cache that grew forever.
  [[nodiscard]] std::size_t session_cache_size() const {
    return session_expiry_.size();
  }

 private:
  /// Session cache key: the unordered controller pair, packed low-high.
  static std::uint64_t pair_key(AsNumber a, AsNumber b) {
    if (b < a) std::swap(a, b);
    return (std::uint64_t{a} << 32) | b;
  }

  /// True when `from` <-> `to` sits inside an active partition interval.
  [[nodiscard]] bool partitioned(AsNumber from, AsNumber to, SimTime now) const;

  /// Drops session-cache entries that expired at or before `now` and counts
  /// them in sessions_expired. Runs at most once per TTL period, so stale
  /// entries linger < 2 TTLs and the cache stays bounded by the pairs seen
  /// in the last two TTLs; the O(cache) scan runs once per period, not per
  /// send.
  void sweep_sessions(SimTime now);

  /// Live-session index operations (see live_by_expiry_).
  void live_add(SimTime expiry);
  void live_remove(SimTime expiry);
  /// Pops every expiry bucket at or before `now` off the live count.
  void expire_live(SimTime now);

  /// Schedules one delivery attempt of `envelope` after `delay`.
  void schedule_delivery(Envelope envelope, SimTime delay);
  /// Hands the envelope parked in `slot` to its destination's handler.
  void deliver(std::uint32_t slot);

  EventLoop* loop_;
  SimTime latency_;
  ChannelCostModel cost_;
  std::unordered_map<AsNumber, Handler> handlers_;
  std::unordered_map<std::uint64_t, SimTime> session_expiry_;  // by pair_key
  /// Exact live-session index: (expiry, cache entries expiring then that
  /// have not been popped), with live_ their sum, so the peak is read in
  /// O(1) instead of by scanning session_expiry_. Every expiry is
  /// now + session_ttl, so buckets arrive in non-decreasing order and the
  /// vector stays sorted by appending: a resumption finds its old bucket
  /// by binary search and decrements it, expire_live advances
  /// live_head_ past the popped prefix. Emptied buckets stay in place until
  /// popped and dead buckets are compacted away once they are half the
  /// vector, so the index is bounded by twice the live pairs.
  struct ExpiryBucket {
    SimTime expiry;
    std::size_t count;
  };
  std::vector<ExpiryBucket> live_by_expiry_;
  std::size_t live_head_ = 0;     // buckets before it are popped
  std::size_t empty_buckets_ = 0;  // count == 0, at or after live_head_
  std::size_t live_ = 0;
  /// Envelopes in flight, each parked in a slot until its delivery event
  /// fires, so the event's closure holds only (this, slot) and fits
  /// std::function's inline buffer.
  std::vector<Envelope> in_flight_;
  std::vector<std::uint32_t> free_in_flight_;
  SimTime next_session_sweep_ = 0;
  ChannelStats stats_;
  FaultPlan fault_plan_;
  bool lossless_ = true;
  Xoshiro256 fault_rng_{FaultPlan{}.seed};
  FaultStats fault_stats_;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::MetricsRegistry::CollectorId metrics_collector_ = 0;
  telemetry::Histogram* delivery_delay_ = nullptr;
};

}  // namespace discs

#include "control/secure_channel.hpp"

#include <algorithm>
#include <array>

#include "control/codec.hpp"

namespace discs {

std::size_t wire_size(const ControlMessage& message) {
  // Single source of truth: the real codec's field layout (header endpoints
  // do not affect the size — the common header is fixed at 24 bytes).
  return encoded_size(message);
}

void ConConNetwork::set_fault_plan(FaultPlan plan) {
  fault_plan_ = std::move(plan);
  lossless_ = fault_plan_.lossless();
  fault_rng_ = Xoshiro256{fault_plan_.seed};
  fault_stats_ = {};
}

void ConConNetwork::send(Envelope envelope) {
  const SimTime now = loop_->now();
  sweep_sessions(now);

  // TLS session management: resume when the cache entry is still fresh,
  // otherwise a full handshake (cost + extra latency).
  const SimTime expiry = now + cost_.session_ttl;
  SimTime extra_latency = 0;
  const auto [it, inserted] =
      session_expiry_.try_emplace(pair_key(envelope.from, envelope.to), expiry);
  if (!inserted && it->second > now) {
    ++stats_.session_resumptions;
    live_remove(it->second);
  } else {
    // A new pair, or one whose entry expired (its live count, if not yet
    // popped, leaves with its old bucket below).
    ++stats_.handshakes;
    stats_.bytes += cost_.handshake_bytes;
    extra_latency = cost_.handshake_latency;
    ++live_;
  }
  it->second = expiry;
  live_add(expiry);
  // Popped after the update, so an entry expiring exactly now (a zero TTL)
  // is not live, as in live_sessions(now).
  expire_live(now);
  stats_.peak_concurrent_sessions =
      std::max(stats_.peak_concurrent_sessions, live_);

  // Accounting happens on the send side: the sender pays for bytes it puts
  // on the wire whether or not the fault model delivers them.
  ++stats_.messages;
  stats_.bytes += wire_size(envelope.message) + cost_.record_overhead_bytes;

  if (lossless_) {
    // Fast path: exactly-once, fixed latency, zero RNG draws — keeps
    // FaultPlan{} byte-for-byte equivalent to the pre-fault channel.
    schedule_delivery(std::move(envelope), latency_ + extra_latency);
    return;
  }

  if (partitioned(envelope.from, envelope.to, now)) {
    ++fault_stats_.partition_drops;
    return;
  }

  // Draw order is fixed (duplicate, then per-copy drop, then per-copy
  // jitter, then one reorder delay) so a plan replays identically.
  int copies = 1;
  if (fault_plan_.duplicate_probability > 0.0 &&
      fault_rng_.chance(fault_plan_.duplicate_probability)) {
    ++copies;
    ++fault_stats_.duplicated;
  }
  SimTime reorder_delay = 0;
  std::array<SimTime, 2> copy_delays{};
  std::size_t delivered = 0;
  for (int c = 0; c < copies; ++c) {
    bool dropped = false;
    if (fault_plan_.drop_probability > 0.0 &&
        fault_rng_.chance(fault_plan_.drop_probability)) {
      dropped = true;
      ++fault_stats_.dropped;
    }
    SimTime jitter = 0;
    if (fault_plan_.latency_jitter > 0) {
      jitter = fault_rng_.below(fault_plan_.latency_jitter + 1);
    }
    if (!dropped) copy_delays[delivered++] = jitter;
  }
  if (fault_plan_.reorder_window > 0) {
    reorder_delay = fault_rng_.below(fault_plan_.reorder_window + 1);
  }
  for (std::size_t c = 0; c < delivered; ++c) {
    Envelope copy = (c + 1 == delivered) ? std::move(envelope) : envelope;
    schedule_delivery(std::move(copy),
                      latency_ + extra_latency + copy_delays[c] + reorder_delay);
  }
}

void ConConNetwork::schedule_delivery(Envelope envelope, SimTime delay) {
  if (delivery_delay_ != nullptr) {
    delivery_delay_->record(static_cast<double>(delay) /
                            static_cast<double>(kMillisecond));
  }
  std::uint32_t slot;
  if (free_in_flight_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.push_back(std::move(envelope));
  } else {
    slot = free_in_flight_.back();
    free_in_flight_.pop_back();
    in_flight_[slot] = std::move(envelope);
  }
  loop_->schedule(delay, [this, slot] { deliver(slot); });
}

void ConConNetwork::deliver(std::uint32_t slot) {
  // Moved out before the handler runs: it may send, and a send may grow
  // in_flight_ or reuse this slot.
  const Envelope envelope = std::move(in_flight_[slot]);
  free_in_flight_.push_back(slot);
  const auto handler = handlers_.find(envelope.to);
  if (handler != handlers_.end()) handler->second(envelope);
}

bool ConConNetwork::partitioned(AsNumber from, AsNumber to, SimTime now) const {
  for (const auto& p : fault_plan_.partitions) {
    const bool matches = (p.a == from && p.b == to) || (p.a == to && p.b == from);
    if (matches && now >= p.start && now < p.end) return true;
  }
  return false;
}

void ConConNetwork::sweep_sessions(SimTime now) {
  if (now < next_session_sweep_) return;
  next_session_sweep_ = now + cost_.session_ttl;
  for (auto it = session_expiry_.begin(); it != session_expiry_.end();) {
    if (it->second <= now) {
      ++stats_.sessions_expired;
      it = session_expiry_.erase(it);
    } else {
      ++it;
    }
  }
}

void ConConNetwork::live_add(SimTime expiry) {
  // Expiries are now + ttl with now non-decreasing: this one is >= every
  // bucket, so it joins the last bucket or appends a new one.
  if (live_head_ < live_by_expiry_.size() &&
      live_by_expiry_.back().expiry == expiry) {
    if (live_by_expiry_.back().count++ == 0) --empty_buckets_;
    return;
  }
  live_by_expiry_.push_back({expiry, 1});
}

void ConConNetwork::live_remove(SimTime expiry) {
  // The entry is live (expiry > now), so its bucket has not been popped.
  const auto bucket = std::lower_bound(
      live_by_expiry_.begin() + static_cast<std::ptrdiff_t>(live_head_),
      live_by_expiry_.end(), expiry,
      [](const ExpiryBucket& b, SimTime t) { return b.expiry < t; });
  if (--bucket->count == 0) ++empty_buckets_;
}

void ConConNetwork::expire_live(SimTime now) {
  for (; live_head_ < live_by_expiry_.size() &&
         live_by_expiry_[live_head_].expiry <= now;
       ++live_head_) {
    const std::size_t count = live_by_expiry_[live_head_].count;
    live_ -= count;
    if (count == 0) --empty_buckets_;
  }
  // Compact once popped and emptied buckets are half the vector: the pass
  // is paid for by the pops and decrements that made them dead.
  const std::size_t dead = live_head_ + empty_buckets_;
  if (2 * dead > live_by_expiry_.size()) {
    auto out = live_by_expiry_.begin();
    for (auto b = out + static_cast<std::ptrdiff_t>(live_head_);
         b != live_by_expiry_.end(); ++b) {
      if (b->count != 0) *out++ = *b;
    }
    live_by_expiry_.erase(out, live_by_expiry_.end());
    live_head_ = 0;
    empty_buckets_ = 0;
  }
}

std::size_t ConConNetwork::live_sessions(SimTime now) const {
  return static_cast<std::size_t>(
      std::count_if(session_expiry_.begin(), session_expiry_.end(),
                    [now](const auto& kv) { return kv.second > now; }));
}

void ConConNetwork::bind_metrics(telemetry::MetricsRegistry& registry,
                                 telemetry::Labels labels) {
  unbind_metrics();
  delivery_delay_ = &registry.histogram(
      "discs_concon_delivery_delay_ms", telemetry::Histogram::pow2_bounds(12),
      "Per-copy delivery delay in milliseconds (latency + handshake + jitter)",
      labels);
  metrics_collector_ = registry.add_collector(
      [this, labels](std::vector<telemetry::Sample>& out) {
        auto emit = [&](const char* name, double v, telemetry::MetricKind kind) {
          out.push_back({name, v, labels, kind});
        };
        using enum telemetry::MetricKind;
        emit("discs_concon_messages_total", static_cast<double>(stats_.messages),
             kCounter);
        emit("discs_concon_bytes_total", static_cast<double>(stats_.bytes),
             kCounter);
        emit("discs_concon_handshakes_total",
             static_cast<double>(stats_.handshakes), kCounter);
        emit("discs_concon_session_resumptions_total",
             static_cast<double>(stats_.session_resumptions), kCounter);
        emit("discs_concon_sessions_expired_total",
             static_cast<double>(stats_.sessions_expired), kCounter);
        emit("discs_concon_peak_concurrent_sessions",
             static_cast<double>(stats_.peak_concurrent_sessions), kGauge);
        emit("discs_concon_session_cache_size",
             static_cast<double>(session_expiry_.size()), kGauge);
        emit("discs_concon_fault_dropped_total",
             static_cast<double>(fault_stats_.dropped), kCounter);
        emit("discs_concon_fault_duplicated_total",
             static_cast<double>(fault_stats_.duplicated), kCounter);
        emit("discs_concon_fault_partition_drops_total",
             static_cast<double>(fault_stats_.partition_drops), kCounter);
      });
  metrics_ = &registry;
}

void ConConNetwork::unbind_metrics() {
  if (metrics_ != nullptr) metrics_->remove_collector(metrics_collector_);
  metrics_ = nullptr;
  metrics_collector_ = 0;
  delivery_delay_ = nullptr;
}

}  // namespace discs

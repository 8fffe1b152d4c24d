#include "control/reliable.hpp"

#include <algorithm>

#include "control/codec.hpp"

namespace discs {
namespace {

/// Values of the `type` label, in ControlMessage alternative order.
constexpr std::array<const char*, std::variant_size_v<ControlMessage>>
    kMessageTypeNames = {
        "peering_request",    "peering_accept",     "peering_reject",
        "key_install",        "key_install_ack",    "invocation_request",
        "invocation_accept",  "invocation_reject",  "alarm_quit",
        "peering_teardown",   "delivery_ack",       "rekey_complete",
};

}  // namespace

void ReliableLink::send_reliable(AsNumber to, ControlMessage message,
                                 AckToken token,
                                 std::optional<telemetry::TraceContext> trace) {
  if (token != AckToken::kNone) {
    // A newer send of the same kind supersedes the old one: stop
    // retransmitting a message the protocol has moved past.
    settle_token(to, token);
  }
  PeerState& peer = peers_[to];
  Envelope envelope{self_, to, std::move(message)};
  envelope.seq = ++peer.next_seq;
  envelope.ack_requested = true;
  envelope.trace = trace;

  const PendingKey key = pending_key(to, envelope.seq);
  Pending& p = pending_[key];
  p.envelope = envelope;
  p.token = token;
  p.attempts = 1;
  p.rto = config_.initial_rto;
  if (token != AckToken::kNone) {
    peer.token_seq[static_cast<std::size_t>(token)] = envelope.seq;
  }

  ++stats_.reliable_sends;
  if (spans_ != nullptr && envelope.trace) {
    spans_->wire_send(to, envelope.seq,
                      static_cast<int>(message_type(envelope.message)),
                      *envelope.trace, loop_->now(), /*attempt=*/1);
  }
  transmit(std::move(envelope));
  arm_timer(key);
}

void ReliableLink::send(AsNumber to, ControlMessage message,
                        std::optional<telemetry::TraceContext> trace) {
  Envelope envelope{self_, to, std::move(message)};
  envelope.seq = ++peers_[to].next_seq;
  envelope.trace = trace;
  if (spans_ != nullptr && envelope.trace) {
    spans_->wire_send(to, envelope.seq,
                      static_cast<int>(message_type(envelope.message)),
                      *envelope.trace, loop_->now(), /*attempt=*/1);
  }
  transmit(std::move(envelope));
}

void ReliableLink::transmit(Envelope envelope) {
  ++sent_by_type_[envelope.message.index()];
  net_->send(std::move(envelope));
}

ReceiveAction ReliableLink::on_receive(const Envelope& envelope) {
  ++received_by_type_[envelope.message.index()];
  // Every context-carrying arrival (duplicates included — the merge tool
  // takes the minimum delay over all pairs) becomes a recv record.
  if (spans_ != nullptr && envelope.trace) {
    spans_->wire_recv(envelope.from, envelope.seq,
                      static_cast<int>(message_type(envelope.message)),
                      *envelope.trace, loop_->now());
  }
  if (const auto* ack = std::get_if<DeliveryAck>(&envelope.message)) {
    ++stats_.acks_received;
    settle_seq(envelope.from, ack->acked_seq);
    return ReceiveAction::kConsumed;
  }

  if (envelope.ack_requested && envelope.seq != 0) {
    // Ack even duplicates: a retransmission usually means our previous
    // DeliveryAck was lost. DeliveryAcks are unsequenced fire-and-forget.
    ++stats_.acks_sent;
    transmit(Envelope{self_, envelope.from, DeliveryAck{envelope.seq}});
  }

  if (envelope.seq == 0) return ReceiveAction::kFresh;  // raw sender: no dedup

  PeerState& peer = peers_[envelope.from];
  if (std::holds_alternative<PeeringRequest>(envelope.message)) {
    // A peering request (re)starts the conversation. Resetting the dedup
    // state lets a restarted peer — whose counters began again at 1 —
    // get through instead of being swallowed as ancient duplicates; the
    // peering handler is idempotent, so replays of the request are safe.
    // Our own send-side counter and pending sends toward it survive.
    peer.floor = 0;
    peer.ahead.clear();
    record_seq(peer, envelope.seq);
    return ReceiveAction::kFresh;
  }
  if (!record_seq(peer, envelope.seq)) {
    ++stats_.duplicates_suppressed;
    return ReceiveAction::kDuplicate;
  }
  return ReceiveAction::kFresh;
}

bool ReliableLink::record_seq(PeerState& peer, std::uint64_t seq) {
  // In-order arrival with nothing remembered ahead: just move the floor.
  if (seq == peer.floor + 1 && peer.ahead.empty()) {
    peer.floor = seq;
    return true;
  }
  if (seq <= peer.floor || peer.ahead.contains(seq)) return false;
  peer.ahead.insert(seq);
  // Compress: pull the floor up through any now-contiguous run.
  auto it = peer.ahead.begin();
  while (it != peer.ahead.end() && *it == peer.floor + 1) {
    peer.floor = *it;
    it = peer.ahead.erase(it);
  }
  // Bound memory: beyond the window, forget the oldest gap (messages below
  // the new floor are treated as seen; with a sane window this only drops
  // seqs that were lost long ago anyway).
  while (peer.ahead.size() > config_.dedup_window) {
    peer.floor = std::max(peer.floor, *peer.ahead.begin());
    peer.ahead.erase(peer.ahead.begin());
  }
  return true;
}

void ReliableLink::settle_token(AsNumber peer, AckToken token) {
  const auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  settle_seq(peer, it->second.token_seq[static_cast<std::size_t>(token)]);
}

void ReliableLink::settle_seq(AsNumber peer, std::uint64_t seq) {
  if (seq == 0) return;
  const auto it = pending_.find(pending_key(peer, seq));
  if (it != pending_.end() && it->second.envelope.seq == seq) erase_pending(it);
}

void ReliableLink::forget_peer(AsNumber peer) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    it = key_peer(it->first) == peer ? erase_pending(it) : std::next(it);
  }
}

void ReliableLink::cancel_all() {
  for (auto& [key, p] : pending_) loop_->cancel(p.timer);
  pending_.clear();
  for (auto& [as, peer] : peers_) peer.token_seq.fill(0);
}

ReliableLink::PendingMap::iterator ReliableLink::erase_pending(
    PendingMap::iterator it) {
  const Pending& p = it->second;
  loop_->cancel(p.timer);
  if (p.token != AckToken::kNone) {
    // Only clear the token slot if it still names this seq (a superseding
    // send may have repointed it).
    auto& token_seq = peers_.find(key_peer(it->first))->second.token_seq;
    std::uint64_t& seq = token_seq[static_cast<std::size_t>(p.token)];
    if (seq == p.envelope.seq) seq = 0;
  }
  return pending_.erase(it);
}

void ReliableLink::arm_timer(PendingKey key) {
  Pending& p = pending_.at(key);
  p.timer = loop_->schedule(p.rto, [this, key] { on_timeout(key); });
}

void ReliableLink::on_timeout(PendingKey key) {
  const auto it = pending_.find(key);
  if (it == pending_.end()) return;  // settled after the timer was queued
  Pending& p = it->second;
  if (p.attempts >= config_.max_retries) {
    ++stats_.delivery_failures;
    const AsNumber peer = key_peer(key);
    const AckToken token = p.token;
    erase_pending(it);
    if (on_failure_) on_failure_(peer, token);
    return;
  }
  ++p.attempts;
  ++stats_.retransmits;
  if (backoff_level_ != nullptr) {
    backoff_level_->record(static_cast<double>(p.attempts));
  }
  if (spans_ != nullptr && p.envelope.trace) {
    spans_->wire_send(key_peer(key), p.envelope.seq,
                      static_cast<int>(message_type(p.envelope.message)),
                      *p.envelope.trace, loop_->now(), p.attempts);
  }
  p.rto = std::min(
      static_cast<SimTime>(static_cast<double>(p.rto) * config_.backoff),
      config_.max_rto);
  transmit(p.envelope);  // same seq + ack flag: receiver dedups
  arm_timer(key);
}

void ReliableLink::bind_metrics(telemetry::MetricsRegistry& registry,
                                telemetry::Labels labels) {
  unbind_metrics();
  backoff_level_ = &registry.histogram(
      "discs_reliable_backoff_level", telemetry::Histogram::pow2_bounds(6),
      "Transmission attempt number at each timer-driven retransmit", labels);
  metrics_collector_ = registry.add_collector(
      [this, labels](std::vector<telemetry::Sample>& out) {
        auto emit = [&](const char* name, double v, telemetry::MetricKind kind) {
          out.push_back({name, v, labels, kind});
        };
        using enum telemetry::MetricKind;
        emit("discs_reliable_sends_total",
             static_cast<double>(stats_.reliable_sends), kCounter);
        emit("discs_reliable_retransmits_total",
             static_cast<double>(stats_.retransmits), kCounter);
        emit("discs_reliable_delivery_failures_total",
             static_cast<double>(stats_.delivery_failures), kCounter);
        emit("discs_reliable_acks_sent_total",
             static_cast<double>(stats_.acks_sent), kCounter);
        emit("discs_reliable_acks_received_total",
             static_cast<double>(stats_.acks_received), kCounter);
        emit("discs_reliable_duplicates_suppressed_total",
             static_cast<double>(stats_.duplicates_suppressed), kCounter);
        emit("discs_reliable_in_flight", static_cast<double>(pending_.size()),
             kGauge);
        for (std::size_t t = 0; t < kMessageTypeNames.size(); ++t) {
          telemetry::Labels typed = labels;
          typed.emplace_back("type", kMessageTypeNames[t]);
          out.push_back({"discs_concon_messages_sent_total",
                         static_cast<double>(sent_by_type_[t]), typed,
                         kCounter});
          out.push_back({"discs_concon_messages_received_total",
                         static_cast<double>(received_by_type_[t]),
                         std::move(typed), kCounter});
        }
      });
  metrics_ = &registry;
}

void ReliableLink::unbind_metrics() {
  if (metrics_ != nullptr) metrics_->remove_collector(metrics_collector_);
  metrics_ = nullptr;
  metrics_collector_ = 0;
  backoff_level_ = nullptr;
}

}  // namespace discs

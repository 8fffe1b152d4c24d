// Reliability layer for the con-con channel: per-peer sequence numbering,
// link-level acknowledgements, retransmission with exponential backoff, and
// receive-side deduplication. One ReliableLink fronts each controller's
// view of the (possibly lossy) Transport — the simulated ConConNetwork or
// the real UdpTransport; the retransmit/backoff logic is shared verbatim
// between backends because this layer only ever sees the Transport seam.
//
// Protocol:
//   * Every envelope a link sends carries a per-(self -> peer) monotonically
//     increasing sequence number. Retransmissions reuse the number, so the
//     receiver can suppress duplicates. Sequence 0 is reserved for raw
//     senders that bypass the link (legacy tests, byzantine actors); it is
//     never deduplicated or acknowledged.
//   * A reliable send sets the envelope's ack_requested flag and arms a
//     retransmit timer. The receiving link answers any ack-requested
//     envelope with a DeliveryAck{seq} — including for suppressed
//     duplicates, since a duplicate usually means the first ack was lost.
//     DeliveryAcks are consumed by the link and never themselves
//     acknowledged (no ack-of-ack recursion).
//   * Natural protocol responses settle retransmission early: the
//     controller calls settle_token() when, e.g., a KeyInstallAck arrives
//     before the DeliveryAck for the KeyInstall it answers.
//   * After max_retries unacknowledged transmissions the link gives up,
//     bumps delivery_failures, and reports the loss to the owner's failure
//     callback (which e.g. rolls a half-open peering back to kDiscovered).
//
// State: one hash-map node per peer holds the send-side sequence counter,
// the receive-side dedup window, and the pending seq each AckToken names;
// pending sends live in a flat hash map keyed by a packed (peer, seq), so
// a retransmit timer's closure is 16 bytes and never allocates. In-order
// arrival (the common case on a healthy path) moves the dedup floor
// without touching the out-of-order set.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <set>
#include <unordered_map>
#include <utility>
#include <variant>

#include "control/messages.hpp"
#include "simkit/event_loop.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "transport/transport.hpp"

namespace discs {

struct ReliabilityConfig {
  SimTime initial_rto = 200 * kMillisecond;  // first retransmit timeout
  SimTime max_rto = 5 * kSecond;             // backoff ceiling
  double backoff = 2.0;                      // rto multiplier per retry
  int max_retries = 8;                       // transmissions before giving up
  std::size_t dedup_window = 1024;           // out-of-order seqs remembered per peer
};

struct ReliabilityStats {
  std::uint64_t reliable_sends = 0;    // distinct messages sent with a timer
  std::uint64_t retransmits = 0;       // timer-driven re-sends
  std::uint64_t delivery_failures = 0;  // messages abandoned at the retry cap
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t duplicates_suppressed = 0;
};

/// Names the in-flight message a pending retransmit timer belongs to, so a
/// protocol-level response can settle it without knowing the sequence
/// number, and so a newer send of the same kind replaces the older timer
/// (e.g. a re-key's KeyInstall supersedes a still-unacked predecessor).
/// kNone pendings are settled only by DeliveryAck (or the retry cap).
enum class AckToken : std::uint8_t {
  kNone,
  kPeeringRequest,
  kPeeringAccept,
  kKeyInstall,
  kKeyInstallAck,
  kRekeyComplete,
};
inline constexpr std::size_t kAckTokens =
    static_cast<std::size_t>(AckToken::kRekeyComplete) + 1;

/// What on_receive decided about an incoming envelope.
enum class ReceiveAction : std::uint8_t {
  kFresh,      // first sighting — process it
  kDuplicate,  // already processed — drop (ack was re-sent if requested)
  kConsumed,   // link-internal (DeliveryAck) — nothing for the controller
};

class ReliableLink {
 public:
  /// Called when a reliable send exhausts its retries.
  using FailureHandler = std::function<void(AsNumber peer, AckToken token)>;

  ReliableLink(EventLoop& loop, Transport& net, AsNumber self,
               ReliabilityConfig config = {})
      : loop_(&loop), net_(&net), self_(self), config_(config) {}
  ~ReliableLink() {
    cancel_all();
    unbind_metrics();
  }

  ReliableLink(const ReliableLink&) = delete;
  ReliableLink& operator=(const ReliableLink&) = delete;

  void set_failure_handler(FailureHandler handler) {
    on_failure_ = std::move(handler);
  }

  /// Sends with a retransmit timer. A pending send to the same peer with
  /// the same non-kNone token is superseded (its timer cancelled silently).
  /// `trace` rides the envelope as the DCS2 trace-context extension — and
  /// rides every retransmission verbatim, so the whole repair history of a
  /// message lands in one causal tree.
  void send_reliable(AsNumber to, ControlMessage message,
                     AckToken token = AckToken::kNone,
                     std::optional<telemetry::TraceContext> trace = {});

  /// Sends once, sequenced (so the receiver can dedup) but without a timer.
  void send(AsNumber to, ControlMessage message,
            std::optional<telemetry::TraceContext> trace = {});

  /// Classifies an incoming envelope: consumes DeliveryAcks, answers
  /// ack requests, and deduplicates. Call before any protocol handling.
  ReceiveAction on_receive(const Envelope& envelope);

  /// Settles the pending send named (peer, token), if any — a protocol
  /// response proved delivery before the DeliveryAck did.
  void settle_token(AsNumber peer, AckToken token);

  /// Settles the pending send to `peer` carrying `seq` (0 is ignored) —
  /// used when a response echoes the request's sequence number.
  void settle_seq(AsNumber peer, std::uint64_t seq);

  /// Cancels all pending timers toward `peer` (no failure callbacks).
  /// Sequence counters and dedup state survive: a later re-peering must
  /// not reuse sequence numbers the peer may remember.
  void forget_peer(AsNumber peer);

  /// Cancels every pending timer (shutdown path; no failure callbacks).
  void cancel_all();

  [[nodiscard]] const ReliabilityStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }

  /// Introspection over the receive-side dedup state for `peer` (both 0
  /// for never-heard-from peers): the out-of-order seqs currently
  /// remembered — bounded by dedup_window — and the floor below which
  /// everything counts as seen. Tests pin the memory bound with these.
  [[nodiscard]] std::size_t rx_ahead_size(AsNumber peer) const {
    const auto it = peers_.find(peer);
    return it == peers_.end() ? 0 : it->second.ahead.size();
  }
  [[nodiscard]] std::uint64_t rx_floor(AsNumber peer) const {
    const auto it = peers_.find(peer);
    return it == peers_.end() ? 0 : it->second.floor;
  }

  /// Registers this link's telemetry into `registry`: a native histogram of
  /// the attempt number at each retransmission (the backoff level) plus a
  /// pull-mode view over ReliabilityStats, the in-flight pending count and
  /// the per-type message counters (label `type`).
  /// Re-binding replaces the previous binding; the destructor unbinds.
  void bind_metrics(telemetry::MetricsRegistry& registry,
                    telemetry::Labels labels = {});
  void unbind_metrics();

  /// Attaches the distributed-tracing shard writer (nullptr detaches):
  /// every transmission of a context-carrying envelope emits a `send`
  /// record (retransmits with their attempt number) and every arrival of
  /// one emits a `recv` record — the pairs the merge tool aligns clocks
  /// with. Envelopes without a context cost one null/nullopt check and
  /// emit nothing. The tracer must outlive the link or be detached first.
  void set_span_tracer(telemetry::SpanTracer* spans) { spans_ = spans; }
  [[nodiscard]] telemetry::SpanTracer* span_tracer() const { return spans_; }

 private:
  struct Pending {
    Envelope envelope;
    AckToken token = AckToken::kNone;
    int attempts = 1;  // transmissions so far
    SimTime rto = 0;
    std::uint64_t timer = 0;
  };
  /// Everything the link keeps per peer, in one hash-map node:
  ///  * the send-side sequence counter;
  ///  * receive-side dedup: every seq <= floor was seen; `ahead` holds seen
  ///    seqs above the floor (compressed when contiguous, evicted from the
  ///    bottom past dedup_window so memory stays bounded). In-order arrival
  ///    only moves the floor and never touches `ahead`;
  ///  * the seq of the pending send each AckToken names (0 = none).
  struct PeerState {
    std::uint64_t next_seq = 0;
    std::uint64_t floor = 0;
    std::set<std::uint64_t> ahead;
    std::array<std::uint64_t, kAckTokens> token_seq{};
  };
  /// pending_ key: (peer, low 32 bits of seq). A send stays pending for at
  /// most max_retries RTOs, far fewer than 2^32 sends to one peer, so keys
  /// never collide; lookups by a full seq still check the stored envelope.
  using PendingKey = std::uint64_t;
  static PendingKey pending_key(AsNumber peer, std::uint64_t seq) {
    return (std::uint64_t{peer} << 32) | (seq & 0xffffffffu);
  }
  static AsNumber key_peer(PendingKey key) {
    return static_cast<AsNumber>(key >> 32);
  }

  using PendingMap = std::unordered_map<PendingKey, Pending>;

  /// Hands `envelope` to the transport, counting it by type.
  void transmit(Envelope envelope);
  void arm_timer(PendingKey key);
  void on_timeout(PendingKey key);
  /// Cancels the timer, clears the token slot naming it; returns the next.
  PendingMap::iterator erase_pending(PendingMap::iterator it);
  bool record_seq(PeerState& peer, std::uint64_t seq);  // false = duplicate

  EventLoop* loop_;
  Transport* net_;
  AsNumber self_;
  ReliabilityConfig config_;
  FailureHandler on_failure_;
  std::unordered_map<AsNumber, PeerState> peers_;
  PendingMap pending_;
  ReliabilityStats stats_;
  /// Con-con volume by message type, indexed by ControlMessage::index():
  /// every envelope this link hands the transport (acks and retransmits
  /// included) and every envelope it is handed (duplicates included).
  std::array<std::uint64_t, std::variant_size_v<ControlMessage>>
      sent_by_type_{}, received_by_type_{};
  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::MetricsRegistry::CollectorId metrics_collector_ = 0;
  telemetry::Histogram* backoff_level_ = nullptr;
  telemetry::SpanTracer* spans_ = nullptr;
};

}  // namespace discs

// The DISCS controller of one DAS (paper §IV): a route-reflector-attached
// control element that
//   1. learns other DASes from DISCS-Ads            (DAS discovery, §IV-B)
//   2. sets up peer relationships under a blacklist  (§IV-C)
//   3. negotiates and re-keys per-pair symmetric keys (§IV-D)
//   4. invokes / executes defense functions on demand (§IV-E)
//   5. runs alarm mode and a threshold attack detector (§IV-F)
//
// The controller owns its AS's RouterTables and the sharded
// DataPlaneEngine over them, the DAS's only data plane: each engine shard
// is one border router over the shared controller-installed tables (the
// route-reflector structure of §IV-B Fig. 2). Tables are sealed at
// construction: every mutation the controller decides (key install,
// re-key, invocation, teardown, expiry) is expressed as a TableTransaction
// and delivered through the ConRouChannel, which models the secure con-rou
// path of §IV-B and applies each transaction atomically at the engine.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bgp/message.hpp"
#include "common/rng.hpp"
#include "control/con_rou_channel.hpp"
#include "control/detector.hpp"
#include "control/reliable.hpp"
#include "control/secure_channel.hpp"
#include "dataplane/engine.hpp"
#include "telemetry/ring.hpp"
#include "telemetry/span.hpp"
#include "topology/dataset.hpp"

namespace discs {

struct ControllerConfig {
  AsNumber as = kNoAs;
  std::string controller_name;  // advertised in the DISCS-Ad
  /// ASes this DAS refuses to peer with (conflict of interest, §IV-C).
  std::unordered_set<AsNumber> blacklist;
  /// Peering requests are delayed by uniform(0, max) to avoid the
  /// thundering herd on a freshly advertised DAS (§IV-C).
  SimTime max_peering_delay = 5 * kSecond;
  /// Periodic re-keying; 0 disables the timer (§IV-D).
  SimTime rekey_interval = 0;
  /// Default invocation duration (§IV-E1; [30]: >93% of attacks < 24 h).
  SimTime default_duration = 24 * kHour;
  /// Verification tolerance interval at window edges (§IV-E1).
  SimTime tolerance = 2 * kSecond;
  /// Alarm-mode detector: samples of one source AS within `detect_window`
  /// needed before the controller requests peers to quit alarm mode.
  std::size_t detect_threshold = 100;
  SimTime detect_window = 10 * kSecond;
  /// Latency of the secure con-rou channel: table updates reach the engine
  /// this much later than the controller decides them. Contributes
  /// to the asynchronization the §IV-E1 tolerance intervals absorb.
  SimTime con_rou_latency = 0;
  /// The DAS's sharded data-plane engine: one shard per border router,
  /// driven by DiscsSystem::send_batch (and send_packet / run_attack as
  /// one-packet batches). Seed is derived from `seed` when left at the
  /// EngineConfig default.
  EngineConfig engine{};
  /// Retransmission / dedup parameters of this controller's ReliableLink
  /// (the con-con channel may drop, duplicate, and reorder — §IV-B's SSL
  /// channels guarantee secrecy, not delivery).
  ReliabilityConfig reliability{};
  std::uint64_t seed = 1;
};

/// Peering state machine.
enum class PeerState : std::uint8_t {
  kDiscovered,   // Ad seen, no relationship yet
  kRequested,    // our request is in flight
  kPeered,       // both sides agreed
  kRejected,     // they refused (or we blacklist them)
};

class Controller {
 public:
  /// `network` delivers control messages — either the simulated
  /// ConConNetwork or a real socket Transport; the controller is agnostic.
  /// `rpki` is the prefix-ownership oracle (RPKI in the paper). Both must
  /// outlive the controller.
  Controller(ControllerConfig config, EventLoop& loop, Transport& network,
             const InternetDataset& rpki);

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;
  ~Controller();

  // ---- lifecycle ----

  /// The DISCS-Ad this DAS floods via BGP on deployment.
  [[nodiscard]] DiscsAd advertisement() const;

  /// Feed of DISCS-Ads arriving via BGP (§IV-B). Triggers the peering
  /// workflow unless the origin is blacklisted or already known.
  void discover(const DiscsAd& ad);

  // ---- defense invocation (victim side) ----

  /// Requests all peers to execute `functions` for the given victim
  /// prefixes (§IV-E). Installs the victim-side table entries (CDP-verify /
  /// CSP-stamp) locally. Returns the number of peers asked.
  std::size_t invoke(const std::vector<InvocationTriple>& triples,
                     bool alarm_mode = false);

  /// Convenience: protect one local prefix (IPv4 or IPv6) against d-DDoS
  /// (DP+CDP) or s-DDoS (SP+CSP) following the §VI-A2 cost-effective
  /// strategy.
  std::size_t invoke_ddos_defense(const VictimPrefix& victim_prefix,
                                  bool spoofed_source,
                                  std::optional<SimTime> duration = {});

  /// Same, but for every prefix the AS originates — IPv4 and IPv6 — in a
  /// single invocation request (the "highly destructive attack" playbook of
  /// §IV-E2).
  std::size_t invoke_ddos_defense_all(bool spoofed_source,
                                      std::optional<SimTime> duration = {});

  /// Asks peers to quit alarm mode for our prefixes (start dropping).
  void request_drop_mode();

  // ---- key management ----

  /// Starts a re-key toward every peer now (also runs on the timer).
  void rekey_all_peers();

  /// Emergency response to key leakage (§VI-E3): renew all stamping keys
  /// and ask peers to renew the verification keys they hold for us.
  void handle_key_leakage() { rekey_all_peers(); }

  /// Severs one peer relationship (policy change / conflict of interest):
  /// both sides drop the pair's keys; the AS stays a DAS.
  void tear_down_peering(AsNumber peer, std::string reason = "policy");

  /// Leaves the collaboration entirely: tears down every peering and
  /// detaches from the con-con channel. The caller is responsible for
  /// withdrawing the DISCS-Ad from BGP (DiscsSystem::undeploy does both).
  void shutdown();

  // ---- automatic attack detection (§IV-E1, "when to invoke") ----

  /// Arms a rate detector over all local IPv4 prefixes on every engine
  /// shard: when the inbound rate toward a prefix crosses the threshold,
  /// the controller invokes DP+CDP for it automatically. Fires at most once
  /// per prefix per holddown.
  void enable_auto_defense(std::size_t threshold_packets, SimTime window,
                           SimTime holddown = kMinute);

  [[nodiscard]] bool auto_defense_enabled() const {
    return detector_ != nullptr;
  }

  // ---- alarm-mode detector (§IV-F) ----

  /// Feed of alarm samples from the engine; when one source AS
  /// crosses the detection threshold the controller auto-invokes drop mode.
  void on_alarm_sample(const AlarmSample& sample);

  // ---- introspection ----

  [[nodiscard]] AsNumber as_number() const { return config_.as; }
  [[nodiscard]] PeerState peer_state(AsNumber as) const;
  [[nodiscard]] std::vector<AsNumber> peers() const;
  [[nodiscard]] std::size_t peer_count() const;
  [[nodiscard]] bool is_peer(AsNumber as) const {
    return peer_state(as) == PeerState::kPeered;
  }
  [[nodiscard]] const std::vector<Prefix4>& local_prefixes() const {
    return local_prefixes_;
  }
  [[nodiscard]] const std::vector<Prefix6>& local_prefixes6() const {
    return local_prefixes6_;
  }

  /// Read-only view of the table set; mutations only happen through the
  /// transaction pipeline (the tables are sealed).
  [[nodiscard]] const RouterTables& tables() const { return tables_; }

  /// The sharded engine over this DAS's tables (its only data plane; its
  /// stats() cover all of the DAS's traffic) and the con-rou channel
  /// delivering transactions to it.
  [[nodiscard]] DataPlaneEngine& engine() { return *engine_; }
  [[nodiscard]] const DataPlaneEngine& engine() const { return *engine_; }
  [[nodiscard]] ConRouChannel& con_rou() { return *con_rou_; }
  [[nodiscard]] const ConRouChannel& con_rou() const { return *con_rou_; }

  /// The reliability layer fronting this controller's con-con sends
  /// (retransmit timers, dedup state, delivery-failure counters).
  [[nodiscard]] ReliableLink& link() { return link_; }
  [[nodiscard]] const ReliableLink& link() const { return link_; }

  /// Controller-side counters for the cost evaluation.
  struct Stats {
    std::uint64_t ads_seen = 0;
    std::uint64_t peering_requests_sent = 0;
    std::uint64_t peering_requests_received = 0;
    std::uint64_t keys_generated = 0;
    std::uint64_t rekeys_completed = 0;
    std::uint64_t invocations_sent = 0;
    std::uint64_t invocations_received = 0;
    std::uint64_t invocations_rejected = 0;  // ownership check failed
    std::uint64_t detector_triggers = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  // ---- telemetry ----

  /// One-call binding for the whole DAS under an {"as": "<n>"} label:
  /// controller Stats as a pull-mode view, plus the engine's, the reliable
  /// link's, and the con-rou channel's own bindings. The shared
  /// ConConNetwork is NOT bound here (it belongs to no single controller) —
  /// bind it once at the harness. Re-binding replaces; the destructor
  /// unbinds.
  void bind_metrics(telemetry::MetricsRegistry& registry);
  void unbind_metrics();
  [[nodiscard]] bool metrics_bound() const { return metrics_ != nullptr; }

  /// Attaches the tracer (nullptr detaches) to this controller AND its
  /// ReliableLink; it is the controller's only trace sink. With a tracer
  /// attached, every protocol operation this controller initiates roots a
  /// trace whose context rides the DCS2 envelopes (and their
  /// retransmissions) to the peers; operations triggered by a
  /// context-carrying message join the sender's trace instead. Peering
  /// negotiations, three-phase re-keys and per-peer invocation requests
  /// become spans closed with an outcome; each invocation window becomes a
  /// span with its §IV-E duration; delivery failures, detector triggers,
  /// drop-mode requests and teardowns become instants. Without a tracer no
  /// context is ever attached and the wire bytes are identical to the
  /// pre-tracing format. The tracer must outlive the controller or be
  /// detached first. Turn its shards into a Chrome trace with
  /// telemetry::write_chrome_trace (or tools/discs_trace_merge).
  void set_span_tracer(telemetry::SpanTracer* spans);
  [[nodiscard]] telemetry::SpanTracer* span_tracer() const { return spans_; }

  /// Alarm-mode flow reports (§IV-F): buffers the sampled NetFlow-style
  /// records from every engine shard into a bounded ring
  /// this controller's operator scrapes. Newest-wins once full;
  /// flow_reports_total() counts past evictions.
  void enable_flow_reports(std::size_t capacity = 1024);
  [[nodiscard]] bool flow_reports_enabled() const { return flow_ring_ != nullptr; }
  /// Buffered reports, oldest to newest (empty when not enabled).
  [[nodiscard]] std::vector<FlowReport> alarm_reports() const;
  /// Reports ever buffered, including evicted ones.
  [[nodiscard]] std::uint64_t flow_reports_total() const;

 private:
  /// A distributed-tracing span this controller opened and will close in a
  /// later handler (request → response): ids plus the start timestamp.
  struct OpenSpan {
    std::uint64_t trace = 0;
    std::uint64_t span = 0;
    std::uint64_t parent = 0;  // 0 = trace root
    SimTime start = 0;
  };

  struct PeerInfo {
    PeerState state = PeerState::kDiscovered;
    std::string controller_name;
    std::uint64_t tx_key_serial = 0;  // last key serial we sent them
    std::uint64_t rx_key_serial = 0;  // last key serial we installed from them
    std::optional<Key128> pending_key;  // new stamping key awaiting ack
    // Distributed-tracing request spans in flight toward this peer (only
    // ever set while a SpanTracer is attached).
    std::optional<OpenSpan> peering_span;  // PeeringRequest -> accept/reject
    std::optional<OpenSpan> rekey_span;    // KeyInstall -> commit
    std::optional<OpenSpan> invoke_span;   // InvocationRequest -> response
  };

  void handle(const Envelope& envelope);
  void handle_peering_request(AsNumber from);
  void handle_peering_accept(AsNumber from);
  void handle_key_install(AsNumber from, const KeyInstall& msg);
  void handle_key_install_ack(AsNumber from, const KeyInstallAck& msg);
  void handle_rekey_complete(AsNumber from, const RekeyComplete& msg);
  void handle_invocation(AsNumber from, const InvocationRequest& msg,
                         std::uint64_t request_seq);
  void handle_alarm_quit(AsNumber from);
  void handle_teardown(AsNumber from);

  /// ReliableLink gave up on a message after the retry cap: roll back any
  /// protocol state that is now half-open (e.g. an unanswered peering
  /// request returns to kDiscovered so a later Ad can retry it).
  void handle_delivery_failure(AsNumber peer, AckToken token);

  /// Drops peer state + keys locally (shared by both teardown directions).
  void forget_peer(AsNumber peer);

  /// Generates and ships key_{us,peer}; first key or re-key.
  void negotiate_key(AsNumber peer, bool rekey);

  /// Submits the peer-side table transaction for an accepted triple; the
  /// channel delivers it after the con-rou latency. Tracked under the
  /// victim's AS so teardown can withdraw it in flight. `exec_span` (0 =
  /// none) parents the filter_install trace record; the applied-hook also
  /// feeds the time-to-protection histogram from the invocation's
  /// trace-context origin timestamp.
  void execute_peer_functions(AsNumber victim, const InvocationTriple& triple,
                              std::uint64_t exec_span);

  /// Submits the victim-side table transaction for our own invocation.
  void execute_victim_functions(const InvocationTriple& triple);

  /// Remembers an undelivered transaction tied to `peer`, so forget_peer
  /// can withdraw it before it reaches the engine.
  void track_delivery(AsNumber peer, ConRouChannel::DeliveryId id);

  void schedule_rekey_timer();

  /// Roots a fresh trace (a tracer must be attached): new trace and span
  /// ids plus the origin stamp, taken on the transport's clock.
  telemetry::TraceContext new_trace();

  /// The one emit path for controller trace records: emits `name` as a
  /// span of `dur` starting now (an instant when `dur` is empty) and
  /// returns the context a message sent on its behalf should carry. The
  /// record hangs under `parent` when given, else joins the trace of the
  /// envelope currently being handled, else roots a fresh trace. nullopt
  /// (and nothing emitted) when no tracer is attached.
  std::optional<telemetry::TraceContext> trace_record(
      const char* name, const telemetry::SpanTracer::SpanArgs& args = {},
      std::optional<SimTime> dur = std::nullopt,
      const std::optional<telemetry::TraceContext>& parent = std::nullopt);

  /// trace_record for a handler's response: nullopt outside a handler or
  /// when the incoming envelope carried no context — traces are only ever
  /// rooted where an operation starts, never grafted on mid-protocol.
  std::optional<telemetry::TraceContext> handler_ctx(
      const char* name, const telemetry::SpanTracer::SpanArgs& args = {}) {
    return rx_ctx_ ? trace_record(name, args) : std::nullopt;
  }

  /// Emits `open` as a completed span record named `name` with an outcome
  /// arg (see kOutcome* in controller.cpp) and clears it. No-op when the
  /// optional is empty.
  void close_open_span(std::optional<OpenSpan>& open, const char* name,
                       AsNumber peer, std::uint64_t outcome);

  ControllerConfig config_;
  EventLoop* loop_;
  Transport* network_;
  const InternetDataset* rpki_;
  Xoshiro256 rng_;
  ReliableLink link_;

  RouterTables tables_;
  std::unique_ptr<DataPlaneEngine> engine_;
  std::unique_ptr<ConRouChannel> con_rou_;
  std::vector<Prefix4> local_prefixes_;
  std::vector<Prefix6> local_prefixes6_;

  std::map<AsNumber, PeerInfo> peers_;
  /// Transactions submitted but possibly undelivered, keyed by the peer
  /// they concern (withdrawn on teardown).
  std::unordered_map<AsNumber, std::vector<ConRouChannel::DeliveryId>>
      pending_deliveries_;
  std::unique_ptr<RateDetector> detector_;
  Stats stats_;

  // Detector state: per source AS, sample timestamps in the window.
  std::unordered_map<AsNumber, std::vector<SimTime>> samples_;
  bool drop_mode_requested_ = false;

  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::MetricsRegistry::CollectorId metrics_collector_ = 0;
  std::unique_ptr<telemetry::RingBuffer<FlowReport>> flow_ring_;

  telemetry::SpanTracer* spans_ = nullptr;
  /// Trace context of the envelope currently inside handle() (nullopt
  /// outside a handler or when the envelope carried none): handlers'
  /// outgoing messages inherit it so one operation stays one trace.
  std::optional<telemetry::TraceContext> rx_ctx_;
  /// Bound by bind_metrics: seconds from the victim's invocation emission
  /// (trace-context origin timestamp, on the transport's clock) to the
  /// filter-install transaction applying at this peer's engine.
  telemetry::Histogram* ttp_seconds_ = nullptr;
};

}  // namespace discs

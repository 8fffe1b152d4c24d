#include "control/controller.hpp"

#include <algorithm>
#include <utility>

namespace discs {
namespace {

// Outcome codes carried in the "outcome" arg of closed trace spans.
constexpr std::uint64_t kOutcomeOk = 0;
constexpr std::uint64_t kOutcomeRejected = 1;
constexpr std::uint64_t kOutcomeDeliveryFailure = 2;
constexpr std::uint64_t kOutcomeSuperseded = 3;
constexpr std::uint64_t kOutcomeImplicit = 4;

// Codes carried in the "kind" arg of detector_trigger trace records.
constexpr std::uint64_t kTriggerRate = 0;
constexpr std::uint64_t kTriggerAlarm = 1;

/// The per-direction data-plane operations each invokable function expands
/// into, split by executing side (Table I: bold = peer side).
struct FunctionExpansion {
  InvokableFunction function;
  // Peer side.
  std::optional<DefenseFunction> peer_out_dst;
  std::optional<DefenseFunction> peer_out_src;
  std::optional<DefenseFunction> peer_in_src;
  // Victim side.
  std::optional<DefenseFunction> victim_in_dst;
  std::optional<DefenseFunction> victim_out_src;
};

constexpr FunctionExpansion kExpansions[] = {
    {InvokableFunction::kDp, DefenseFunction::kDp, {}, {}, {}, {}},
    {InvokableFunction::kCdp, DefenseFunction::kCdpStamp, {}, {},
     DefenseFunction::kCdpVerify, {}},
    {InvokableFunction::kSp, {}, DefenseFunction::kSp, {}, {}, {}},
    {InvokableFunction::kCsp, {}, {}, DefenseFunction::kCspVerify, {},
     DefenseFunction::kCspStamp},
};

}  // namespace

Controller::Controller(ControllerConfig config, EventLoop& loop,
                       Transport& network, const InternetDataset& rpki)
    : config_(std::move(config)),
      loop_(&loop),
      network_(&network),
      rpki_(&rpki),
      rng_(config_.seed),
      link_(loop, network, config_.as, config_.reliability),
      tables_(config_.tolerance) {
  if (config_.as == kNoAs) {
    throw std::invalid_argument("Controller: AS number required");
  }
  if (config_.controller_name.empty()) {
    config_.controller_name = "controller.as" + std::to_string(config_.as);
  }
  local_prefixes_ = rpki_->prefixes_of(config_.as);
  local_prefixes6_ = rpki_->prefixes6_of(config_.as);
  // Deployment-time provisioning (§V-A): the RPKI-derived prefix-to-AS
  // mapping is the world's one compiled snapshot, adopted rather than
  // copied; a later map_prefix gives this DAS a private successor.
  tables_.pfx2as.adopt(rpki_->pfx2as_snapshot());

  EngineConfig engine_config = config_.engine;
  if (engine_config.rng_seed == EngineConfig{}.rng_seed) {
    engine_config.rng_seed = derive_seed(config_.seed, 0xe791e);
  }
  engine_ = std::make_unique<DataPlaneEngine>(tables_, config_.as, engine_config);
  engine_->set_alarm_sink(
      [this](const AlarmSample& sample) { on_alarm_sample(sample); });
  con_rou_ = std::make_unique<ConRouChannel>(*loop_, *engine_,
                                             config_.con_rou_latency,
                                             /*expiry_grace=*/config_.tolerance);

  // From here on, TableTransactions are the only write path.
  tables_.seal();

  link_.set_failure_handler([this](AsNumber peer, AckToken token) {
    handle_delivery_failure(peer, token);
  });
  network_->attach(config_.as,
                   [this](const Envelope& envelope) { handle(envelope); });
  schedule_rekey_timer();
}

DiscsAd Controller::advertisement() const {
  return DiscsAd{config_.as, config_.controller_name};
}

void Controller::discover(const DiscsAd& ad) {
  if (ad.origin_as == config_.as) return;  // our own Ad reflected back
  ++stats_.ads_seen;
  auto [it, inserted] = peers_.try_emplace(ad.origin_as);
  it->second.controller_name = ad.controller;
  if (!inserted && it->second.state != PeerState::kDiscovered) return;

  if (config_.blacklist.contains(ad.origin_as)) {
    it->second.state = PeerState::kRejected;
    return;
  }
  // Random delay prevents every DAS from hitting a new deployer at once
  // (§IV-C). Simultaneous requests from both sides are harmless: each side
  // accepts the other's request and the state machine converges to kPeered.
  const AsNumber target = ad.origin_as;
  const SimTime delay = config_.max_peering_delay == 0
                            ? 0
                            : rng_.below(config_.max_peering_delay);
  loop_->schedule(delay, [this, target] {
    auto& info = peers_[target];
    if (info.state != PeerState::kDiscovered) return;
    info.state = PeerState::kRequested;
    ++stats_.peering_requests_sent;
    // Distributed tracing: the peering handshake roots a trace here; the
    // request span stays open until the accept/reject (or delivery failure)
    // closes it, and its context rides the PeeringRequest to the peer.
    std::optional<telemetry::TraceContext> ctx;
    if (spans_ != nullptr) {
      ctx = new_trace();
      info.peering_span = OpenSpan{ctx->trace_id, ctx->parent_span_id,
                                   /*parent=*/0, loop_->now()};
    }
    link_.send_reliable(target, PeeringRequest{}, AckToken::kPeeringRequest,
                        ctx);
  });
}

void Controller::handle(const Envelope& envelope) {
  // The link consumes DeliveryAcks, answers ack requests, and suppresses
  // duplicates; only first sightings reach the protocol handlers. Handlers
  // stay idempotent anyway: retransmits of an ancient seq can outlive the
  // dedup window, and raw (seq 0) senders bypass dedup entirely.
  if (link_.on_receive(envelope) != ReceiveAction::kFresh) return;
  // Expose the envelope's trace context to the handlers (save/restore, not
  // reset, because a zero-latency simulated network can deliver a handler's
  // own sends synchronously and re-enter handle() underneath us).
  const auto saved_ctx = std::exchange(rx_ctx_, envelope.trace);
  std::visit(
      [&](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, PeeringRequest>) {
          handle_peering_request(envelope.from);
        } else if constexpr (std::is_same_v<T, PeeringAccept>) {
          handle_peering_accept(envelope.from);
        } else if constexpr (std::is_same_v<T, PeeringReject>) {
          link_.settle_token(envelope.from, AckToken::kPeeringRequest);
          auto& info = peers_[envelope.from];
          close_open_span(info.peering_span, "peering", envelope.from,
                          kOutcomeRejected);
          info.state = PeerState::kRejected;
        } else if constexpr (std::is_same_v<T, KeyInstall>) {
          handle_key_install(envelope.from, body);
        } else if constexpr (std::is_same_v<T, KeyInstallAck>) {
          handle_key_install_ack(envelope.from, body);
        } else if constexpr (std::is_same_v<T, RekeyComplete>) {
          handle_rekey_complete(envelope.from, body);
        } else if constexpr (std::is_same_v<T, InvocationRequest>) {
          handle_invocation(envelope.from, body, envelope.seq);
        } else if constexpr (std::is_same_v<T, InvocationAccept> ||
                             std::is_same_v<T, InvocationReject>) {
          // Informational (rejects are counted by the peer that rejected),
          // but the echoed seq settles our request's retransmit timer
          // earlier than the DeliveryAck would under loss.
          link_.settle_seq(envelope.from, body.request_seq);
          if (const auto it = peers_.find(envelope.from); it != peers_.end()) {
            close_open_span(it->second.invoke_span, "invoke_peer",
                            envelope.from,
                            std::is_same_v<T, InvocationAccept>
                                ? kOutcomeOk
                                : kOutcomeRejected);
          }
        } else if constexpr (std::is_same_v<T, AlarmQuit>) {
          handle_alarm_quit(envelope.from);
        } else if constexpr (std::is_same_v<T, PeeringTeardown>) {
          handle_teardown(envelope.from);
        }
        // DeliveryAck never gets here (consumed by the link).
      },
      envelope.message);
  rx_ctx_ = saved_ctx;
}

void Controller::handle_peering_request(AsNumber from) {
  ++stats_.peering_requests_received;
  auto& info = peers_[from];
  const std::uint64_t peer_arg = from;
  if (config_.blacklist.contains(from)) {
    info.state = PeerState::kRejected;
    link_.send_reliable(from, PeeringReject{"blacklisted"}, AckToken::kNone,
                        handler_ctx("reject_peering", {{"peer", peer_arg}}));
    return;
  }
  if (info.state == PeerState::kPeered) {
    // Duplicate / retransmitted request: re-accept so the peer can finish
    // its side, but do NOT regenerate the key — a gratuitous negotiate_key
    // here would bump tx_key_serial and orphan any in-flight re-key ack.
    link_.send_reliable(from, PeeringAccept{}, AckToken::kPeeringAccept,
                        handler_ctx("accept_peering", {{"peer", peer_arg}}));
    return;
  }
  info.state = PeerState::kPeered;
  link_.send_reliable(from, PeeringAccept{}, AckToken::kPeeringAccept,
                      handler_ctx("accept_peering", {{"peer", peer_arg}}));
  negotiate_key(from, /*rekey=*/false);
}

void Controller::handle_peering_accept(AsNumber from) {
  link_.settle_token(from, AckToken::kPeeringRequest);
  auto& info = peers_[from];
  if (info.state == PeerState::kPeered) return;  // duplicate accept
  info.state = PeerState::kPeered;
  close_open_span(info.peering_span, "peering", from, kOutcomeOk);
  negotiate_key(from, /*rekey=*/false);
}

void Controller::negotiate_key(AsNumber peer, bool rekey) {
  auto& info = peers_[peer];
  const Key128 key = derive_key128(rng_.next());
  ++stats_.keys_generated;
  ++info.tx_key_serial;
  if (rekey) {
    // Two-phase: keep stamping with the old key until the peer acks.
    info.pending_key = key;
  } else {
    TableTransaction txn;
    txn.set_stamp_key(peer, key, /*retain_previous=*/false);
    track_delivery(peer, con_rou_->submit(std::move(txn)));
  }
  // Distributed tracing: inside a handler the install joins the incoming
  // trace; a locally initiated round (re-key timer, first key after an
  // untraced peer's message) roots a fresh one. A re-key's request span
  // stays open until the ack commits it.
  std::optional<telemetry::TraceContext> ctx;
  if (rx_ctx_ || !rekey) {
    ctx = trace_record(rekey ? "rekey_key_install" : "key_install",
                       {{"peer", static_cast<std::uint64_t>(peer)},
                        {"serial", info.tx_key_serial}});
  } else if (spans_ != nullptr) {
    ctx = new_trace();
    close_open_span(info.rekey_span, "rekey", peer, kOutcomeSuperseded);
    info.rekey_span = OpenSpan{ctx->trace_id, ctx->parent_span_id,
                               /*parent=*/0, loop_->now()};
  }
  link_.send_reliable(peer, KeyInstall{key, info.tx_key_serial, rekey},
                      AckToken::kKeyInstall, ctx);
}

void Controller::handle_key_install(AsNumber from, const KeyInstall& msg) {
  const auto it = peers_.find(from);
  if (it == peers_.end()) return;  // keys only from known DASes
  auto& info = it->second;
  if (info.state == PeerState::kRequested) {
    // Implicit accept: a KeyInstall proves the peer took our request even
    // though the PeeringAccept was lost or is still in flight behind it.
    link_.settle_token(from, AckToken::kPeeringRequest);
    info.state = PeerState::kPeered;
    close_open_span(info.peering_span, "peering", from, kOutcomeImplicit);
    negotiate_key(from, /*rekey=*/false);
  }
  if (info.state != PeerState::kPeered) return;

  // Serial gating makes the handler idempotent under duplication and
  // reordering: never step backwards, and a replay of the current serial
  // only needs its (possibly lost) ack repeated.
  if (msg.serial < info.rx_key_serial) return;  // stale reordered install
  if (msg.serial == info.rx_key_serial) {
    link_.send_reliable(from, KeyInstallAck{msg.serial},
                        AckToken::kKeyInstallAck,
                        handler_ctx("reack_key_install", {{"serial", msg.serial}}));
    return;
  }
  info.rx_key_serial = msg.serial;
  const auto ctx = handler_ctx(
      "install_key",
      {{"serial", msg.serial}, {"rekey", msg.rekey ? 1u : 0u}});
  // key_{from,us}: we verify traffic stamped by `from` with it. During a
  // re-key the old key stays valid (grace) until the sender confirms the
  // switch-over with RekeyComplete — a fixed timer here would blackhole
  // traffic whenever our ack is lost and the sender keeps the old key.
  TableTransaction install;
  install.set_verify_key(from, msg.key, /*retain_previous=*/msg.rekey);
  track_delivery(from, con_rou_->submit(std::move(install)));
  link_.send_reliable(from, KeyInstallAck{msg.serial}, AckToken::kKeyInstallAck,
                      ctx);
}

void Controller::handle_key_install_ack(AsNumber from, const KeyInstallAck& msg) {
  auto it = peers_.find(from);
  if (it == peers_.end()) return;
  // Any ack proves the accept chain reached the peer.
  link_.settle_token(from, AckToken::kPeeringAccept);
  if (msg.serial != it->second.tx_key_serial) return;  // stale ack
  link_.settle_token(from, AckToken::kKeyInstall);
  if (it->second.pending_key) {
    TableTransaction commit;
    commit.set_stamp_key(from, *it->second.pending_key,
                         /*retain_previous=*/false);
    track_delivery(from, con_rou_->submit(std::move(commit)));
    it->second.pending_key.reset();
    ++stats_.rekeys_completed;
    close_open_span(it->second.rekey_span, "rekey", from, kOutcomeOk);
    // Third phase: tell the verifier we switched, releasing its grace key.
    link_.send_reliable(from, RekeyComplete{msg.serial},
                        AckToken::kRekeyComplete,
                        handler_ctx("rekey_commit", {{"serial", msg.serial}}));
  }
}

void Controller::handle_rekey_complete(AsNumber from, const RekeyComplete& msg) {
  const auto it = peers_.find(from);
  if (it == peers_.end() || it->second.state != PeerState::kPeered) return;
  if (msg.serial != it->second.rx_key_serial) return;  // stale / reordered
  handler_ctx("grace_key_drop_scheduled", {{"serial", msg.serial}});
  // The stamper committed the new key; after a short drain for packets
  // already in flight with the old stamp, drop the grace key. The drop
  // rides the con-rou channel too (an in-flight teardown withdraws it).
  TableTransaction finish;
  finish.finish_rekey(from);
  track_delivery(from, con_rou_->submit_after(2 * kSecond, std::move(finish)));
}

void Controller::handle_delivery_failure(AsNumber peer, AckToken token) {
  trace_record("delivery_failure",
               {{"peer", static_cast<std::uint64_t>(peer)},
                {"token", static_cast<std::uint64_t>(token)}});
  const auto it = peers_.find(peer);
  if (it == peers_.end()) return;  // e.g. an abandoned teardown notice
  if (token == AckToken::kPeeringRequest &&
      it->second.state == PeerState::kRequested) {
    // Half-open peering: fall back so a later Ad (or re-discovery) retries.
    it->second.state = PeerState::kDiscovered;
    close_open_span(it->second.peering_span, "peering", peer,
                    kOutcomeDeliveryFailure);
  }
  if (token == AckToken::kKeyInstall) {
    close_open_span(it->second.rekey_span, "rekey", peer,
                    kOutcomeDeliveryFailure);
  }
  if (token == AckToken::kNone) {
    // Invocation requests are the only kNone reliable sends we open a span
    // for; the response never came and the retransmits ran dry.
    close_open_span(it->second.invoke_span, "invoke_peer", peer,
                    kOutcomeDeliveryFailure);
  }
  // Other tokens need no rollback: a failed KeyInstall leaves the pending
  // key parked (the peer's grace key keeps old-stamp traffic verifiable),
  // and a failed RekeyComplete just delays the peer's grace-key drop.
}

void Controller::rekey_all_peers() {
  for (auto& [as, info] : peers_) {
    if (info.state == PeerState::kPeered) negotiate_key(as, /*rekey=*/true);
  }
}

void Controller::schedule_rekey_timer() {
  if (config_.rekey_interval == 0) return;
  loop_->schedule(config_.rekey_interval, [this] {
    rekey_all_peers();
    schedule_rekey_timer();
  });
}

std::size_t Controller::invoke(const std::vector<InvocationTriple>& triples,
                               bool alarm_mode) {
  // Distributed tracing: one invocation = one trace. The root span covers
  // the victim-side fan-out; each peer's request gets a child span that the
  // peer's Accept/Reject (or a delivery failure) closes, and its context —
  // with the origin stamp the peers measure time-to-protection against —
  // rides the InvocationRequest and all its retransmits. Each triple's
  // defense window is a child span lasting the window's duration.
  const SimTime t0 = loop_->now();
  std::optional<telemetry::TraceContext> root;
  if (spans_ != nullptr) root = new_trace();
  for (const auto& triple : triples) {
    execute_victim_functions(triple);
    trace_record("invocation_window",
                 {{"functions", static_cast<std::uint64_t>(triple.functions)},
                  {"alarm_mode", alarm_mode ? 1u : 0u}},
                 triple.duration, root);
  }
  engine_->set_alarm_mode(alarm_mode);
  std::size_t asked = 0;
  for (auto& [as, info] : peers_) {
    if (info.state != PeerState::kPeered) continue;
    ++stats_.invocations_sent;
    std::optional<telemetry::TraceContext> ctx;
    if (root) {
      close_open_span(info.invoke_span, "invoke_peer", as, kOutcomeSuperseded);
      info.invoke_span = OpenSpan{root->trace_id, spans_->new_id(),
                                  root->parent_span_id, t0};
      ctx = telemetry::TraceContext{root->trace_id, info.invoke_span->span,
                                    root->origin_ts_us};
    }
    // Reliable with no token: settled by the DeliveryAck or by the
    // Accept/Reject echoing our sequence number, whichever arrives first.
    link_.send_reliable(as, InvocationRequest{triples, alarm_mode},
                        AckToken::kNone, ctx);
    ++asked;
  }
  if (root) {
    spans_->span("invocation", "control", root->trace_id,
                 root->parent_span_id, /*parent=*/0, t0, loop_->now() - t0,
                 {{"peers", asked},
                  {"triples", triples.size()},
                  {"alarm_mode", alarm_mode ? 1u : 0u}});
  }
  return asked;
}

std::size_t Controller::invoke_ddos_defense(const VictimPrefix& victim_prefix,
                                            bool spoofed_source,
                                            std::optional<SimTime> duration) {
  // §VI-A2: the cost-effective strategy pairs the end-based function with
  // the cryptographic one (DP+CDP against d-DDoS, SP+CSP against s-DDoS).
  const InvokableSet functions =
      spoofed_source
          ? (invoke_mask(InvokableFunction::kSp) | invoke_mask(InvokableFunction::kCsp))
          : (invoke_mask(InvokableFunction::kDp) | invoke_mask(InvokableFunction::kCdp));
  return invoke({{victim_prefix, functions,
                  duration.value_or(config_.default_duration)}});
}

std::size_t Controller::invoke_ddos_defense_all(bool spoofed_source,
                                                std::optional<SimTime> duration) {
  const InvokableSet functions =
      spoofed_source
          ? (invoke_mask(InvokableFunction::kSp) | invoke_mask(InvokableFunction::kCsp))
          : (invoke_mask(InvokableFunction::kDp) | invoke_mask(InvokableFunction::kCdp));
  std::vector<InvocationTriple> triples;
  triples.reserve(local_prefixes_.size() + local_prefixes6_.size());
  for (const Prefix4& prefix : local_prefixes_) {
    triples.push_back(
        {prefix, functions, duration.value_or(config_.default_duration)});
  }
  for (const Prefix6& prefix : local_prefixes6_) {
    triples.push_back(
        {prefix, functions, duration.value_or(config_.default_duration)});
  }
  return invoke(triples);
}

void Controller::execute_victim_functions(const InvocationTriple& triple) {
  // The transaction carries durations, not absolute windows: the channel
  // delivers it one con-rou latency later (§IV-B Fig. 2) and the windows
  // start when the routers actually hold the entries.
  TableTransaction txn;
  std::visit(
      [&](const auto& prefix) {
        const AnyPrefix target(prefix);
        for (const auto& exp : kExpansions) {
          if (!has_invokable(triple.functions, exp.function)) continue;
          if (exp.victim_in_dst) {
            txn.install_function(FunctionDirection::kInDst, target,
                                 *exp.victim_in_dst, triple.duration);
          }
          if (exp.victim_out_src) {
            txn.install_function(FunctionDirection::kOutSrc, target,
                                 *exp.victim_out_src, triple.duration);
          }
        }
      },
      triple.victim_prefix);
  if (!txn.empty()) con_rou_->submit(std::move(txn));
}

void Controller::execute_peer_functions(AsNumber victim,
                                        const InvocationTriple& triple,
                                        std::uint64_t exec_span) {
  TableTransaction txn;
  std::visit(
      [&](const auto& prefix) {
        const AnyPrefix target(prefix);
        for (const auto& exp : kExpansions) {
          if (!has_invokable(triple.functions, exp.function)) continue;
          if (exp.peer_out_dst) {
            txn.install_function(FunctionDirection::kOutDst, target,
                                 *exp.peer_out_dst, triple.duration);
          }
          if (exp.peer_out_src) {
            txn.install_function(FunctionDirection::kOutSrc, target,
                                 *exp.peer_out_src, triple.duration);
          }
          if (exp.peer_in_src) {
            txn.install_function(FunctionDirection::kInSrc, target,
                                 *exp.peer_in_src, triple.duration);
          }
        }
      },
      triple.victim_prefix);
  if (txn.empty()) return;
  // Time-to-protection is measured when the transaction actually applies to
  // the engine (after the con-rou latency), not when we accept the request;
  // the hook also leaves the filter_install record in the trace.
  ConRouChannel::AppliedHook hook;
  if (rx_ctx_ && (ttp_seconds_ != nullptr || spans_ != nullptr)) {
    const telemetry::TraceContext ctx = *rx_ctx_;
    hook = [this, ctx, exec_span, victim](TableEpoch epoch, SimTime now) {
      std::uint64_t ttp_us = 0;
      if (const std::uint64_t now_us = network_->clock_us();
          ctx.origin_ts_us != 0 && now_us > ctx.origin_ts_us) {
        ttp_us = now_us - ctx.origin_ts_us;
      }
      if (ttp_seconds_ != nullptr && ctx.origin_ts_us != 0) {
        ttp_seconds_->record(static_cast<double>(ttp_us) / 1e6);
      }
      if (spans_ != nullptr) {
        spans_->instant("filter_install", "control", ctx.trace_id,
                        spans_->new_id(),
                        exec_span != 0 ? exec_span : ctx.parent_span_id, now,
                        {{"victim", static_cast<std::uint64_t>(victim)},
                         {"epoch", epoch},
                         {"ttp_us", ttp_us}});
      }
    };
  }
  track_delivery(victim, con_rou_->submit(std::move(txn), std::move(hook)));
}

void Controller::track_delivery(AsNumber peer, ConRouChannel::DeliveryId id) {
  if (!con_rou_->is_pending(id)) return;  // delivered synchronously
  auto& ids = pending_deliveries_[peer];
  // Opportunistic prune so a long-lived peering doesn't accumulate ids of
  // long-delivered transactions.
  if (ids.size() >= 16) {
    std::erase_if(ids, [this](ConRouChannel::DeliveryId old) {
      return !con_rou_->is_pending(old);
    });
  }
  ids.push_back(id);
}

void Controller::handle_invocation(AsNumber from, const InvocationRequest& msg,
                                   std::uint64_t request_seq) {
  ++stats_.invocations_received;
  // Distributed tracing: the whole peer-side execution is one span parented
  // at the victim's request; the response carries it back so the victim's
  // recv record closes the loop, and filter_install instants hang off it.
  const SimTime exec_start = loop_->now();
  std::uint64_t exec_span = 0;
  std::optional<telemetry::TraceContext> reply_ctx;
  if (spans_ != nullptr && rx_ctx_) {
    exec_span = spans_->new_id();
    reply_ctx = telemetry::TraceContext{rx_ctx_->trace_id, exec_span,
                                        rx_ctx_->origin_ts_us};
  }
  const auto finish_span = [&](std::uint64_t accepted_count) {
    if (exec_span == 0) return;
    spans_->span("execute_invocation", "control", rx_ctx_->trace_id, exec_span,
                 rx_ctx_->parent_span_id, exec_start, loop_->now() - exec_start,
                 {{"victim", static_cast<std::uint64_t>(from)},
                  {"accepted", accepted_count},
                  {"triples", msg.triples.size()}});
  };
  if (!is_peer(from)) {
    link_.send(from, InvocationReject{"not a peer", request_seq}, reply_ctx);
    finish_span(0);
    return;
  }
  // Ownership check (§IV-E3): every requested prefix must belong to the
  // requesting DAS per the RPKI oracle; otherwise a malicious DAS could
  // blackhole third-party prefixes.
  std::size_t accepted = 0;
  for (const auto& triple : msg.triples) {
    const bool owned = std::visit(
        [&](const auto& prefix) { return rpki_->owns(from, prefix); },
        triple.victim_prefix);
    if (!owned) {
      ++stats_.invocations_rejected;
      continue;
    }
    execute_peer_functions(from, triple, exec_span);
    ++accepted;
  }
  if (msg.alarm_mode) {
    engine_->set_alarm_mode(true);
  }
  // Responses are fire-and-forget: they double as the request's ack (seq
  // echo), and a lost response is repaired by the requester's retransmit.
  if (accepted == msg.triples.size()) {
    link_.send(from, InvocationAccept{accepted, request_seq}, reply_ctx);
  } else {
    link_.send(from, InvocationReject{"ownership check failed for some prefixes",
                                      request_seq},
               reply_ctx);
  }
  finish_span(accepted);
}

void Controller::handle_alarm_quit(AsNumber from) {
  if (!is_peer(from)) return;
  // Leave alarm mode: identified spoofing traffic is dropped again.
  engine_->set_alarm_mode(false);
}

void Controller::request_drop_mode() {
  trace_record("drop_mode_requested");
  engine_->set_alarm_mode(false);
  for (const auto& [as, info] : peers_) {
    if (info.state == PeerState::kPeered) {
      link_.send_reliable(as, AlarmQuit{});
    }
  }
  drop_mode_requested_ = true;
}

void Controller::enable_auto_defense(std::size_t threshold_packets,
                                     SimTime window, SimTime holddown) {
  RateDetector::Config cfg;
  cfg.threshold_packets = threshold_packets;
  cfg.window = window;
  cfg.holddown = holddown;
  detector_ = std::make_unique<RateDetector>(local_prefixes_, cfg);
  const auto observer = [this](Ipv4Address dst, SimTime now) {
    const auto overwhelmed = detector_->observe(dst, now);
    if (!overwhelmed) return;
    ++stats_.detector_triggers;
    trace_record("detector_trigger", {{"kind", kTriggerRate}});
    // d-DDoS playbook: the prefix's inbound rate exploded, so invoke
    // DP+CDP at every peer for it.
    invoke_ddos_defense(*overwhelmed, /*spoofed_source=*/false);
  };
  engine_->set_traffic_observer(observer);
}

void Controller::on_alarm_sample(const AlarmSample& sample) {
  if (drop_mode_requested_) return;
  auto& window = samples_[sample.source_as];
  window.push_back(sample.time);
  const SimTime cutoff =
      sample.time > config_.detect_window ? sample.time - config_.detect_window : 0;
  std::erase_if(window, [cutoff](SimTime t) { return t < cutoff; });
  if (window.size() >= config_.detect_threshold) {
    ++stats_.detector_triggers;
    trace_record("detector_trigger",
                 {{"kind", kTriggerAlarm},
                  {"source_as", static_cast<std::uint64_t>(sample.source_as)}});
    request_drop_mode();
  }
}

void Controller::forget_peer(AsNumber peer) {
  trace_record("peering_teardown",
               {{"peer", static_cast<std::uint64_t>(peer)}});
  // Withdraw whatever is still riding the con-rou channel for this peer
  // (key installs, grace-drops, invocation installs it requested), then
  // revoke its keys immediately — teardown is a security action and must
  // not lose the race against an in-flight install.
  if (const auto it = pending_deliveries_.find(peer);
      it != pending_deliveries_.end()) {
    for (const ConRouChannel::DeliveryId id : it->second) con_rou_->cancel(id);
    pending_deliveries_.erase(it);
  }
  TableTransaction revoke;
  revoke.erase_peer(peer);
  con_rou_->submit_immediate(revoke);
  // Stop retransmitting toward the ex-peer. Sequence counters and dedup
  // state survive inside the link on purpose (see ReliableLink::forget_peer).
  link_.forget_peer(peer);
  peers_.erase(peer);
}

void Controller::handle_teardown(AsNumber from) { forget_peer(from); }

void Controller::tear_down_peering(AsNumber peer, std::string reason) {
  if (!peers_.contains(peer)) return;
  // Forget first (cancels in-flight retransmits toward the peer), then ship
  // the notice reliably — revocation is a security action worth retrying.
  forget_peer(peer);
  link_.send_reliable(peer, PeeringTeardown{std::move(reason)});
}

void Controller::shutdown() {
  for (const auto& [as, info] : peers_) {
    if (info.state == PeerState::kPeered) {
      // Best-effort: we are about to detach, so acks could never reach us
      // and a retransmit timer would outlive the controller.
      link_.send(as, PeeringTeardown{"undeploying"});
    }
  }
  peers_.clear();
  // Withdraw every in-flight transaction and retransmit timer (the
  // controller may be destroyed right after this call, so nothing of ours
  // may stay on the loop) and wipe the key material synchronously.
  link_.cancel_all();
  pending_deliveries_.clear();
  con_rou_->cancel_all();
  TableTransaction wipe;
  wipe.clear_keys();
  con_rou_->submit_immediate(wipe);
  network_->detach(config_.as);
}

PeerState Controller::peer_state(AsNumber as) const {
  const auto it = peers_.find(as);
  return it == peers_.end() ? PeerState::kDiscovered : it->second.state;
}

std::vector<AsNumber> Controller::peers() const {
  std::vector<AsNumber> result;
  for (const auto& [as, info] : peers_) {
    if (info.state == PeerState::kPeered) result.push_back(as);
  }
  return result;
}

std::size_t Controller::peer_count() const { return peers().size(); }

Controller::~Controller() { unbind_metrics(); }

void Controller::bind_metrics(telemetry::MetricsRegistry& registry) {
  unbind_metrics();
  const telemetry::Labels labels{{"as", std::to_string(config_.as)}};
  engine_->bind_metrics(registry, labels);
  link_.bind_metrics(registry, labels);
  con_rou_->bind_metrics(registry, labels);
  ttp_seconds_ = &registry.histogram(
      "discs_time_to_protection_seconds",
      {0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0,
       2.5, 5.0, 10.0, 30.0},
      "Seconds from the victim emitting an invocation (trace-context origin "
      "stamp on the transport's clock: simulated time in a simulated world, "
      "wall time across processes) to the filter-install transaction "
      "applying at this peer's engine",
      labels);
  metrics_collector_ = registry.add_collector(
      [this, labels](std::vector<telemetry::Sample>& out) {
        auto emit = [&](const char* name, double v, telemetry::MetricKind kind) {
          out.push_back({name, v, labels, kind});
        };
        using enum telemetry::MetricKind;
        emit("discs_controller_ads_seen_total",
             static_cast<double>(stats_.ads_seen), kCounter);
        emit("discs_controller_peering_requests_sent_total",
             static_cast<double>(stats_.peering_requests_sent), kCounter);
        emit("discs_controller_peering_requests_received_total",
             static_cast<double>(stats_.peering_requests_received), kCounter);
        emit("discs_controller_keys_generated_total",
             static_cast<double>(stats_.keys_generated), kCounter);
        emit("discs_controller_rekeys_completed_total",
             static_cast<double>(stats_.rekeys_completed), kCounter);
        emit("discs_controller_invocations_sent_total",
             static_cast<double>(stats_.invocations_sent), kCounter);
        emit("discs_controller_invocations_received_total",
             static_cast<double>(stats_.invocations_received), kCounter);
        emit("discs_controller_invocations_rejected_total",
             static_cast<double>(stats_.invocations_rejected), kCounter);
        emit("discs_controller_detector_triggers_total",
             static_cast<double>(stats_.detector_triggers), kCounter);
        emit("discs_controller_peers", static_cast<double>(peer_count()),
             kGauge);
        emit("discs_alarm_flow_reports_total",
             static_cast<double>(flow_reports_total()), kCounter);
        emit("discs_alarm_flow_ring_size",
             static_cast<double>(flow_ring_ != nullptr ? flow_ring_->size() : 0),
             kGauge);
      });
  metrics_ = &registry;
}

void Controller::unbind_metrics() {
  if (metrics_ == nullptr) return;
  metrics_->remove_collector(metrics_collector_);
  engine_->unbind_metrics();
  link_.unbind_metrics();
  con_rou_->unbind_metrics();
  metrics_ = nullptr;
  metrics_collector_ = 0;
  ttp_seconds_ = nullptr;
}

void Controller::set_span_tracer(telemetry::SpanTracer* spans) {
  spans_ = spans;
  link_.set_span_tracer(spans);
}

telemetry::TraceContext Controller::new_trace() {
  const std::uint64_t trace = spans_->new_id();
  return {trace, spans_->new_id(), network_->clock_us()};
}

std::optional<telemetry::TraceContext> Controller::trace_record(
    const char* name, const telemetry::SpanTracer::SpanArgs& args,
    std::optional<SimTime> dur,
    const std::optional<telemetry::TraceContext>& parent) {
  if (spans_ == nullptr) return std::nullopt;
  telemetry::TraceContext ctx;
  std::uint64_t parent_span = 0;
  if (const auto& within = parent ? parent : rx_ctx_) {
    ctx = {within->trace_id, spans_->new_id(), within->origin_ts_us};
    parent_span = within->parent_span_id;
  } else {
    ctx = new_trace();
  }
  if (dur) {
    spans_->span(name, "control", ctx.trace_id, ctx.parent_span_id,
                 parent_span, loop_->now(), *dur, args);
  } else {
    spans_->instant(name, "control", ctx.trace_id, ctx.parent_span_id,
                    parent_span, loop_->now(), args);
  }
  return ctx;
}

void Controller::close_open_span(std::optional<OpenSpan>& open,
                                 const char* name, AsNumber peer,
                                 std::uint64_t outcome) {
  if (!open) return;
  if (spans_ != nullptr) {
    spans_->span(name, "control", open->trace, open->span, open->parent,
                 open->start, loop_->now() - open->start,
                 {{"peer", static_cast<std::uint64_t>(peer)},
                  {"outcome", outcome}});
  }
  open.reset();
}

void Controller::enable_flow_reports(std::size_t capacity) {
  flow_ring_ = std::make_unique<telemetry::RingBuffer<FlowReport>>(capacity);
  // The engine already has the controller's alarm sink, so adding a flow
  // sink never changes the shared 1-in-n sampling decision (and thus the
  // shards' RNG streams) — both sinks fire for the same sampled packets.
  engine_->set_flow_sink(
      [this](const FlowReport& report) { flow_ring_->push(report); });
}

std::vector<FlowReport> Controller::alarm_reports() const {
  return flow_ring_ != nullptr ? flow_ring_->snapshot()
                               : std::vector<FlowReport>{};
}

std::uint64_t Controller::flow_reports_total() const {
  return flow_ring_ != nullptr ? flow_ring_->total() : 0;
}

}  // namespace discs

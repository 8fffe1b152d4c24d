// The in-band distributed-tracing context: 24 bytes of causality that ride
// a control-plane envelope across process (and host) boundaries as an
// OPTIONAL DCS2 extension — see control/codec.hpp for the wire layout.
// Carried only when a SpanTracer is attached to the sending controller;
// tracing-disabled nodes never set it, so their wire bytes (and behaviour)
// are identical to the pre-extension format.
#pragma once

#include <cstdint>

namespace discs::telemetry {

/// Identifies where in a distributed causal tree a message belongs.
///
///  * `trace_id` names the whole tree (one protocol operation end-to-end:
///    a peering handshake, a three-phase re-key, an invocation fan-out).
///  * `parent_span_id` is the span the receiver should parent its own
///    work under — for a request it is the sender-side span covering that
///    message; for a response it is the handler span that produced it.
///  * `origin_ts_us` is the microsecond timestamp at the trace root's
///    emission, on the sender's Transport::clock_us() (the victim's clock
///    for invocations): simulated time in a simulated world, CLOCK_REALTIME
///    over real sockets. Peers subtract it from their own transport clock
///    to produce the live time-to-protection histogram without waiting for
///    a post-mortem merge; cross-host accuracy is NTP-grade, same-host and
///    simulated are exact. 0 reads as "no origin" (no TTP sample).
///
/// Ids are never 0 when set by a tracer (0 reads as "no parent" in the
/// merged tree), but the codec accepts any value — the context is
/// observability data, not protocol state, and must never fail a decode.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  std::uint64_t origin_ts_us = 0;

  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

}  // namespace discs::telemetry

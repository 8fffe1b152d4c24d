// Control-plane transport abstraction: the narrow seam between the
// protocol stack (Controller + ReliableLink, which own sequencing, acks,
// retransmission, and dedup) and whatever actually moves an Envelope from
// one AS's controller to another's.
//
// Two backends implement it:
//  * ConConNetwork (control/secure_channel.hpp) — the in-process simulated
//    bus over the discrete-event loop, with TLS cost accounting and the
//    seeded FaultPlan. Default for tests and scenarios; fully
//    deterministic.
//  * UdpTransport (transport/udp_transport.hpp) — real UDP sockets on a
//    poll-driven RealtimeDriver, one datagram per encoded DCS2 envelope,
//    peers addressed through an AS -> endpoint map.
//
// The contract is deliberately datagram-shaped so both backends behave
// identically to the layer above:
//  * send() is fire-and-forget and MAY silently lose, duplicate, or
//    reorder envelopes — reliability is ReliableLink's job, never the
//    transport's.
//  * attach() registers the local handler for an AS; a send toward an
//    unattached/unreachable AS vanishes silently (the sender only learns
//    through its own timeouts, like a real network).
//  * Handlers run on the owning event loop's thread; no transport calls
//    back concurrently.
#pragma once

#include <cstdint>
#include <functional>

#include "control/messages.hpp"

namespace discs {

class Transport {
 public:
  using Handler = std::function<void(const Envelope&)>;

  virtual ~Transport() = default;

  /// Registers the controller of `as`; replaces any previous handler.
  virtual void attach(AsNumber as, Handler handler) = 0;
  virtual void detach(AsNumber as) = 0;

  /// Sends a fully formed envelope (sequence number and ack flag travel
  /// with the message; retransmissions reuse them verbatim).
  virtual void send(Envelope envelope) = 0;

  /// The clock this world runs on, in microseconds: simulated time for the
  /// in-process bus, the wall clock for real sockets. Trace roots stamp
  /// their origin with it, so time-to-protection reads modeled delay in a
  /// simulation and real delay across processes.
  [[nodiscard]] virtual std::uint64_t clock_us() const = 0;
};

}  // namespace discs

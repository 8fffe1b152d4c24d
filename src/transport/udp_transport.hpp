// Real UDP socket backend for the control plane: one datagram per encoded
// DCS2 envelope, one bound socket per locally attached AS, peers addressed
// through the shared AS -> endpoint map. Receive readiness is driven by a
// RealtimeDriver poll loop, so ReliableLink's retransmit timers (scheduled
// on the same EventLoop) interleave with packet arrival exactly as they do
// with simulated delivery — the protocol stack above cannot tell the
// backends apart except by the clock being real.
//
// Loss semantics match the Transport contract: UDP itself may drop or
// reorder, a send toward an AS missing from the map (or whose process is
// down) vanishes silently, and an optional deterministic loss shim drops
// outgoing datagrams before the socket — that is where the chaos suite
// injects its 30% loss when it runs over real loopback, so retransmission
// is exercised against the genuine socket path.
//
// Multiple ASes may attach to one UdpTransport in a single process (the
// loopback tests run whole topologies that way); discs_node attaches
// exactly one. Everything runs on the driver's thread — no locking.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>

#include "common/rng.hpp"
#include "simkit/realtime.hpp"
#include "telemetry/metrics.hpp"
#include "transport/endpoint_map.hpp"
#include "transport/transport.hpp"

namespace discs {

/// Deterministic send-side loss: each outgoing datagram (retransmissions
/// included — they are separate datagrams) is independently dropped with
/// drop_probability, decided by a dedicated seeded RNG stream.
struct LossShim {
  double drop_probability = 0.0;
  std::uint64_t seed = 0x5eed;

  [[nodiscard]] bool lossless() const { return drop_probability <= 0.0; }
};

struct UdpTransportStats {
  std::uint64_t datagrams_sent = 0;      // handed to sendto successfully
  std::uint64_t datagrams_received = 0;  // read off a socket
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t decode_errors = 0;   // datagrams decode_envelope rejected
  std::uint64_t send_errors = 0;     // sendto failures (EMSGSIZE, ...)
  std::uint64_t no_endpoint = 0;     // destination AS not in the map
  std::uint64_t not_attached = 0;    // source AS has no local socket
  std::uint64_t misrouted = 0;       // envelope.to != receiving socket's AS
  std::uint64_t shim_dropped = 0;    // eaten by the loss shim
  std::uint64_t shim_blocked = 0;    // eaten by a blocked AS pair

  friend bool operator==(const UdpTransportStats&,
                         const UdpTransportStats&) = default;
};

class UdpTransport : public Transport {
 public:
  /// Throws std::invalid_argument on an empty endpoint map and
  /// std::runtime_error when an endpoint host fails to parse.
  UdpTransport(RealtimeDriver& driver, EndpointMap peers, LossShim shim = {});
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// Binds a UDP socket on `as`'s endpoint and starts dispatching inbound
  /// envelopes to `handler`. Port 0 binds ephemeral and patches the map
  /// with the kernel-assigned port (usable when every attach happens in
  /// this process before traffic starts). Throws std::invalid_argument
  /// when `as` is not in the map, std::runtime_error on socket errors.
  void attach(AsNumber as, Handler handler) override;
  void detach(AsNumber as) override;

  /// Encodes and transmits one datagram toward envelope.to's endpoint.
  /// All failure modes are silent-by-contract and counted in stats().
  void send(Envelope envelope) override;

  /// The wall clock (telemetry::wall_clock_us): the only clock two
  /// unrelated processes share.
  [[nodiscard]] std::uint64_t clock_us() const override;

  /// Replaces the loss shim (resets its RNG stream from shim.seed).
  void set_loss(LossShim shim);
  /// Blocks/unblocks all traffic between `a` and `b` at the shim, both
  /// directions — the real-transport analogue of a FaultPlan partition.
  void set_blocked(AsNumber a, AsNumber b, bool blocked);

  [[nodiscard]] const UdpTransportStats& stats() const { return stats_; }
  [[nodiscard]] const EndpointMap& endpoints() const { return peers_; }
  /// The actual bound port of a locally attached AS (after any ephemeral
  /// bind); 0 when not attached.
  [[nodiscard]] std::uint16_t local_port(AsNumber as) const;
  [[nodiscard]] std::size_t attached_count() const { return sockets_.size(); }

  /// Pull-mode view over UdpTransportStats plus the attached-socket count.
  /// Re-binding replaces; the destructor unbinds.
  void bind_metrics(telemetry::MetricsRegistry& registry,
                    telemetry::Labels labels = {});
  void unbind_metrics();

 private:
  struct Socket {
    int fd = -1;
    Handler handler;
  };

  /// Drains every datagram currently queued on `as`'s socket.
  void drain(AsNumber as);

  RealtimeDriver* driver_;
  EndpointMap peers_;
  LossShim shim_;
  Xoshiro256 shim_rng_;
  std::set<std::pair<AsNumber, AsNumber>> blocked_;  // normalized (min,max)
  std::map<AsNumber, Socket> sockets_;
  UdpTransportStats stats_;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::MetricsRegistry::CollectorId metrics_collector_ = 0;
};

}  // namespace discs

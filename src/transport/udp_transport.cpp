#include "transport/udp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "control/codec.hpp"
#include "telemetry/span.hpp"

namespace discs {
namespace {

sockaddr_in resolve(const UdpEndpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("UdpTransport: bad host '" + ep.host + "'");
  }
  return addr;
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw std::runtime_error("UdpTransport: fcntl(O_NONBLOCK) failed");
  }
}

std::pair<AsNumber, AsNumber> pair_key(AsNumber a, AsNumber b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

/// Largest UDP payload we ever read; an encoded envelope is capped well
/// below this by the codec's 16-bit length fields.
constexpr std::size_t kMaxDatagram = 65536;

}  // namespace

UdpTransport::UdpTransport(RealtimeDriver& driver, EndpointMap peers,
                           LossShim shim)
    : driver_(&driver),
      peers_(std::move(peers)),
      shim_(shim),
      shim_rng_(shim.seed) {
  if (peers_.empty()) {
    throw std::invalid_argument("UdpTransport: empty endpoint map");
  }
  // Fail fast on unresolvable hosts instead of at first send.
  for (const auto& [as, ep] : peers_) resolve(ep);
}

UdpTransport::~UdpTransport() {
  unbind_metrics();
  while (!sockets_.empty()) detach(sockets_.begin()->first);
}

void UdpTransport::attach(AsNumber as, Handler handler) {
  const auto ep = peers_.find(as);
  if (ep == peers_.end()) {
    throw std::invalid_argument("UdpTransport: AS " + std::to_string(as) +
                                " has no endpoint");
  }
  if (const auto existing = sockets_.find(as); existing != sockets_.end()) {
    // Re-attach replaces the handler; the socket stays bound.
    existing->second.handler = std::move(handler);
    return;
  }

  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) throw std::runtime_error("UdpTransport: socket() failed");
  sockaddr_in addr = resolve(ep->second);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("UdpTransport: bind(" + ep->second.host + ":" +
                             std::to_string(ep->second.port) +
                             ") failed: " + std::strerror(err));
  }
  if (ep->second.port == 0) {
    // Learn the kernel-assigned port so local peers can reach us.
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      ::close(fd);
      throw std::runtime_error("UdpTransport: getsockname() failed");
    }
    ep->second.port = ntohs(bound.sin_port);
  }
  set_nonblocking(fd);
  sockets_[as] = Socket{fd, std::move(handler)};
  driver_->watch_fd(fd, [this, as] { drain(as); });
}

void UdpTransport::detach(AsNumber as) {
  const auto it = sockets_.find(as);
  if (it == sockets_.end()) return;
  driver_->unwatch_fd(it->second.fd);
  ::close(it->second.fd);
  sockets_.erase(it);
}

std::uint64_t UdpTransport::clock_us() const {
  return telemetry::wall_clock_us();
}

void UdpTransport::send(Envelope envelope) {
  const auto self = sockets_.find(envelope.from);
  if (self == sockets_.end()) {
    ++stats_.not_attached;
    return;
  }
  const auto dest = peers_.find(envelope.to);
  if (dest == peers_.end()) {
    ++stats_.no_endpoint;
    return;
  }
  if (blocked_.contains(pair_key(envelope.from, envelope.to))) {
    ++stats_.shim_blocked;
    return;
  }
  if (!shim_.lossless() && shim_rng_.chance(shim_.drop_probability)) {
    ++stats_.shim_dropped;
    return;
  }

  const std::vector<std::uint8_t> wire = encode_envelope(envelope);
  const sockaddr_in addr = resolve(dest->second);
  const ssize_t sent =
      ::sendto(self->second.fd, wire.data(), wire.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (sent < 0 || static_cast<std::size_t>(sent) != wire.size()) {
    ++stats_.send_errors;  // EMSGSIZE, ECONNREFUSED from a previous ICMP, ...
    return;
  }
  ++stats_.datagrams_sent;
  stats_.bytes_sent += wire.size();
}

void UdpTransport::drain(AsNumber as) {
  const auto it = sockets_.find(as);
  if (it == sockets_.end()) return;
  std::uint8_t buf[kMaxDatagram];
  while (true) {
    const ssize_t n = ::recv(it->second.fd, buf, sizeof(buf), 0);
    if (n < 0) {
      // EAGAIN ends the drain; ECONNREFUSED (ICMP from an unbound peer
      // port) is transient noise on a connectionless socket — keep going.
      if (errno == ECONNREFUSED) continue;
      return;
    }
    ++stats_.datagrams_received;
    stats_.bytes_received += static_cast<std::uint64_t>(n);
    const auto envelope =
        decode_envelope({buf, static_cast<std::size_t>(n)});
    if (!envelope) {
      ++stats_.decode_errors;
      continue;
    }
    if (envelope->to != as) {
      ++stats_.misrouted;
      continue;
    }
    if (it->second.handler) it->second.handler(*envelope);
  }
}

void UdpTransport::set_loss(LossShim shim) {
  shim_ = shim;
  shim_rng_ = Xoshiro256{shim.seed};
}

void UdpTransport::set_blocked(AsNumber a, AsNumber b, bool blocked) {
  if (blocked) {
    blocked_.insert(pair_key(a, b));
  } else {
    blocked_.erase(pair_key(a, b));
  }
}

std::uint16_t UdpTransport::local_port(AsNumber as) const {
  if (!sockets_.contains(as)) return 0;
  const auto it = peers_.find(as);
  return it == peers_.end() ? 0 : it->second.port;
}

void UdpTransport::bind_metrics(telemetry::MetricsRegistry& registry,
                                telemetry::Labels labels) {
  unbind_metrics();
  metrics_collector_ = registry.add_collector(
      [this, labels](std::vector<telemetry::Sample>& out) {
        auto emit = [&](const char* name, double v, telemetry::MetricKind kind) {
          out.push_back({name, v, labels, kind});
        };
        using enum telemetry::MetricKind;
        emit("discs_udp_datagrams_sent_total",
             static_cast<double>(stats_.datagrams_sent), kCounter);
        emit("discs_udp_datagrams_received_total",
             static_cast<double>(stats_.datagrams_received), kCounter);
        emit("discs_udp_bytes_sent_total",
             static_cast<double>(stats_.bytes_sent), kCounter);
        emit("discs_udp_bytes_received_total",
             static_cast<double>(stats_.bytes_received), kCounter);
        emit("discs_udp_decode_errors_total",
             static_cast<double>(stats_.decode_errors), kCounter);
        emit("discs_udp_send_errors_total",
             static_cast<double>(stats_.send_errors), kCounter);
        emit("discs_udp_no_endpoint_total",
             static_cast<double>(stats_.no_endpoint), kCounter);
        emit("discs_udp_misrouted_total",
             static_cast<double>(stats_.misrouted), kCounter);
        emit("discs_udp_shim_dropped_total",
             static_cast<double>(stats_.shim_dropped), kCounter);
        emit("discs_udp_shim_blocked_total",
             static_cast<double>(stats_.shim_blocked), kCounter);
        emit("discs_udp_attached_sockets",
             static_cast<double>(sockets_.size()), kGauge);
      });
  metrics_ = &registry;
}

void UdpTransport::unbind_metrics() {
  if (metrics_ != nullptr) metrics_->remove_collector(metrics_collector_);
  metrics_ = nullptr;
  metrics_collector_ = 0;
}

}  // namespace discs

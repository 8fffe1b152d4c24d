#include "control/codec.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

namespace discs {
namespace {

constexpr std::uint8_t kMagic[4] = {'D', 'C', 'S', '2'};
constexpr std::size_t kHeaderSize = 24;
constexpr std::uint8_t kFlagAckRequested = 1u << 0;
constexpr std::uint8_t kFlagTraceContext = 1u << 1;
constexpr std::uint8_t kKnownFlags = kFlagAckRequested | kFlagTraceContext;

// ---- primitive writers ----
//
// Every field goes through a sink: ByteSink appends the big-endian bytes,
// SizeSink only counts them. encode_envelope and encoded_size run the same
// put_* layout code over one or the other, so the two cannot disagree.

struct ByteSink {
  std::vector<std::uint8_t>& out;

  void u8(std::uint8_t v) { out.push_back(v); }
  void u16(std::uint16_t v) {
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v & 0xff));
  }
  void u32(std::uint32_t v) {
    for (int i = 3; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 7; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void bytes(const std::uint8_t* data, std::size_t n) {
    out.insert(out.end(), data, data + n);
  }
};

struct SizeSink {
  std::size_t size = 0;

  void u8(std::uint8_t) { size += 1; }
  void u16(std::uint16_t) { size += 2; }
  void u32(std::uint32_t) { size += 4; }
  void u64(std::uint64_t) { size += 8; }
  void bytes(const std::uint8_t*, std::size_t n) { size += n; }
};

/// Guards every u16 length/count prefix: a size that does not fit must
/// fail loudly at the sender instead of encoding a wrong length the
/// decoder would reject as trailing junk (silently losing the message).
std::uint16_t checked_u16_size(std::size_t n, const char* what) {
  if (n > kMaxWireLength) {
    throw std::length_error(std::string("encode_envelope: ") + what + " size " +
                            std::to_string(n) + " exceeds the u16 prefix (" +
                            std::to_string(kMaxWireLength) + ")");
  }
  return static_cast<std::uint16_t>(n);
}

template <class Sink>
void put_string(Sink& out, const std::string& s) {
  out.u16(checked_u16_size(s.size(), "string"));
  out.bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

template <class Sink>
void put_victim_prefix(Sink& out, const VictimPrefix& vp) {
  if (const auto* v4 = std::get_if<Prefix4>(&vp)) {
    out.u8(4);
    out.u32(v4->address().bits());
    out.u8(static_cast<std::uint8_t>(v4->length()));
  } else {
    const auto& v6 = std::get<Prefix6>(vp);
    out.u8(6);
    out.bytes(v6.address().bytes().data(), v6.address().bytes().size());
    out.u8(static_cast<std::uint8_t>(v6.length()));
  }
}

/// The type-specific body that follows the header (and trace extension).
template <class Sink>
void put_body(Sink& out, const ControlMessage& message) {
  std::visit(
      [&](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, PeeringReject> ||
                      std::is_same_v<T, PeeringTeardown>) {
          put_string(out, body.reason);
        } else if constexpr (std::is_same_v<T, InvocationReject>) {
          put_string(out, body.reason);
          out.u64(body.request_seq);
        } else if constexpr (std::is_same_v<T, KeyInstall>) {
          out.bytes(body.key.data(), body.key.size());
          out.u64(body.serial);
          out.u8(body.rekey ? 1 : 0);
        } else if constexpr (std::is_same_v<T, KeyInstallAck>) {
          out.u64(body.serial);
        } else if constexpr (std::is_same_v<T, RekeyComplete>) {
          out.u64(body.serial);
        } else if constexpr (std::is_same_v<T, DeliveryAck>) {
          out.u64(body.acked_seq);
        } else if constexpr (std::is_same_v<T, InvocationRequest>) {
          out.u8(body.alarm_mode ? 1 : 0);
          out.u16(checked_u16_size(body.triples.size(), "triple count"));
          for (const auto& triple : body.triples) {
            put_victim_prefix(out, triple.victim_prefix);
            out.u8(triple.functions);
            out.u64(triple.duration);
          }
        } else if constexpr (std::is_same_v<T, InvocationAccept>) {
          out.u32(static_cast<std::uint32_t>(body.accepted_triples));
          out.u64(body.request_seq);
        }
        // PeeringRequest / PeeringAccept / AlarmQuit: empty body.
      },
      message);
}

// ---- primitive readers (cursor-based, fail via optional) ----

struct Reader {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;
  bool failed = false;

  bool need(std::size_t n) {
    if (failed || pos + n > data.size()) {
      failed = true;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!need(1)) return 0;
    return data[pos++];
  }
  std::uint16_t u16() {
    if (!need(2)) return 0;
    const std::uint16_t v = static_cast<std::uint16_t>((data[pos] << 8) | data[pos + 1]);
    pos += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data[pos++];
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | data[pos++];
    return v;
  }
  std::string string() {
    const std::size_t n = u16();
    if (!need(n)) return {};
    std::string s(reinterpret_cast<const char*>(data.data() + pos), n);
    pos += n;
    return s;
  }
  std::optional<VictimPrefix> victim_prefix() {
    const std::uint8_t family = u8();
    if (family == 4) {
      const std::uint32_t bits = u32();
      const std::uint8_t len = u8();
      if (failed || len > 32) {
        failed = true;
        return std::nullopt;
      }
      return VictimPrefix{Prefix4(Ipv4Address(bits), len)};
    }
    if (family == 6) {
      if (!need(16)) return std::nullopt;
      std::array<std::uint8_t, 16> bytes{};
      std::memcpy(bytes.data(), data.data() + pos, 16);
      pos += 16;
      const std::uint8_t len = u8();
      if (failed || len > 128) {
        failed = true;
        return std::nullopt;
      }
      return VictimPrefix{Prefix6(Ipv6Address(bytes), len)};
    }
    failed = true;
    return std::nullopt;
  }
};

}  // namespace

MessageType message_type(const ControlMessage& message) {
  return std::visit(
      [](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, PeeringRequest>) return MessageType::kPeeringRequest;
        else if constexpr (std::is_same_v<T, PeeringAccept>) return MessageType::kPeeringAccept;
        else if constexpr (std::is_same_v<T, PeeringReject>) return MessageType::kPeeringReject;
        else if constexpr (std::is_same_v<T, KeyInstall>) return MessageType::kKeyInstall;
        else if constexpr (std::is_same_v<T, KeyInstallAck>) return MessageType::kKeyInstallAck;
        else if constexpr (std::is_same_v<T, InvocationRequest>) return MessageType::kInvocationRequest;
        else if constexpr (std::is_same_v<T, InvocationAccept>) return MessageType::kInvocationAccept;
        else if constexpr (std::is_same_v<T, InvocationReject>) return MessageType::kInvocationReject;
        else if constexpr (std::is_same_v<T, AlarmQuit>) return MessageType::kAlarmQuit;
        else if constexpr (std::is_same_v<T, PeeringTeardown>) return MessageType::kPeeringTeardown;
        else if constexpr (std::is_same_v<T, DeliveryAck>) return MessageType::kDeliveryAck;
        else {
          static_assert(std::is_same_v<T, RekeyComplete>);
          return MessageType::kRekeyComplete;
        }
      },
      message);
}

std::vector<std::uint8_t> encode_envelope(const Envelope& envelope) {
  std::vector<std::uint8_t> bytes;
  ByteSink out{bytes};
  out.bytes(kMagic, sizeof kMagic);
  out.u8(static_cast<std::uint8_t>(message_type(envelope.message)));
  std::uint8_t flags = envelope.ack_requested ? kFlagAckRequested : 0;
  if (envelope.trace) flags |= kFlagTraceContext;
  out.u8(flags);
  out.u16(0);  // reserved
  out.u32(envelope.from);
  out.u32(envelope.to);
  out.u64(envelope.seq);
  if (envelope.trace) {
    out.u64(envelope.trace->trace_id);
    out.u64(envelope.trace->parent_span_id);
    out.u64(envelope.trace->origin_ts_us);
  }
  put_body(out, envelope.message);
  return bytes;
}

std::size_t encoded_size(const ControlMessage& message) {
  SizeSink out{kHeaderSize};
  put_body(out, message);
  return out.size;
}

std::optional<Envelope> decode_envelope(std::span<const std::uint8_t> wire) {
  if (wire.size() < kHeaderSize) return std::nullopt;
  if (std::memcmp(wire.data(), kMagic, 4) != 0) return std::nullopt;

  Reader r{wire, 4};
  const std::uint8_t type = r.u8();
  const std::uint8_t flags = r.u8();
  if ((flags & ~kKnownFlags) != 0) return std::nullopt;  // unknown flags
  (void)r.u16();  // reserved
  Envelope envelope;
  envelope.ack_requested = (flags & kFlagAckRequested) != 0;
  envelope.from = r.u32();
  envelope.to = r.u32();
  envelope.seq = r.u64();
  if ((flags & kFlagTraceContext) != 0) {
    telemetry::TraceContext ctx;
    ctx.trace_id = r.u64();
    ctx.parent_span_id = r.u64();
    ctx.origin_ts_us = r.u64();
    if (r.failed) return std::nullopt;
    envelope.trace = ctx;
  }

  switch (static_cast<MessageType>(type)) {
    case MessageType::kPeeringRequest:
      envelope.message = PeeringRequest{};
      break;
    case MessageType::kPeeringAccept:
      envelope.message = PeeringAccept{};
      break;
    case MessageType::kPeeringReject:
      envelope.message = PeeringReject{r.string()};
      break;
    case MessageType::kKeyInstall: {
      KeyInstall body;
      if (!r.need(16)) return std::nullopt;
      std::memcpy(body.key.data(), r.data.data() + r.pos, 16);
      r.pos += 16;
      body.serial = r.u64();
      body.rekey = r.u8() != 0;
      envelope.message = body;
      break;
    }
    case MessageType::kKeyInstallAck:
      envelope.message = KeyInstallAck{r.u64()};
      break;
    case MessageType::kRekeyComplete:
      envelope.message = RekeyComplete{r.u64()};
      break;
    case MessageType::kDeliveryAck:
      envelope.message = DeliveryAck{r.u64()};
      break;
    case MessageType::kInvocationRequest: {
      InvocationRequest body;
      body.alarm_mode = r.u8() != 0;
      const std::uint16_t count = r.u16();
      for (std::uint16_t k = 0; k < count && !r.failed; ++k) {
        InvocationTriple triple;
        auto prefix = r.victim_prefix();
        if (!prefix) return std::nullopt;
        triple.victim_prefix = *prefix;
        triple.functions = r.u8();
        triple.duration = r.u64();
        body.triples.push_back(std::move(triple));
      }
      envelope.message = std::move(body);
      break;
    }
    case MessageType::kInvocationAccept: {
      InvocationAccept body;
      body.accepted_triples = r.u32();
      body.request_seq = r.u64();
      envelope.message = body;
      break;
    }
    case MessageType::kInvocationReject: {
      InvocationReject body;
      body.reason = r.string();
      body.request_seq = r.u64();
      envelope.message = std::move(body);
      break;
    }
    case MessageType::kAlarmQuit:
      envelope.message = AlarmQuit{};
      break;
    case MessageType::kPeeringTeardown:
      envelope.message = PeeringTeardown{r.string()};
      break;
    default:
      return std::nullopt;
  }
  if (r.failed || r.pos != wire.size()) return std::nullopt;  // no trailing junk
  return envelope;
}

}  // namespace discs

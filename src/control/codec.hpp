// Wire codec for the controller-to-controller protocol: every
// ControlMessage encodes to a self-describing byte string and back. The
// simulator's channel moves C++ objects for speed; UdpTransport puts these
// exact bytes on real sockets (one datagram per envelope), and the tests
// pin the format: a 24-byte common header followed by a type-specific body.
//
//   header: magic "DCS2" (4) | type (1) | flags (1) | reserved (2) |
//           from AS (4) | to AS (4) | sequence number (8)
//
// Flags bit 0 = ack requested (the sender retransmits until a DeliveryAck
// for this sequence number arrives). "DCS2" supersedes the pre-reliability
// "DCS1" format, whose header lacked the sequence number.
//
// Flags bit 1 = trace context present: a fixed 24-byte extension follows
// the header, BEFORE the type-specific body —
//
//   extension: trace id (8) | parent span id (8) | origin timestamp µs (8)
//
// The extension is optional and backwards compatible in the only direction
// that matters: frames without the flag decode exactly as before (the
// pre-extension byte streams are pinned by a golden corpus in codec_test),
// and an envelope without a context encodes byte-identically to the
// pre-extension encoder. Decoders that predate the extension reject
// flagged frames as "unknown flag" rather than misparse them — the
// reliability layer's retransmit/failure path then surfaces the
// incompatibility instead of silent corruption.
//
// All integers are big-endian. Strings are length-prefixed (u16), and the
// InvocationRequest triple list is count-prefixed (u16): both fields top
// out at 65535. encode_envelope REJECTS anything larger by throwing — it
// never truncates a length through the prefix, which would produce a frame
// whose declared and actual sizes disagree (the decoder's trailing-junk
// check would then silently discard the message in flight).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "control/messages.hpp"

namespace discs {

/// Largest value a u16 length/count prefix can carry: the size ceiling for
/// reason strings and for InvocationRequest triple lists.
inline constexpr std::size_t kMaxWireLength = 65535;

/// Serializes an envelope (header + message body). Throws std::length_error
/// when a string field or the triple list exceeds kMaxWireLength elements —
/// the contract is reject-at-source, never clamp: a silently shortened
/// defense request (dropped triples) or a mis-declared length would be
/// strictly worse than a loud local failure.
[[nodiscard]] std::vector<std::uint8_t> encode_envelope(const Envelope& envelope);

/// Length of encode_envelope(Envelope{from, to, message}) for an envelope
/// without a trace context, computed from the same field layout without
/// building the bytes. Throws std::length_error where encode_envelope does.
[[nodiscard]] std::size_t encoded_size(const ControlMessage& message);

/// Parses an envelope; nullopt on any malformed input (bad magic, unknown
/// type, truncation, trailing bytes, out-of-range values).
[[nodiscard]] std::optional<Envelope> decode_envelope(
    std::span<const std::uint8_t> wire);

/// Stable type codes (wire ABI; do not renumber).
enum class MessageType : std::uint8_t {
  kPeeringRequest = 1,
  kPeeringAccept = 2,
  kPeeringReject = 3,
  kKeyInstall = 4,
  kKeyInstallAck = 5,
  kInvocationRequest = 6,
  kInvocationAccept = 7,
  kInvocationReject = 8,
  kAlarmQuit = 9,
  kPeeringTeardown = 10,
  kDeliveryAck = 11,
  kRekeyComplete = 12,
};

/// The type code a message variant encodes to.
[[nodiscard]] MessageType message_type(const ControlMessage& message);

}  // namespace discs

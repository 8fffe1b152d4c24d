// Wire-codec tests: round trips for every message type, format pinning,
// and decode fuzzing (mutations + garbage must never crash or mis-accept).
#include "control/codec.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "random_envelope.hpp"

namespace discs {
namespace {

Envelope wrap(ControlMessage message) {
  return Envelope{65001, 65002, std::move(message)};
}

void expect_round_trip(const Envelope& envelope) {
  const auto wire = encode_envelope(envelope);
  const auto back = decode_envelope(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->from, envelope.from);
  EXPECT_EQ(back->to, envelope.to);
  EXPECT_EQ(message_type(back->message), message_type(envelope.message));
  EXPECT_EQ(encode_envelope(*back), wire);  // canonical re-encoding
}

TEST(CodecTest, EmptyBodyMessages) {
  expect_round_trip(wrap(PeeringRequest{}));
  expect_round_trip(wrap(PeeringAccept{}));
  expect_round_trip(wrap(AlarmQuit{}));
}

TEST(CodecTest, ReasonCarryingMessages) {
  expect_round_trip(wrap(PeeringReject{"blacklisted"}));
  expect_round_trip(wrap(InvocationReject{"ownership check failed"}));
  expect_round_trip(wrap(PeeringTeardown{"undeploying"}));
  // Content check.
  const auto wire = encode_envelope(wrap(PeeringReject{"why"}));
  const auto back = decode_envelope(wire);
  EXPECT_EQ(std::get<PeeringReject>(back->message).reason, "why");
}

TEST(CodecTest, KeyInstallRoundTrip) {
  KeyInstall body;
  body.key = derive_key128(42);
  body.serial = 0x1122334455667788ull;
  body.rekey = true;
  expect_round_trip(wrap(body));
  const auto back = decode_envelope(encode_envelope(wrap(body)));
  const auto& decoded = std::get<KeyInstall>(back->message);
  EXPECT_EQ(decoded.key, body.key);
  EXPECT_EQ(decoded.serial, body.serial);
  EXPECT_TRUE(decoded.rekey);
}

TEST(CodecTest, InvocationRequestWithMixedFamilies) {
  InvocationRequest body;
  body.alarm_mode = true;
  body.triples.push_back({*Prefix4::parse("10.1.0.0/16"),
                          invoke_mask(InvokableFunction::kDp) |
                              invoke_mask(InvokableFunction::kCdp),
                          24 * kHour});
  body.triples.push_back({*Prefix6::parse("2400:1::/32"),
                          invoke_mask(InvokableFunction::kSp), kHour});
  expect_round_trip(wrap(body));

  const auto back = decode_envelope(encode_envelope(wrap(body)));
  const auto& decoded = std::get<InvocationRequest>(back->message);
  ASSERT_EQ(decoded.triples.size(), 2u);
  EXPECT_TRUE(decoded.alarm_mode);
  EXPECT_EQ(decoded.triples[0], body.triples[0]);
  EXPECT_EQ(decoded.triples[1], body.triples[1]);
}

// encoded_size walks the encoder's field layout without building bytes; it
// must agree with encode_envelope on every alternative, InvocationRequest
// with empty, v4-only, v6-only and mixed triple lists included.
TEST(CodecTest, EncodedSizeMatchesTheEncoderOnEveryAlternative) {
  InvocationRequest v4;
  v4.triples.push_back({*Prefix4::parse("10.1.0.0/16"), kInvokeAll, kHour});
  v4.triples.push_back({*Prefix4::parse("192.0.2.0/24"), 1, kMinute});
  InvocationRequest v6;
  v6.alarm_mode = true;
  v6.triples.push_back({*Prefix6::parse("2400:1::/32"), 3, kHour});
  InvocationRequest mixed = v4;
  mixed.triples.push_back(v6.triples.front());
  const std::vector<ControlMessage> messages = {
      PeeringRequest{},
      PeeringAccept{},
      PeeringReject{"blacklisted"},
      KeyInstall{derive_key128(7), 9, true},
      KeyInstallAck{9},
      InvocationRequest{},
      v4,
      v6,
      mixed,
      InvocationAccept{3, 11},
      InvocationReject{"ownership check failed", 12},
      AlarmQuit{},
      PeeringTeardown{""},
      DeliveryAck{13},
      RekeyComplete{9},
  };
  std::set<std::size_t> alternatives;
  for (const ControlMessage& m : messages) {
    alternatives.insert(m.index());
    EXPECT_EQ(encoded_size(m), encode_envelope(wrap(m)).size())
        << "alternative " << m.index();
  }
  EXPECT_EQ(alternatives.size(), std::variant_size_v<ControlMessage>);

  Xoshiro256 rng(0x512e);
  for (std::size_t k = 0; k < 240; ++k) {
    const ControlMessage m = testing::random_message(rng, k);
    EXPECT_EQ(encoded_size(m), encode_envelope(wrap(m)).size())
        << "alternative " << m.index();
  }
}

TEST(CodecTest, HeaderFormatIsPinned) {
  Envelope envelope{0x01020304, 0x0a0b0c0d, PeeringRequest{}};
  envelope.seq = 0x1122334455667788ull;
  envelope.ack_requested = true;
  const auto wire = encode_envelope(envelope);
  ASSERT_EQ(wire.size(), 24u);
  EXPECT_EQ(wire[0], 'D');
  EXPECT_EQ(wire[3], '2');
  EXPECT_EQ(wire[4], 1);  // kPeeringRequest
  EXPECT_EQ(wire[5], 1);  // flags: ack requested
  EXPECT_EQ(wire[6], 0);  // reserved
  EXPECT_EQ(wire[7], 0);
  EXPECT_EQ(wire[8], 0x01);
  EXPECT_EQ(wire[11], 0x04);
  EXPECT_EQ(wire[12], 0x0a);
  EXPECT_EQ(wire[15], 0x0d);
  EXPECT_EQ(wire[16], 0x11);  // seq, big-endian
  EXPECT_EQ(wire[23], 0x88);

  const auto back = decode_envelope(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, envelope.seq);
  EXPECT_TRUE(back->ack_requested);
}

TEST(CodecTest, RejectsUnknownFlagBits) {
  auto wire = encode_envelope(wrap(PeeringRequest{}));
  wire[5] = 0x04;  // undefined flag bit (bit 1 is now the trace context)
  EXPECT_FALSE(decode_envelope(wire).has_value());
  wire[5] = 0x80;
  EXPECT_FALSE(decode_envelope(wire).has_value());
}

// ---- trace-context extension (flag bit 1): 24 bytes between header and
// body, optional, and invisible when absent — a context-free envelope must
// encode byte-identically to the pre-extension codec.

TEST(CodecTest, TraceContextRoundTripsOnEveryVariant) {
  Xoshiro256 rng(0x77ace);
  for (std::size_t k = 0; k < 24; ++k) {  // two laps over the 12 variants
    Envelope envelope = testing::random_envelope(rng, k);
    envelope.trace = telemetry::TraceContext{rng.next(), rng.next(), rng.next()};
    const auto wire = encode_envelope(envelope);
    EXPECT_EQ(wire[5] & 0x02, 0x02) << "trace flag bit must be set";
    const auto back = decode_envelope(wire);
    ASSERT_TRUE(back.has_value()) << "variant " << k % 12;
    ASSERT_TRUE(back->trace.has_value());
    EXPECT_TRUE(*back == envelope) << "variant " << k % 12;
    EXPECT_EQ(encode_envelope(*back), wire);

    envelope.trace.reset();
    const auto bare = encode_envelope(envelope);
    EXPECT_EQ(bare.size() + 24, wire.size());
    const auto bare_back = decode_envelope(bare);
    ASSERT_TRUE(bare_back.has_value());
    EXPECT_FALSE(bare_back->trace.has_value());
  }
}

TEST(CodecTest, TraceContextFieldsArePinned) {
  Envelope envelope = wrap(PeeringRequest{});
  envelope.trace =
      telemetry::TraceContext{0x1111111111111111ull, 0x2222222222222222ull,
                              0x3333333333333333ull};
  const auto wire = encode_envelope(envelope);
  ASSERT_EQ(wire.size(), 48u);  // 24 header + 24 extension, empty body
  EXPECT_EQ(wire[5], 0x02);     // flags: trace context only
  EXPECT_EQ(wire[24], 0x11);    // trace id, big-endian
  EXPECT_EQ(wire[32], 0x22);    // parent span id
  EXPECT_EQ(wire[40], 0x33);    // origin timestamp
  EXPECT_EQ(wire[47], 0x33);

  // Truncating anywhere inside the extension must reject, not mis-parse.
  for (std::size_t cut = 24; cut < wire.size(); ++cut) {
    EXPECT_FALSE(decode_envelope(std::span(wire.data(), cut)).has_value())
        << cut;
  }
}

TEST(CodecTest, PreExtensionFramesStillDecode) {
  // Golden frames captured from the pre-extension codec (hex): decoding
  // them must keep working forever, and re-encoding the decoded envelope
  // without a context must reproduce the bytes exactly — the wire format
  // only grew, it never moved.
  const auto from_hex = [](std::string_view hex) {
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
      const auto nib = [](char c) -> unsigned {
        return c <= '9' ? static_cast<unsigned>(c - '0')
                        : static_cast<unsigned>(c - 'a' + 10);
      };
      out.push_back(static_cast<std::uint8_t>((nib(hex[i]) << 4) |
                                              nib(hex[i + 1])));
    }
    return out;
  };
  struct GoldenFrame {
    const char* hex;
    Envelope expected;
  };
  Envelope peering = wrap(PeeringRequest{});
  peering.seq = 7;
  peering.ack_requested = true;
  Envelope ack = wrap(KeyInstallAck{0x2a});
  Envelope reject = wrap(PeeringReject{"no"});
  Envelope invocation =
      wrap(InvocationRequest{{{*Prefix4::parse("10.0.0.0/8"), 0x0f, kHour}},
                             false});
  const GoldenFrame golden[] = {
      // PeeringRequest, seq 7, ack_requested (flags 0x01).
      {"44435332010100000000fde90000fdea0000000000000007", peering},
      // KeyInstallAck serial 0x2a.
      {"44435332050000000000fde90000fdea0000000000000000000000000000002a",
       ack},
      // PeeringReject "no".
      {"44435332030000000000fde90000fdea000000000000000000026e6f", reject},
      // InvocationRequest: one v4 triple 10.0.0.0/8, functions 0x0f, 1h.
      {"44435332060000000000fde90000fdea0000000000000000000001040a0000000"
       "80f00000000d693a400",
       invocation},
  };
  for (const auto& [hex, expected] : golden) {
    const auto wire = from_hex(hex);
    const auto back = decode_envelope(wire);
    ASSERT_TRUE(back.has_value()) << hex;
    EXPECT_TRUE(*back == expected) << hex;
    EXPECT_EQ(encode_envelope(expected), wire) << hex;
  }
}

TEST(CodecTest, ReliabilityMessagesRoundTrip) {
  expect_round_trip(wrap(DeliveryAck{0xdeadbeefull}));
  expect_round_trip(wrap(RekeyComplete{42}));
  expect_round_trip(wrap(InvocationAccept{3, 77}));
  expect_round_trip(wrap(InvocationReject{"nope", 78}));

  const auto back = decode_envelope(encode_envelope(wrap(InvocationAccept{3, 77})));
  EXPECT_EQ(std::get<InvocationAccept>(back->message).request_seq, 77u);
}

TEST(CodecTest, RejectsBadMagicUnknownTypeTruncationAndTrailing) {
  auto wire = encode_envelope(wrap(KeyInstall{}));
  auto bad_magic = wire;
  bad_magic[0] = 'X';
  EXPECT_FALSE(decode_envelope(bad_magic).has_value());

  auto bad_type = wire;
  bad_type[4] = 200;
  EXPECT_FALSE(decode_envelope(bad_type).has_value());

  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(decode_envelope(std::span(wire.data(), cut)).has_value()) << cut;
  }

  auto trailing = wire;
  trailing.push_back(0);
  EXPECT_FALSE(decode_envelope(trailing).has_value());
}

TEST(CodecTest, RejectsOutOfRangePrefixLengths) {
  InvocationRequest body;
  body.triples.push_back({*Prefix4::parse("10.0.0.0/8"), 1, kHour});
  auto wire = encode_envelope(wrap(body));
  // The v4 prefix length byte sits 5 bytes from the end of the triple:
  // [family(1) addr(4) len(1) functions(1) duration(8)] at the tail.
  wire[wire.size() - 10] = 40;  // len > 32
  EXPECT_FALSE(decode_envelope(wire).has_value());
}

// ---- u16 length-prefix boundary (regression for the silent static_cast
// truncation in put_string and the InvocationRequest triple count). On the
// pre-fix codec the 65536 cases encoded a length of 0 / a count of 0 and
// the 65536-triple body decoded as trailing junk; now anything that does
// not fit the prefix throws std::length_error at the sender.

TEST(CodecTest, StringAtExactU16BoundaryRoundTrips) {
  const std::string reason(kMaxWireLength, 'r');
  const auto wire = encode_envelope(wrap(PeeringReject{reason}));
  const auto back = decode_envelope(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<PeeringReject>(back->message).reason, reason);
}

TEST(CodecTest, StringPastU16BoundaryThrowsInsteadOfTruncating) {
  const std::string reason(kMaxWireLength + 1, 'r');
  EXPECT_THROW(encode_envelope(wrap(PeeringReject{reason})),
               std::length_error);
  EXPECT_THROW(encode_envelope(wrap(PeeringTeardown{reason})),
               std::length_error);
  EXPECT_THROW(encode_envelope(wrap(InvocationReject{reason, 1})),
               std::length_error);
}

TEST(CodecTest, TripleCountAtExactU16BoundaryRoundTrips) {
  InvocationRequest body;
  body.triples.assign(kMaxWireLength,
                      {*Prefix4::parse("10.0.0.0/8"), 1, kHour});
  const auto wire = encode_envelope(wrap(body));
  const auto back = decode_envelope(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<InvocationRequest>(back->message).triples.size(),
            static_cast<std::size_t>(kMaxWireLength));
}

TEST(CodecTest, TripleCountPastU16BoundaryThrowsInsteadOfTruncating) {
  InvocationRequest body;
  body.triples.assign(kMaxWireLength + 1,
                      {*Prefix4::parse("10.0.0.0/8"), 1, kHour});
  EXPECT_THROW(encode_envelope(wrap(body)), std::length_error);
}

// ---- encode ∘ decode round-trip property over the full message space:
// every variant (the generator cycles all 12), v4/v6 prefixes biased to
// the 0/32/128 length extremes, strings from empty to multi-KB. Field
// equality via the defaulted operator== — not just type equality.

TEST(CodecTest, EveryVariantRoundTripsFieldForField) {
  Xoshiro256 rng(0x10a0);
  for (std::size_t k = 0; k < 600; ++k) {
    const Envelope envelope = testing::random_envelope(rng, k);
    const auto wire = encode_envelope(envelope);
    const auto back = decode_envelope(wire);
    ASSERT_TRUE(back.has_value()) << "variant " << k % 12;
    EXPECT_TRUE(*back == envelope) << "variant " << k % 12;
    EXPECT_EQ(encode_envelope(*back), wire);  // canonical
  }
}

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, MutationsNeverCrashAndReEncodeCanonically) {
  Xoshiro256 rng(GetParam());
  const std::vector<Envelope> corpus = {
      wrap(PeeringRequest{}),
      wrap(PeeringReject{"reason string"}),
      wrap(KeyInstall{derive_key128(1), 7, false}),
      wrap(InvocationRequest{
          {{*Prefix4::parse("10.0.0.0/8"), kInvokeAll, kHour},
           {*Prefix6::parse("2400:2::/32"), 3, kMinute}},
          false}),
      wrap(InvocationAccept{5}),
  };
  for (int k = 0; k < 2000; ++k) {
    auto wire = encode_envelope(corpus[rng.below(corpus.size())]);
    const std::size_t mutations = 1 + rng.below(5);
    for (std::size_t m = 0; m < mutations; ++m) {
      wire[rng.below(wire.size())] = static_cast<std::uint8_t>(rng.next());
    }
    if (rng.chance(0.25)) wire.resize(rng.below(wire.size() + 1));
    const auto decoded = decode_envelope(wire);  // must not crash
    if (decoded) {
      // Whatever is accepted must re-encode to a decodable canonical form.
      const auto rewire = encode_envelope(*decoded);
      const auto again = decode_envelope(rewire);
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(encode_envelope(*again), rewire);
    }
  }
}

TEST_P(CodecFuzz, PureGarbageNeverDecodes) {
  Xoshiro256 rng(GetParam() ^ 0xdead);
  int accepted = 0;
  for (int k = 0; k < 2000; ++k) {
    std::vector<std::uint8_t> garbage(rng.below(80));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    accepted += decode_envelope(garbage).has_value();
  }
  // Random bytes essentially never start with "DCS1".
  EXPECT_EQ(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace discs

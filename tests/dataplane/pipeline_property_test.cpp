// Data-plane property suites:
//  * stamp/verify invariants under randomized packets and keys,
//  * tuple generation fuzz against an independent reference predicate,
//  * the full outbound+inbound pipeline preserving genuine traffic.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "batch_of_one.hpp"
#include "dataplane/router.hpp"

namespace discs {
namespace {

class StampProperty : public ::testing::TestWithParam<std::uint64_t> {};

Ipv4Packet random_packet(Xoshiro256& rng) {
  auto p = Ipv4Packet::make(
      Ipv4Address(static_cast<std::uint32_t>(rng.next())),
      Ipv4Address(static_cast<std::uint32_t>(rng.next())), IpProto::kUdp,
      std::vector<std::uint8_t>(rng.below(32)));
  for (auto& b : p.payload) b = static_cast<std::uint8_t>(rng.next());
  p.header.flags = static_cast<std::uint8_t>(rng.below(8));
  p.header.refresh_checksum();
  return p;
}

TEST_P(StampProperty, StampThenVerifyAlwaysValidAndChecksumSafe) {
  Xoshiro256 rng(GetParam());
  const AesCmac mac(derive_key128(GetParam()));
  for (int k = 0; k < 300; ++k) {
    auto p = random_packet(rng);
    const auto flags_before = p.header.flags;
    ipv4_stamp(p, mac);
    EXPECT_TRUE(p.checksum_valid());
    EXPECT_EQ(p.header.flags, flags_before);
    EXPECT_EQ(ipv4_verify(p, mac, nullptr, rng), VerifyResult::kValid);
    EXPECT_TRUE(p.checksum_valid());
  }
}

TEST_P(StampProperty, WrongKeyAlmostNeverVerifies) {
  Xoshiro256 rng(GetParam() ^ 1);
  const AesCmac good(derive_key128(GetParam()));
  const AesCmac bad(derive_key128(GetParam() + 1000));
  int false_accepts = 0;
  for (int k = 0; k < 1000; ++k) {
    auto p = random_packet(rng);
    ipv4_stamp(p, good);
    false_accepts += ipv4_verify(p, bad, nullptr, rng) == VerifyResult::kValid;
  }
  // Chance per packet is 2^-29; over 1000 packets effectively zero.
  EXPECT_EQ(false_accepts, 0);
}

TEST_P(StampProperty, HeaderMutationInvalidatesMark) {
  Xoshiro256 rng(GetParam() ^ 2);
  const AesCmac mac(derive_key128(GetParam()));
  for (int k = 0; k < 200; ++k) {
    auto p = random_packet(rng);
    if (p.payload.empty()) continue;
    ipv4_stamp(p, mac);
    // Mutate a MAC-covered field (destination address).
    p.header.dst = Ipv4Address(p.header.dst.bits() ^ 0x1);
    p.header.refresh_checksum();
    EXPECT_EQ(ipv4_verify(p, mac, nullptr, rng), VerifyResult::kInvalid);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StampProperty, ::testing::Values(3, 9, 27, 81));

// Reference predicate for tuple generation, written independently of the
// production lookup order (direct reimplementation of §V-B prose).
struct Reference {
  const RouterTables& t;
  AsNumber local;

  bool drop(Ipv4Address s, Ipv4Address d, SimTime now) const {
    const bool sp = has_function(t.out_src.lookup(s, now).functions,
                                 DefenseFunction::kSp);
    const bool dp = has_function(t.out_dst.lookup(d, now).functions,
                                 DefenseFunction::kDp);
    return (sp || dp) && t.pfx2as.lookup(s) != local;
  }
  bool stamp(Ipv4Address s, Ipv4Address d, SimTime now) const {
    if (drop(s, d, now)) return false;
    const bool key = t.key_s.find(t.pfx2as.lookup(d)) != nullptr;
    const bool csp = has_function(t.out_src.lookup(s, now).functions,
                                  DefenseFunction::kCspStamp) && key;
    const bool cdp = has_function(t.out_dst.lookup(d, now).functions,
                                  DefenseFunction::kCdpStamp);
    return (csp || cdp) && key;
  }
  bool verify(Ipv4Address s, Ipv4Address d, SimTime now) const {
    return has_function(t.in_src.lookup(s, now).functions,
                        DefenseFunction::kCspVerify) ||
           has_function(t.in_dst.lookup(d, now).functions,
                        DefenseFunction::kCdpVerify);
  }
};

class TupleFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TupleFuzz, GeneratorAgreesWithReferencePredicate) {
  Xoshiro256 rng(GetParam());
  RouterTables tables;
  const AsNumber local = 1 + static_cast<AsNumber>(rng.below(8));

  // Random table contents: 24 prefixes over a small address space so
  // collisions and nestings are frequent.
  for (int k = 0; k < 24; ++k) {
    const unsigned len = 8 + static_cast<unsigned>(rng.below(17));
    const Prefix4 prefix(Ipv4Address(static_cast<std::uint32_t>(rng.next()) & 0x0fffffff),
                         len);
    const AsNumber as = 1 + static_cast<AsNumber>(rng.below(8));
    tables.pfx2as.add(prefix, as);
    switch (rng.below(6)) {
      case 0: tables.out_src.install(prefix, DefenseFunction::kSp, 0, 1000); break;
      case 1: tables.out_src.install(prefix, DefenseFunction::kCspStamp, 0, 1000); break;
      case 2: tables.out_dst.install(prefix, DefenseFunction::kDp, 0, 1000); break;
      case 3: tables.out_dst.install(prefix, DefenseFunction::kCdpStamp, 0, 1000); break;
      case 4: tables.in_src.install(prefix, DefenseFunction::kCspVerify, 0, 1000); break;
      case 5: tables.in_dst.install(prefix, DefenseFunction::kCdpVerify, 0, 1000); break;
    }
  }
  for (AsNumber as = 1; as <= 8; ++as) {
    if (rng.chance(0.6)) tables.key_s.set_key(as, derive_key128(as));
    if (rng.chance(0.6)) tables.key_v.set_key(as, derive_key128(100 + as));
  }

  const TupleGenerator gen(tables, local);
  const Reference ref{tables, local};
  const SimTime now = 500;
  for (int probe = 0; probe < 3000; ++probe) {
    const Ipv4Address s(static_cast<std::uint32_t>(rng.next()) & 0x0fffffff);
    const Ipv4Address d(static_cast<std::uint32_t>(rng.next()) & 0x0fffffff);
    const auto out = gen.out_tuple(s, d, now);
    EXPECT_EQ(out.drop, ref.drop(s, d, now)) << s.to_string() << " " << d.to_string();
    EXPECT_EQ(out.stamp, ref.stamp(s, d, now)) << s.to_string() << " " << d.to_string();
    if (out.stamp) {
      EXPECT_NE(out.key_s, nullptr);
    }

    const auto in = gen.in_tuple(s, d, now);
    EXPECT_EQ(in.verify, ref.verify(s, d, now));
    if (in.verify) {
      const AsNumber src_as = tables.pfx2as.lookup(s);
      EXPECT_EQ(in.key_v != nullptr, tables.key_v.find(src_as) != nullptr);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TupleFuzz, ::testing::Values(2, 4, 6, 8, 10));

// End-to-end invariant: genuine traffic between two cooperating routers is
// never dropped, whatever random subset of functions is invoked.
class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineProperty, GenuineTrafficSurvivesAnyFunctionMix) {
  Xoshiro256 rng(GetParam());
  RouterTables peer_tables, victim_tables;
  auto fill = [](Pfx2AsTable& t) {
    t.add(*Prefix4::parse("10.0.0.0/8"), 100);
    t.add(*Prefix4::parse("20.0.0.0/8"), 200);
  };
  fill(peer_tables.pfx2as);
  fill(victim_tables.pfx2as);
  const Key128 k_pv = derive_key128(1), k_vp = derive_key128(2);
  peer_tables.key_s.set_key(200, k_pv);
  victim_tables.key_v.set_key(100, k_pv);
  victim_tables.key_s.set_key(100, k_vp);
  peer_tables.key_v.set_key(200, k_vp);

  const auto victim_net = *Prefix4::parse("20.0.0.0/8");
  // Random invocation mix (DP/CDP protecting 20/8 at the peer, verify at
  // the victim; SP/CSP in the reverse orientation).
  if (rng.chance(0.5)) {
    peer_tables.out_dst.install(victim_net, DefenseFunction::kDp, 0, kHour);
  }
  const bool cdp = rng.chance(0.7);
  if (cdp) {
    peer_tables.out_dst.install(victim_net, DefenseFunction::kCdpStamp, 0, kHour);
    victim_tables.in_dst.install(victim_net, DefenseFunction::kCdpVerify, 0, kHour);
  }
  if (rng.chance(0.5)) {
    peer_tables.out_src.install(victim_net, DefenseFunction::kSp, 0, kHour);
  }
  BorderRouter peer(peer_tables, 100, GetParam());
  BorderRouter victim(victim_tables, 200, GetParam() + 1);

  const SimTime now = kMinute;  // past the tolerance interval
  for (int k = 0; k < 300; ++k) {
    auto p = Ipv4Packet::make(
        Ipv4Address(0x0a000000 | (static_cast<std::uint32_t>(rng.next()) & 0xffffff)),
        Ipv4Address(0x14000000 | (static_cast<std::uint32_t>(rng.next()) & 0xffffff)),
        IpProto::kUdp, std::vector<std::uint8_t>(rng.below(16)));
    ASSERT_EQ(outbound_one(peer, p, now), Verdict::kPass);
    ASSERT_EQ(inbound_one(victim, p, now), Verdict::kPass);
    EXPECT_TRUE(p.checksum_valid());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace discs

// send_batch's destination resolver against its definitions: the compiled
// per-AS slot lookup must equal InternetDataset::origin_of everywhere, and
// kUnroutable must mean exactly "no origin, or no valley-free path from the
// sending AS" — whatever order pairs first reach the lifetime route cache.
#include <array>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/discs_system.hpp"

namespace discs {
namespace {

Ipv4Address last_address(const Prefix4& prefix) {
  const auto host = static_cast<std::uint32_t>(
      (std::uint64_t{1} << (32 - prefix.length())) - 1);
  return Ipv4Address(prefix.address().bits() | host);
}

/// `prefix`'s address with every host bit taken from `fill`'s bytes.
Ipv6Address fill_host_bits(const Prefix6& prefix,
                           const std::array<std::uint8_t, 16>& fill) {
  std::array<std::uint8_t, 16> bytes = prefix.address().bytes();
  for (unsigned i = prefix.length(); i < 128; ++i) {
    const auto bit = static_cast<std::uint8_t>(0x80u >> (i % 8));
    bytes[i / 8] = static_cast<std::uint8_t>((bytes[i / 8] & ~bit) |
                                             (fill[i / 8] & bit));
  }
  return Ipv6Address(bytes);
}

std::array<std::uint8_t, 16> random_bytes(Xoshiro256& rng) {
  std::array<std::uint8_t, 16> bytes{};
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  return bytes;
}

TEST(ResolverTest, CompiledOriginEqualsDatasetOriginOf) {
  DiscsSystem::Config cfg;
  cfg.internet.num_ases = 256;
  cfg.internet.num_prefixes = 2560;
  cfg.internet.seed = 99;
  const DiscsSystem system(cfg);
  const InternetDataset& dataset = system.dataset();

  std::size_t moas = 0;
  for (const PrefixOrigin& e : dataset.entries()) {
    moas += e.origins.size() > 1 ? 1 : 0;
    for (const Ipv4Address a : {e.prefix.address(), last_address(e.prefix)}) {
      ASSERT_EQ(system.origin_of(a), dataset.origin_of(a)) << a.to_string();
    }
  }
  // MOAS entries are where the first-origin rule is observable.
  ASSERT_GT(moas, 0u);
  ASSERT_FALSE(dataset.entries6().empty());
  const std::array<std::uint8_t, 16> zeros{};
  std::array<std::uint8_t, 16> ones{};
  ones.fill(0xff);
  for (const PrefixOrigin6& e : dataset.entries6()) {
    for (const Ipv6Address& a :
         {fill_host_bits(e.prefix, zeros), fill_host_bits(e.prefix, ones)}) {
      ASSERT_EQ(system.origin_of(a), dataset.origin_of(a)) << a.to_string();
    }
  }

  Xoshiro256 rng(7);
  for (int k = 0; k < 10000; ++k) {
    const Ipv4Address a(static_cast<std::uint32_t>(rng.next()));
    ASSERT_EQ(system.origin_of(a), dataset.origin_of(a)) << a.to_string();
    // Uniform IPv6 addresses almost never hit a /32, so half are drawn
    // inside a registered prefix.
    const Ipv6Address b =
        k % 2 == 0
            ? Ipv6Address(random_bytes(rng))
            : fill_host_bits(
                  dataset.entries6()[rng.below(dataset.entries6().size())]
                      .prefix,
                  random_bytes(rng));
    ASSERT_EQ(system.origin_of(b), dataset.origin_of(b)) << b.to_string();
  }
}

/// A topology with valleys, so routability depends on the sending AS:
///   1 provides transit to 2 and 3; 2 and 5 each peer with 4; 4 provides
///   transit to 7; 6 is isolated. 2->7 (peer, then down) is valley-free;
///   3->7 (up, down, then across) and 2->5 (two peer hops) are not.
/// AS 9 originates prefixes but is missing from the topology.
AsGraph valley_graph() {
  AsGraph graph;
  graph.add_provider(2, 1);
  graph.add_provider(3, 1);
  graph.add_peering(2, 4);
  graph.add_peering(4, 5);
  graph.add_provider(7, 4);
  graph.add_as(6);
  return graph;
}

InternetDataset valley_dataset() {
  const auto p4 = [](std::uint8_t b, std::uint8_t c, unsigned len) {
    return Prefix4(Ipv4Address::from_octets(10, b, c, 0), len);
  };
  const auto p6 = [](std::uint16_t group) {
    return Prefix6(
        Ipv6Address::from_groups({0x2001, 0xdb8, group, 0, 0, 0, 0, 0}), 48);
  };
  return InternetDataset(
      {
          {p4(0, 0, 8), {1}},
          {p4(2, 0, 16), {2}},
          {p4(2, 128, 17), {7}},  // nested inside AS 2's /16
          {p4(3, 0, 16), {3}},
          {p4(4, 0, 16), {4}},
          {p4(5, 0, 16), {5, 3}},  // MOAS
          {p4(6, 0, 16), {6}},
          {p4(7, 0, 16), {7}},
          {p4(9, 0, 16), {9}},
          {p4(10, 0, 16), {3, 5}},  // MOAS, the other way round
      },
      {
          {p6(1), {1}},
          {p6(2), {2}},
          {p6(7), {7, 2}},
          {p6(9), {9}},
      });
}

TEST(ResolverTest, UnroutableEqualsPathOracleForRandomPairs) {
  DiscsSystem system(valley_dataset(), valley_graph(), DiscsSystem::Config{});
  const InternetDataset& dataset = system.dataset();
  // 9 is in the dataset but not the topology; 777 is in neither.
  const std::vector<AsNumber> origins{1, 2, 3, 4, 5, 6, 7, 9, 777};

  Xoshiro256 rng(11);
  std::size_t intra = 0, valley = 0, routed = 0, unknown_origin = 0,
              uncovered = 0, v6 = 0;
  for (int round = 0; round < 600; ++round) {
    const AsNumber origin = origins[rng.below(origins.size())];
    const std::size_t size = 1 + rng.below(16);
    PacketBatch batch;
    std::vector<AsNumber> expected_dst;
    for (std::size_t k = 0; k < size; ++k) {
      if (rng.chance(0.2)) {
        const PrefixOrigin6& e =
            dataset.entries6()[rng.below(dataset.entries6().size())];
        const Ipv6Address dst = fill_host_bits(e.prefix, random_bytes(rng));
        batch.add(Ipv6Packet::make(dst, dst, 17, {}));
        expected_dst.push_back(dataset.origin_of(dst));
        ++v6;
        continue;
      }
      Ipv4Address dst;
      if (rng.chance(0.1)) {
        dst = Ipv4Address::from_octets(11, 0, 0, 1);  // no prefix covers it
        ++uncovered;
      } else {
        const Prefix4& p =
            dataset.entries()[rng.below(dataset.prefix_count())].prefix;
        const auto host = static_cast<std::uint32_t>(rng.next());
        const std::uint32_t mask = last_address(p).bits() - p.address().bits();
        dst = Ipv4Address(p.address().bits() | (host & mask));
      }
      batch.add(Ipv4Packet::make(Ipv4Address::from_octets(10, 1, 1, 1), dst,
                                 IpProto::kUdp, {}));
      expected_dst.push_back(dataset.origin_of(dst));
    }

    const std::vector<DeliveryResult> results =
        system.send_batch(origin, batch);
    ASSERT_EQ(results.size(), size);
    for (std::size_t k = 0; k < size; ++k) {
      const AsNumber dst_as = expected_dst[k];
      const bool unroutable =
          dst_as == kNoAs || system.graph().path(origin, dst_as).empty();
      ASSERT_EQ(results[k].outcome == DeliveryOutcome::kUnroutable, unroutable)
          << "round " << round << ": AS " << origin << " -> AS " << dst_as;
      if (!system.graph().contains(origin)) {
        ++unknown_origin;
      } else if (dst_as == origin) {
        ++intra;
      } else if (system.graph().contains(dst_as)) {
        ++(unroutable ? valley : routed);
      }
    }
  }
  // Every case the resolver distinguishes was exercised.
  EXPECT_GT(intra, 0u);
  EXPECT_GT(valley, 0u);
  EXPECT_GT(routed, 0u);
  EXPECT_GT(unknown_origin, 0u);
  EXPECT_GT(uncovered, 0u);
  EXPECT_GT(v6, 0u);
}

}  // namespace
}  // namespace discs

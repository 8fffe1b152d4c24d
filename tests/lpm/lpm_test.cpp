#include "lpm/lpm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "common/rng.hpp"
#include "lpm/flat.hpp"

namespace discs {
namespace {

Prefix4 pfx4(const char* text) { return *Prefix4::parse(text); }
Ipv4Address ip4(const char* text) { return *Ipv4Address::parse(text); }
Prefix6 pfx6(const char* text) { return *Prefix6::parse(text); }
Ipv6Address ip6(const char* text) { return *Ipv6Address::parse(text); }

TEST(BinaryTrieTest, EmptyLookupMisses) {
  BinaryTrie<Ipv4Key, int> t;
  EXPECT_FALSE(t.lookup(ip4("1.2.3.4")).has_value());
  EXPECT_TRUE(t.empty());
}

TEST(BinaryTrieTest, LongestMatchWins) {
  BinaryTrie<Ipv4Key, int> t;
  t.insert(pfx4("10.0.0.0/8"), 8);
  t.insert(pfx4("10.1.0.0/16"), 16);
  t.insert(pfx4("10.1.2.0/24"), 24);
  EXPECT_EQ(t.lookup(ip4("10.1.2.3")), 24);
  EXPECT_EQ(t.lookup(ip4("10.1.9.1")), 16);
  EXPECT_EQ(t.lookup(ip4("10.9.9.9")), 8);
  EXPECT_FALSE(t.lookup(ip4("11.0.0.1")).has_value());
  EXPECT_EQ(t.size(), 3u);
}

TEST(BinaryTrieTest, DefaultRouteMatchesEverything) {
  BinaryTrie<Ipv4Key, int> t;
  t.insert(pfx4("0.0.0.0/0"), 1);
  EXPECT_EQ(t.lookup(ip4("255.255.255.255")), 1);
  EXPECT_EQ(t.lookup(ip4("0.0.0.0")), 1);
}

TEST(BinaryTrieTest, HostRouteSupported) {
  BinaryTrie<Ipv4Key, int> t;
  t.insert(pfx4("10.0.0.0/8"), 8);
  t.insert(pfx4("10.1.2.3/32"), 32);
  EXPECT_EQ(t.lookup(ip4("10.1.2.3")), 32);
  EXPECT_EQ(t.lookup(ip4("10.1.2.4")), 8);
}

TEST(BinaryTrieTest, InsertOverwritesSamePrefix) {
  BinaryTrie<Ipv4Key, int> t;
  t.insert(pfx4("10.0.0.0/8"), 1);
  t.insert(pfx4("10.0.0.0/8"), 2);
  EXPECT_EQ(t.lookup(ip4("10.0.0.1")), 2);
  EXPECT_EQ(t.size(), 1u);
}

TEST(BinaryTrieTest, FindExactDistinguishesLengths) {
  BinaryTrie<Ipv4Key, int> t;
  t.insert(pfx4("10.0.0.0/8"), 8);
  ASSERT_NE(t.find_exact(pfx4("10.0.0.0/8")), nullptr);
  EXPECT_EQ(*t.find_exact(pfx4("10.0.0.0/8")), 8);
  EXPECT_EQ(t.find_exact(pfx4("10.0.0.0/16")), nullptr);
  EXPECT_EQ(t.find_exact(pfx4("11.0.0.0/8")), nullptr);
}

TEST(BinaryTrieTest, VisitMatchesReportsAllCoveringPrefixes) {
  BinaryTrie<Ipv4Key, int> t;
  t.insert(pfx4("0.0.0.0/0"), 0);
  t.insert(pfx4("10.0.0.0/8"), 8);
  t.insert(pfx4("10.1.0.0/16"), 16);
  t.insert(pfx4("99.0.0.0/8"), 99);
  std::vector<int> seen;
  t.visit_matches(ip4("10.1.2.3"), [&](int v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{0, 8, 16}));
}

TEST(BinaryTrieTest, ClearEmptiesTheTable) {
  BinaryTrie<Ipv4Key, int> t;
  t.insert(pfx4("10.0.0.0/8"), 8);
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.lookup(ip4("10.0.0.1")).has_value());
}

TEST(BinaryTrieTest, Ipv6LongestMatch) {
  BinaryTrie<Ipv6Key, int> t;
  t.insert(pfx6("2001:db8::/32"), 32);
  t.insert(pfx6("2001:db8:1::/48"), 48);
  t.insert(pfx6("2001:db8:1:2::/64"), 64);
  EXPECT_EQ(t.lookup(ip6("2001:db8:1:2::77")), 64);
  EXPECT_EQ(t.lookup(ip6("2001:db8:1:3::1")), 48);
  EXPECT_EQ(t.lookup(ip6("2001:db8:9::1")), 32);
  EXPECT_FALSE(t.lookup(ip6("2001:db9::1")).has_value());
}

// Property test: the trie must agree with a naive linear-scan oracle on
// randomized rule sets and probes.
class LpmPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpmPropertyTest, EnginesAgreeWithNaiveOracle) {
  Xoshiro256 rng(GetParam());
  std::vector<std::pair<Prefix4, int>> rules;
  BinaryTrie<Ipv4Key, int> binary;

  for (int r = 0; r < 200; ++r) {
    const unsigned len = static_cast<unsigned>(rng.below(33));
    const Ipv4Address addr(static_cast<std::uint32_t>(rng.next()));
    const Prefix4 p(addr, len);
    const int value = r;
    // Overwrite earlier duplicate rules, mirroring insert semantics.
    std::erase_if(rules, [&](const auto& rule) { return rule.first == p; });
    rules.emplace_back(p, value);
    binary.insert(p, value);
  }

  auto oracle = [&](Ipv4Address a) -> std::optional<int> {
    std::optional<int> best;
    unsigned best_len = 0;
    for (const auto& [p, v] : rules) {
      if (p.contains(a) && (!best || p.length() >= best_len)) {
        if (!best || p.length() > best_len) {
          best = v;
          best_len = p.length();
        }
      }
    }
    return best;
  };

  for (int probe = 0; probe < 2000; ++probe) {
    // Half the probes are random; half are perturbations of rule addresses
    // so prefix boundaries get exercised.
    Ipv4Address a(static_cast<std::uint32_t>(rng.next()));
    if (probe % 2 == 0 && !rules.empty()) {
      const auto& base = rules[rng.below(rules.size())].first;
      a = Ipv4Address(base.address().bits() |
                      static_cast<std::uint32_t>(rng.next() & 0xff));
    }
    const auto expected = oracle(a);
    EXPECT_EQ(binary.lookup(a), expected) << a.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 99, 12345));

// ---------------------------------------------------------------------------
// Sealed flat-engine differential suite: CompiledLpm/CompiledMatcher are
// compiled from the build tries, and the tries are the oracle. Root-bits
// overrides force the DIR-24-8 shapes (2^16/2^24 roots) onto CI-sized prefix
// sets that pick_root_bits would otherwise map to a one-byte root, so the
// spill-chain and direct-index paint paths both run under test.

constexpr unsigned kRootBits4[] = {0, 16, 24};  // 0 = pick_root_bits (8 here)
constexpr unsigned kRootBits6[] = {0, 16};

TEST(CompiledLpmTest, EmptyTrieMissesWithoutTouchingTheRoot) {
  BinaryTrie<Ipv4Key, int> t;
  CompiledLpm<Ipv4Key, int> c;
  c.build(entries_after(t, {}));
  EXPECT_FALSE(c.lookup(ip4("1.2.3.4")).has_value());
  EXPECT_EQ(c.lookup_or(ip4("1.2.3.4"), -7), -7);
}

TEST(CompiledLpmTest, NestedChainAndDefaultRouteMatchTrie) {
  BinaryTrie<Ipv4Key, int> t;
  t.insert(pfx4("0.0.0.0/0"), 0);
  t.insert(pfx4("10.0.0.0/8"), 8);
  t.insert(pfx4("10.1.0.0/16"), 16);
  t.insert(pfx4("10.1.2.0/24"), 24);
  t.insert(pfx4("10.1.2.3/32"), 32);
  for (const unsigned root_bits : kRootBits4) {
    CompiledLpm<Ipv4Key, int> c;
    c.build(entries_after(t, {}), root_bits);
    EXPECT_EQ(c.root_bits(), root_bits == 0 ? 8u : root_bits);
    for (const char* probe :
         {"10.1.2.3", "10.1.2.2", "10.1.2.4", "10.1.3.0", "10.2.0.0",
          "9.255.255.255", "11.0.0.0", "0.0.0.0", "255.255.255.255"}) {
      EXPECT_EQ(c.lookup(ip4(probe)), t.lookup(ip4(probe)))
          << probe << " root_bits=" << root_bits;
    }
  }
}

TEST(CompiledLpmTest, Ipv6NestedChainMatchesTrie) {
  BinaryTrie<Ipv6Key, int> t;
  t.insert(pfx6("::/0"), 0);
  t.insert(pfx6("2001:db8::/32"), 32);
  t.insert(pfx6("2001:db8:1::/48"), 48);
  t.insert(pfx6("2001:db8:1:2::/64"), 64);
  for (const unsigned root_bits : kRootBits6) {
    CompiledLpm<Ipv6Key, int> c;
    c.build(entries_after(t, {}), root_bits);
    for (const char* probe :
         {"2001:db8:1:2::77", "2001:db8:1:3::1", "2001:db8:9::1",
          "2001:db9::1", "::", "ffff::1"}) {
      EXPECT_EQ(c.lookup(ip6(probe)), t.lookup(ip6(probe)))
          << probe << " root_bits=" << root_bits;
    }
  }
}

// Probes at a prefix's range boundaries: first/last covered address and one
// address either side (wrapping at the ends of the space — still valid
// probes, just not boundary ones).
template <typename Fn>
void boundary_probes4(const Prefix4& p, Fn&& fn) {
  const std::uint32_t lo = p.address().bits();
  const std::uint32_t hi =
      lo + static_cast<std::uint32_t>(p.size() - 1);  // /0 spans it all
  fn(Ipv4Address(lo));
  fn(Ipv4Address(hi));
  fn(Ipv4Address(lo - 1));
  fn(Ipv4Address(hi + 1));
}

std::array<std::uint8_t, 16> step6(std::array<std::uint8_t, 16> b, bool up) {
  for (int i = 15; i >= 0; --i) {
    if (up ? ++b[i] != 0 : b[i]-- != 0) break;
  }
  return b;
}

template <typename Fn>
void boundary_probes6(const Prefix6& p, Fn&& fn) {
  const std::array<std::uint8_t, 16> lo = p.address().bytes();
  std::array<std::uint8_t, 16> hi = lo;
  for (unsigned bit = p.length(); bit < 128; ++bit) {
    hi[bit / 8] |= static_cast<std::uint8_t>(0x80u >> (bit % 8));
  }
  fn(Ipv6Address(lo));
  fn(Ipv6Address(hi));
  fn(Ipv6Address(step6(lo, false)));
  fn(Ipv6Address(step6(hi, true)));
}

Prefix4 random_prefix4(Xoshiro256& rng, const std::vector<Prefix4>& rules) {
  // Bias toward refinements of existing rules so deep nested chains form.
  if (!rules.empty() && rng.chance(0.5)) {
    const Prefix4& base = rules[rng.below(rules.size())];
    const unsigned len =
        base.length() + static_cast<unsigned>(rng.below(33 - base.length()));
    const std::uint32_t noise =
        base.length() >= 32
            ? 0u
            : static_cast<std::uint32_t>(rng.next()) >> base.length();
    return Prefix4(Ipv4Address(base.address().bits() | noise), len);
  }
  return Prefix4(Ipv4Address(static_cast<std::uint32_t>(rng.next())),
                 static_cast<unsigned>(rng.below(33)));
}

Prefix6 random_prefix6(Xoshiro256& rng, const std::vector<Prefix6>& rules) {
  std::array<std::uint8_t, 16> b;
  unsigned min_len = 0;
  if (!rules.empty() && rng.chance(0.6)) {
    const Prefix6& base = rules[rng.below(rules.size())];
    b = base.address().bytes();
    min_len = base.length();
    for (unsigned i = min_len / 8; i < 16; ++i) {
      b[i] |= static_cast<std::uint8_t>(rng.next());
    }
  } else {
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
  }
  const unsigned len =
      min_len + static_cast<unsigned>(rng.below(129 - min_len));
  return Prefix6(Ipv6Address(b), len);
}

class FlatDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatDifferentialTest, CompiledLpmMatchesBinaryTrie4) {
  Xoshiro256 rng(GetParam());
  BinaryTrie<Ipv4Key, int> trie;
  std::vector<Prefix4> rules;
  for (int r = 0; r < 300; ++r) {
    const Prefix4 p = random_prefix4(rng, rules);
    rules.push_back(p);
    trie.insert(p, r);
  }
  for (const unsigned root_bits : kRootBits4) {
    CompiledLpm<Ipv4Key, int> c;
    c.build(entries_after(trie, {}), root_bits);
    auto check = [&](Ipv4Address a) {
      const auto expected = trie.lookup(a);
      ASSERT_EQ(c.lookup(a), expected)
          << a.to_string() << " root_bits=" << root_bits;
      ASSERT_EQ(c.lookup_or(a, -1), expected.value_or(-1)) << a.to_string();
    };
    for (const Prefix4& p : rules) boundary_probes4(p, check);
    for (int i = 0; i < 2000; ++i) {
      check(Ipv4Address(static_cast<std::uint32_t>(rng.next())));
    }
  }
}

TEST_P(FlatDifferentialTest, CompiledLpmMatchesBinaryTrie6) {
  Xoshiro256 rng(GetParam() ^ 0x6666);
  BinaryTrie<Ipv6Key, int> trie;
  std::vector<Prefix6> rules;
  for (int r = 0; r < 200; ++r) {
    const Prefix6 p = random_prefix6(rng, rules);
    rules.push_back(p);
    trie.insert(p, r);
  }
  for (const unsigned root_bits : kRootBits6) {
    CompiledLpm<Ipv6Key, int> c;
    c.build(entries_after(trie, {}), root_bits);
    auto check = [&](const Ipv6Address& a) {
      ASSERT_EQ(c.lookup(a), trie.lookup(a))
          << a.to_string() << " root_bits=" << root_bits;
    };
    for (const Prefix6& p : rules) boundary_probes6(p, check);
    for (int i = 0; i < 500; ++i) {
      std::array<std::uint8_t, 16> b;
      for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
      check(Ipv6Address(b));
    }
  }
}

TEST_P(FlatDifferentialTest, CompiledMatcherMatchesVisitMatches4) {
  Xoshiro256 rng(GetParam() ^ 0x4444);
  BinaryTrie<Ipv4Key, std::uint32_t> trie;
  std::vector<Prefix4> rules;
  for (std::uint32_t r = 0; r < 200; ++r) {
    const Prefix4 p = random_prefix4(rng, rules);
    rules.push_back(p);
    trie.insert(p, r);
  }
  for (const unsigned root_bits : kRootBits4) {
    CompiledMatcher<Ipv4Key> m;
    m.build(entries_after(trie, {}), root_bits);
    auto check = [&](Ipv4Address a) {
      std::vector<std::uint32_t> expected, got;
      trie.visit_matches(a, [&](std::uint32_t h) { expected.push_back(h); });
      m.visit(a, [&](std::uint32_t h) { got.push_back(h); });
      // Order matters: both must report covering prefixes shortest-first.
      ASSERT_EQ(got, expected) << a.to_string() << " root_bits=" << root_bits;
    };
    for (const Prefix4& p : rules) boundary_probes4(p, check);
    for (int i = 0; i < 1000; ++i) {
      check(Ipv4Address(static_cast<std::uint32_t>(rng.next())));
    }
  }
}

TEST_P(FlatDifferentialTest, CompiledMatcherMatchesVisitMatches6) {
  Xoshiro256 rng(GetParam() ^ 0x6464);
  BinaryTrie<Ipv6Key, std::uint32_t> trie;
  std::vector<Prefix6> rules;
  for (std::uint32_t r = 0; r < 150; ++r) {
    const Prefix6 p = random_prefix6(rng, rules);
    rules.push_back(p);
    trie.insert(p, r);
  }
  for (const unsigned root_bits : kRootBits6) {
    CompiledMatcher<Ipv6Key> m;
    m.build(entries_after(trie, {}), root_bits);
    auto check = [&](const Ipv6Address& a) {
      std::vector<std::uint32_t> expected, got;
      trie.visit_matches(a, [&](std::uint32_t h) { expected.push_back(h); });
      m.visit(a, [&](std::uint32_t h) { got.push_back(h); });
      ASSERT_EQ(got, expected) << a.to_string() << " root_bits=" << root_bits;
    };
    for (const Prefix6& p : rules) boundary_probes6(p, check);
  }
}

TEST(FlatDifferentialTest, EmptyMatcherVisitsNothing) {
  BinaryTrie<Ipv4Key, std::uint32_t> trie;
  CompiledMatcher<Ipv4Key> m;
  m.build(entries_after(trie, {}));
  int calls = 0;
  m.visit(ip4("1.2.3.4"), [&](std::uint32_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

// entries_after() is how a transaction sees a trie before its inserts land:
// the overlay (re-mapped prefixes, new ones, the same prefix twice) must
// yield exactly what the trie visits after inserting it in order.
TEST_P(FlatDifferentialTest, EntriesAfterMatchesTheTrieAfterTheInserts) {
  Xoshiro256 rng(GetParam());
  BinaryTrie<Ipv4Key, int> trie;
  std::vector<Prefix4> rules;
  for (int r = 0; r < 300; ++r) {
    rules.push_back(random_prefix4(rng, rules));
    trie.insert(rules.back(), r);
  }
  TrieEntries<Ipv4Key, int> overlay;
  for (int r = 0; r < 100; ++r) {
    const Prefix4 p = r % 10 == 9   ? overlay.back().first
                      : rng.chance(0.5) ? rules[rng.below(rules.size())]
                                        : random_prefix4(rng, rules);
    overlay.emplace_back(p, 1000 + r);
  }
  const TrieEntries<Ipv4Key, int> merged = entries_after(trie, overlay);
  for (const auto& [p, value] : overlay) trie.insert(p, value);
  TrieEntries<Ipv4Key, int> expected;
  trie.visit_entries(
      [&](const Prefix4& p, int value) { expected.emplace_back(p, value); });
  EXPECT_EQ(merged, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatDifferentialTest,
                         ::testing::Values(1, 2, 3, 17, 99, 424242));

TEST(LpmMemoryTest, ReportsNonZeroFootprint) {
  BinaryTrie<Ipv4Key, int> t;
  t.insert(pfx4("10.0.0.0/8"), 1);
  EXPECT_GT(t.memory_bytes(), 0u);
}

}  // namespace
}  // namespace discs

// AsGraph::path solves routes only on the endpoints' provider ancestry; it
// must return exactly the path that walking the full routes_to(dst) table
// from src gives — hop for hop, ties included. These tests pin that over
// every ordered pair of generated and hand-built graphs, and check that
// concurrent callers on one const graph see the serial results.
#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "topology/graph.hpp"

namespace discs {
namespace {

// The reference: follow next hops of the whole-graph table from src.
std::vector<AsNumber> walk(const AsGraph& g, const AsGraph::RouteTable& table,
                           AsNumber src) {
  std::vector<AsNumber> hops;
  for (AsNumber cur = src;;) {
    hops.push_back(cur);
    if (cur == table.dst) return hops;
    const AsNumber next = table.next_hop[*g.index_of(cur)];
    if (next == kNoAs || hops.size() > g.as_count()) return {};
    cur = next;
  }
}

// Every ordered pair, src == dst included; a pair with an AS the graph
// does not know has no path.
void expect_all_pairs_match(const AsGraph& g) {
  constexpr AsNumber kUnknown = 4'000'000'000;
  ASSERT_FALSE(g.contains(kUnknown));
  for (const AsNumber dst : g.ases()) {
    const auto table = g.routes_to(dst);
    for (const AsNumber src : g.ases()) {
      ASSERT_EQ(g.path(src, dst), walk(g, table, src)) << src << " -> " << dst;
    }
    EXPECT_TRUE(g.path(kUnknown, dst).empty()) << dst;
    EXPECT_TRUE(g.path(dst, kUnknown).empty()) << dst;
  }
  EXPECT_TRUE(g.path(kUnknown, kUnknown).empty());
}

AsGraph generated(std::uint64_t seed, std::size_t ases = 250) {
  std::vector<AsNumber> order(ases);
  std::iota(order.begin(), order.end(), 1);
  GraphConfig cfg;
  cfg.seed = seed;
  cfg.extra_peering_fraction = 0.4;
  return generate_graph(order, cfg);
}

class PathEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PathEquivalence, GeneratedGraphAllPairs) {
  expect_all_pairs_match(generated(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 29));

// Equal-length candidates at every route level, each added highest ASN
// first so that insertion order alone would pick the wrong one:
//
//          1                    (1 is the provider of 10 and 20)
//         / \ .
//       20   10      30 = 50 = 40     (= peering)
//         \ /         |         |
//         100 --------+---------+     (100 is a customer of 10, 20, 30, 40)
//
// plus 60, a customer of 70 and 65, which are both customers of 30.
AsGraph tie_graph() {
  AsGraph g;
  g.add_provider(100, 20);
  g.add_provider(100, 10);
  g.add_provider(20, 1);
  g.add_provider(10, 1);
  g.add_provider(100, 40);
  g.add_provider(100, 30);
  g.add_peering(50, 40);
  g.add_peering(50, 30);
  g.add_provider(60, 70);
  g.add_provider(60, 65);
  g.add_provider(70, 30);
  g.add_provider(65, 30);
  return g;
}

TEST(PathEquivalenceTest, CustomerTieGoesToLowestAsn) {
  const auto g = tie_graph();
  EXPECT_EQ(g.path(1, 100), (std::vector<AsNumber>{1, 10, 100}));
  expect_all_pairs_match(g);
}

TEST(PathEquivalenceTest, PeerTieGoesToLowestAsn) {
  const auto g = tie_graph();
  EXPECT_EQ(g.path(50, 100), (std::vector<AsNumber>{50, 30, 100}));
}

TEST(PathEquivalenceTest, ProviderTieGoesToLowestAsn) {
  const auto g = tie_graph();
  EXPECT_EQ(g.path(60, 100), (std::vector<AsNumber>{60, 65, 30, 100}));
}

// Hand-built graphs may contain provider cycles (generate_graph never
// does): customer-to-provider edges 1 -> 2 -> 3 -> 1 form a ring. 4 and 5
// are customers of 1 and 3; 2 also buys transit from 8, which peers with
// 6, the provider of 7; 5 peers with 6 too. 11 -> 12 -> 13 -> 11 is a ring
// with no way out, and 99 has no edges at all.
AsGraph cyclic_graph() {
  AsGraph g;
  g.add_provider(1, 2);
  g.add_provider(2, 3);
  g.add_provider(3, 1);
  g.add_provider(4, 1);
  g.add_provider(5, 3);
  g.add_provider(2, 8);
  g.add_peering(8, 6);
  g.add_peering(5, 6);
  g.add_provider(7, 6);
  g.add_provider(11, 12);
  g.add_provider(12, 13);
  g.add_provider(13, 11);
  g.add_as(99);
  return g;
}

TEST(PathEquivalenceTest, ProviderCyclesAndDisconnectedAs) {
  const auto g = cyclic_graph();
  EXPECT_EQ(g.path(4, 5), (std::vector<AsNumber>{4, 1, 3, 5}));
  // The provider routes of 1, 2 and 3 all stem from 8's peer route, around
  // the ring.
  EXPECT_EQ(g.path(4, 7), (std::vector<AsNumber>{4, 1, 2, 8, 6, 7}));
  EXPECT_EQ(g.path(3, 7), (std::vector<AsNumber>{3, 1, 2, 8, 6, 7}));
  EXPECT_TRUE(g.path(11, 1).empty());
  EXPECT_TRUE(g.path(99, 1).empty());
  EXPECT_TRUE(g.path(1, 99).empty());
  EXPECT_EQ(g.path(99, 99), (std::vector<AsNumber>{99}));
  expect_all_pairs_match(g);
}

// path() keeps no state between calls: four threads sharing one const graph
// get the serial answers.
TEST(PathEquivalenceTest, ConcurrentCallersSeeSerialResults) {
  const AsGraph g = generated(7, 120);
  std::vector<std::vector<AsNumber>> serial;
  for (const AsNumber dst : g.ases()) {
    for (const AsNumber src : g.ases()) serial.push_back(g.path(src, dst));
  }

  constexpr int kThreads = 4;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different pair so calls overlap on
      // different endpoints.
      const std::size_t n = serial.size();
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = (k + t * n / kThreads) % n;
        const AsNumber dst = g.ases()[i / g.as_count()];
        const AsNumber src = g.ases()[i % g.as_count()];
        if (g.path(src, dst) != serial[i]) ++mismatches[t];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches, std::vector<std::size_t>(kThreads, 0));
}

}  // namespace
}  // namespace discs

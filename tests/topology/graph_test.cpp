#include "topology/graph.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace discs {
namespace {

// A small reference topology:
//
//        1 ===== 2          (=== peering, tier-1)
//       / \       \ .
//      3   4       5        (/ . transit: upper = provider)
//     /     \     / \ .
//    6       7 = 8   9      (7 = 8 peering)
AsGraph reference_graph() {
  AsGraph g;
  g.add_peering(1, 2);
  g.add_provider(3, 1);
  g.add_provider(4, 1);
  g.add_provider(5, 2);
  g.add_provider(6, 3);
  g.add_provider(7, 4);
  g.add_provider(8, 5);
  g.add_provider(9, 5);
  g.add_peering(7, 8);
  return g;
}

TEST(AsGraphTest, AdjacencyBookkeeping) {
  const auto g = reference_graph();
  EXPECT_EQ(g.as_count(), 9u);
  EXPECT_EQ(g.providers_of(6), (std::vector<AsNumber>{3}));
  EXPECT_EQ(g.customers_of(5), (std::vector<AsNumber>{8, 9}));
  EXPECT_EQ(g.peers_of(7), (std::vector<AsNumber>{8}));
  EXPECT_TRUE(g.contains(9));
  EXPECT_FALSE(g.contains(42));
}

TEST(AsGraphTest, RejectsSelfEdges) {
  AsGraph g;
  EXPECT_THROW(g.add_provider(1, 1), std::invalid_argument);
  EXPECT_THROW(g.add_peering(2, 2), std::invalid_argument);
}

TEST(AsGraphTest, CustomerRoutePreferredOverPeerAndProvider) {
  const auto g = reference_graph();
  // From 5 toward 8: 8 is a direct customer.
  const auto p = g.path(5, 8);
  EXPECT_EQ(p, (std::vector<AsNumber>{5, 8}));
}

TEST(AsGraphTest, PeerShortcutUsedWhenValleyFree) {
  const auto g = reference_graph();
  // 7 -> 8 can go via the lateral peering (7=8), which beats climbing to
  // tier-1 (7-4-1-2-5-8).
  const auto p = g.path(7, 8);
  EXPECT_EQ(p, (std::vector<AsNumber>{7, 8}));
}

TEST(AsGraphTest, ValleyFreePathThroughTier1) {
  const auto g = reference_graph();
  const auto p = g.path(6, 9);
  EXPECT_EQ(p, (std::vector<AsNumber>{6, 3, 1, 2, 5, 9}));
}

TEST(AsGraphTest, PeerRouteNotExportedToPeer) {
  // 6's path to 8 must not use 7's peering with 8 (valley-free forbids
  // peer->peer): 6 climbs to 1, crosses to 2, descends 5 -> 8.
  const auto g = reference_graph();
  const auto p = g.path(6, 8);
  EXPECT_EQ(p, (std::vector<AsNumber>{6, 3, 1, 2, 5, 8}));
}

TEST(AsGraphTest, PathToSelfIsSingleton) {
  const auto g = reference_graph();
  EXPECT_EQ(g.path(4, 4), (std::vector<AsNumber>{4}));
}

TEST(AsGraphTest, UnknownEndpointsYieldEmptyPath) {
  const auto g = reference_graph();
  EXPECT_TRUE(g.path(1, 77).empty());
  EXPECT_TRUE(g.path(77, 1).empty());
}

TEST(AsGraphTest, DisconnectedNodeUnreachable) {
  auto g = reference_graph();
  g.add_as(50);
  EXPECT_TRUE(g.path(50, 1).empty());
  const auto table = g.routes_to(50);
  const auto idx = g.index_of(1);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(table.next_hop[*idx], kNoAs);
}

TEST(AsGraphTest, RoutesToUnknownDestinationThrows) {
  const auto g = reference_graph();
  EXPECT_THROW(g.routes_to(1234), std::invalid_argument);
}

TEST(AsGraphTest, RouteTypesAreClassifiedCorrectly) {
  const auto g = reference_graph();
  const auto table = g.routes_to(8);
  auto type_of = [&](AsNumber as) { return table.type[*g.index_of(as)]; };
  EXPECT_EQ(type_of(5), RouteType::kCustomer);
  EXPECT_EQ(type_of(2), RouteType::kCustomer);
  EXPECT_EQ(type_of(7), RouteType::kPeer);
  EXPECT_EQ(type_of(1), RouteType::kPeer);   // via tier-1 peering with 2
  EXPECT_EQ(type_of(9), RouteType::kProvider);
  EXPECT_EQ(type_of(6), RouteType::kProvider);
}

TEST(GenerateGraphTest, DeterministicAndFullyConnected) {
  std::vector<AsNumber> order(300);
  std::iota(order.begin(), order.end(), 1);
  GraphConfig cfg;
  cfg.seed = 11;
  const auto g1 = generate_graph(order, cfg);
  const auto g2 = generate_graph(order, cfg);
  EXPECT_EQ(g1.as_count(), 300u);
  // Every AS reaches AS 1 (a tier-1) — the graph is a connected hierarchy.
  for (AsNumber as = 1; as <= 300; ++as) {
    EXPECT_FALSE(g1.path(as, 1).empty()) << "AS " << as;
    EXPECT_EQ(g1.path(as, 1), g2.path(as, 1));
  }
}

TEST(GenerateGraphTest, AllPairsReachableOnSample) {
  std::vector<AsNumber> order(120);
  std::iota(order.begin(), order.end(), 1);
  const auto g = generate_graph(order, GraphConfig{});
  for (AsNumber s = 1; s <= 120; s += 7) {
    for (AsNumber d = 1; d <= 120; d += 11) {
      EXPECT_FALSE(g.path(s, d).empty()) << s << " -> " << d;
    }
  }
}

TEST(GenerateGraphTest, EarlyAsesAccumulateCustomers) {
  std::vector<AsNumber> order(500);
  std::iota(order.begin(), order.end(), 1);
  const auto g = generate_graph(order, GraphConfig{});
  std::size_t tier1_customers = 0;
  for (AsNumber as = 1; as <= 10; ++as) {
    tier1_customers += g.customers_of(as).size();
  }
  std::size_t tail_customers = 0;
  for (AsNumber as = 491; as <= 500; ++as) {
    tail_customers += g.customers_of(as).size();
  }
  EXPECT_GT(tier1_customers, tail_customers * 3);
}

// Fewer ASes than the tier-1 count: the whole graph is the tier-1 clique,
// and the lateral-peering pass (sized from extra_peering_fraction * n = 1
// here) has no sub-tier-1 AS to draw from.
TEST(GenerateGraphTest, AllTier1GraphIsACliqueWithNoLateralPeering) {
  std::vector<AsNumber> order(8);
  std::iota(order.begin(), order.end(), 1);
  GraphConfig cfg;
  ASSERT_GE(cfg.extra_peering_fraction * 8, 1.0);
  const auto g = generate_graph(order, cfg);
  EXPECT_EQ(g.as_count(), 8u);
  for (AsNumber as = 1; as <= 8; ++as) {
    EXPECT_EQ(g.peers_of(as).size(), 7u) << "AS " << as;
    EXPECT_TRUE(g.providers_of(as).empty()) << "AS " << as;
    EXPECT_TRUE(g.customers_of(as).empty()) << "AS " << as;
  }
}

}  // namespace
}  // namespace discs

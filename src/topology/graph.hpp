// AS-level topology graph with business relationships (customer-provider,
// peer-peer) and Gao-Rexford valley-free route computation.
//
// DISCS itself only needs connectivity (the DISCS-Ad rides ordinary BGP
// updates), but the substrate is shared by:
//  * the BGP simulator (export policies for update propagation),
//  * the uRPF baseline (forwarding paths + route asymmetry), and
//  * the Passport baseline (which ASes sit en route).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace discs {

/// How a route was learned, in Gao-Rexford preference order.
enum class RouteType : std::uint8_t { kCustomer = 0, kPeer = 1, kProvider = 2 };

class AsGraph {
 public:
  /// Registers an AS; idempotent. All edge helpers auto-register endpoints.
  void add_as(AsNumber as);

  /// Adds a transit edge: `customer` buys transit from `provider`.
  void add_provider(AsNumber customer, AsNumber provider);

  /// Adds a settlement-free peering edge.
  void add_peering(AsNumber a, AsNumber b);

  [[nodiscard]] std::size_t as_count() const { return asn_of_.size(); }
  [[nodiscard]] const std::vector<AsNumber>& ases() const { return asn_of_; }
  [[nodiscard]] bool contains(AsNumber as) const {
    return index_.contains(as);
  }

  [[nodiscard]] const std::vector<AsNumber>& providers_of(AsNumber as) const;
  [[nodiscard]] const std::vector<AsNumber>& customers_of(AsNumber as) const;
  [[nodiscard]] const std::vector<AsNumber>& peers_of(AsNumber as) const;

  /// Best valley-free route from every AS toward `dst`.
  struct RouteTable {
    AsNumber dst = kNoAs;
    /// Per AS index: next hop toward dst (kNoAs when unreachable or self).
    std::vector<AsNumber> next_hop;
    /// Per AS index: AS-path length toward dst (0 for dst itself,
    /// unreachable = max).
    std::vector<std::uint32_t> length;
    /// Per AS index: how the best route was learned.
    std::vector<RouteType> type;
  };

  /// Computes Gao-Rexford best routes toward `dst`: customer routes beat
  /// peer routes beat provider routes; ties go to the shorter path, then the
  /// lowest next-hop ASN (deterministic). O(V + E) per destination.
  [[nodiscard]] RouteTable routes_to(AsNumber dst) const;

  /// The forwarding AS path src -> dst under `routes_to(dst)`; empty when
  /// unreachable or either endpoint is unknown. Includes both endpoints.
  /// Demand-driven: it solves routes only on dst's and src's provider
  /// ancestry (a few dozen ASes on generated graphs), not on the whole
  /// graph, and allocates only per call, so concurrent calls are safe.
  [[nodiscard]] std::vector<AsNumber> path(AsNumber src, AsNumber dst) const;

  /// Index of an AS in the dense node arrays (for external per-AS state).
  [[nodiscard]] std::optional<std::size_t> index_of(AsNumber as) const;

 private:
  std::size_t ensure(AsNumber as);

  std::unordered_map<AsNumber, std::size_t> index_;
  std::vector<AsNumber> asn_of_;
  // Adjacency by ASN, for the public accessors.
  std::vector<std::vector<AsNumber>> providers_;
  std::vector<std::vector<AsNumber>> customers_;
  std::vector<std::vector<AsNumber>> peers_;
  // The same edges by dense node index, for route computation.
  std::vector<std::vector<std::uint32_t>> provider_idx_;
  std::vector<std::vector<std::uint32_t>> customer_idx_;
  std::vector<std::vector<std::uint32_t>> peer_idx_;
};

/// Generates a power-law-ish AS graph aligned with a size ordering: the
/// first `tier1_count` ASes in `by_size_desc` form a full peer mesh; every
/// later AS attaches to 1..max_providers providers chosen preferentially by
/// current degree (so large, early ASes accumulate customers), plus sparse
/// peering among similar-rank ASes. Deterministic in `seed`.
struct GraphConfig {
  std::size_t tier1_count = 10;
  std::size_t max_providers = 3;
  double extra_peering_fraction = 0.15;  // ASes gaining one lateral peer
  std::uint64_t seed = 1;
};

[[nodiscard]] AsGraph generate_graph(const std::vector<AsNumber>& by_size_desc,
                                     const GraphConfig& config);

}  // namespace discs

#include "topology/graph.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/rng.hpp"

namespace discs {
namespace {

constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kNoNode = std::numeric_limits<std::uint32_t>::max();

// One AS's best route toward the destination; the default is "no route".
// `hop` is the next hop's node index.
struct Route {
  RouteType type = RouteType::kProvider;
  std::uint32_t length = kUnreachable;
  std::uint32_t hop = kNoNode;

  [[nodiscard]] bool routed() const { return length != kUnreachable; }
};

// The Gao-Rexford preference rule: route type, then length, then lowest
// next-hop ASN (deterministic). Replaces `current` with `offer` when the
// offer is strictly better.
bool adopt(Route& current, const Route& offer,
           const std::vector<AsNumber>& asn_of) {
  if (current.routed()) {
    if (offer.type != current.type) {
      if (offer.type > current.type) return false;
    } else if (offer.length != current.length) {
      if (offer.length > current.length) return false;
    } else if (asn_of[offer.hop] >= asn_of[current.hop]) {
      return false;
    }
  }
  current = offer;
  return true;
}

// Routes of the few dozen ASes one `path` call touches: open addressing
// keyed by node index, so a call costs neither hashing per edge nor an O(V)
// table reset.
class SparseRoutes {
 public:
  /// The route of `node`; nullptr when `node` was never touched.
  [[nodiscard]] const Route* find(std::uint32_t node) const {
    const Slot& slot = slots_[probe(node)];
    return slot.node == node ? &slot.route : nullptr;
  }

  /// The route of `node`, inserting "no route" on first touch.
  Route& operator[](std::uint32_t node) {
    std::size_t i = probe(node);
    if (slots_[i].node == node) return slots_[i].route;
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
      i = probe(node);
    }
    ++size_;
    slots_[i].node = node;
    return slots_[i].route;
  }

 private:
  struct Slot {
    std::uint32_t node = kNoNode;
    Route route;
  };

  // The slot holding `node`, or the empty slot where it belongs.
  [[nodiscard]] std::size_t probe(std::uint32_t node) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i =
        (std::uint64_t{node} * 0x9E3779B97F4A7C15ull) >> (64 - bits_);
    while (slots_[i].node != node && slots_[i].node != kNoNode) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    ++bits_;
    for (const Slot& slot : old) {
      if (slot.node != kNoNode) slots_[probe(slot.node)] = slot;
    }
  }

  unsigned bits_ = 6;
  std::vector<Slot> slots_ = std::vector<Slot>(std::size_t{1} << bits_);
  std::size_t size_ = 0;
};

// Phase 1, shared by routes_to and path — customer routes climb provider
// edges: dst's providers learn a customer route, then their providers, ...
// BFS by length; ties within a level are resolved by `adopt` since every
// edge of a level is relaxed before the next level is dequeued. These are
// the only customer routes: they exist on dst's provider ancestors alone.
template <class Routes>
void climb_customer_routes(
    std::uint32_t dst, const std::vector<std::vector<std::uint32_t>>& providers,
    const std::vector<AsNumber>& asn_of, Routes& routes) {
  routes[dst] = Route{RouteType::kCustomer, 0, kNoNode};
  std::vector<std::uint32_t> queue{dst};
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t x = queue[head];
    const Route offer{RouteType::kCustomer, routes[x].length + 1, x};
    for (const std::uint32_t p : providers[x]) {
      if (adopt(routes[p], offer, asn_of)) queue.push_back(p);
    }
  }
}

}  // namespace

void AsGraph::add_as(AsNumber as) { ensure(as); }

std::size_t AsGraph::ensure(AsNumber as) {
  const auto [it, inserted] = index_.try_emplace(as, asn_of_.size());
  if (inserted) {
    asn_of_.push_back(as);
    providers_.emplace_back();
    customers_.emplace_back();
    peers_.emplace_back();
    provider_idx_.emplace_back();
    customer_idx_.emplace_back();
    peer_idx_.emplace_back();
  }
  return it->second;
}

void AsGraph::add_provider(AsNumber customer, AsNumber provider) {
  if (customer == provider) {
    throw std::invalid_argument("AsGraph: self transit edge");
  }
  const std::size_t c = ensure(customer);
  const std::size_t p = ensure(provider);
  providers_[c].push_back(provider);
  customers_[p].push_back(customer);
  provider_idx_[c].push_back(static_cast<std::uint32_t>(p));
  customer_idx_[p].push_back(static_cast<std::uint32_t>(c));
}

void AsGraph::add_peering(AsNumber a, AsNumber b) {
  if (a == b) throw std::invalid_argument("AsGraph: self peering edge");
  const std::size_t ia = ensure(a);
  const std::size_t ib = ensure(b);
  peers_[ia].push_back(b);
  peers_[ib].push_back(a);
  peer_idx_[ia].push_back(static_cast<std::uint32_t>(ib));
  peer_idx_[ib].push_back(static_cast<std::uint32_t>(ia));
}

const std::vector<AsNumber>& AsGraph::providers_of(AsNumber as) const {
  static const std::vector<AsNumber> kEmpty;
  const auto it = index_.find(as);
  return it == index_.end() ? kEmpty : providers_[it->second];
}

const std::vector<AsNumber>& AsGraph::customers_of(AsNumber as) const {
  static const std::vector<AsNumber> kEmpty;
  const auto it = index_.find(as);
  return it == index_.end() ? kEmpty : customers_[it->second];
}

const std::vector<AsNumber>& AsGraph::peers_of(AsNumber as) const {
  static const std::vector<AsNumber> kEmpty;
  const auto it = index_.find(as);
  return it == index_.end() ? kEmpty : peers_[it->second];
}

std::optional<std::size_t> AsGraph::index_of(AsNumber as) const {
  const auto it = index_.find(as);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

AsGraph::RouteTable AsGraph::routes_to(AsNumber dst) const {
  const auto dst_it = index_.find(dst);
  if (dst_it == index_.end()) {
    throw std::invalid_argument("routes_to: unknown destination AS");
  }
  const std::size_t n = asn_of_.size();
  std::vector<Route> routes(n);

  // Phase 1 — customer routes.
  climb_customer_routes(static_cast<std::uint32_t>(dst_it->second),
                        provider_idx_, asn_of_, routes);

  // Phase 2 — peer routes: one lateral hop from any customer route (or dst).
  for (std::uint32_t x = 0; x < n; ++x) {
    if (!routes[x].routed() || routes[x].type != RouteType::kCustomer) continue;
    const Route offer{RouteType::kPeer, routes[x].length + 1, x};
    for (const std::uint32_t q : peer_idx_[x]) adopt(routes[q], offer, asn_of_);
  }

  // Phase 3 — provider routes descend customer edges from every routed node.
  // Seed the BFS with all currently routed nodes ordered by length so the
  // shortest provider routes win.
  std::vector<std::uint32_t> queue;
  for (std::uint32_t x = 0; x < n; ++x) {
    if (routes[x].routed()) queue.push_back(x);
  }
  std::sort(queue.begin(), queue.end(), [&](std::uint32_t a, std::uint32_t b) {
    return routes[a].length < routes[b].length;
  });
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t x = queue[head];
    const Route offer{RouteType::kProvider, routes[x].length + 1, x};
    for (const std::uint32_t c : customer_idx_[x]) {
      if (adopt(routes[c], offer, asn_of_)) queue.push_back(c);
    }
  }

  RouteTable table;
  table.dst = dst;
  table.next_hop.reserve(n);
  table.length.reserve(n);
  table.type.reserve(n);
  for (const Route& route : routes) {
    table.next_hop.push_back(route.hop == kNoNode ? kNoAs : asn_of_[route.hop]);
    table.length.push_back(route.length);
    table.type.push_back(route.type);
  }
  return table;
}

// The same routes as routes_to(dst), solved only where the walk from src
// needs them: customer routes on dst's provider ancestors (phase 1), then
// peer and provider routes on src's provider ancestors.
std::vector<AsNumber> AsGraph::path(AsNumber src, AsNumber dst) const {
  const auto src_it = index_.find(src);
  const auto dst_it = index_.find(dst);
  if (src_it == index_.end() || dst_it == index_.end()) return {};
  const auto s = static_cast<std::uint32_t>(src_it->second);
  const auto d = static_cast<std::uint32_t>(dst_it->second);

  SparseRoutes routes;
  climb_customer_routes(d, provider_idx_, asn_of_, routes);

  // Every AS phase 1 did not touch has no customer route. Give it its peer
  // route: the best (length, ASN) over peers holding a customer route. An AS
  // without one needs a provider route, which depends only on its
  // providers, so climb on from there; the climb stops at customer and peer
  // routes, which no provider route can beat. `open` lists the ASes left
  // needing a provider route, in BFS order from src.
  std::vector<std::uint32_t> open;
  const auto settle_peer_route = [&](std::uint32_t x) {
    Route& route = routes[x];
    for (const std::uint32_t q : peer_idx_[x]) {
      const Route* via = routes.find(q);
      if (via != nullptr && via->type == RouteType::kCustomer) {
        adopt(route, Route{RouteType::kPeer, via->length + 1, q}, asn_of_);
      }
    }
    if (!route.routed()) open.push_back(x);
  };
  if (routes.find(s) == nullptr) settle_peer_route(s);
  for (std::size_t head = 0; head < open.size(); ++head) {
    for (const std::uint32_t p : provider_idx_[open[head]]) {
      if (routes.find(p) == nullptr) settle_peer_route(p);
    }
  }

  // Provider routes: the best (length, ASN) over an AS's providers, each of
  // which either got its route above or is in `open`. Provider cycles rule
  // out one pass in dependency order, so relax to a fixed point; sweeping
  // top-down (farthest ancestors first) settles generated graphs in about
  // two passes.
  for (bool changed = true; changed;) {
    changed = false;
    for (auto it = open.rbegin(); it != open.rend(); ++it) {
      Route& route = routes[*it];
      for (const std::uint32_t p : provider_idx_[*it]) {
        const Route* via = routes.find(p);
        if (via->routed() &&
            adopt(route, Route{RouteType::kProvider, via->length + 1, p},
                  asn_of_)) {
          changed = true;
        }
      }
    }
  }

  std::vector<AsNumber> hops;
  for (std::uint32_t cur = s;;) {
    hops.push_back(asn_of_[cur]);
    if (cur == d) return hops;
    const Route* route = routes.find(cur);
    if (route == nullptr || !route->routed() || hops.size() > asn_of_.size()) {
      return {};
    }
    cur = route->hop;
  }
}

AsGraph generate_graph(const std::vector<AsNumber>& by_size_desc,
                       const GraphConfig& config) {
  if (by_size_desc.empty()) {
    throw std::invalid_argument("generate_graph: empty AS list");
  }
  AsGraph graph;
  Xoshiro256 rng(config.seed);
  const std::size_t n = by_size_desc.size();
  const std::size_t tier1 = std::min(config.tier1_count, n);

  // Tier-1 clique of peers.
  for (std::size_t i = 0; i < tier1; ++i) {
    graph.add_as(by_size_desc[i]);
    for (std::size_t j = 0; j < i; ++j) {
      graph.add_peering(by_size_desc[i], by_size_desc[j]);
    }
  }

  // Preferential attachment below tier-1: sample providers from a ball of
  // endpoints where each AS appears once per unit of degree (+1), the
  // classic Barabási-Albert trick.
  std::vector<std::size_t> ball;  // indices into by_size_desc
  for (std::size_t i = 0; i < tier1; ++i) ball.push_back(i);
  for (std::size_t i = tier1; i < n; ++i) {
    const AsNumber as = by_size_desc[i];
    graph.add_as(as);
    const std::size_t want = 1 + rng.below(config.max_providers);
    std::vector<std::size_t> chosen;
    for (std::size_t attempt = 0; attempt < want * 4 && chosen.size() < want;
         ++attempt) {
      const std::size_t pick = ball[rng.below(ball.size())];
      if (pick != i &&
          std::find(chosen.begin(), chosen.end(), pick) == chosen.end()) {
        chosen.push_back(pick);
      }
    }
    if (chosen.empty()) chosen.push_back(0);
    for (std::size_t p : chosen) {
      graph.add_provider(as, by_size_desc[p]);
      ball.push_back(p);
    }
    ball.push_back(i);
  }

  // Sparse lateral peering between similar-rank ASes (adds the route
  // asymmetry uRPF suffers from). Each AS pair keeps exactly one
  // relationship: peering is skipped when a transit or peering edge already
  // connects the two, so route classification stays unambiguous.
  auto related = [&graph](AsNumber a, AsNumber b) {
    const auto& providers = graph.providers_of(a);
    if (std::find(providers.begin(), providers.end(), b) != providers.end()) {
      return true;
    }
    const auto& customers = graph.customers_of(a);
    if (std::find(customers.begin(), customers.end(), b) != customers.end()) {
      return true;
    }
    const auto& peers = graph.peers_of(a);
    return std::find(peers.begin(), peers.end(), b) != peers.end();
  };
  // Lateral peers are drawn from below tier-1; a graph that is all tier-1
  // (n <= tier1_count) has none to draw and is already a full clique.
  const auto lateral =
      n <= tier1 ? 0
                 : static_cast<std::size_t>(config.extra_peering_fraction *
                                            static_cast<double>(n));
  for (std::size_t k = 0; k < lateral; ++k) {
    const std::size_t i = tier1 + rng.below(n - tier1);
    const std::size_t span = std::max<std::size_t>(n / 20, 2);
    const std::size_t lo = i > span ? i - span : 0;
    const std::size_t hi = std::min(n - 1, i + span);
    const std::size_t j = lo + rng.below(hi - lo + 1);
    if (i != j && !related(by_size_desc[i], by_size_desc[j])) {
      graph.add_peering(by_size_desc[i], by_size_desc[j]);
    }
  }
  return graph;
}

}  // namespace discs

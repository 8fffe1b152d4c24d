// Longest-prefix-match tables — the lookup substrate behind the DISCS
// Pfx2AS table and the four function tables (paper §V-A).
//
// BinaryTrie (one node per prefix bit; minimal memory, simple) is the
// mutable build representation of every table: RouterTables::seal()
// compiles it into the flat engines of lpm/flat.hpp that sealed lookups
// serve from, and the differential tests hold those engines to it.
//
// It is a template over the key family (IPv4 or IPv6 traits) and the
// mapped value type. Insert-then-lookup workloads only (route tables are
// rebuilt, not incrementally withdrawn, in this simulator); `insert`
// overwrites an existing entry for the same prefix.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace discs {

/// Key traits: bit access over addresses and prefix decomposition.
struct Ipv4Key {
  using Address = Ipv4Address;
  using Prefix = Prefix4;
  static constexpr unsigned kMaxBits = 32;
  static unsigned bit(const Address& a, unsigned i) { return a.bit(i); }
  /// Byte `i` of the address, most significant first.
  static std::uint8_t byte(const Address& a, unsigned i) {
    return static_cast<std::uint8_t>(a.bits() >> (24 - 8 * i));
  }
  static Address from_bytes(const std::array<std::uint8_t, 4>& b) {
    return Address((std::uint32_t{b[0]} << 24) | (std::uint32_t{b[1]} << 16) |
                   (std::uint32_t{b[2]} << 8) | std::uint32_t{b[3]});
  }
};

struct Ipv6Key {
  using Address = Ipv6Address;
  using Prefix = Prefix6;
  static constexpr unsigned kMaxBits = 128;
  static unsigned bit(const Address& a, unsigned i) { return a.bit(i); }
  static std::uint8_t byte(const Address& a, unsigned i) { return a.bytes()[i]; }
  static Address from_bytes(const std::array<std::uint8_t, 16>& b) {
    return Address(b);
  }
};

/// Classic binary (unibit) trie.
template <typename Traits, typename Value>
class BinaryTrie {
 public:
  using Address = typename Traits::Address;
  using Prefix = typename Traits::Prefix;

  BinaryTrie() : root_(std::make_unique<Node>()) {}

  /// Inserts or overwrites the value for `prefix`.
  void insert(const Prefix& prefix, Value value) {
    Node* node = root_.get();
    for (unsigned i = 0; i < prefix.length(); ++i) {
      auto& child = node->child[Traits::bit(prefix.address(), i)];
      if (!child) {
        child = std::make_unique<Node>();
        ++nodes_;
      }
      node = child.get();
    }
    if (!node->value) ++size_;
    node->value = std::move(value);
  }

  /// Longest-prefix-match lookup; nullopt when nothing matches.
  [[nodiscard]] std::optional<Value> lookup(const Address& addr) const {
    const Node* node = root_.get();
    std::optional<Value> best;
    for (unsigned i = 0;; ++i) {
      if (node->value) best = node->value;
      if (i >= Traits::kMaxBits) break;
      node = node->child[Traits::bit(addr, i)].get();
      if (node == nullptr) break;
    }
    return best;
  }

  /// Exact-match lookup of a stored prefix (no LPM semantics).
  [[nodiscard]] const Value* find_exact(const Prefix& prefix) const {
    const Node* node = root_.get();
    for (unsigned i = 0; i < prefix.length(); ++i) {
      node = node->child[Traits::bit(prefix.address(), i)].get();
      if (node == nullptr) return nullptr;
    }
    return node->value ? &*node->value : nullptr;
  }

  /// Visits the value stored at every prefix on the path to `addr`, shortest
  /// first — i.e. every table entry the address matches, not just the
  /// longest. Used by function-table scans.
  template <typename Fn>
  void visit_matches(const Address& addr, Fn&& fn) const {
    const Node* node = root_.get();
    for (unsigned i = 0;; ++i) {
      if (node->value) fn(*node->value);
      if (i >= Traits::kMaxBits) break;
      node = node->child[Traits::bit(addr, i)].get();
      if (node == nullptr) break;
    }
  }

  /// Visits every stored (prefix, value) pair depth-first, a prefix before
  /// any of its refinements and the 0-branch before the 1-branch — that is,
  /// in ascending Prefix order, which entries_after() (flat.hpp) relies on
  /// to merge pending inserts into the sealed engines' build input.
  template <typename Fn>
  void visit_entries(Fn&& fn) const {
    std::array<std::uint8_t, Traits::kMaxBits / 8> bytes{};
    visit_entries_rec(root_.get(), 0, bytes, fn);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() {
    root_ = std::make_unique<Node>();
    size_ = 0;
    nodes_ = 1;
  }

  /// A deep copy. Explicit rather than a copy constructor, so a trie is
  /// only ever duplicated on purpose (a copy-on-write table's successor).
  [[nodiscard]] BinaryTrie clone() const {
    BinaryTrie copy;
    copy.root_ = clone_node(*root_);
    copy.size_ = size_;
    copy.nodes_ = nodes_;
    return copy;
  }

  /// Approximate heap footprint in bytes. The node count is maintained
  /// incrementally on insert — the router cost bench calls this in a loop,
  /// so it must not walk the trie.
  [[nodiscard]] std::size_t memory_bytes() const {
    return nodes_ * sizeof(Node);
  }

 private:
  struct Node {
    std::unique_ptr<Node> child[2];
    std::optional<Value> value;
  };

  static std::unique_ptr<Node> clone_node(const Node& node) {
    auto copy = std::make_unique<Node>();
    copy->value = node.value;
    for (unsigned b = 0; b < 2; ++b) {
      if (node.child[b]) copy->child[b] = clone_node(*node.child[b]);
    }
    return copy;
  }

  template <typename Fn>
  static void visit_entries_rec(
      const Node* node, unsigned depth,
      std::array<std::uint8_t, Traits::kMaxBits / 8>& bytes, Fn& fn) {
    if (node->value) fn(Prefix(Traits::from_bytes(bytes), depth), *node->value);
    if (depth >= Traits::kMaxBits) return;
    const auto mask = static_cast<std::uint8_t>(0x80u >> (depth % 8));
    for (unsigned b = 0; b < 2; ++b) {
      const Node* child = node->child[b].get();
      if (child == nullptr) continue;
      if (b != 0) bytes[depth / 8] |= mask;
      visit_entries_rec(child, depth + 1, bytes, fn);
      if (b != 0) bytes[depth / 8] &= static_cast<std::uint8_t>(~mask);
    }
  }

  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
  std::size_t nodes_ = 1;  // root included
};

/// Default LPM engines used by the data plane.
template <typename Value>
using Lpm4 = BinaryTrie<Ipv4Key, Value>;
template <typename Value>
using Lpm6 = BinaryTrie<Ipv6Key, Value>;

}  // namespace discs

// Sealed flat-array LPM engines — the immutable lookup substrate compiled
// from the build-time tries, so shard workers do raw array loads instead of
// probing a per-shard cache in front of a pointer-chasing trie.
//
// A compiled form is never edited in place. RouterTables::seal() builds the
// first one; after that a transaction builds the next one off to the side,
// without the engine's writer lock (`entries_after` overlays the pending
// ops on the live trie's entries), and the commit swaps it in under the
// lock. Every build goes through the same `build(entries)` entry point.
//
// Layout: a direct-indexed root array over the first `root_bits` address
// bits plus chained 256-entry spill groups, one per additional address byte.
// IPv4 tables past kDir24MinPrefixes get the classic DIR-24-8 shape (2^24
// root, one spill level for /25../32); smaller tables and IPv6 use a
// byte-wide root with an 8-bit-stride compressed spill chain, so a sealed
// 3-prefix function table costs ~1 KiB, not 64 MiB. Controlled prefix
// expansion with leaf pushing: every slot already holds the code of the
// longest matching prefix covering its range, so a lookup is one root load
// plus one load per spill level — no backtracking.
//
// Slot codes are uint32: 0 = no match, bit 31 set = spill-group pointer
// (low bits index `groups_`), anything else is a 1-based handle whose
// meaning the wrapper defines. Two wrappers share the painter:
//  * CompiledLpm     — longest-match value lookup (Pfx2AS); values interned
//    into a dense pool, so 442k prefixes over 44k ASes store each AS once.
//  * CompiledMatcher — all-covering-prefixes lookup (function tables); each
//    code names an interned, shortest-first set of entry indices, preserving
//    BinaryTrie::visit_matches semantics exactly.
//
// Build correctness leans on one invariant: prefixes are painted in
// ascending length order, so when a prefix is painted, every slot in its
// target range holds the same code (any earlier prefix overlapping the
// range must cover all of it, and no spill group can exist below it yet).
// The merge is therefore computed once per range and the fill is flat.
//
// The tries remain the mutable build representation and the differential
// oracle — tests/lpm/lpm_test.cpp pits these engines against BinaryTrie
// over fuzzer-drawn prefix sets, and tests/dataplane/transaction_test.cpp
// pits prepared-and-swapped tables against an uncompiled twin.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lpm/lpm.hpp"

namespace discs {

/// A trie's (prefix, value) pairs, ascending — the order visit_entries
/// yields (a prefix sorts before its refinements, the 0-branch before the
/// 1-branch, which is exactly Prefix ordering).
template <typename Traits, typename Value>
using TrieEntries = std::vector<std::pair<typename Traits::Prefix, Value>>;

/// The entries `trie` would hold after inserting `overlay` in order (a later
/// pair for the same prefix wins, as BinaryTrie::insert overwrites), built
/// without touching the trie. This is how a transaction compiles the next
/// form of a table while readers still use the live one. Ascending order.
template <typename Traits, typename Value>
TrieEntries<Traits, Value> entries_after(const BinaryTrie<Traits, Value>& trie,
                                         TrieEntries<Traits, Value> overlay) {
  // Last write per prefix wins: stable-sort, then keep each run's last pair.
  std::stable_sort(
      overlay.begin(), overlay.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < overlay.size(); ++i) {
    if (i + 1 < overlay.size() && overlay[i + 1].first == overlay[i].first) {
      continue;
    }
    overlay[kept++] = overlay[i];
  }
  overlay.resize(kept);

  TrieEntries<Traits, Value> out;
  out.reserve(trie.size() + overlay.size());
  auto next = overlay.begin();
  trie.visit_entries([&](const auto& prefix, const Value& value) {
    while (next != overlay.end() && next->first < prefix) {
      out.push_back(*next++);
    }
    if (next != overlay.end() && next->first == prefix) {
      out.push_back(*next++);
    } else {
      out.emplace_back(prefix, value);
    }
  });
  out.insert(out.end(), next, overlay.end());
  return out;
}

/// Shared flat-array painter + walker. `Traits` is Ipv4Key or Ipv6Key.
template <typename Traits>
class FlatTable {
 public:
  using Address = typename Traits::Address;
  using Prefix = typename Traits::Prefix;

  static constexpr std::uint32_t kGroupBit = 0x80000000u;
  /// Below this many prefixes a 2^24 root costs more than it saves.
  static constexpr std::size_t kDir24MinPrefixes = std::size_t{1} << 16;

  /// Root width for a table of `prefix_count` prefixes: DIR-24-8 only pays
  /// for itself at internet scale; everything else gets a one-byte root.
  static unsigned pick_root_bits(std::size_t prefix_count) {
    if (prefix_count >= kDir24MinPrefixes) {
      return Traits::kMaxBits == 32 ? 24u : 16u;
    }
    return 8u;
  }

  /// Rebuilds from `entries` (distinct prefixes; any order — sorted here).
  /// `merge(old_code, handle)` returns the code for a range currently
  /// holding `old_code` once the entry carrying `handle` also covers it.
  /// `root_bits` (multiple of 8) overrides pick_root_bits — tests use this
  /// to exercise the DIR-24-8 shape on small prefix sets.
  template <typename Merge>
  void build(std::vector<std::pair<Prefix, std::uint32_t>> entries,
             Merge&& merge, unsigned root_bits = 0) {
    root_bits_ = root_bits != 0 ? root_bits : pick_root_bits(entries.size());
    root_bytes_ = root_bits_ / 8;
    root_.assign(std::size_t{1} << root_bits_, 0u);
    groups_.clear();
    std::stable_sort(entries.begin(), entries.end(),
                     [](const auto& a, const auto& b) {
                       return a.first.length() < b.first.length();
                     });
    for (const auto& [prefix, handle] : entries) paint(prefix, handle, merge);
  }

  /// The code covering `addr` (0 = no match): one root load plus one load
  /// per spill level. This is the sealed data-plane hot path.
  [[nodiscard]] std::uint32_t code_of(const Address& addr) const {
    std::uint32_t code = root_[root_index(addr)];
    unsigned byte_i = root_bytes_;
    while (code & kGroupBit) {
      code = groups_[std::size_t{code & ~kGroupBit} * 256 +
                     Traits::byte(addr, byte_i++)];
    }
    return code;
  }

  /// Hints the root line covering `addr` into cache. The batch phase-A
  /// loops issue this a few packets ahead, so the root load — the one
  /// likely-DRAM-cold access of code_of() at DIR-24 scale — overlaps the
  /// lookups in between instead of stalling them.
  void prefetch(const Address& addr) const {
    if (!root_.empty()) __builtin_prefetch(root_.data() + root_index(addr));
  }

  [[nodiscard]] unsigned root_bits() const { return root_bits_; }
  [[nodiscard]] std::size_t group_count() const { return groups_.size() / 256; }
  [[nodiscard]] std::size_t memory_bytes() const {
    return (root_.capacity() + groups_.capacity()) * sizeof(std::uint32_t);
  }

 private:
  template <typename Merge>
  void paint(const Prefix& prefix, std::uint32_t handle, Merge& merge) {
    const Address addr = prefix.address();
    const unsigned len = prefix.length();
    if (len <= root_bits_) {
      // Prefix addresses are canonical (host bits zero), so the root index
      // is already aligned to the 2^(root_bits-len) span.
      fill_range(root_, root_index(addr),
                 std::size_t{1} << (root_bits_ - len), handle, merge);
      return;
    }
    std::uint32_t group = ensure_group(kRootTable, root_index(addr));
    unsigned pos = root_bits_;  // address bits consumed by tables above
    while (len - pos > 8) {
      group = ensure_group(group, Traits::byte(addr, pos / 8));
      pos += 8;
    }
    const unsigned rem = len - pos;  // 1..8 bits painted in this group
    fill_range(groups_,
               std::size_t{group} * 256 + Traits::byte(addr, pos / 8),
               std::size_t{1} << (8 - rem), handle, merge);
  }

  static constexpr std::uint32_t kRootTable = 0xFFFFFFFFu;

  /// Returns the group below `parent`'s slot at `offset`, creating it with
  /// the slot's current code leaf-pushed into all 256 entries if absent.
  std::uint32_t ensure_group(std::uint32_t parent, std::size_t offset) {
    const std::size_t at = parent == kRootTable
                               ? offset
                               : std::size_t{parent} * 256 + offset;
    std::vector<std::uint32_t>& table =
        parent == kRootTable ? root_ : groups_;
    const std::uint32_t cur = table[at];
    if (cur & kGroupBit) return cur & ~kGroupBit;
    const auto id = static_cast<std::uint32_t>(groups_.size() / 256);
    groups_.resize(groups_.size() + 256, cur);  // may invalidate `table` refs
    (parent == kRootTable ? root_[offset] : groups_[at]) = kGroupBit | id;
    return id;
  }

  template <typename Merge>
  static void fill_range(std::vector<std::uint32_t>& table, std::size_t base,
                         std::size_t span, std::uint32_t handle, Merge& merge) {
    const std::uint32_t merged = merge(table[base], handle);
    std::fill(table.begin() + static_cast<std::ptrdiff_t>(base),
              table.begin() + static_cast<std::ptrdiff_t>(base + span),
              merged);
  }

  [[nodiscard]] std::size_t root_index(const Address& addr) const {
    std::size_t idx = 0;
    for (unsigned i = 0; i < root_bytes_; ++i) {
      idx = (idx << 8) | Traits::byte(addr, i);
    }
    return idx;
  }

  std::vector<std::uint32_t> root_;
  std::vector<std::uint32_t> groups_;  // concatenated 256-entry groups
  unsigned root_bits_ = 8;
  unsigned root_bytes_ = 1;
};

/// Longest-prefix-match over interned values: the sealed form of
/// BinaryTrie<Traits, Value>::lookup. Used by Pfx2AsTable.
template <typename Traits, typename Value>
class CompiledLpm {
 public:
  using Address = typename Traits::Address;
  using Prefix = typename Traits::Prefix;

  /// Compiles a set of distinct prefixes (any order) — a trie's entries
  /// via entries_after() — into the flat form. O(painted slots).
  void build(TrieEntries<Traits, Value> entries, unsigned root_bits = 0) {
    pool_.clear();
    std::unordered_map<Value, std::uint32_t> interned;
    std::vector<std::pair<Prefix, std::uint32_t>> coded;
    coded.reserve(entries.size());
    for (const auto& [prefix, value] : entries) {
      auto [it, inserted] = interned.try_emplace(
          value, static_cast<std::uint32_t>(pool_.size() + 1));
      if (inserted) pool_.push_back(value);
      coded.emplace_back(prefix, it->second);
    }
    table_.build(std::move(coded),
                 [](std::uint32_t, std::uint32_t handle) { return handle; },
                 root_bits);
  }

  [[nodiscard]] std::optional<Value> lookup(const Address& addr) const {
    const std::uint32_t code = table_.code_of(addr);
    if (code == 0) return std::nullopt;
    return pool_[code - 1];
  }

  /// Allocation-free variant for the hot path. The empty early-out skips
  /// the root load entirely for tables compiled from an empty trie.
  [[nodiscard]] Value lookup_or(const Address& addr, Value fallback) const {
    if (pool_.empty()) return fallback;
    const std::uint32_t code = table_.code_of(addr);
    return code == 0 ? fallback : pool_[code - 1];
  }

  /// The interned code of `addr`'s longest match: 0 for none, else
  /// values()[code - 1] is its value. Lets a reader keep a dense side table
  /// indexed by code instead of hashing the values.
  [[nodiscard]] std::uint32_t code_of(const Address& addr) const {
    return pool_.empty() ? 0 : table_.code_of(addr);
  }
  [[nodiscard]] const std::vector<Value>& values() const { return pool_; }

  void prefetch(const Address& addr) const {
    if (!pool_.empty()) table_.prefetch(addr);
  }

  [[nodiscard]] unsigned root_bits() const { return table_.root_bits(); }
  [[nodiscard]] std::size_t memory_bytes() const {
    return table_.memory_bytes() + pool_.capacity() * sizeof(Value);
  }

 private:
  FlatTable<Traits> table_;
  std::vector<Value> pool_;  // dense, deduplicated values; code = index + 1
};

/// All-covering-prefixes lookup: the sealed form of
/// BinaryTrie<Traits, uint32_t>::visit_matches. Each flat-table code names
/// an interned set of entry handles, visited shortest-prefix-first — the
/// order visit_matches produces. Used by FunctionTable, whose handles index
/// its windows vector (windows stay mutable after sealing; only the prefix
/// structure is compiled).
template <typename Traits>
class CompiledMatcher {
 public:
  using Address = typename Traits::Address;
  using Prefix = typename Traits::Prefix;

  /// Compiles a set of distinct (prefix, handle) pairs (any order); the
  /// handles are what visit() reports.
  void build(TrieEntries<Traits, std::uint32_t> entries,
             unsigned root_bits = 0) {
    set_off_ = {0};
    set_data_.clear();
    // Memoized set extension: ranges holding the same code extend to the
    // same new code, keeping the set pool dense.
    std::unordered_map<std::uint64_t, std::uint32_t> memo;
    table_.build(
        std::move(entries),
        [&](std::uint32_t old_code, std::uint32_t handle) {
          const std::uint64_t key = (std::uint64_t{old_code} << 32) | handle;
          auto [it, inserted] = memo.try_emplace(key, 0);
          if (!inserted) return it->second;
          const std::size_t begin = old_code ? set_off_[old_code - 1] : 0;
          const std::size_t end = old_code ? set_off_[old_code] : 0;
          const std::size_t start = set_data_.size();
          set_data_.resize(start + (end - begin) + 1);
          for (std::size_t i = begin; i < end; ++i) {
            set_data_[start + (i - begin)] = set_data_[i];
          }
          set_data_.back() = handle;  // ascending-length paint ⇒ appended last
          set_off_.push_back(static_cast<std::uint32_t>(set_data_.size()));
          it->second = static_cast<std::uint32_t>(set_off_.size() - 1);
          return it->second;
        },
        root_bits);
  }

  /// Calls `fn(handle)` for every stored prefix covering `addr`, shortest
  /// first. Equivalent to the build trie's visit_matches. The empty
  /// early-out skips the root load for matchers compiled from an empty
  /// trie (out_src/in_src under a pure-CDP deployment).
  template <typename Fn>
  void visit(const Address& addr, Fn&& fn) const {
    if (set_data_.empty()) return;
    const std::uint32_t code = table_.code_of(addr);
    if (code == 0) return;
    for (std::uint32_t i = set_off_[code - 1]; i < set_off_[code]; ++i) {
      fn(set_data_[i]);
    }
  }

  void prefetch(const Address& addr) const {
    if (!set_data_.empty()) table_.prefetch(addr);
  }

  [[nodiscard]] unsigned root_bits() const { return table_.root_bits(); }
  [[nodiscard]] std::size_t memory_bytes() const {
    return table_.memory_bytes() +
           (set_off_.capacity() + set_data_.capacity()) * sizeof(std::uint32_t);
  }

 private:
  FlatTable<Traits> table_;
  std::vector<std::uint32_t> set_off_;   // set c spans [off[c-1], off[c])
  std::vector<std::uint32_t> set_data_;  // flattened handle sets
};

}  // namespace discs

// The extra tables a DISCS border router maintains (paper §V-A): the
// prefix-to-AS mapping, the stamping/verification key tables, and the four
// function tables (In-Src, In-Dst, Out-Src, Out-Dst).
//
// All tables are controller-constructed and installed on routers; lookups
// are longest-prefix-match. Function entries carry the invocation window
// (start/end) so on-demand invocation and expiry fall out of the lookup.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "crypto/cmac.hpp"
#include "lpm/flat.hpp"
#include "lpm/lpm.hpp"
#include "simkit/event_loop.hpp"

namespace discs {

class TableTransaction;

/// Monotonic counter stamped onto a RouterTables by every applied
/// TableTransaction. Epochs give teardown/undeploy tests a total order to
/// assert against: state is orphan-free iff the highest-epoch transaction
/// that mentioned a peer was the one erasing it.
using TableEpoch = std::uint64_t;

/// Writer discipline for a RouterTables (PR 2): once `seal()` has been
/// called, the sub-tables refuse direct mutation unless a TableTransaction
/// application holds the write scope open. Unsealed tables (test fixtures,
/// benches) mutate freely. The check is always on — it costs one pointer
/// test per *mutation*, never per packet — and violations abort with a
/// diagnostic rather than silently diverging router state.
class TableWriteGuard {
 public:
  void seal() { sealed_ = true; }
  [[nodiscard]] bool sealed() const { return sealed_; }
  [[nodiscard]] bool write_allowed() const { return !sealed_ || depth_ > 0; }

  /// RAII write scope; opened only by TableTransaction::commit (which runs
  /// under the engine's writer lock, so `depth_` needs no synchronization).
  class Scope {
   public:
    explicit Scope(TableWriteGuard& guard) : guard_(&guard) { ++guard_->depth_; }
    ~Scope() { --guard_->depth_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TableWriteGuard* guard_;
  };

 private:
  bool sealed_ = false;
  int depth_ = 0;
};

namespace detail {
/// Aborts with a diagnostic; out-of-line so the inline check stays tiny.
[[noreturn]] void table_write_violation(const char* table);

inline void check_guard(const TableWriteGuard* guard, const char* table) {
  if (guard != nullptr && !guard->write_allowed()) {
    table_write_violation(table);
  }
}
}  // namespace detail

/// The four defense functions, split into their per-direction operations
/// exactly as Table I anatomizes them.
enum class DefenseFunction : std::uint8_t {
  kDp = 1u << 0,        // Out-Dst: drop if src not local
  kCdpStamp = 1u << 1,  // Out-Dst: stamp
  kCdpVerify = 1u << 2, // In-Dst:  verify if src belongs to a peer
  kSp = 1u << 3,        // Out-Src: drop
  kCspStamp = 1u << 4,  // Out-Src: stamp if dst belongs to a peer
  kCspVerify = 1u << 5, // In-Src:  verify
};

/// Bitmask of DefenseFunction values.
using FunctionSet = std::uint8_t;

[[nodiscard]] constexpr FunctionSet to_mask(DefenseFunction f) {
  return static_cast<FunctionSet>(f);
}
[[nodiscard]] constexpr bool has_function(FunctionSet set, DefenseFunction f) {
  return (set & to_mask(f)) != 0;
}

/// Pending inserts into one table's tries, per address family, in op order.
template <typename Value>
struct FamilyOverlay {
  TrieEntries<Ipv4Key, Value> v4;
  TrieEntries<Ipv6Key, Value> v6;

  auto& of(const Prefix4&) { return v4; }
  auto& of(const Prefix6&) { return v6; }
};

/// A table's next compiled forms, built by TableTransaction::prepare off
/// the engine lock and swapped in by its commit. A family left empty keeps
/// its live form; after the swap the slots hold the retired forms.
template <typename Compiled4, typename Compiled6>
struct NextCompiled {
  std::optional<Compiled4> v4;
  std::optional<Compiled6> v6;

  /// Swaps the carried forms with the live `c4`/`c6`; false if none.
  bool swap_with(Compiled4& c4, Compiled6& c6) {
    if (v4) std::swap(c4, *v4);
    if (v6) std::swap(c6, *v6);
    return v4 || v6;
  }
};

/// The data behind a Pfx2AsTable: the build tries and, once compiled, their
/// flat forms (lpm/flat.hpp). A world's Pfx2AS is one of these, built once
/// by InternetDataset::pfx2as_snapshot() and read by every table that
/// adopts it.
struct Pfx2AsData {
  Lpm4<AsNumber> v4;
  Lpm6<AsNumber> v6;
  CompiledLpm<Ipv4Key, AsNumber> c4;
  CompiledLpm<Ipv6Key, AsNumber> c6;
  bool compiled = false;

  /// A deep copy: the tries cloned, the compiled forms copied.
  [[nodiscard]] Pfx2AsData clone() const {
    return {v4.clone(), v6.clone(), c4, c6, compiled};
  }
};

/// An immutable, reference-counted, compiled Pfx2AS: what every DAS of a
/// world shares (paper §V-A gives them all the same RPKI-derived mapping).
using Pfx2AsSnapshot = std::shared_ptr<const Pfx2AsData>;

/// Maps an address to its origin AS (longest prefix match). This is the
/// router-resident projection of the controller's RPKI-derived mapping.
///
/// The tries are the mutable build representation; RouterTables::seal()
/// compiles them into immutable flat arrays (lpm/flat.hpp) that lookups
/// prefer once present, and each transaction that maps a prefix on sealed
/// tables swaps in a freshly built form (prepare/commit, transaction.hpp).
///
/// Tries and compiled forms sit behind a shared pointer, copy-on-write: a
/// table that adopt()s a snapshot shares it with every other adopter, and
/// the first write gives the table a private successor, so no write ever
/// reaches the snapshot. A table holding the only reference writes in place.
class Pfx2AsTable {
 public:
  /// What prepare builds for a transaction's map_prefix ops. On data this
  /// table holds alone: the compiled form of each touched family (the
  /// commit inserts into the tries in place and swaps the forms in). On
  /// shared data: a whole private `successor` with the ops applied (the
  /// commit swaps the pointer; the retired one comes back here).
  struct Next : NextCompiled<CompiledLpm<Ipv4Key, AsNumber>,
                             CompiledLpm<Ipv6Key, AsNumber>> {
    std::shared_ptr<Pfx2AsData> successor;
  };

  Pfx2AsTable() : data_(std::make_shared<Pfx2AsData>()) {}
  Pfx2AsTable(const Pfx2AsTable&) = delete;
  Pfx2AsTable& operator=(const Pfx2AsTable&) = delete;

  /// Compiles both families of the given tries with the builder seal()
  /// uses and freezes the result as a snapshot tables can adopt().
  [[nodiscard]] static Pfx2AsSnapshot compile_snapshot(Lpm4<AsNumber> v4,
                                                       Lpm6<AsNumber> v6) {
    auto data = std::make_shared<Pfx2AsData>();
    data->v4 = std::move(v4);
    data->v6 = std::move(v6);
    compile_in(*data);
    return data;
  }

  /// Reads `snapshot` from now on, in place of the table's own data.
  void adopt(Pfx2AsSnapshot snapshot) {
    detail::check_guard(guard_, "pfx2as");
    // Writes never reach shared data: add() copies it first, and a
    // transaction on shared data commits a private successor instead.
    data_ = std::const_pointer_cast<Pfx2AsData>(std::move(snapshot));
  }

  void add(const Prefix4& prefix, AsNumber as) {
    detail::check_guard(guard_, "pfx2as");
    Pfx2AsData& data = own();
    data.v4.insert(prefix, as);
    data.compiled = false;
  }
  void add(const Prefix6& prefix, AsNumber as) {
    detail::check_guard(guard_, "pfx2as");
    Pfx2AsData& data = own();
    data.v6.insert(prefix, as);
    data.compiled = false;
  }

  [[nodiscard]] AsNumber lookup(Ipv4Address addr) const {
    const Pfx2AsData& data = *data_;
    if (data.compiled) return data.c4.lookup_or(addr, kNoAs);
    return data.v4.lookup(addr).value_or(kNoAs);
  }
  [[nodiscard]] AsNumber lookup(const Ipv6Address& addr) const {
    const Pfx2AsData& data = *data_;
    if (data.compiled) return data.c6.lookup_or(addr, kNoAs);
    return data.v6.lookup(addr).value_or(kNoAs);
  }

  /// Sealed-path cache hint for an upcoming lookup (no-op until compiled).
  void prefetch(Ipv4Address addr) const {
    if (data_->compiled) data_->c4.prefetch(addr);
  }
  void prefetch(const Ipv6Address& addr) const {
    if (data_->compiled) data_->c6.prefetch(addr);
  }

  [[nodiscard]] std::size_t size() const {
    return data_->v4.size() + data_->v6.size();
  }
  [[nodiscard]] std::size_t memory_bytes() const {
    return data_->v4.memory_bytes() + data_->v6.memory_bytes();
  }
  [[nodiscard]] bool compiled() const { return data_->compiled; }
  [[nodiscard]] std::size_t compiled_memory_bytes() const {
    return compiled() ? data_->c4.memory_bytes() + data_->c6.memory_bytes()
                      : 0;
  }
  /// The data this table reads: the same pointer in every table that
  /// adopted one snapshot and has not written since.
  [[nodiscard]] const Pfx2AsData* data() const { return data_.get(); }

 private:
  friend struct RouterTables;
  friend class TableTransaction;

  /// True when another holder (a snapshot's dataset, another table) reads
  /// the same data, so a write needs a private successor first.
  [[nodiscard]] bool shared() const { return data_.use_count() > 1; }
  /// The data, made private first if it is shared (copy-on-write).
  Pfx2AsData& own() {
    if (shared()) data_ = std::make_shared<Pfx2AsData>(data_->clone());
    return *data_;
  }

  /// The one builder, shared by seal() and prepare: the compiled form of
  /// `trie` as if `overlay` were inserted in order. Reads the trie only.
  template <typename Traits>
  static CompiledLpm<Traits, AsNumber> build(
      const BinaryTrie<Traits, AsNumber>& trie,
      TrieEntries<Traits, AsNumber> overlay) {
    CompiledLpm<Traits, AsNumber> compiled;
    compiled.build(entries_after(trie, std::move(overlay)));
    return compiled;
  }
  static void compile_in(Pfx2AsData& data) {
    data.c4 = build(data.v4, {});
    data.c6 = build(data.v6, {});
    data.compiled = true;
  }
  /// The next form of every family `mapped` touches (prepare step); on
  /// shared data, the successor that carries them. Reads the live data only.
  [[nodiscard]] Next prepare(FamilyOverlay<AsNumber> mapped) const {
    Next next;
    if (mapped.v4.empty() && mapped.v6.empty()) return next;
    if (!shared()) {
      if (!mapped.v4.empty()) next.v4 = build(data_->v4, std::move(mapped.v4));
      if (!mapped.v6.empty()) next.v6 = build(data_->v6, std::move(mapped.v6));
      return next;
    }
    auto successor = std::make_shared<Pfx2AsData>();
    successor->v4 = data_->v4.clone();
    successor->v6 = data_->v6.clone();
    for (const auto& [prefix, as] : mapped.v4) successor->v4.insert(prefix, as);
    for (const auto& [prefix, as] : mapped.v6) successor->v6.insert(prefix, as);
    successor->c4 = mapped.v4.empty() ? data_->c4 : build(successor->v4, {});
    successor->c6 = mapped.v6.empty() ? data_->c6 : build(successor->v6, {});
    successor->compiled = true;
    next.successor = std::move(successor);
    return next;
  }
  /// Swaps in what `next` carries (a successor, or forms for the data in
  /// place); the retired pointer or forms go back into it.
  void swap_compiled(Next& next) {
    if (next.successor) {
      data_.swap(next.successor);
    } else if (next.swap_with(data_->c4, data_->c6)) {
      data_->compiled = true;
    }
  }
  /// Compiles both families from the tries (RouterTables::seal); data that
  /// is already compiled (an adopted snapshot) is left as it is.
  void compile() {
    if (!data_->compiled) compile_in(own());
  }

  std::shared_ptr<Pfx2AsData> data_;
  const TableWriteGuard* guard_ = nullptr;
};

/// Key table: maps a peer AS to its 128-bit key. During re-keying the
/// previous key stays valid for verification until the window closes
/// (paper §IV-D), so entries hold up to two keys. The expanded AES-CMAC
/// contexts are cached here so per-packet work is mac-only (the hardware
/// analogue loads the key schedule once).
class KeyTable {
 public:
  struct Entry {
    explicit Entry(const Key128& key) : active(key), active_mac(key) {}

    Key128 active;
    AesCmac active_mac;
    std::optional<Key128> previous;  // still accepted while re-keying
    std::optional<AesCmac> previous_mac;
  };

  KeyTable() = default;
  /// Copies carry the entries but never the guard binding: a copy is a
  /// standalone table, and assignment into a guarded slot is a write.
  KeyTable(const KeyTable& other) : entries_(other.entries_) {}
  KeyTable& operator=(const KeyTable& other) {
    detail::check_guard(guard_, "key table");
    entries_ = other.entries_;
    return *this;
  }

  /// Installs/overwrites the key for `peer`. When a key already exists it
  /// is retained as `previous` (the re-keying grace key) unless
  /// `retain_previous` is false.
  void set_key(AsNumber peer, const Key128& key, bool retain_previous = true);

  /// Drops the grace key once the peer confirms the new key is deployed.
  void finish_rekey(AsNumber peer);

  /// Removes the peer entirely (peering torn down or key leaked).
  void erase(AsNumber peer) {
    detail::check_guard(guard_, "key table");
    entries_.erase(peer);
  }

  /// Drops every key (controller shutdown / undeploy).
  void clear() {
    detail::check_guard(guard_, "key table");
    entries_.clear();
  }

  [[nodiscard]] const Entry* find(AsNumber peer) const;
  [[nodiscard]] bool has_key(AsNumber peer) const {
    return entries_.contains(peer);
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  friend struct RouterTables;
  std::unordered_map<AsNumber, Entry> entries_;
  const TableWriteGuard* guard_ = nullptr;
};

/// One invocation window of a defense function over a prefix.
struct FunctionWindow {
  DefenseFunction function;
  SimTime start = 0;
  SimTime end = 0;

  [[nodiscard]] bool active_at(SimTime t) const { return t >= start && t < end; }
};

/// What a function-table lookup reports about an address at a given time.
struct FunctionMatch {
  FunctionSet functions = 0;  // active functions
  /// True when a crypto verify function is inside its head/tail tolerance
  /// interval: erase the mark but do not judge it (paper §IV-E1).
  bool erase_only = false;
};

/// One of In-Src / In-Dst / Out-Src / Out-Dst: prefix -> active functions.
class FunctionTable {
 public:
  using Next = NextCompiled<CompiledMatcher<Ipv4Key>, CompiledMatcher<Ipv6Key>>;

  /// Tolerance interval applied at both ends of every crypto-verify window.
  explicit FunctionTable(SimTime tolerance = 2 * kSecond)
      : tolerance_(tolerance) {}

  // Moves carry the data but never the guard binding (the source's guard
  // stays with its RouterTables); move-assignment into a guarded slot is a
  // write and checks the guard.
  FunctionTable(FunctionTable&& other) noexcept
      : tolerance_(other.tolerance_),
        v4_(std::move(other.v4_)),
        v6_(std::move(other.v6_)),
        c4_(std::move(other.c4_)),
        c6_(std::move(other.c6_)),
        compiled_(other.compiled_),
        entries_(std::move(other.entries_)) {
    other.compiled_ = false;
  }
  FunctionTable& operator=(FunctionTable&& other) noexcept {
    detail::check_guard(guard_, "function table");
    tolerance_ = other.tolerance_;
    v4_ = std::move(other.v4_);
    v6_ = std::move(other.v6_);
    c4_ = std::move(other.c4_);
    c6_ = std::move(other.c6_);
    compiled_ = other.compiled_;
    other.compiled_ = false;
    entries_ = std::move(other.entries_);
    return *this;
  }

  /// Installs a window; overlapping windows for the same prefix+function
  /// extend each other (re-invocation with a longer duration).
  void install(const Prefix4& prefix, DefenseFunction f, SimTime start,
               SimTime end);
  void install(const Prefix6& prefix, DefenseFunction f, SimTime start,
               SimTime end);

  /// Longest-prefix... actually *all*-prefix match: DISCS semantics union
  /// the functions of every covering prefix (a /16 invocation and a nested
  /// /24 invocation both apply).
  [[nodiscard]] FunctionMatch lookup(Ipv4Address addr, SimTime now) const;
  [[nodiscard]] FunctionMatch lookup(const Ipv6Address& addr, SimTime now) const;

  /// Sealed-path cache hint for an upcoming lookup (no-op until compiled).
  void prefetch(Ipv4Address addr) const {
    if (compiled_) c4_.prefetch(addr);
  }
  void prefetch(const Ipv6Address& addr) const {
    if (compiled_) c6_.prefetch(addr);
  }

  /// Removes windows that ended before `now` (housekeeping).
  void expire(SimTime now);

  [[nodiscard]] std::size_t window_count() const;

  [[nodiscard]] bool compiled() const { return compiled_; }
  [[nodiscard]] std::size_t compiled_memory_bytes() const {
    return compiled_ ? c4_.memory_bytes() + c6_.memory_bytes() : 0;
  }

 private:
  struct Entry {
    std::vector<FunctionWindow> windows;
  };

  template <typename Lpm, typename Prefix>
  void install_impl(Lpm& lpm, const Prefix& prefix, DefenseFunction f,
                    SimTime start, SimTime end);
  /// Window scan shared by the trie and compiled paths: `visit(fn)` must
  /// call fn(index) for every entry whose prefix covers the address.
  template <typename Visit>
  FunctionMatch scan_windows(Visit&& visit, SimTime now) const;

  // Compiled forms cover the prefix structure only. Windows stay mutable
  // after sealing — the compiled matcher yields entries_ indices, and
  // install() on an existing prefix or expire() only touch windows, so
  // neither invalidates the compiled form. Only a new prefix needs a build.

  /// The one builder, shared by seal() and prepare: the compiled form of a
  /// family's trie as if `overlay` (new prefixes with the entries_ index
  /// install() will give them) were inserted. Reads the trie only.
  static CompiledMatcher<Ipv4Key> build(
      const Lpm4<std::uint32_t>& trie,
      TrieEntries<Ipv4Key, std::uint32_t> overlay) {
    auto entries = entries_after(trie, std::move(overlay));
    // Function tables hold few prefixes but sit on the per-packet hot path,
    // so depth beats density: a 16-bit v4 root (256 KiB) resolves the
    // typical /9../16 invocation in one load and a /24 in two, where the
    // count-based default (8-bit root) would chain 2-3 spill groups.
    // Empty tables keep the default — their lookups never reach the root.
    const unsigned root_bits = entries.empty() ? 0 : 16;
    CompiledMatcher<Ipv4Key> compiled;
    compiled.build(std::move(entries), root_bits);
    return compiled;
  }
  static CompiledMatcher<Ipv6Key> build(
      const Lpm6<std::uint32_t>& trie,
      TrieEntries<Ipv6Key, std::uint32_t> overlay) {
    CompiledMatcher<Ipv6Key> compiled;
    compiled.build(entries_after(trie, std::move(overlay)));
    return compiled;
  }
  /// The next form of every family `grown` adds prefixes to (prepare step).
  [[nodiscard]] Next prepare(FamilyOverlay<std::uint32_t> grown) const {
    Next next;
    if (!grown.v4.empty()) next.v4 = build(v4_, std::move(grown.v4));
    if (!grown.v6.empty()) next.v6 = build(v6_, std::move(grown.v6));
    return next;
  }
  /// Swaps in the forms `next` carries; the retired ones go back into it.
  void swap_compiled(Next& next) {
    if (next.swap_with(c4_, c6_)) compiled_ = true;
  }
  /// Compiles both families from the tries (RouterTables::seal).
  void compile() {
    Next next{build(v4_, {}), build(v6_, {})};
    swap_compiled(next);
  }
  [[nodiscard]] bool has_prefix(const Prefix4& p) const {
    return v4_.find_exact(p) != nullptr;
  }
  [[nodiscard]] bool has_prefix(const Prefix6& p) const {
    return v6_.find_exact(p) != nullptr;
  }
  /// Handle the next new prefix gets from install().
  [[nodiscard]] std::uint32_t next_handle() const {
    return static_cast<std::uint32_t>(entries_.size());
  }

  friend struct RouterTables;
  friend class TableTransaction;
  SimTime tolerance_;
  // Values are indices into entries_ so windows can be mutated after insert.
  Lpm4<std::uint32_t> v4_;
  Lpm6<std::uint32_t> v6_;
  CompiledMatcher<Ipv4Key> c4_;
  CompiledMatcher<Ipv6Key> c6_;
  bool compiled_ = false;
  std::vector<Entry> entries_;
  const TableWriteGuard* guard_ = nullptr;
};

/// The full table set of one border router.
///
/// Sub-tables are born unguarded so tests and benches can populate them
/// directly. A controller calls `seal()` once its Pfx2AS has adopted the
/// world's snapshot; from then on the only mutation path is a
/// TableTransaction's commit (any other write aborts — see TableWriteGuard).
struct RouterTables {
  RouterTables() { bind_guards(); }
  /// Constructs all four function tables with the given tolerance interval.
  explicit RouterTables(SimTime tolerance)
      : in_src(tolerance),
        in_dst(tolerance),
        out_src(tolerance),
        out_dst(tolerance) {
    bind_guards();
  }
  RouterTables(const RouterTables&) = delete;
  RouterTables& operator=(const RouterTables&) = delete;

  /// Freezes the tables: all further writes must come through a
  /// TableTransaction. Sealing also compiles every LPM-backed sub-table
  /// into its immutable flat-array form (lpm/flat.hpp) with the same
  /// builder a transaction's prepare step uses; from then on a transaction
  /// that changes prefix structure builds the affected forms off-lock and
  /// its commit swaps them in — a sealed table is never compiled in place.
  void seal() {
    guard_.seal();
    pfx2as.compile();
    in_src.compile();
    in_dst.compile();
    out_src.compile();
    out_dst.compile();
  }
  [[nodiscard]] bool sealed() const { return guard_.sealed(); }
  /// Epoch of the last transaction applied (0 = none yet).
  [[nodiscard]] TableEpoch applied_epoch() const { return epoch_; }
  /// Invocation windows across all four function tables.
  [[nodiscard]] std::size_t window_count() const {
    return in_src.window_count() + in_dst.window_count() +
           out_src.window_count() + out_dst.window_count();
  }

  /// Footprint of the sealed flat engines across all sub-tables (0 until
  /// sealed). Telemetry exposes this as discs_lpm_compiled_bytes.
  [[nodiscard]] std::size_t compiled_memory_bytes() const {
    return pfx2as.compiled_memory_bytes() + in_src.compiled_memory_bytes() +
           in_dst.compiled_memory_bytes() + out_src.compiled_memory_bytes() +
           out_dst.compiled_memory_bytes();
  }
  /// Footprint of the build-representation tries (pfx2as only; the
  /// function-table tries are negligible next to it).
  [[nodiscard]] std::size_t trie_memory_bytes() const {
    return pfx2as.memory_bytes();
  }

  Pfx2AsTable pfx2as;
  KeyTable key_s;  // stamping keys: key_{local,peer}
  KeyTable key_v;  // verification keys: key_{peer,local}
  FunctionTable in_src;
  FunctionTable in_dst;
  FunctionTable out_src;
  FunctionTable out_dst;

 private:
  friend class TableTransaction;

  void bind_guards() {
    pfx2as.guard_ = &guard_;
    key_s.guard_ = &guard_;
    key_v.guard_ = &guard_;
    in_src.guard_ = &guard_;
    in_dst.guard_ = &guard_;
    out_src.guard_ = &guard_;
    out_dst.guard_ = &guard_;
  }

  TableWriteGuard guard_;
  TableEpoch epoch_ = 0;
};

}  // namespace discs

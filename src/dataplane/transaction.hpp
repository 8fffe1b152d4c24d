// TableTransaction: a batched, epoch-stamped set of add/remove operations
// over a router's tables (Pfx2AS, Key-S/Key-V, and the four function
// tables). This is the *only* way a sealed RouterTables changes, and the
// only way a live engine's tables change at all — the controller composes
// one transaction per con-rou message (paper §IV-B) and the channel delivers
// it atomically to the data-plane engine with a single epoch bump.
//
// Applying is two steps, so no compile ever runs under the engine's writer
// lock:
//  - prepare: reads the live tables (no lock; readers keep forwarding) and
//    builds the compiled form of every sealed prefix table the ops change —
//    Pfx2AS for each family a map_prefix touches, a function table for each
//    family it gains a prefix in. Key, window and expiry ops prepare nothing.
//    A Pfx2AS shared with other tables (a world's snapshot) is never edited:
//    prepare builds a private successor with the mappings applied instead.
//  - commit: under the writer lock, applies the ops to the tries and the
//    key/window tables, swaps the prepared forms (or the Pfx2AS successor's
//    pointer) in, and bumps the epoch.
//    It aborts if the tables moved since prepare; the retired forms go back
//    to the caller to free after unlocking.
// `apply` is commit(prepare()) for callers that hold no lock.
//
// Function installs come in two flavours:
//  - duration-relative (`install_function`): the window is computed at
//    *commit* time as [now, now + duration). This models the paper's
//    semantics that an invocation window starts when the router installs
//    the entry, i.e. after con-rou latency, not when the controller sent it.
//  - absolute (`install_function_window`): explicit [start, end), for
//    callers that already resolved the window.
#pragma once

#include <array>
#include <cstdint>
#include <variant>
#include <vector>

#include "dataplane/tables.hpp"

namespace discs {

/// Which of the four function tables an install targets.
enum class FunctionDirection : std::uint8_t { kInSrc, kInDst, kOutSrc, kOutDst };

/// A v4 or v6 prefix; mirrors the control plane's VictimPrefix without
/// making the data plane depend on control headers.
using AnyPrefix = std::variant<Prefix4, Prefix6>;

class TableTransaction {
 public:
  /// Pfx2AS mapping (route-origin updates).
  TableTransaction& map_prefix(const Prefix4& prefix, AsNumber as);
  TableTransaction& map_prefix(const Prefix6& prefix, AsNumber as);

  /// Installs/overwrites the stamping key for `peer` (Key-S). With
  /// `retain_previous` the old key stays as the re-keying grace key.
  TableTransaction& set_stamp_key(AsNumber peer, const Key128& key,
                                  bool retain_previous = false);
  /// Installs/overwrites the verification key for `peer` (Key-V).
  TableTransaction& set_verify_key(AsNumber peer, const Key128& key,
                                   bool retain_previous = false);
  /// Drops the grace key kept during two-phase re-keying (Key-V by
  /// default; pass `stamping` for Key-S).
  TableTransaction& finish_rekey(AsNumber peer, bool stamping = false);
  /// Removes `peer` from both key tables (peering teardown).
  TableTransaction& erase_peer(AsNumber peer);
  /// Drops every key from both tables (controller shutdown / undeploy).
  TableTransaction& clear_keys();

  /// Duration-relative install: window is [apply_now, apply_now + duration).
  TableTransaction& install_function(FunctionDirection dir,
                                     const AnyPrefix& prefix, DefenseFunction f,
                                     SimTime duration);
  /// Absolute-window install.
  TableTransaction& install_function_window(FunctionDirection dir,
                                            const AnyPrefix& prefix,
                                            DefenseFunction f, SimTime start,
                                            SimTime end);
  /// Sweeps expired windows from all four function tables at apply time.
  TableTransaction& expire_functions();

  [[nodiscard]] bool empty() const { return ops_.empty(); }
  [[nodiscard]] std::size_t size() const { return ops_.size(); }
  /// Largest `duration` among duration-relative installs (0 if none) —
  /// the channel uses this to schedule the matching expiry sweep.
  [[nodiscard]] SimTime max_relative_end() const;
  /// True when the transaction installs at least one function window.
  [[nodiscard]] bool installs_functions() const;

  /// The compiled forms one transaction needs, built by prepare() without
  /// the engine lock. Empty, and allocation-free, when the transaction
  /// changes no prefix structure. After commit() it holds the retired
  /// forms, whose destruction (a 64 MiB munmap for a DIR-24 root) belongs
  /// outside the lock.
  struct Prepared {
    TableEpoch epoch = 0;  // tables.applied_epoch() when prepared
    Pfx2AsTable::Next pfx2as;
    std::array<FunctionTable::Next, 4> functions;  // by FunctionDirection
  };

  /// Builds the compiled forms the ops need against `tables` as they are
  /// now. Only reads: safe beside readers, never beside another writer.
  [[nodiscard]] Prepared prepare(const RouterTables& tables) const;

  /// Applies every operation (callers serialize via the engine's writer
  /// lock), swaps in `prepared`'s forms, bumps the tables' epoch, and
  /// returns the new epoch. Never compiles. Aborts if the epoch moved since
  /// `prepared` was built. The write scope this opens is what lets sealed
  /// tables accept the writes.
  TableEpoch commit(RouterTables& tables, Prepared&& prepared,
                    SimTime now) const;

  /// commit(tables, prepare(tables), now).
  TableEpoch apply(RouterTables& tables, SimTime now) const;

 private:
  struct MapPrefixOp {
    AnyPrefix prefix;
    AsNumber as;
  };
  struct SetKeyOp {
    bool stamping;  // true = Key-S, false = Key-V
    AsNumber peer;
    Key128 key;
    bool retain_previous;
  };
  struct FinishRekeyOp {
    AsNumber peer;
    bool stamping;
  };
  struct ErasePeerOp {
    AsNumber peer;
  };
  struct ClearKeysOp {};
  struct InstallOp {
    FunctionDirection dir;
    AnyPrefix prefix;
    DefenseFunction function;
    bool relative;  // true: end is a duration from apply-now, start unused
    SimTime start;
    SimTime end;
  };
  struct ExpireOp {};

  using Op = std::variant<MapPrefixOp, SetKeyOp, FinishRekeyOp, ErasePeerOp,
                          ClearKeysOp, InstallOp, ExpireOp>;

  std::vector<Op> ops_;
};

}  // namespace discs

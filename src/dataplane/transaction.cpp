#include "dataplane/transaction.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

namespace discs {

TableTransaction& TableTransaction::map_prefix(const Prefix4& prefix,
                                               AsNumber as) {
  ops_.push_back(MapPrefixOp{AnyPrefix(prefix), as});
  return *this;
}

TableTransaction& TableTransaction::map_prefix(const Prefix6& prefix,
                                               AsNumber as) {
  ops_.push_back(MapPrefixOp{AnyPrefix(prefix), as});
  return *this;
}

TableTransaction& TableTransaction::set_stamp_key(AsNumber peer,
                                                  const Key128& key,
                                                  bool retain_previous) {
  ops_.push_back(SetKeyOp{true, peer, key, retain_previous});
  return *this;
}

TableTransaction& TableTransaction::set_verify_key(AsNumber peer,
                                                   const Key128& key,
                                                   bool retain_previous) {
  ops_.push_back(SetKeyOp{false, peer, key, retain_previous});
  return *this;
}

TableTransaction& TableTransaction::finish_rekey(AsNumber peer, bool stamping) {
  ops_.push_back(FinishRekeyOp{peer, stamping});
  return *this;
}

TableTransaction& TableTransaction::erase_peer(AsNumber peer) {
  ops_.push_back(ErasePeerOp{peer});
  return *this;
}

TableTransaction& TableTransaction::clear_keys() {
  ops_.push_back(ClearKeysOp{});
  return *this;
}

TableTransaction& TableTransaction::install_function(FunctionDirection dir,
                                                     const AnyPrefix& prefix,
                                                     DefenseFunction f,
                                                     SimTime duration) {
  ops_.push_back(InstallOp{dir, prefix, f, /*relative=*/true, 0, duration});
  return *this;
}

TableTransaction& TableTransaction::install_function_window(
    FunctionDirection dir, const AnyPrefix& prefix, DefenseFunction f,
    SimTime start, SimTime end) {
  ops_.push_back(InstallOp{dir, prefix, f, /*relative=*/false, start, end});
  return *this;
}

TableTransaction& TableTransaction::expire_functions() {
  ops_.push_back(ExpireOp{});
  return *this;
}

SimTime TableTransaction::max_relative_end() const {
  SimTime max_end = 0;
  for (const Op& op : ops_) {
    if (const auto* install = std::get_if<InstallOp>(&op);
        install != nullptr && install->relative) {
      max_end = std::max(max_end, install->end);
    }
  }
  return max_end;
}

bool TableTransaction::installs_functions() const {
  return std::any_of(ops_.begin(), ops_.end(), [](const Op& op) {
    return std::holds_alternative<InstallOp>(op);
  });
}

namespace {

template <typename Tables>
auto& direction_table(Tables& tables, FunctionDirection dir) {
  switch (dir) {
    case FunctionDirection::kInSrc:
      return tables.in_src;
    case FunctionDirection::kInDst:
      return tables.in_dst;
    case FunctionDirection::kOutSrc:
      return tables.out_src;
    case FunctionDirection::kOutDst:
      return tables.out_dst;
  }
  return tables.in_src;  // unreachable
}

constexpr std::array<FunctionDirection, 4> kDirections = {
    FunctionDirection::kInSrc, FunctionDirection::kInDst,
    FunctionDirection::kOutSrc, FunctionDirection::kOutDst};

[[noreturn]] void stale_prepare(TableEpoch prepared, TableEpoch live) {
  std::fprintf(stderr,
               "discs: commit of a transaction prepared at table epoch %llu "
               "onto tables at epoch %llu; another transaction applied in "
               "between, so the prepared tables are stale\n",
               static_cast<unsigned long long>(prepared),
               static_cast<unsigned long long>(live));
  std::abort();
}

}  // namespace

TableTransaction::Prepared TableTransaction::prepare(
    const RouterTables& tables) const {
  Prepared prepared;
  prepared.epoch = tables.applied_epoch();
  // Unsealed tables look up through the tries, and key, window and expiry
  // ops change no prefix structure: either way there is nothing to build.
  const bool reshapes = std::any_of(ops_.begin(), ops_.end(), [](const Op& op) {
    return std::holds_alternative<MapPrefixOp>(op) ||
           std::holds_alternative<InstallOp>(op);
  });
  if (!tables.sealed() || !reshapes) return prepared;

  FamilyOverlay<AsNumber> mapped;
  // Per function table: the prefixes it gains, each with the entries_
  // index install() will give it at commit, in op order.
  std::array<FamilyOverlay<std::uint32_t>, 4> grown;
  std::array<std::unordered_set<AnyPrefix>, 4> seen;
  std::array<std::uint32_t, 4> next_handle{};
  for (const FunctionDirection dir : kDirections) {
    next_handle[static_cast<std::size_t>(dir)] =
        direction_table(tables, dir).next_handle();
  }
  for (const Op& op : ops_) {
    if (const auto* map = std::get_if<MapPrefixOp>(&op)) {
      std::visit([&](const auto& p) { mapped.of(p).emplace_back(p, map->as); },
                 map->prefix);
    } else if (const auto* install = std::get_if<InstallOp>(&op)) {
      const auto d = static_cast<std::size_t>(install->dir);
      const FunctionTable& table = direction_table(tables, install->dir);
      std::visit(
          [&](const auto& p) {
            if (table.has_prefix(p) || !seen[d].insert(p).second) return;
            grown[d].of(p).emplace_back(p, next_handle[d]++);
          },
          install->prefix);
    }
  }
  prepared.pfx2as = tables.pfx2as.prepare(std::move(mapped));
  for (const FunctionDirection dir : kDirections) {
    const auto d = static_cast<std::size_t>(dir);
    prepared.functions[d] =
        direction_table(tables, dir).prepare(std::move(grown[d]));
  }
  return prepared;
}

TableEpoch TableTransaction::commit(RouterTables& tables, Prepared&& prepared,
                                    SimTime now) const {
  if (prepared.epoch != tables.epoch_) {
    stale_prepare(prepared.epoch, tables.epoch_);
  }
  const TableWriteGuard::Scope scope(tables.guard_);
  // A copy-on-write successor already holds the mapped prefixes.
  const bool map_in_place = !prepared.pfx2as.successor;
  for (const Op& op : ops_) {
    std::visit(
        [&](const auto& o) {
          using O = std::decay_t<decltype(o)>;
          if constexpr (std::is_same_v<O, MapPrefixOp>) {
            if (!map_in_place) return;
            std::visit([&](const auto& p) { tables.pfx2as.add(p, o.as); },
                       o.prefix);
          } else if constexpr (std::is_same_v<O, SetKeyOp>) {
            (o.stamping ? tables.key_s : tables.key_v)
                .set_key(o.peer, o.key, o.retain_previous);
          } else if constexpr (std::is_same_v<O, FinishRekeyOp>) {
            (o.stamping ? tables.key_s : tables.key_v).finish_rekey(o.peer);
          } else if constexpr (std::is_same_v<O, ErasePeerOp>) {
            tables.key_s.erase(o.peer);
            tables.key_v.erase(o.peer);
          } else if constexpr (std::is_same_v<O, ClearKeysOp>) {
            tables.key_s.clear();
            tables.key_v.clear();
          } else if constexpr (std::is_same_v<O, InstallOp>) {
            const SimTime start = o.relative ? now : o.start;
            const SimTime end = o.relative ? now + o.end : o.end;
            FunctionTable& table = direction_table(tables, o.dir);
            std::visit(
                [&](const auto& p) { table.install(p, o.function, start, end); },
                o.prefix);
          } else if constexpr (std::is_same_v<O, ExpireOp>) {
            tables.in_src.expire(now);
            tables.in_dst.expire(now);
            tables.out_src.expire(now);
            tables.out_dst.expire(now);
          }
        },
        op);
  }
  // The ops marked every table whose prefix structure grew stale; prepare
  // built exactly those forms, so the swap leaves the sealed tables whole.
  tables.pfx2as.swap_compiled(prepared.pfx2as);
  for (const FunctionDirection dir : kDirections) {
    direction_table(tables, dir)
        .swap_compiled(prepared.functions[static_cast<std::size_t>(dir)]);
  }
  return ++tables.epoch_;
}

TableEpoch TableTransaction::apply(RouterTables& tables, SimTime now) const {
  return commit(tables, prepare(tables), now);
}

}  // namespace discs

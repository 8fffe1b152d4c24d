// The Internet dataset DISCS evaluates on: a prefix-to-AS mapping from
// which every per-AS quantity in §VI is derived.
//
// The paper uses the CAIDA routeviews prefix2as snapshot of 2012-10-11
// (44 036 ASes, ~442 k routable IPv4 prefixes). This module parses and
// writes that text format and computes, exactly as §VI-A2 prescribes:
//  * each AS's routable address-space size by longest-prefix matching
//    (more-specific prefixes carve space out of covering ones),
//  * even splitting of a prefix's space across multiple origin ASes
//    (MOAS / AS-set entries),
//  * the zero-space manipulation (an AS whose effective space is 0 is
//    treated as owning 1 address to avoid division by zero),
//  * the ratios r_j = space_j / total_space used as p^A, p^I and p^V.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "lpm/lpm.hpp"

namespace discs {

struct Pfx2AsData;  // dataplane/tables.hpp

/// One mapping entry: a routed prefix and its origin AS(es).
struct PrefixOrigin {
  Prefix4 prefix;
  std::vector<AsNumber> origins;  // >1 for MOAS / AS-set entries

  friend bool operator==(const PrefixOrigin&, const PrefixOrigin&) = default;
};

/// IPv6 analogue. The paper's evaluation quantities (r_j) are derived from
/// the IPv4 snapshot only; IPv6 entries exist so the control plane can
/// authorize and install §V-F defenses for IPv6 victim prefixes.
struct PrefixOrigin6 {
  Prefix6 prefix;
  std::vector<AsNumber> origins;

  friend bool operator==(const PrefixOrigin6&, const PrefixOrigin6&) = default;
};

/// Immutable view of the Internet built from a prefix-to-AS table.
class InternetDataset {
 public:
  /// Builds the dataset; duplicate prefixes have their origin lists merged.
  /// Throws std::invalid_argument on an empty IPv4 table.
  explicit InternetDataset(std::vector<PrefixOrigin> entries,
                           std::vector<PrefixOrigin6> entries6 = {});

  /// Parses the CAIDA routeviews prefix2as format: one entry per line,
  /// "<address>\t<length>\t<origin>", where origin is ASNs joined by '_'
  /// (MOAS) and/or ',' (AS sets). '#' comment lines and blank lines are
  /// skipped. Returns an Error describing the first malformed line.
  static Result<InternetDataset> load_caida(std::istream& in);
  static Result<InternetDataset> load_caida_file(const std::string& path);

  /// Serializes back to the CAIDA text format (round-trips load_caida).
  void write_caida(std::ostream& out) const;

  /// Parses the IPv6 analogue of the format (CAIDA publishes
  /// routeviews6-prefix2as with identical structure): "addr\tlen\torigins".
  /// The result is a v6 registry to pair with a v4 table.
  static Result<std::vector<PrefixOrigin6>> load_caida6(std::istream& in);

  /// Serializes the v6 registry in the same format.
  void write_caida6(std::ostream& out) const;

  /// All AS numbers present, sorted ascending.
  [[nodiscard]] const std::vector<AsNumber>& as_numbers() const {
    return as_numbers_;
  }
  [[nodiscard]] std::size_t as_count() const { return as_numbers_.size(); }
  [[nodiscard]] std::size_t prefix_count() const { return entries_.size(); }
  [[nodiscard]] const std::vector<PrefixOrigin>& entries() const {
    return entries_;
  }

  /// Effective routable space of `as` in addresses (fractional under MOAS
  /// splits; >= 1 after the zero-space manipulation). 0 for unknown ASes.
  [[nodiscard]] double address_space(AsNumber as) const;

  /// r_j = address_space(j) / global routable space.
  [[nodiscard]] double ratio(AsNumber as) const;

  /// Global routable space (sum of per-AS effective spaces).
  [[nodiscard]] double total_space() const { return total_space_; }

  /// Longest-prefix-match of an address to its origin AS (first origin for
  /// multi-origin prefixes). kNoAs when unrouted.
  [[nodiscard]] AsNumber origin_of(Ipv4Address addr) const;

  /// All origins of the longest matching prefix (empty when unrouted).
  [[nodiscard]] std::vector<AsNumber> origins_of(Ipv4Address addr) const;

  /// True when `prefix` is owned by `as`: the longest routed prefix covering
  /// it lists `as` as an origin. This is the RPKI-style ownership check
  /// peers run on invocation requests (paper §IV-E3).
  [[nodiscard]] bool owns(AsNumber as, const Prefix4& prefix) const;

  /// ASes sorted by descending effective space — the paper's optimal
  /// deployment order (§VI-A3). Ties break toward the lower AS number.
  [[nodiscard]] std::vector<AsNumber> ases_by_space_desc() const;

  /// The prefixes originated by `as` (includes MOAS prefixes it co-owns).
  [[nodiscard]] std::vector<Prefix4> prefixes_of(AsNumber as) const;

  // ---- IPv6 registry (§V-F control-plane support) ----

  [[nodiscard]] const std::vector<PrefixOrigin6>& entries6() const {
    return entries6_;
  }
  [[nodiscard]] AsNumber origin_of(const Ipv6Address& addr) const;
  [[nodiscard]] bool owns(AsNumber as, const Prefix6& prefix) const;
  [[nodiscard]] std::vector<Prefix6> prefixes6_of(AsNumber as) const;

  // ---- the world's Pfx2AS (§V-A) ----

  /// The compiled prefix-to-AS mapping every DAS over this dataset reads:
  /// both families, each prefix mapped to its first origin (as origin_of
  /// reports it), compiled by the builder RouterTables::seal() uses.
  /// Immutable and reference-counted: controllers adopt it instead of
  /// building their own, and a table that later writes gets a private
  /// copy, so the snapshot never changes. Built on the first call
  /// (thread-safe) and shared by copies of this dataset, so a dataset that
  /// never deploys a controller never pays for it.
  [[nodiscard]] std::shared_ptr<const Pfx2AsData> pfx2as_snapshot() const;

 private:
  struct SnapshotCache;

  std::vector<PrefixOrigin> entries_;
  std::vector<PrefixOrigin6> entries6_;
  std::vector<AsNumber> as_numbers_;
  std::unordered_map<AsNumber, double> space_;
  std::unordered_map<AsNumber, std::vector<std::uint32_t>> entries_of_as_;
  std::unordered_map<AsNumber, std::vector<std::uint32_t>> entries6_of_as_;
  double total_space_ = 0;
  Lpm4<std::uint32_t> pfx2as_;   // value = index into entries_
  Lpm6<std::uint32_t> pfx2as6_;  // value = index into entries6_
  std::shared_ptr<SnapshotCache> snapshot_cache_;
};

}  // namespace discs

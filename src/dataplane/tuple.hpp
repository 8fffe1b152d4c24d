// Tuple generation (paper §V-B): the per-packet digest of table lookups
// that drives the processing flow of §V-C.
//
//   in-tuple  = (verify?, key_v)          for inbound packets
//   out-tuple = (drop?, stamp?, key_s)    for outbound packets
//
// Note on the drop? condition: the paper's text prints it as
// "Pfx2AS(s) = LocalAS and (SP ∈ Out-Src(s) or DP ∈ Out-Dst(d))", but the
// DP action ("if src not in local, drop") and SP semantics both require the
// negated test, so we implement Pfx2AS(s) != LocalAS (see DESIGN.md).
#pragma once

#include <optional>

#include "dataplane/tables.hpp"

namespace discs {

/// Decision digest for an inbound packet.
struct InTuple {
  bool verify = false;
  /// Within a tolerance interval: erase the mark, skip the judgement.
  bool erase_only = false;
  /// Which verify functions demanded the check (CSP-verify from In-Src,
  /// CDP-verify from In-Dst) — carried into alarm-mode flow reports.
  FunctionSet verify_fns = 0;
  /// Verification key entry of the source AS; nullptr when the source does
  /// not belong to a peer (then the packet passes unverified, Table I).
  const KeyTable::Entry* key_v = nullptr;
};

/// Decision digest for an outbound packet.
struct OutTuple {
  bool drop = false;
  bool stamp = false;
  /// Stamping key entry of the destination AS (CDP) or destination peer
  /// (CSP); nullptr when stamp is false.
  const KeyTable::Entry* key_s = nullptr;
};

/// Generates tuples against one router's tables. Stateless besides the
/// bound references; cheap to copy.
class TupleGenerator {
 public:
  TupleGenerator(const RouterTables& tables, AsNumber local_as)
      : tables_(&tables), local_as_(local_as) {}

  /// §V-B in-tuple: verify? set iff CSP-verify ∈ In-Src(s) or
  /// CDP-verify ∈ In-Dst(d); key_v = Key-V(Pfx2AS(s)).
  template <typename Addr>
  [[nodiscard]] InTuple in_tuple(const Addr& src, const Addr& dst,
                                 SimTime now) const {
    InTuple tuple;
    const FunctionMatch src_match = tables_->in_src.lookup(src, now);
    const FunctionMatch dst_match = tables_->in_dst.lookup(dst, now);
    const bool csp = has_function(src_match.functions, DefenseFunction::kCspVerify);
    const bool cdp = has_function(dst_match.functions, DefenseFunction::kCdpVerify);
    if (!csp && !cdp) return tuple;
    tuple.verify = true;
    tuple.verify_fns = static_cast<FunctionSet>(
        (csp ? to_mask(DefenseFunction::kCspVerify) : 0) |
        (cdp ? to_mask(DefenseFunction::kCdpVerify) : 0));
    tuple.erase_only = (csp && src_match.erase_only) || (cdp && dst_match.erase_only);
    tuple.key_v = tables_->key_v.find(origin_as(src));
    return tuple;
  }

  /// §V-B out-tuple: drop? iff Pfx2AS(s) != LocalAS and (SP ∈ Out-Src(s) or
  /// DP ∈ Out-Dst(d)); stamp? iff (CSP-stamp ∈ Out-Src(s) and
  /// Key-S(Pfx2AS(d)) != Null) or CDP-stamp ∈ Out-Dst(d);
  /// key_s = Key-S(Pfx2AS(d)).
  template <typename Addr>
  [[nodiscard]] OutTuple out_tuple(const Addr& src, const Addr& dst,
                                   SimTime now) const {
    OutTuple tuple;
    const FunctionMatch src_match = tables_->out_src.lookup(src, now);
    const FunctionMatch dst_match = tables_->out_dst.lookup(dst, now);
    const bool sp = has_function(src_match.functions, DefenseFunction::kSp);
    const bool dp = has_function(dst_match.functions, DefenseFunction::kDp);
    if ((sp || dp) && origin_as(src) != local_as_) {
      tuple.drop = true;
      return tuple;  // dropped packets are never stamped
    }
    const KeyTable::Entry* key = tables_->key_s.find(origin_as(dst));
    const bool csp_stamp =
        has_function(src_match.functions, DefenseFunction::kCspStamp) &&
        key != nullptr;
    const bool cdp_stamp =
        has_function(dst_match.functions, DefenseFunction::kCdpStamp);
    // A CDP-stamp without a key (peer torn down mid-invocation) degrades to
    // a pass-through: stamping is impossible, but the packet is legitimate.
    if ((csp_stamp || cdp_stamp) && key != nullptr) {
      tuple.stamp = true;
      tuple.key_s = key;
    }
    return tuple;
  }

  /// Cache hints for the lookups out_tuple(src, dst) is about to do. The
  /// batch phase-A loops call this a few packets ahead of the packet being
  /// processed, overlapping the compiled tables' root loads with work.
  /// No-ops on unsealed tables (nothing compiled to prefetch).
  template <typename Addr>
  void prefetch_out(const Addr& src, const Addr& dst) const {
    tables_->out_src.prefetch(src);
    tables_->out_dst.prefetch(dst);
    tables_->pfx2as.prefetch(dst);
  }

  /// in_tuple twin: function tables plus the source-AS origin lookup.
  template <typename Addr>
  void prefetch_in(const Addr& src, const Addr& dst) const {
    tables_->in_src.prefetch(src);
    tables_->in_dst.prefetch(dst);
    tables_->pfx2as.prefetch(src);
  }

  [[nodiscard]] AsNumber local_as() const { return local_as_; }

 private:
  template <typename Addr>
  [[nodiscard]] AsNumber origin_as(const Addr& addr) const {
    return tables_->pfx2as.lookup(addr);
  }

  const RouterTables* tables_;
  AsNumber local_as_;
};

}  // namespace discs

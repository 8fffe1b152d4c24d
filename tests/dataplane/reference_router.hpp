// A deliberately plain, one-packet-at-a-time walk of the paper's §V-C
// processing flow, written from the paper text (§IV-F alarm mode, §V-B
// tuples, §V-C flow, §V-F IPv6 MTU, §VI-E2 ICMP scrubbing) rather than from
// src/dataplane/router.cpp. It is the oracle engine_equivalence_test holds
// the sharded engine to, and the stamper tests use to mint genuinely marked
// traffic.
//
// What it shares with production is only what the paper leaves to lower
// layers: RouterTables' public lookups, the stamp.hpp mark helpers and the
// net/icmp.hpp scrub and Packet Too Big helpers. It has its own tuple
// logic, counters, RNG and sinks, and never touches TupleGenerator,
// BorderRouter or the batched CMAC pipeline, so a fault in any of those
// shows up as a disagreement.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <variant>

#include "common/rng.hpp"
#include "dataplane/router.hpp"
#include "dataplane/stamp.hpp"
#include "dataplane/tables.hpp"
#include "net/icmp.hpp"

namespace discs {

class ReferenceRouter {
 public:
  ReferenceRouter(const RouterTables& tables, AsNumber local_as,
                  std::uint64_t rng_seed, std::size_t mtu = 1500)
      : tables_(tables), local_as_(local_as), rng_(rng_seed), mtu_(mtu) {}

  void set_alarm_mode(bool on) { alarm_mode_ = on; }
  void set_alarm_sink(std::function<void(const AlarmSample&)> sink) {
    alarm_sink_ = std::move(sink);
  }
  void set_flow_sink(std::function<void(const FlowReport&)> sink) {
    flow_sink_ = std::move(sink);
  }
  void set_icmp6_sink(std::function<void(Ipv6Packet)> sink) {
    icmp6_sink_ = std::move(sink);
  }

  [[nodiscard]] const RouterStats& stats() const { return stats_; }

  /// Egress (§V-C, out-tuple): drop when a source-address filter fires for
  /// a source the local AS does not own, else stamp when a stamping
  /// function and a key are present.
  template <typename Packet>
  Verdict outbound(Packet& packet, SimTime now) {
    ++stats_.out_processed;
    const auto src = packet.header.src;
    const auto dst = packet.header.dst;
    const FunctionSet src_fns = tables_.out_src.lookup(src, now).functions;
    const FunctionSet dst_fns = tables_.out_dst.lookup(dst, now).functions;

    // DP (Out-Dst) and SP (Out-Src): "if src not in local, drop".
    const bool filter = has_function(src_fns, DefenseFunction::kSp) ||
                        has_function(dst_fns, DefenseFunction::kDp);
    if (filter && tables_.pfx2as.lookup(src) != local_as_) {
      ++stats_.out_dropped;
      return Verdict::kDropFiltered;
    }

    // CSP-stamp (Out-Src) and CDP-stamp (Out-Dst) both stamp with
    // Key-S(Pfx2AS(d)); without that key there is nothing to stamp with.
    const KeyTable::Entry* key = tables_.key_s.find(tables_.pfx2as.lookup(dst));
    const bool stamp = has_function(src_fns, DefenseFunction::kCspStamp) ||
                       has_function(dst_fns, DefenseFunction::kCdpStamp);
    if (!stamp || key == nullptr) return Verdict::kPass;

    if constexpr (std::is_same_v<Packet, Ipv4Packet>) {
      // §V-E: a fragment's IPID/offset are overwritten, so count it.
      const bool fragment = (packet.header.flags & 0x1) != 0 ||
                            packet.header.fragment_offset != 0;
      ipv4_stamp(packet, key->active_mac);
      if (fragment) ++stats_.fragments_stamped;
    } else {
      // §V-F: the option may not push the packet past the link MTU; the
      // sender is told to retry 8 bytes smaller.
      if (ipv6_stamp(packet, key->active_mac, mtu_).too_big) {
        ++stats_.out_too_big;
        if (icmp6_sink_) {
          icmp6_sink_(build_packet_too_big_v6(
              packet, packet.header.src, static_cast<std::uint32_t>(mtu_ - 8)));
        }
        return Verdict::kDropTooBig;
      }
    }
    ++stats_.out_stamped;
    return Verdict::kPass;
  }

  /// Ingress (§V-C, in-tuple): scrub quoted marks, then verify when a
  /// verify function covers the source (CSP) or destination (CDP).
  template <typename Packet>
  Verdict inbound(Packet& packet, SimTime now) {
    ++stats_.in_processed;
    bool scrubbed = false;
    if constexpr (std::is_same_v<Packet, Ipv4Packet>) {
      scrubbed = scrub_quoted_mark_v4(packet);
    } else {
      scrubbed = scrub_quoted_mark_v6(packet);
    }
    if (scrubbed) ++stats_.icmp_scrubbed;

    const auto src = packet.header.src;
    const auto dst = packet.header.dst;
    const FunctionMatch src_match = tables_.in_src.lookup(src, now);
    const FunctionMatch dst_match = tables_.in_dst.lookup(dst, now);
    const bool csp = has_function(src_match.functions, DefenseFunction::kCspVerify);
    const bool cdp = has_function(dst_match.functions, DefenseFunction::kCdpVerify);
    if (!csp && !cdp) return Verdict::kPass;

    // Tolerance interval of a demanding function: erase, do not judge.
    if ((csp && src_match.erase_only) || (cdp && dst_match.erase_only)) {
      if constexpr (std::is_same_v<Packet, Ipv4Packet>) {
        ipv4_erase(packet, rng_);
      } else {
        ipv6_erase(packet);
      }
      ++stats_.in_erased_tolerance;
      return Verdict::kPass;
    }

    // Key-V(Pfx2AS(s)): a source outside every peer cannot be judged.
    const AsNumber source_as = tables_.pfx2as.lookup(src);
    const KeyTable::Entry* key = tables_.key_v.find(source_as);
    if (key == nullptr) {
      ++stats_.in_passed_unverified;
      return Verdict::kPass;
    }
    const AesCmac* grace = key->previous_mac ? &*key->previous_mac : nullptr;
    VerifyResult result;
    if constexpr (std::is_same_v<Packet, Ipv4Packet>) {
      result = ipv4_verify(packet, key->active_mac, grace, rng_);
    } else {
      result = ipv6_verify(packet, key->active_mac, grace);
    }
    if (result == VerifyResult::kValid) {
      ++stats_.in_verified;
      return Verdict::kPass;
    }

    // Spoofed. §IV-F alarm mode forwards and samples; otherwise drop. Every
    // identified packet is reported (1-in-1 sampling).
    const Verdict verdict = alarm_mode_ ? Verdict::kPass : Verdict::kDropSpoofed;
    if (alarm_mode_) {
      ++stats_.in_spoof_sampled;
    } else {
      ++stats_.in_spoof_dropped;
    }
    if (alarm_sink_) alarm_sink_({now, source_as, /*inbound=*/true});
    if (flow_sink_) {
      FlowReport report;
      report.time = now;
      report.source_as = source_as;
      report.inbound = true;
      if constexpr (std::is_same_v<Packet, Ipv4Packet>) {
        report.src4 = src;
        report.dst4 = dst;
      } else {
        report.ipv6 = true;
        report.src6 = src;
        report.dst6 = dst;
      }
      if (csp) report.functions |= to_mask(DefenseFunction::kCspVerify);
      if (cdp) report.functions |= to_mask(DefenseFunction::kCdpVerify);
      report.verdict = verdict;
      flow_sink_(report);
    }
    return verdict;
  }

  Verdict outbound(BatchPacket& packet, SimTime now) {
    return std::visit([&](auto& p) { return outbound(p, now); }, packet);
  }
  Verdict inbound(BatchPacket& packet, SimTime now) {
    return std::visit([&](auto& p) { return inbound(p, now); }, packet);
  }

 private:
  const RouterTables& tables_;
  AsNumber local_as_;
  Xoshiro256 rng_;
  std::size_t mtu_;
  bool alarm_mode_ = false;
  std::function<void(const AlarmSample&)> alarm_sink_;
  std::function<void(const FlowReport&)> flow_sink_;
  std::function<void(Ipv6Packet)> icmp6_sink_;
  RouterStats stats_;
};

}  // namespace discs

// §VI-E reproduction — security analysis:
//   E1: brute-force MAC forgery work factors (2^28 IPv4 / 2^31 IPv6,
//       halved during re-key windows), with an empirical forgery experiment
//       against the real verifier at reduced mark widths;
//   E2: replay attacks — TTL-exceeded scrubbing and msg-bound marks;
//   E3: key-leakage blast radius.
#include <cmath>
#include <cstdio>

#include "../tests/dataplane/batch_of_one.hpp"
#include "bench_util.hpp"
#include "dataplane/router.hpp"
#include "eval/deployment.hpp"
#include "eval/security.hpp"
#include "topology/synthetic.hpp"

using namespace discs;

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv, "security");
  bench::JsonWriter json = bench::make_writer("security", args);
  const std::size_t forgery_attempts = args.smoke ? 200'000 : 2'000'000;
  bench::header("Section VI-E.1 — brute-force MAC forgery factors");
  bench::row("expected packets per hit, IPv4 (29-bit)", std::pow(2, 28),
             forgery_expected_attempts(29, 1));
  bench::row("expected packets per hit, IPv6 (32-bit)", std::pow(2, 31),
             forgery_expected_attempts(32, 1));
  bench::row("IPv4 during re-key (2 valid keys)", std::pow(2, 27),
             forgery_expected_attempts(29, 2));
  bench::row("IPv6 during re-key (2 valid keys)", std::pow(2, 30),
             forgery_expected_attempts(32, 2));

  bench::header("Empirical forgery trials against the real verifier");
  for (unsigned bits : {8u, 12u, 16u}) {
    const auto single = run_forgery_trials(bits, forgery_attempts, 1, 42);
    const auto rekey = run_forgery_trials(bits, forgery_attempts, 2, 42);
    std::printf(
        "  %2u-bit marks: measured rate %.3e (expected %.3e); rekey window "
        "%.3e (expected %.3e)\n",
        bits, single.success_rate, single.expected_rate, rekey.success_rate,
        rekey.expected_rate);
    const std::string key = std::to_string(bits) + "bit";
    json.metric("forgery", key + "_measured_rate", single.success_rate);
    json.metric("forgery", key + "_expected_rate", single.expected_rate);
    json.metric("forgery", key + "_rekey_measured_rate", rekey.success_rate);
  }

  bench::header("Section VI-E.2 — replay attacks (packet-level checks)");
  {
    RouterTables peer_tables, victim_tables;
    peer_tables.pfx2as.add(*Prefix4::parse("10.0.0.0/8"), 100);
    peer_tables.pfx2as.add(*Prefix4::parse("20.0.0.0/8"), 200);
    victim_tables.pfx2as.add(*Prefix4::parse("10.0.0.0/8"), 100);
    victim_tables.pfx2as.add(*Prefix4::parse("20.0.0.0/8"), 200);
    const Key128 key = derive_key128(5);
    peer_tables.key_s.set_key(200, key);
    victim_tables.key_v.set_key(100, key);
    peer_tables.out_dst.install(*Prefix4::parse("20.0.0.0/8"),
                                DefenseFunction::kCdpStamp, 0, kHour);
    victim_tables.in_dst.install(*Prefix4::parse("20.0.0.0/8"),
                                 DefenseFunction::kCdpVerify, 0, kHour);
    BorderRouter peer(peer_tables, 100, 1);
    BorderRouter victim(victim_tables, 200, 2);

    auto original = Ipv4Packet::make(*Ipv4Address::parse("10.0.0.1"),
                                     *Ipv4Address::parse("20.0.0.1"),
                                     IpProto::kUdp, {1, 2, 3, 4, 5, 6, 7, 8});
    (void)outbound_one(peer, original, kMinute);
    const std::uint32_t mark = ipv4_read_mark(original);

    // TTL-exceeded probe: the echoed mark is scrubbed at the source border.
    auto te = build_time_exceeded_v4(original, *Ipv4Address::parse("30.0.0.254"));
    (void)inbound_one(peer, te, kMinute);
    bench::row("TTL-exceeded echo scrubbed (1 = yes)", 1.0,
               peer.stats().icmp_scrubbed == 1 ? 1.0 : 0.0);
    json.metric("replay", "ttl_exceeded_scrubbed",
                peer.stats().icmp_scrubbed == 1 ? 1.0 : 0.0);

    // Captured-mark reuse on a modified packet must fail verification.
    auto forged = Ipv4Packet::make(*Ipv4Address::parse("10.0.0.1"),
                                   *Ipv4Address::parse("20.0.0.1"),
                                   IpProto::kUdp, {9, 9, 9, 9, 9, 9, 9, 9});
    forged.header.identification = static_cast<std::uint16_t>(mark >> 13);
    forged.header.fragment_offset = static_cast<std::uint16_t>(mark & 0x1fff);
    forged.header.refresh_checksum();
    const double replay_dropped =
        is_drop(inbound_one(victim, forged, kMinute)) ? 1.0 : 0.0;
    bench::row("replayed mark on different msg dropped (1 = yes)", 1.0,
               replay_dropped);
    json.metric("replay", "mark_reuse_dropped", replay_dropped);
  }

  bench::header("Section VI-E.3 — key-leakage exposure (fraction of global spoofing re-enabled)");
  {
    const auto dataset = generate_dataset(SyntheticConfig{});
    const auto order = deployment_order(dataset, DeploymentStrategy::kOptimal, 0);
    std::vector<AsNumber> deployed;
    for (std::size_t i = 0; i < 50; ++i) {
      deployed.push_back(dataset.as_numbers()[order[i]]);
    }
    const double largest = key_leakage_exposure(dataset, deployed, deployed[0]);
    const double median = key_leakage_exposure(dataset, deployed, deployed[25]);
    std::printf("  50 largest deployed; leak largest DAS: %.4f, leak median DAS: %.4f\n",
                largest, median);
    bench::note("(damage is limited to traffic involving the leaked DAS and is"
                " recovered by emergency re-keying, Controller::handle_key_leakage)");
    json.metric("key_leakage", "largest_das_exposure", largest);
    json.metric("key_leakage", "median_das_exposure", median);
  }
  return bench::finish(json, args) ? 0 : 1;
}

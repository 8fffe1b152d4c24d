// Ablation benchmarks for design choices called out in DESIGN.md:
//   * LPM: binary-trie lookup latency/memory (the build representation the
//     sealed flat tables compile from);
//   * on-demand invocation vs always-on execution (§IV-E's motivation):
//     per-packet work with empty function tables vs fully loaded ones;
//   * the §VI-A2 suggestion "invoke DP with CDP": how much CDP crypto work
//     the cheap DP pre-filter sheds under attack traffic.
// Router work is measured one packet per batch call (a one-packet span).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "../tests/dataplane/batch_of_one.hpp"
#include "dataplane/router.hpp"
#include "lpm/lpm.hpp"
#include "topology/synthetic.hpp"

using namespace discs;

namespace {

InternetDataset& bench_dataset() {
  static InternetDataset dataset = [] {
    SyntheticConfig cfg;
    cfg.num_ases = 4000;
    cfg.num_prefixes = 40000;
    return generate_dataset(cfg);
  }();
  return dataset;
}

std::vector<Ipv4Address> probe_addresses(std::size_t n) {
  const auto& ds = bench_dataset();
  Xoshiro256 rng(17);
  std::vector<Ipv4Address> probes;
  probes.reserve(n);
  const auto& entries = ds.entries();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& p = entries[rng.below(entries.size())].prefix;
    probes.emplace_back(p.address().bits() +
                        static_cast<std::uint32_t>(rng.below(p.size())));
  }
  return probes;
}

void BM_LpmBinaryTrie(benchmark::State& state) {
  BinaryTrie<Ipv4Key, AsNumber> trie;
  for (const auto& e : bench_dataset().entries()) {
    trie.insert(e.prefix, e.origins.front());
  }
  const auto probes = probe_addresses(4096);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.lookup(probes[i++ & 4095]));
  }
  state.counters["heap_MB"] =
      static_cast<double>(trie.memory_bytes()) / (1024 * 1024);
}
BENCHMARK(BM_LpmBinaryTrie);

// Per-packet router work with no functions invoked (on-demand idle path).
void BM_RouterIdle(benchmark::State& state) {
  RouterTables tables;
  for (const auto& e : bench_dataset().entries()) {
    tables.pfx2as.add(e.prefix, e.origins.front());
  }
  BorderRouter router(tables, 1, 1);
  const auto probes = probe_addresses(4096);
  std::size_t i = 0;
  for (auto _ : state) {
    auto packet = Ipv4Packet::make(probes[i & 4095], probes[(i + 1) & 4095],
                                   IpProto::kUdp, {});
    ++i;
    benchmark::DoNotOptimize(outbound_one(router, packet, kMinute));
  }
}
BENCHMARK(BM_RouterIdle);

// Per-packet router work with CDP stamping active for the destination.
void BM_RouterStampingActive(benchmark::State& state) {
  RouterTables tables;
  tables.pfx2as.add(*Prefix4::parse("10.0.0.0/8"), 1);
  tables.pfx2as.add(*Prefix4::parse("20.0.0.0/8"), 2);
  tables.key_s.set_key(2, derive_key128(3));
  tables.out_dst.install(*Prefix4::parse("20.0.0.0/8"),
                         DefenseFunction::kCdpStamp, 0, kHour);
  BorderRouter router(tables, 1, 1);
  for (auto _ : state) {
    auto packet = Ipv4Packet::make(*Ipv4Address::parse("10.0.0.1"),
                                   *Ipv4Address::parse("20.0.0.1"),
                                   IpProto::kUdp, {1, 2, 3, 4});
    benchmark::DoNotOptimize(outbound_one(router, packet, kMinute));
  }
}
BENCHMARK(BM_RouterStampingActive);

// DP+CDP together: attack packets die in the cheap DP filter before any
// CMAC is computed — the load-shedding effect suggested in §VI-C.2.
void BM_DpShedsCdpWork(benchmark::State& state) {
  RouterTables tables;
  tables.pfx2as.add(*Prefix4::parse("10.0.0.0/8"), 1);
  tables.pfx2as.add(*Prefix4::parse("20.0.0.0/8"), 2);
  tables.pfx2as.add(*Prefix4::parse("40.0.0.0/8"), 4);
  tables.key_s.set_key(2, derive_key128(3));
  tables.out_dst.install(*Prefix4::parse("20.0.0.0/8"), DefenseFunction::kDp,
                         0, kHour);
  tables.out_dst.install(*Prefix4::parse("20.0.0.0/8"),
                         DefenseFunction::kCdpStamp, 0, kHour);
  BorderRouter router(tables, 1, 1);
  for (auto _ : state) {
    // Spoofed packet (src not local): DP drops it; no stamping happens.
    auto packet = Ipv4Packet::make(*Ipv4Address::parse("40.0.0.1"),
                                   *Ipv4Address::parse("20.0.0.1"),
                                   IpProto::kUdp, {1, 2, 3, 4});
    benchmark::DoNotOptimize(outbound_one(router, packet, kMinute));
  }
  state.counters["stamped"] = double(router.stats().out_stamped);
}
BENCHMARK(BM_DpShedsCdpWork);

}  // namespace

BENCHMARK_MAIN();

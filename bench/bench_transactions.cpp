// Throughput harness for the transactional update pipeline:
//   1. table updates — N single-op DataPlaneEngine::apply calls (N
//      writer-lock acquisitions, N epoch bumps) vs one N-op
//      TableTransaction (one of each), the batching the con-rou channel
//      buys the control plane;
//   2. transaction application rate through DataPlaneEngine::apply and
//      through a zero-latency ConRouChannel (channel bookkeeping overhead);
//   3. the DiscsSystem packet plane — run_attack (one packet per
//      send_batch call) vs run_attack_batched (512-packet send_batch
//      calls) through the same per-DAS engines on an armed topology.
// The recorded run lives in results/bench_transactions.txt; the
// machine-readable metrics in results/bench_transactions.json.
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "control/con_rou_channel.hpp"
#include "core/discs_system.hpp"
#include "crypto/cmac.hpp"

namespace discs {
namespace {

int g_reps = 3;          // 1 under --smoke
std::size_t g_scale = 1;  // divides section workloads under --smoke

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Ops/sec installing `ops` verify keys one single-op transaction at a time
/// vs as a single transaction: N writer-lock acquisitions against one.
void table_update_section(bench::JsonWriter& json) {
  constexpr std::size_t kOps = 4096;
  bench::header("table updates: per-entry apply vs one transaction");

  double per_entry = 0;
  double batched = 0;
  for (int rep = 0; rep < g_reps; ++rep) {
    {
      RouterTables tables;
      tables.seal();
      DataPlaneEngine engine(tables, 1);
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < kOps; ++i) {
        TableTransaction txn;
        txn.set_verify_key(static_cast<AsNumber>(i + 2), derive_key128(i));
        (void)engine.apply(txn, kMinute);
      }
      per_entry = std::max(per_entry, kOps / seconds_since(t0));
    }
    {
      RouterTables tables;
      tables.seal();
      DataPlaneEngine engine(tables, 1);
      TableTransaction txn;
      for (std::size_t i = 0; i < kOps; ++i) {
        txn.set_verify_key(static_cast<AsNumber>(i + 2), derive_key128(i));
      }
      const auto t0 = std::chrono::steady_clock::now();
      (void)engine.apply(txn, kMinute);
      batched = std::max(batched, kOps / seconds_since(t0));
    }
  }
  std::printf("  %-32s %12.0f ops/s\n", "per-entry apply", per_entry);
  std::printf("  %-32s %12.0f ops/s   speedup %5.2fx\n", "one 4096-op txn",
              batched, batched / per_entry);
  json.metric("table_update", "per_entry_ops_per_sec", per_entry);
  json.metric("table_update", "txn_ops_per_sec", batched);
  json.metric("table_update", "txn_speedup", batched / per_entry);
}

/// Small-transaction application rate: engine.apply directly and via a
/// zero-latency channel (adds delivery bookkeeping + sweep scheduling).
void txn_rate_section(bench::JsonWriter& json) {
  const std::size_t kTxns = 100000 / g_scale;
  bench::header("small-transaction rate (1 key op per txn)");

  double direct = 0;
  double channeled = 0;
  for (int rep = 0; rep < g_reps; ++rep) {
    {
      RouterTables tables;
      tables.seal();
      DataPlaneEngine engine(tables, 1);
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < kTxns; ++i) {
        TableTransaction txn;
        txn.set_verify_key(2, derive_key128(i), /*retain_previous=*/false);
        (void)engine.apply(txn, kMinute);
      }
      direct = std::max(direct, kTxns / seconds_since(t0));
    }
    {
      RouterTables tables;
      tables.seal();
      DataPlaneEngine engine(tables, 1);
      EventLoop loop;
      ConRouChannel channel(loop, engine, /*latency=*/0);
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < kTxns; ++i) {
        TableTransaction txn;
        txn.set_verify_key(2, derive_key128(i), /*retain_previous=*/false);
        channel.submit(std::move(txn));
      }
      channeled = std::max(channeled, kTxns / seconds_since(t0));
    }
  }
  std::printf("  %-32s %12.0f txn/s\n", "engine.apply", direct);
  std::printf("  %-32s %12.0f txn/s   overhead %4.1f%%\n",
              "via zero-latency con-rou", channeled,
              100.0 * (direct - channeled) / direct);
  json.metric("txn_rate", "engine_apply_txns_per_sec", direct);
  json.metric("txn_rate", "channel_txns_per_sec", channeled);
}

/// End-to-end packet plane: one-packet vs 512-packet send_batch calls on
/// the same armed two-DAS topology (identically-seeded systems, identical
/// sampler streams).
void batch_path_section(bench::JsonWriter& json) {
  const std::size_t kPackets = 50000 / g_scale;
  bench::header("DiscsSystem attack traffic: one-packet vs 512-packet batches");

  const auto build = [] {
    DiscsSystem::Config cfg;
    cfg.internet.num_ases = 32;
    cfg.internet.num_prefixes = 320;
    cfg.internet.seed = 99;
    cfg.seed = 5;
    auto system = std::make_unique<DiscsSystem>(cfg);
    const auto order = system->dataset().ases_by_space_desc();
    auto& victim = system->deploy(order[0]);
    system->deploy(order[1]);
    system->settle();
    victim.invoke_ddos_defense_all(/*spoofed_source=*/false);
    system->settle(10 * kSecond);
    return system;
  };

  const auto serial_system = build();
  const auto batched_system = build();
  const AsNumber victim = serial_system->dataset().ases_by_space_desc()[0];
  const AsNumber agent = serial_system->dataset().ases_by_space_desc()[1];

  auto t0 = std::chrono::steady_clock::now();
  const AttackReport serial = serial_system->run_attack(
      AttackType::kDirect, agent, victim, kPackets);
  const double serial_rate = kPackets / seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  const AttackReport batched = batched_system->run_attack_batched(
      AttackType::kDirect, agent, victim, kPackets, /*batch_size=*/512);
  const double batched_rate = kPackets / seconds_since(t0);

  std::printf("  %-40s %12.0f pkt/s\n",
              "run_attack (one-packet send_batch calls)", serial_rate);
  std::printf("  %-40s %12.0f pkt/s   speedup %5.2fx\n",
              "run_attack_batched (512-packet calls)", batched_rate,
              batched_rate / serial_rate);
  bench::note("filtered fractions agree: serial " +
              std::to_string(serial.filtered_fraction()) + ", batched " +
              std::to_string(batched.filtered_fraction()));
  json.metric("batch_path", "serial_pkts_per_sec", serial_rate);
  json.metric("batch_path", "batched_pkts_per_sec", batched_rate);
  json.metric("batch_path", "speedup", batched_rate / serial_rate);
  json.metric("batch_path", "serial_filtered_fraction",
              serial.filtered_fraction());
  json.metric("batch_path", "batched_filtered_fraction",
              batched.filtered_fraction());
}

}  // namespace
}  // namespace discs

int main(int argc, char** argv) {
  using namespace discs;
  const bench::Args args = bench::parse_args(argc, argv, "transactions");
  if (args.smoke) {
    g_reps = 1;
    g_scale = 10;
  }
  bench::header("transactional table-update pipeline");
  bench::note("best of " + std::to_string(g_reps) + " reps per section");
  bench::JsonWriter json = bench::make_writer("transactions", args);
  table_update_section(json);
  txn_rate_section(json);
  batch_path_section(json);
  return bench::finish(json, args) ? 0 : 1;
}

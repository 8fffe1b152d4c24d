// stamp_soak and verify_churn: the paper-scale two-AS data-plane fixture
// (the bench_scale shape) driven through DataPlaneEngine.
//
//   stamp_soak    closed loop, one consumer: FlowStream chunks leaving the
//                 local AS through a 2-shard engine (consumer + one worker).
//   verify_churn  open loop at a fixed batch rate: pre-stamped chunks
//                 entering the local AS through a 1-shard engine, while a
//                 second thread applies a seeded TableTransaction stream.
#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>

#include "attack/stream.hpp"
#include "dataplane/engine.hpp"
#include "dataplane/transaction.hpp"
#include "probes.hpp"
#include "topology/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace discs;

namespace {

/// Simulated "now" for every stamp/verify: inside the [0, 1h) windows the
/// fixture installs, clear of the tolerance edges.
constexpr SimTime kNow = 30 * kSecond;

struct Sizes {
  std::size_t ases;
  std::size_t prefixes;
  std::size_t flows;
  std::size_t chunk;          // stamp_soak packets per engine call
  std::size_t batch;          // verify_churn packets per engine call
  std::size_t pool;           // verify_churn pre-stamped batches
  std::size_t period_us;      // verify_churn offered batch period
  std::size_t txn_period_ms;  // verify_churn writer period
};

Sizes sizes(bool small) {
  if (small) return {512, 5120, std::size_t{1} << 14, 1024, 256, 8, 1000, 20};
  return {44036, 442000, std::size_t{1} << 20, 8192, 1024, 32, 1000, 50};
}

/// Two ASes of a synthetic internet: `local` stamps toward `peer` and
/// verifies what `peer` stamps toward it; `peer` is the mirror image.
struct Fixture {
  explicit Fixture(const SyntheticConfig& c)
      : internet(c), dataset(generate_dataset(c)) {}
  SyntheticConfig internet;
  InternetDataset dataset;
  AsNumber local = kNoAs;
  AsNumber peer = kNoAs;
  Key128 k_lp{};  // local -> peer stamping key
  Key128 k_pl{};  // peer -> local stamping key
  RouterTables local_tables;
  RouterTables peer_tables;
};

void fill_side(RouterTables& tables, const InternetDataset& dataset,
               AsNumber self, AsNumber other, const Key128& stamp_key,
               const Key128& verify_key) {
  for (const PrefixOrigin& e : dataset.entries()) {
    tables.pfx2as.add(e.prefix, e.origins.front());
  }
  tables.key_s.set_key(other, stamp_key);
  tables.key_v.set_key(other, verify_key);
  for (const Prefix4& p : dataset.prefixes_of(other)) {
    tables.out_dst.install(p, DefenseFunction::kCdpStamp, 0, kHour);
  }
  for (const Prefix4& p : dataset.prefixes_of(self)) {
    tables.in_dst.install(p, DefenseFunction::kCdpVerify, 0, kHour);
  }
}

std::unique_ptr<Fixture> make_fixture(std::uint64_t seed, const Sizes& s,
                                      Fault fault) {
  SyntheticConfig internet;
  internet.num_ases = s.ases;
  internet.num_prefixes = s.prefixes;
  internet.seed = kTopologySeed;
  // No multi-origin prefixes: a flow toward a prefix the peer co-owns with
  // another primary origin has no single correct verdict.
  internet.multi_origin_fraction = 0;
  auto fx = std::make_unique<Fixture>(internet);
  const std::vector<AsNumber> by_space = fx->dataset.ases_by_space_desc();
  fx->local = by_space[0];
  fx->peer = by_space[1];
  fx->k_lp = derive_key128(derive_seed(seed, 2));
  fx->k_pl = derive_key128(derive_seed(seed, 3));
  fill_side(fx->local_tables, fx->dataset, fx->local, fx->peer, fx->k_lp,
            fx->k_pl);
  const Key128 peer_verify = fault == Fault::kFlipPeerVerifyKey
                                 ? derive_key128(~seed)
                                 : fx->k_lp;
  fill_side(fx->peer_tables, fx->dataset, fx->peer, fx->local, fx->k_pl,
            peer_verify);
  fx->local_tables.seal();
  fx->peer_tables.seal();
  return fx;
}

std::unique_ptr<DataPlaneEngine> make_engine(RouterTables& tables, AsNumber as,
                                             std::size_t shards,
                                             std::uint64_t seed) {
  EngineConfig config;
  config.shards = shards;
  config.spawn_workers_eagerly = shards > 1;
  config.rng_seed = seed;
  return std::make_unique<DataPlaneEngine>(tables, as, config);
}

std::uint64_t count_drops(std::span<const Verdict> verdicts) {
  return static_cast<std::uint64_t>(
      std::count_if(verdicts.begin(), verdicts.end(), is_drop));
}

/// Sealed lookups against the trie oracle: an unsealed Pfx2AS table and an
/// unsealed Out-Dst table filled from the same dataset, probed on the
/// stream's addresses and on uniformly random ones.
void check_against_trie(const Fixture& fx, const FlowStream& stream,
                        std::uint64_t seed, Outcome& out) {
  Pfx2AsTable trie;
  for (const PrefixOrigin& e : fx.dataset.entries()) {
    trie.add(e.prefix, e.origins.front());
  }
  FunctionTable trie_out;
  for (const Prefix4& p : fx.dataset.prefixes_of(fx.peer)) {
    trie_out.install(p, DefenseFunction::kCdpStamp, 0, kHour);
  }
  std::vector<Ipv4Address> addrs;
  std::vector<BatchPacket> chunk;
  stream.fill_chunk(0, chunk);
  for (const BatchPacket& p : chunk) {
    addrs.push_back(std::get<Ipv4Packet>(p).header.src);
    addrs.push_back(std::get<Ipv4Packet>(p).header.dst);
  }
  Xoshiro256 rng(derive_seed(seed, 9));
  for (int i = 0; i < 8192; ++i) {
    addrs.emplace_back(static_cast<std::uint32_t>(rng.next()));
  }
  std::uint64_t mismatches = 0;
  for (const Ipv4Address a : addrs) {
    if (fx.local_tables.pfx2as.lookup(a) != trie.lookup(a)) ++mismatches;
    if (fx.local_tables.out_dst.lookup(a, kNow).functions !=
        trie_out.lookup(a, kNow).functions) {
      ++mismatches;
    }
  }
  out.tally(2 * addrs.size(), mismatches,
            "sealed lookup disagrees with the trie oracle");
}

/// Spins (sleeping while far off) until `due`.
void wait_until(Clock::time_point due) {
  while (true) {
    const auto now = Clock::now();
    if (now >= due) return;
    if (due - now > std::chrono::microseconds(300)) {
      std::this_thread::sleep_for(due - now - std::chrono::microseconds(200));
    }
  }
}

// ---------------------------------------------------------------- stamp_soak

struct StampWorld {
  std::unique_ptr<Fixture> fx;
  std::unique_ptr<FlowStream> stream;
  std::unique_ptr<DataPlaneEngine> engine;       // local, 2 shards
  std::unique_ptr<DataPlaneEngine> peer_engine;  // re-verifies samples
};

/// Closed loop over stream chunks from `first_chunk` for `seconds`.
LoopStats stamp_loop(StampWorld& w, double seconds, std::uint64_t first_chunk,
                     Tracer* tracer, Outcome& out) {
  const std::size_t n = w.stream->config().chunk_size;
  std::vector<BatchPacket> packets;
  packets.reserve(n);
  std::vector<std::uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  std::vector<Verdict> verdicts(n);
  std::vector<BatchPacket> recheck;
  std::vector<Verdict> recheck_verdicts(n);
  const std::uint64_t stamped_before = w.engine->stats().out_stamped;

  LoopStats st;
  std::uint64_t sent = 0;
  const auto begin = Clock::now();
  auto previous_end = begin;
  for (std::uint64_t c = first_chunk;
       st.call_ns.empty() || seconds_since(begin) < seconds; ++c) {
    PERFBENCH_SPAN(tracer, "perfbench.batch", c);
    {
      PERFBENCH_SPAN(tracer, "attack.fill_chunk", c);
      w.stream->fill_chunk(c, packets);
    }
    const auto start = Clock::now();
    {
      PERFBENCH_SPAN(tracer, "dataplane.engine.process_outbound", c);
      w.engine->process_outbound(packets, idx, verdicts, kNow);
    }
    const auto end = Clock::now();
    st.record_closed(previous_end, start, end, static_cast<double>(n));
    sent += n;
    out.tally(n, count_drops(verdicts), "outbound packet dropped");
    if (c % 64 == 0) {
      // Sampled chunk: the stamps must verify at the peer.
      recheck = packets;
      const std::uint64_t verified = w.peer_engine->stats().in_verified;
      w.peer_engine->process_inbound(recheck, idx, recheck_verdicts, kNow);
      out.tally(n, n - (w.peer_engine->stats().in_verified - verified),
                "stamped packet failed verification at the peer");
    }
    previous_end = Clock::now();
  }
  const std::uint64_t stamped = w.engine->stats().out_stamped - stamped_before;
  out.tally(sent, sent - std::min(stamped, sent),
            "outbound packet left unstamped");
  return st;
}

// -------------------------------------------------------------- verify_churn

struct VerifyWorld {
  std::unique_ptr<Fixture> fx;
  std::unique_ptr<FlowStream> stream;            // peer -> local
  std::unique_ptr<DataPlaneEngine> engine;       // local, 1 shard
  std::unique_ptr<DataPlaneEngine> peer_engine;  // probes' stamping side
  std::vector<BatchPacket> pool;                 // pre-stamped batches
};

/// Applied transaction latencies per kind, in ms.
struct ChurnLatencies {
  std::vector<double> key, function, pfx2as;
};

/// The k-th transaction of the seeded churn stream. Re-keys alternate the
/// verification key between a fresh key and the one the peer stamps with,
/// each retaining the other as grace key; function windows go to 240/4
/// prefixes no traffic uses; every 10th transaction re-asserts 64 Pfx2AS
/// origins. None of them changes a correct verdict, and each of the last
/// two recompiles a prefix table.
TableTransaction churn_txn(const Fixture& fx, std::uint64_t k, std::uint64_t seed,
                           Fault fault, int& kind) {
  TableTransaction txn;
  if (k % 10 == 9) {
    kind = 2;
    const auto& entries = fx.dataset.entries();
    for (std::size_t i = 0; i < 64; ++i) {
      const PrefixOrigin& e = entries[(k * 64 + i) % entries.size()];
      txn.map_prefix(e.prefix, e.origins.front());
    }
  } else if (k % 2 == 0) {
    kind = 0;
    const bool fresh = (k / 2) % 2 == 0;
    const Key128 key = fresh || fault == Fault::kRekeyWithoutGrace
                           ? derive_key128(derive_seed(seed, 1000 + k))
                           : fx.k_pl;
    txn.set_verify_key(fx.peer, key,
                       /*retain_previous=*/fault != Fault::kRekeyWithoutGrace);
  } else {
    kind = 1;
    const auto slot = static_cast<std::uint32_t>(k % 65536);
    txn.install_function_window(FunctionDirection::kInSrc,
                                Prefix4(Ipv4Address(0xF0000000u | (slot << 8)), 24),
                                DefenseFunction::kCspVerify, 0, kHour);
  }
  return txn;
}

/// Open loop: one batch per period from the pool, timed from its due time,
/// while a writer thread applies the churn stream every txn period.
LoopStats verify_loop(VerifyWorld& w, const Sizes& s, double seconds,
                      std::uint64_t& next_txn, std::uint64_t seed, Fault fault,
                      Tracer* consumer_tracer, Tracer* writer_tracer,
                      ChurnLatencies& lat, Outcome& out) {
  const std::size_t n = s.batch;
  const std::size_t batches_in_pool = w.pool.size() / n;
  std::vector<BatchPacket> work(w.pool.begin(),
                                w.pool.begin() + static_cast<std::ptrdiff_t>(n));
  std::vector<std::uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  std::vector<Verdict> verdicts(n);
  const std::uint64_t verified_before = w.engine->stats().in_verified;

  const auto period = std::chrono::microseconds(s.period_us);
  const auto txn_period = std::chrono::milliseconds(s.txn_period_ms);
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    auto due = start;
    while (true) {
      due += txn_period;
      std::this_thread::sleep_until(due);
      if (stop.load(std::memory_order_acquire)) return;
      const std::uint64_t k = next_txn++;
      int kind = 0;
      const TableTransaction txn = churn_txn(*w.fx, k, seed, fault, kind);
      PERFBENCH_SPAN(writer_tracer, "perfbench.txn", k);
      const auto t0 = Clock::now();
      {
        PERFBENCH_SPAN(writer_tracer, "dataplane.engine.apply", k);
        (void)w.engine->apply(txn, kNow);
      }
      const double ms = seconds_since(t0) * 1e3;
      (kind == 0 ? lat.key : kind == 1 ? lat.function : lat.pfx2as).push_back(ms);
    }
  });

  LoopStats st;
  std::uint64_t sent = 0;
  for (std::uint64_t b = 0;; ++b) {
    const auto due = start + b * period;
    if (b > 0 && seconds_between(start, due) >= seconds) break;
    const std::size_t slot = b % batches_in_pool;
    std::copy(w.pool.begin() + static_cast<std::ptrdiff_t>(slot * n),
              w.pool.begin() + static_cast<std::ptrdiff_t>((slot + 1) * n),
              work.begin());
    wait_until(due);
    PERFBENCH_SPAN(consumer_tracer, "perfbench.batch", b);
    const auto t0 = Clock::now();
    {
      PERFBENCH_SPAN(consumer_tracer, "dataplane.engine.process_inbound", b);
      w.engine->process_inbound(work, idx, verdicts, kNow);
    }
    st.record_open(due, t0, Clock::now(), static_cast<double>(n));
    sent += n;
    out.tally(n, count_drops(verdicts), "correctly stamped packet dropped");
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  const std::uint64_t verified = w.engine->stats().in_verified - verified_before;
  out.tally(sent, sent - std::min(verified, sent), "inbound packet not verified");
  return st;
}

}  // namespace

Outcome run_stamp_soak(const RunConfig& rc, Fault fault) {
  Outcome out;
  const Sizes s = sizes(rc.small);
  out.param("ases", s.ases);
  out.param("prefixes", s.prefixes);
  out.param("flows", s.flows);
  out.param("chunk", s.chunk);
  out.param("zipf_s_x100", 120);
  out.param("shards", 2);

  StampWorld w;
  const double setup_s = timed_setups(kSetupReps, [&](int i) {
    StampWorld x;
    x.fx = make_fixture(rc.seed, s, fault);
    x.stream = std::make_unique<FlowStream>(
        x.fx->dataset, x.fx->local, x.fx->peer,
        StreamConfig{.flows = s.flows, .chunk_size = s.chunk, .zipf_s = 1.2},
        derive_seed(rc.seed, 4));
    x.engine = make_engine(x.fx->local_tables, x.fx->local, 2,
                           derive_seed(rc.seed, 5));
    x.peer_engine = make_engine(x.fx->peer_tables, x.fx->peer, 1,
                                derive_seed(rc.seed, 6));
    if (i == 0) w = std::move(x);
  });
  if (fault == Fault::kCorruptSealedPfx2as) {
    TableTransaction txn;
    txn.map_prefix(w.fx->dataset.prefixes_of(w.fx->peer).front(), w.fx->local);
    (void)w.engine->apply(txn, kNow);
  }
  // Untimed warm-up: first touch of the compiled tables, worker spin-up.
  (void)stamp_loop(w, 0, 0, nullptr, out);

  if (!rc.trace) {
    const LoopStats loop = stamp_loop(w, rc.seconds, 1, nullptr, out);
    report_end_to_end(loop, setup_s, out);
  } else {
    const auto ws0 = w.engine->worker_stats();
    const LoopStats untraced = stamp_loop(w, rc.seconds / 2, 1, nullptr, out);
    report_worker_stats(ws0, w.engine->worker_stats(), untraced.call_ns.size(),
                        out);
    Tracer tracer;
    const LoopStats traced =
        stamp_loop(w, rc.seconds / 2, 1 + untraced.call_ns.size(), &tracer, out);
    report_traced_loops(untraced, traced, {&tracer}, rc.trace_path, out);

    DataplaneProbeInputs in;
    in.dataset = &w.fx->dataset;
    in.out_engine = w.engine.get();
    in.out_tables = &w.fx->local_tables;
    in.out_as = w.fx->local;
    in.in_engine = w.peer_engine.get();
    in.in_tables = &w.fx->peer_tables;
    in.in_as = w.fx->peer;
    w.stream->fill_chunk(0, in.outbound);
    in.stream = w.stream.get();
    in.now = kNow;
    in.seed = rc.seed;
    probe_dataplane(in, out);
    probe_twin(w.fx->internet, {w.fx->local, w.fx->peer}, w.fx->local, rc.seed,
               out);
  }
  check_against_trie(*w.fx, *w.stream, rc.seed, out);
  return out;
}

Outcome run_verify_churn(const RunConfig& rc, Fault fault) {
  Outcome out;
  const Sizes s = sizes(rc.small);
  out.param("ases", s.ases);
  out.param("prefixes", s.prefixes);
  out.param("flows", s.flows);
  out.param("batch", s.batch);
  out.param("pool_batches", s.pool);
  out.param("offered_period_us", s.period_us);
  out.param("txn_period_ms", s.txn_period_ms);
  out.param("shards", 1);

  VerifyWorld w;
  const double setup_s = timed_setups(kSetupReps, [&](int i) {
    VerifyWorld x;
    x.fx = make_fixture(rc.seed, s, fault);
    x.stream = std::make_unique<FlowStream>(
        x.fx->dataset, x.fx->peer, x.fx->local,
        StreamConfig{.flows = s.flows, .chunk_size = s.batch, .zipf_s = 1.2},
        derive_seed(rc.seed, 7));
    x.engine = make_engine(x.fx->local_tables, x.fx->local, 1,
                           derive_seed(rc.seed, 5));
    x.peer_engine = make_engine(x.fx->peer_tables, x.fx->peer, 1,
                                derive_seed(rc.seed, 6));
    // The pool is stamped by the peer once, at set-up.
    std::vector<BatchPacket> chunk;
    std::vector<std::uint32_t> idx(s.batch);
    std::iota(idx.begin(), idx.end(), 0u);
    std::vector<Verdict> verdicts(s.batch);
    for (std::size_t c = 0; c < s.pool; ++c) {
      x.stream->fill_chunk(c, chunk);
      x.peer_engine->process_outbound(chunk, idx, verdicts, kNow);
      x.pool.insert(x.pool.end(), chunk.begin(), chunk.end());
    }
    if (i == 0) w = std::move(x);
  });

  std::uint64_t next_txn = 0;
  ChurnLatencies lat;
  if (!rc.trace) {
    const LoopStats loop = verify_loop(w, s, rc.seconds, next_txn, rc.seed,
                                       fault, nullptr, nullptr, lat, out);
    report_end_to_end(loop, setup_s, out);
  } else {
    const LoopStats untraced = verify_loop(w, s, rc.seconds / 2, next_txn,
                                           rc.seed, fault, nullptr, nullptr,
                                           lat, out);
    report_worker_stats({}, {}, untraced.call_ns.size(), out);
    Tracer consumer(0), writer(1);
    ChurnLatencies traced_lat;
    const LoopStats traced =
        verify_loop(w, s, rc.seconds / 2, next_txn, rc.seed, fault, &consumer,
                    &writer, traced_lat, out);
    report_traced_loops(untraced, traced, {&consumer, &writer}, rc.trace_path,
                        out);

    DataplaneProbeInputs in;
    in.dataset = &w.fx->dataset;
    in.out_engine = w.peer_engine.get();
    in.out_tables = &w.fx->peer_tables;
    in.out_as = w.fx->peer;
    in.in_engine = w.engine.get();
    in.in_tables = &w.fx->local_tables;
    in.in_as = w.fx->local;
    w.stream->fill_chunk(0, in.outbound);
    in.stream = w.stream.get();
    in.now = kNow;
    in.seed = rc.seed;
    in.apply_ms_key = lat.key;
    in.apply_ms_function = lat.function;
    in.apply_ms_pfx2as = lat.pfx2as;
    probe_dataplane(in, out);
    probe_twin(w.fx->internet, {w.fx->local, w.fx->peer}, w.fx->local, rc.seed,
               out);
  }
  return out;
}

}  // namespace perfbench

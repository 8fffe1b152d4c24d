// system_mix: DiscsSystem::send_batch on a mid-size internet with DASes
// deployed by the optimal (largest address space first) strategy and the
// largest victims protected by DP+CDP. Closed loop, one client, cycling
// over sampler-built batches from many origin ASes to many destinations.
#include <algorithm>

#include "dataplane/transaction.hpp"
#include "eval/deployment.hpp"
#include "probes.hpp"
#include "topology/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace discs;

namespace {

struct MixSizes {
  std::size_t ases;
  std::size_t prefixes;
  std::size_t dases;
  std::size_t victims;
  std::size_t origins;
  std::size_t batches;
  std::size_t batch;
};

MixSizes mix_sizes(bool small) {
  if (small) return {256, 2560, 8, 2, 16, 16, 128};
  return {4096, 16384, 32, 4, 64, 2048, 32};
}

struct MixWorld {
  std::unique_ptr<DiscsSystem> system;
  std::vector<AsNumber> dases;  // deployment order; the first `victims` invoked
  std::vector<SystemBatch> batches;
};

MixWorld make_mix_world(std::uint64_t seed, const MixSizes& s) {
  SyntheticConfig internet;
  internet.num_ases = s.ases;
  internet.num_prefixes = s.prefixes;
  internet.seed = kTopologySeed;
  InternetDataset dataset = generate_dataset(internet);
  MixWorld w;
  for (const std::size_t i :
       deployment_order(dataset, DeploymentStrategy::kOptimal, seed)) {
    if (w.dases.size() == s.dases) break;
    w.dases.push_back(dataset.as_numbers()[i]);
  }
  w.system = make_facade_twin(std::move(dataset), w.dases, seed);
  const std::vector<AsNumber> victims(w.dases.begin(),
                                      w.dases.begin() + static_cast<std::ptrdiff_t>(s.victims));
  for (const AsNumber v : victims) {
    (void)w.system->controller(v)->invoke_ddos_defense_all(/*spoofed_source=*/false);
  }
  w.system->settle(10 * kSecond);

  // Origins: every non-victim DAS, then space-weighted legacy ASes.
  TrafficSampler& sampler = w.system->sampler();
  std::vector<AsNumber> origins(w.dases.begin() + static_cast<std::ptrdiff_t>(s.victims),
                                w.dases.end());
  while (origins.size() < s.origins) {
    const AsNumber as = sampler.sample_as();
    if (std::find(origins.begin(), origins.end(), as) == origins.end() &&
        std::find(victims.begin(), victims.end(), as) == victims.end()) {
      origins.push_back(as);
    }
  }
  w.batches = make_system_batches(sampler, w.system->dataset(), origins, victims,
                                  s.batches, s.batch);
  return w;
}

bool dropped(DeliveryOutcome o) {
  return o == DeliveryOutcome::kDroppedAtSource ||
         o == DeliveryOutcome::kDroppedAtDestination;
}

/// Closed loop over the batches from `next` for `seconds`. Every 16th batch
/// a 32-packet slice is replayed through send_packet on `twin`.
LoopStats mix_loop(MixWorld& w, DiscsSystem* twin, double seconds,
                   std::uint64_t& next, Tracer* tracer, Outcome& out) {
  LoopStats st;
  PacketBatch work;
  const auto begin = Clock::now();
  auto previous_end = begin;
  while (st.call_ns.empty() || seconds_since(begin) < seconds) {
    const std::uint64_t k = next++;
    const SystemBatch& b = w.batches[k % w.batches.size()];
    PERFBENCH_SPAN(tracer, "perfbench.batch", k);
    work = b.packets;
    const auto start = Clock::now();
    std::vector<DeliveryResult> results;
    {
      PERFBENCH_SPAN(tracer, "core.send_batch", k);
      results = w.system->send_batch(b.origin, work);
    }
    const auto end = Clock::now();
    st.record_closed(previous_end, start, end,
                     static_cast<double>(results.size()));

    std::uint64_t legit = 0, legit_dropped = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (b.attack[i]) continue;
      ++legit;
      legit_dropped += dropped(results[i].outcome) ? 1 : 0;
    }
    out.tally(legit, legit_dropped, "legitimate packet dropped");
    if (twin != nullptr && k % 16 == 0) {
      const std::size_t slice = std::min<std::size_t>(32, results.size());
      std::uint64_t mismatches = 0;
      for (std::size_t i = 0; i < slice; ++i) {
        Ipv4Packet packet = std::get<Ipv4Packet>(b.packets[i]);
        const DeliveryResult r = twin->send_packet(b.origin, packet);
        if (r.outcome != results[i].outcome ||
            r.source_verdict != results[i].source_verdict ||
            r.destination_verdict != results[i].destination_verdict) {
          ++mismatches;
        }
      }
      out.tally(slice, mismatches,
                "send_batch disagrees with send_packet on the twin");
    }
    previous_end = Clock::now();
  }
  return st;
}

}  // namespace

Outcome run_system_mix(const RunConfig& rc, Fault fault) {
  Outcome out;
  const MixSizes s = mix_sizes(rc.small);
  out.param("ases", s.ases);
  out.param("prefixes", s.prefixes);
  out.param("dases", s.dases);
  out.param("victims", s.victims);
  out.param("origins", s.origins);
  out.param("batches", s.batches);
  out.param("batch", s.batch);
  out.param("shards", 1);

  // The second set-up is kept as the identically seeded send_packet twin.
  MixWorld w, twin;
  const double setup_s = timed_setups(kSetupReps, [&](int i) {
    MixWorld x = make_mix_world(rc.seed, s);
    if (i == 0) w = std::move(x);
    if (i == 1) twin = std::move(x);
  });
  if (fault == Fault::kWrongVerifyKeyAtVictim) {
    TableTransaction txn;
    txn.set_verify_key(w.dases[s.victims], derive_key128(~rc.seed));
    (void)w.system->controller(w.dases.front())->engine().apply(txn,
                                                                 w.system->now());
  }
  std::uint64_t next = 0;
  (void)mix_loop(w, nullptr, 0, next, nullptr, out);  // untimed warm-up

  if (!rc.trace) {
    const LoopStats loop = mix_loop(w, twin.system.get(), rc.seconds, next,
                                    nullptr, out);
    report_end_to_end(loop, setup_s, out);
    return out;
  }
  const LoopStats untraced =
      mix_loop(w, twin.system.get(), rc.seconds / 2, next, nullptr, out);
  report_worker_stats({}, {}, untraced.call_ns.size(), out);
  Tracer tracer;
  const LoopStats traced =
      mix_loop(w, twin.system.get(), rc.seconds / 2, next, &tracer, out);
  report_traced_loops(untraced, traced, {&tracer}, rc.trace_path, out);

  // Data-plane probes: the first non-victim DAS stamps toward the largest
  // victim, which verifies.
  DiscsSystem& system = *w.system;
  Controller& stamper = *system.controller(w.dases[s.victims]);
  Controller& victim = *system.controller(w.dases.front());
  DataplaneProbeInputs in;
  in.dataset = &system.dataset();
  in.out_engine = &stamper.engine();
  in.out_tables = &stamper.tables();
  in.out_as = stamper.as_number();
  in.in_engine = &victim.engine();
  in.in_tables = &victim.tables();
  in.in_as = victim.as_number();
  for (int i = 0; i < 4096; ++i) {
    in.outbound.emplace_back(
        system.sampler().legit_packet(in.out_as, in.in_as));
  }
  in.now = system.now();
  in.seed = rc.seed;
  probe_dataplane(in, out);
  const std::size_t probed = std::min<std::size_t>(64, w.batches.size());
  probe_facade(system,
               std::vector<SystemBatch>(w.batches.begin(),
                                        w.batches.begin() +
                                            static_cast<std::ptrdiff_t>(probed)),
               out);

  // Control plane: the next DAS after the victims invokes; all DASes peer.
  std::vector<const Controller*> all;
  for (const AsNumber as : w.dases) all.push_back(system.controller(as));
  const RoundResult round = run_invocation_round(
      system.loop(), system.channel(), {system.controller(w.dases[s.victims + 1])},
      all, kHour, 30 * kSecond, nullptr, nullptr);
  check_round(round, all, out);
  report_control(round, system.channel(), all, out);
  return out;
}

}  // namespace perfbench

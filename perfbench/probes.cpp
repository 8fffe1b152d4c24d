#include "probes.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <numeric>
#include <unordered_set>

#include "control/controller.hpp"
#include "dataplane/transaction.hpp"
#include "topology/graph.hpp"
#include "topology/synthetic.hpp"

namespace perfbench {

using namespace discs;

namespace {

/// Keeps a computed value alive so the timed loop cannot be optimized out.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

constexpr int kReps = 5;
/// Unattached AS the con-con send probe addresses.
constexpr AsNumber kProbeAs = 0xFFFFFF00u;

/// Median over kReps of (timed(), after an untimed prepare()), ns per op.
template <typename Prepare, typename Timed>
double median_ns_per_op(double ops, Prepare&& prepare, Timed&& timed) {
  std::vector<double> samples;
  for (int r = 0; r < kReps; ++r) {
    prepare();
    const auto t0 = Clock::now();
    timed();
    samples.push_back(ns_between(t0, Clock::now()) / ops);
  }
  return median(std::move(samples));
}

template <typename Timed>
double median_ns_per_op(double ops, Timed&& timed) {
  return median_ns_per_op(ops, [] {}, std::forward<Timed>(timed));
}

const Ipv4Packet& v4(const BatchPacket& p) { return std::get<Ipv4Packet>(p); }

double apply_ms(DataPlaneEngine& engine, const TableTransaction& txn,
                SimTime now) {
  const auto t0 = Clock::now();
  (void)engine.apply(txn, now);
  return seconds_since(t0) * 1e3;
}

/// Verdict-neutral transactions of each kind, applied at the workload's
/// table size: a stamping key re-set to its current value, a function
/// window on a prefix no traffic uses, a Pfx2AS entry re-asserted.
void probe_txns(DataplaneProbeInputs& in) {
  const KeyTable::Entry* key = in.out_tables->key_s.find(in.in_as);
  const Key128 key_bytes = key != nullptr ? key->active : derive_key128(in.seed);
  const AsNumber key_peer = key != nullptr ? in.in_as : kProbeAs;
  for (int i = 0; i < 20; ++i) {
    TableTransaction txn;
    txn.set_stamp_key(key_peer, key_bytes, /*retain_previous=*/true);
    in.apply_ms_key.push_back(apply_ms(*in.out_engine, txn, in.now));
  }
  for (std::uint32_t i = 0; i < 20; ++i) {
    TableTransaction txn;
    txn.install_function_window(FunctionDirection::kInSrc,
                                Prefix4(Ipv4Address(0xF0000000u | (i << 8)), 24),
                                DefenseFunction::kCspVerify, 0, kHour);
    in.apply_ms_function.push_back(apply_ms(*in.out_engine, txn, in.now));
  }
  const PrefixOrigin& entry = in.dataset->entries().front();
  for (int i = 0; i < 5; ++i) {
    TableTransaction txn;
    txn.map_prefix(entry.prefix, entry.origins.front());
    in.apply_ms_pfx2as.push_back(apply_ms(*in.in_engine, txn, in.now));
  }
}

}  // namespace

void probe_dataplane(DataplaneProbeInputs& in, Outcome& out) {
  const std::vector<BatchPacket>& pkts = in.outbound;
  const std::size_t n = pkts.size();
  const double ops = static_cast<double>(n);
  std::vector<Ipv4Address> src(n), dst(n);
  for (std::size_t i = 0; i < n; ++i) {
    src[i] = v4(pkts[i]).header.src;
    dst[i] = v4(pkts[i]).header.dst;
  }
  std::vector<std::uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  std::vector<Verdict> verdicts(n);
  std::vector<BatchPacket> work;

  // ---- crypto ----
  const KeyTable::Entry* key = in.out_tables->key_s.find(in.in_as);
  const AesCmac fallback(derive_key128(in.seed));
  const AesCmac& mac = key != nullptr ? key->active_mac : fallback;
  std::vector<std::array<std::uint8_t, 21>> msgs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t s = src[i].bits();
    const std::uint32_t d = dst[i].bits();
    for (std::size_t b = 0; b < 4; ++b) {
      msgs[i][b] = static_cast<std::uint8_t>(s >> (8 * b));
      msgs[i][4 + b] = static_cast<std::uint8_t>(d >> (8 * b));
    }
    msgs[i][8] = static_cast<std::uint8_t>(i);
  }
  out.set("crypto.mac21_ns", median_ns_per_op(ops, [&] {
            for (const auto& m : msgs) keep(mac.mac21(m));
          }));
  std::vector<CmacWork> cwork(n);
  for (std::size_t i = 0; i < n; ++i) ipv4_mark_work(v4(pkts[i]), mac, cwork[i]);
  out.set("crypto.mac_batch_ns_per_mac", median_ns_per_op(ops, [&] {
            mac_truncated_batch(cwork);
            keep(cwork.back().result);
          }));

  // ---- lpm ----
  const RouterTables& ot = *in.out_tables;
  out.set("lpm.pfx2as_ns", median_ns_per_op(ops, [&] {
            for (const Ipv4Address a : dst) keep(ot.pfx2as.lookup(a));
          }));
  out.set("lpm.function_ns", median_ns_per_op(ops, [&] {
            for (const Ipv4Address a : dst) keep(ot.out_dst.lookup(a, in.now));
          }));

  // ---- tuple ----
  const TupleGenerator out_gen(ot, in.out_as);
  const TupleGenerator in_gen(*in.in_tables, in.in_as);
  out.set("tuple.out_ns", median_ns_per_op(ops, [&] {
            for (std::size_t i = 0; i < n; ++i) {
              keep(out_gen.out_tuple(src[i], dst[i], in.now).stamp);
            }
          }));
  out.set("tuple.in_ns", median_ns_per_op(ops, [&] {
            for (std::size_t i = 0; i < n; ++i) {
              keep(in_gen.in_tuple(src[i], dst[i], in.now).verify);
            }
          }));

  // ---- router (stamp copies of the sample; verify copies of the stamped) ----
  BorderRouter out_router(ot, in.out_as, in.seed);
  BorderRouter in_router(*in.in_tables, in.in_as, in.seed + 1);
  out.set("router.out_batch_ns_per_pkt",
          median_ns_per_op(
              ops, [&] { work = pkts; },
              [&] {
                out_router.process_outbound_batch(work, idx, verdicts, in.now);
              }));
  const std::vector<BatchPacket> stamped = work;
  out.set("router.in_batch_ns_per_pkt",
          median_ns_per_op(
              ops, [&] { work = stamped; },
              [&] {
                in_router.process_inbound_batch(work, idx, verdicts, in.now);
              }));

  // ---- engine ----
  out.set("engine.out_ns_per_pkt",
          median_ns_per_op(
              ops, [&] { work = pkts; },
              [&] {
                in.out_engine->process_outbound(work, idx, verdicts, in.now);
              }));
  out.set("engine.in_ns_per_pkt",
          median_ns_per_op(
              ops, [&] { work = stamped; },
              [&] {
                in.in_engine->process_inbound(work, idx, verdicts, in.now);
              }));
  out.set("system.engines_ns_per_pkt",
          median_ns_per_op(
              ops, [&] { work = pkts; },
              [&] {
                in.out_engine->process_outbound(work, idx, verdicts, in.now);
                in.in_engine->process_inbound(work, idx, verdicts, in.now);
              }));

  // ---- txn / seal ----
  if (in.apply_ms_key.empty()) probe_txns(in);
  out.set("txn.apply_ms_p50.key", quantile(in.apply_ms_key, 0.5));
  out.set("txn.apply_ms_p99.key", quantile(in.apply_ms_key, 0.99));
  out.set("txn.apply_ms_p50.function", quantile(in.apply_ms_function, 0.5));
  out.set("txn.apply_ms_p99.function", quantile(in.apply_ms_function, 0.99));
  out.set("txn.apply_ms_p50.pfx2as", quantile(in.apply_ms_pfx2as, 0.5));
  out.set("txn.apply_ms_p99.pfx2as", quantile(in.apply_ms_pfx2as, 0.99));
  {
    std::vector<double> seal_s;
    for (int r = 0; r < 3; ++r) {
      RouterTables tables;
      for (const PrefixOrigin& e : in.dataset->entries()) {
        tables.pfx2as.add(e.prefix, e.origins.front());
      }
      const auto t0 = Clock::now();
      tables.seal();
      seal_s.push_back(seconds_since(t0));
    }
    out.set("txn.seal_s", median(seal_s));
  }

  // ---- attack: stream fill and sampler ----
  std::unique_ptr<FlowStream> own_stream;
  const FlowStream* stream = in.stream;
  if (stream == nullptr) {
    own_stream = std::make_unique<FlowStream>(
        *in.dataset, in.out_as, in.in_as,
        StreamConfig{.flows = std::size_t{1} << 16, .chunk_size = 8192},
        derive_seed(in.seed, 11));
    stream = own_stream.get();
  }
  std::vector<BatchPacket> chunk;
  std::uint64_t chunk_index = 0;
  out.set("stream.fill_ns_per_pkt",
          median_ns_per_op(static_cast<double>(stream->config().chunk_size), [&] {
            stream->fill_chunk(chunk_index++, chunk);
          }));
  TrafficSampler sampler(*in.dataset, derive_seed(in.seed, 12));
  constexpr std::size_t kSampled = 4096;
  out.set("sampler.ns_per_pkt", median_ns_per_op(kSampled, [&] {
            for (std::size_t i = 0; i < kSampled; ++i) {
              keep(sampler.attack_packet(sampler.sample_flow(AttackType::kDirect))
                       .header.dst);
            }
          }));

  // ---- topology: origin_of and AS paths toward traffic-weighted ASes ----
  out.set("system.origin_of_ns", median_ns_per_op(ops, [&] {
            for (const Ipv4Address a : dst) keep(in.dataset->origin_of(a));
          }));
  const AsGraph graph =
      generate_graph(in.dataset->ases_by_space_desc(), GraphConfig{});
  std::vector<double> path_us;
  for (int i = 0; i < 64; ++i) {
    const AsNumber to = sampler.sample_as();
    const auto t0 = Clock::now();
    keep(graph.path(in.out_as, to).size());
    path_us.push_back(seconds_since(t0) * 1e6);
  }
  out.set("system.path_us", median(path_us));
}

void report_worker_stats(const DataPlaneEngine::WorkerStats& before,
                         const DataPlaneEngine::WorkerStats& after,
                         std::size_t batches, Outcome& out) {
  const double n = static_cast<double>(std::max<std::size_t>(batches, 1));
  const double chunks = static_cast<double>(after.chunks - before.chunks);
  const double doorbells =
      static_cast<double>(after.doorbells - before.doorbells);
  out.set("engine.doorbells_per_batch", doorbells / n);
  out.set("engine.chunks_per_batch", chunks / n);
  out.set("engine.doorbells_per_chunk", chunks > 0 ? doorbells / chunks : 0);
  out.set("engine.parks_per_batch",
          static_cast<double>(after.parks - before.parks) / n);
  out.set("engine.wakeups_per_batch",
          static_cast<double>(after.wakeups - before.wakeups) / n);
  out.set("engine.ring_full_stalls",
          static_cast<double>(after.ring_full_stalls - before.ring_full_stalls));
}

std::vector<SystemBatch> make_system_batches(
    TrafficSampler& sampler, const InternetDataset& dataset,
    const std::vector<AsNumber>& origins, const std::vector<AsNumber>& victims,
    std::size_t batches, std::size_t batch_size) {
  std::vector<SystemBatch> result(batches);
  Xoshiro256 rng(derive_seed(origins.front(), batches));
  for (std::size_t b = 0; b < batches; ++b) {
    SystemBatch& batch = result[b];
    batch.origin = origins[b % origins.size()];
    batch.packets.reserve(batch_size);
    for (std::size_t k = 0; k < batch_size; ++k) {
      // Half legitimate, a quarter d-DDoS, a quarter s-DDoS.
      const std::size_t kind = k % 4;
      while (true) {
        Ipv4Packet packet;
        if (kind < 2) {
          packet = sampler.legit_packet(batch.origin, sampler.sample_as());
        } else {
          SpoofFlow flow;
          flow.type = kind == 2 ? AttackType::kDirect : AttackType::kReflection;
          flow.agent = batch.origin;
          flow.victim = victims[rng.below(victims.size())];
          flow.innocent = sampler.sample_as();
          if (flow.victim == flow.agent || flow.innocent == flow.agent ||
              flow.innocent == flow.victim) {
            continue;
          }
          packet = sampler.attack_packet(flow);
        }
        // Only inter-AS packets cross a border (MOAS and self-draws can
        // land the destination inside the origin AS), and a legitimate
        // source must map back to its origin (a MOAS prefix can map it to a
        // co-owner, which makes it spoofed): redraw those.
        const AsNumber dst_as = dataset.origin_of(packet.header.dst);
        if (dst_as == kNoAs || dst_as == batch.origin) continue;
        if (kind < 2 && dataset.origin_of(packet.header.src) != batch.origin) {
          continue;
        }
        batch.packets.add(std::move(packet));
        batch.attack.push_back(kind >= 2);
        break;
      }
    }
  }
  return result;
}

void probe_facade(DiscsSystem& system, const std::vector<SystemBatch>& batches,
                  Outcome& out) {
  std::size_t packets = 0;
  std::size_t paths = 0;
  for (const SystemBatch& b : batches) {
    packets += b.packets.size();
    std::unordered_set<AsNumber> dsts;
    for (const BatchPacket& p : b.packets) {
      dsts.insert(system.dataset().origin_of(v4(p).header.dst));
    }
    paths += dsts.size();
  }
  out.set("system.paths_per_batch",
          static_cast<double>(paths) / static_cast<double>(batches.size()));

  // send_batch, one pass over every batch (copies made off the clock).
  double send_ns = 0;
  std::uint64_t attacks = 0, filtered = 0, legit = 0, legit_dropped = 0;
  for (const SystemBatch& b : batches) {
    PacketBatch work = b.packets;
    const auto t0 = Clock::now();
    const std::vector<DeliveryResult> results = system.send_batch(b.origin, work);
    send_ns += ns_between(t0, Clock::now());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const bool dropped = results[i].outcome == DeliveryOutcome::kDroppedAtSource ||
                           results[i].outcome == DeliveryOutcome::kDroppedAtDestination;
      if (b.attack[i]) {
        ++attacks;
        filtered += dropped ? 1 : 0;
      } else {
        ++legit;
        legit_dropped += dropped ? 1 : 0;
      }
    }
  }
  out.tally(legit, legit_dropped, "legitimate packet dropped by send_batch");
  out.set("system.send_batch_ns_per_pkt", send_ns / static_cast<double>(packets));
  out.set("outcome.spoof_filtered_frac",
          attacks == 0 ? 0 : static_cast<double>(filtered) /
                                 static_cast<double>(attacks));

  // The same batches straight through the source and destination engines:
  // partitioning (origin_of per packet) happens off the clock, so this is
  // the engine share of send_batch.
  double engine_ns = 0;
  const SimTime now = system.now();
  for (const SystemBatch& b : batches) {
    PacketBatch work = b.packets;
    std::vector<Verdict> verdicts(work.size());
    std::vector<std::uint32_t> out_idx;
    std::map<AsNumber, std::vector<std::uint32_t>> by_dst;
    for (std::uint32_t i = 0; i < work.size(); ++i) {
      out_idx.push_back(i);
      const AsNumber dst = system.dataset().origin_of(v4(work[i]).header.dst);
      if (system.controller(dst) != nullptr) by_dst[dst].push_back(i);
    }
    Controller* source = system.controller(b.origin);
    const auto t0 = Clock::now();
    if (source != nullptr) {
      source->engine().process_outbound(work.span(), out_idx, verdicts, now);
    }
    for (auto& [dst, idx] : by_dst) {
      std::erase_if(idx, [&](std::uint32_t i) { return is_drop(verdicts[i]); });
      system.controller(dst)->engine().process_inbound(work.span(), idx,
                                                       verdicts, now);
    }
    engine_ns += ns_between(t0, Clock::now());
  }
  out.set("system.engines_ns_per_pkt", engine_ns / static_cast<double>(packets));
  out.set("concon.send_ns",
          probe_concon_send_ns(system.channel(), system.loop(),
                               system.deployed_ases().front()));
}

double probe_concon_send_ns(ConConNetwork& channel, EventLoop& loop,
                            AsNumber from) {
  constexpr int kSends = 2000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSends; ++i) {
    channel.send(from, kProbeAs, DeliveryAck{});
  }
  const double ns = ns_between(t0, Clock::now()) / kSends;
  // Deliveries to an unattached AS are dropped; drain them now so the
  // world's later stepping does not pay for them.
  loop.run_until(loop.now() + kSecond);
  return ns;
}

RoundResult run_invocation_round(EventLoop& loop, const ConConNetwork& channel,
                                 const std::vector<Controller*>& victims,
                                 const std::vector<const Controller*>& peers,
                                 SimTime duration, SimTime horizon,
                                 StepBatcher* batcher, Tracer* tracer) {
  struct Pending {
    Ipv4Address addr;
    const Controller* peer;
    SimTime invoked_at;
  };
  const auto unit = [&](auto&& fn) {
    if (batcher != nullptr) return batcher->run(fn);
    const auto t0 = Clock::now();
    fn();
    return ns_between(t0, Clock::now());
  };
  RoundResult round;
  std::vector<Pending> pending;
  const std::uint64_t messages_before = channel.stats().messages;
  const auto wall0 = Clock::now();
  std::uint64_t group = 0;
  for (Controller* victim : victims) {
    const Prefix4 prefix = victim->local_prefixes().front();
    unit([&] {
      PERFBENCH_SPAN(tracer, "control.invoke", group++);
      (void)victim->invoke_ddos_defense(prefix, /*spoofed_source=*/false,
                                        duration);
    });
    for (const Controller* peer : peers) {
      if (peer == victim || !victim->is_peer(peer->as_number())) continue;
      pending.push_back({prefix.address(), peer, loop.now()});
      ++round.expected;
    }
  }
  const SimTime deadline = loop.now() + horizon;
  while (true) {
    const std::optional<SimTime> next = loop.next_event_time();
    if (!next || *next > deadline) break;
    round.step_ns += unit([&] {
      PERFBENCH_SPAN(tracer, "simkit.step", round.events);
      loop.step();
    });
    ++round.events;
    if (pending.empty()) continue;
    PERFBENCH_SPAN(tracer, "lpm.poll_out_dst", round.events);
    for (std::size_t i = 0; i < pending.size();) {
      const Pending& p = pending[i];
      if (p.peer->tables().out_dst.lookup(p.addr, loop.now()).functions != 0) {
        round.ttp_ms.push_back(static_cast<double>(loop.now() - p.invoked_at) /
                               kMillisecond);
        ++round.landed;
        pending[i] = pending.back();
        pending.pop_back();
      } else {
        ++i;
      }
    }
  }
  round.converge_s = seconds_since(wall0);
  round.messages = channel.stats().messages - messages_before;
  return round;
}

void check_round(const RoundResult& round,
                 const std::vector<const Controller*>& controllers,
                 Outcome& out) {
  out.tally(round.expected, round.expected - round.landed,
            "invocation never landed at a peer");
  std::uint64_t failing = 0;
  for (const Controller* c : controllers) {
    failing += c->link().stats().delivery_failures > 0 ? 1 : 0;
  }
  out.tally(controllers.size(), failing, "con-con delivery failure");
}

void report_control(const RoundResult& round, const ConConNetwork& channel,
                    const std::vector<const Controller*>& controllers,
                    Outcome& out) {
  out.set("control.converge_s", round.converge_s);
  out.set("control.ctrl_msgs_per_s",
          static_cast<double>(round.messages) / std::max(round.converge_s, 1e-9));
  out.set("control.ttp_p50_ms", quantile(round.ttp_ms, 0.5));
  out.set("control.ttp_p99_ms", quantile(round.ttp_ms, 0.99));
  out.set("eventloop.events", static_cast<double>(round.events));
  out.set("eventloop.ns_per_event",
          round.events == 0 ? 0 : round.step_ns / static_cast<double>(round.events));
  out.set("concon.messages", static_cast<double>(channel.stats().messages));
  out.set("concon.handshakes", static_cast<double>(channel.stats().handshakes));
  std::uint64_t retransmits = 0, failures = 0, applied = 0;
  for (const Controller* c : controllers) {
    retransmits += c->link().stats().retransmits;
    failures += c->link().stats().delivery_failures;
    applied += c->con_rou().stats().delivered;
  }
  out.set("reliable.retransmits", static_cast<double>(retransmits));
  out.set("reliable.delivery_failures", static_cast<double>(failures));
  out.set("con_rou.txns_applied", static_cast<double>(applied));
}

std::unique_ptr<DiscsSystem> make_facade_twin(InternetDataset dataset,
                                              const std::vector<AsNumber>& dases,
                                              std::uint64_t seed) {
  DiscsSystem::Config cfg;
  cfg.seed = seed;
  cfg.controller.engine.shards = 1;
  cfg.fault_plan.latency_jitter = 5 * kMillisecond;
  cfg.fault_plan.seed = derive_seed(seed, 0xfa);
  auto system = std::make_unique<DiscsSystem>(std::move(dataset), cfg);
  for (const AsNumber as : dases) system->deploy(as);
  system->settle();
  return system;
}

void probe_twin(const SyntheticConfig& internet, const std::vector<AsNumber>& dases,
                AsNumber victim, std::uint64_t seed, Outcome& out) {
  const auto twin = make_facade_twin(generate_dataset(internet), dases, seed);
  std::vector<const Controller*> all;
  for (const AsNumber as : dases) all.push_back(twin->controller(as));
  const RoundResult round = run_invocation_round(
      twin->loop(), twin->channel(), {twin->controller(victim)}, all, kHour,
      30 * kSecond, nullptr, nullptr);
  check_round(round, all, out);
  report_control(round, twin->channel(), all, out);
  std::vector<AsNumber> origins;
  for (const AsNumber as : dases) {
    if (as != victim) origins.push_back(as);
  }
  const auto batches = make_system_batches(twin->sampler(), twin->dataset(),
                                           origins, {victim}, 16, 64);
  probe_facade(*twin, batches, out);
}

}  // namespace perfbench

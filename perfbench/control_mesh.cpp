// control_mesh: bare Controllers over a lossy ConConNetwork, no data-plane
// traffic. Each schedule builds a fresh mesh and runs, stepping the
// EventLoop from here: full-mesh peering, one re-key round from every DAS,
// invocations from the largest victims until every peer's table shows the
// function, and the invocation windows' expiry. Closed loop, one client:
// a timed call is 64 consecutive units, a unit being one EventLoop step or
// one discover / rekey / invoke call made from here.
#include <cstdlib>

#include "probes.hpp"
#include "topology/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace discs;

namespace {

struct MeshSizes {
  std::size_t dases;
  std::size_t victims;
};

MeshSizes mesh_sizes(bool small) { return small ? MeshSizes{12, 2} : MeshSizes{96, 4}; }

constexpr SimTime kChannelLatency = 10 * kMillisecond;
/// No event due within this much simulated time: the mesh is quiescent.
constexpr SimTime kQuiet = 10 * kSecond;
constexpr SimTime kInvocation = 60 * kSecond;

struct Mesh {
  explicit Mesh(const SyntheticConfig& c)
      : internet(c), dataset(generate_dataset(c)), channel(loop, kChannelLatency) {}
  SyntheticConfig internet;
  InternetDataset dataset;
  EventLoop loop;
  ConConNetwork channel;
  std::vector<std::unique_ptr<Controller>> controllers;  // after loop/channel

  [[nodiscard]] Controller& of(AsNumber as) {
    for (auto& c : controllers) {
      if (c->as_number() == as) return *c;
    }
    std::abort();  // every AS of the dataset runs a controller
  }
};

std::unique_ptr<Mesh> make_mesh(std::uint64_t seed, const MeshSizes& s) {
  SyntheticConfig internet;
  internet.num_ases = s.dases;
  internet.num_prefixes = 10 * s.dases;
  internet.seed = kTopologySeed;
  auto mesh = std::make_unique<Mesh>(internet);
  FaultPlan plan;
  plan.drop_probability = 0.02;
  plan.duplicate_probability = 0.02;
  plan.latency_jitter = 2 * kMillisecond;
  plan.seed = derive_seed(seed, 32);
  mesh->channel.set_fault_plan(plan);
  for (const AsNumber as : mesh->dataset.as_numbers()) {
    ControllerConfig cfg;
    cfg.as = as;
    cfg.seed = derive_seed(seed, as);
    cfg.max_peering_delay = kSecond;
    cfg.engine.shards = 1;
    mesh->controllers.push_back(std::make_unique<Controller>(
        cfg, mesh->loop, mesh->channel, mesh->dataset));
  }
  return mesh;
}

/// EventLoop steps and control calls per timed call: single steps take a
/// few microseconds, so one call groups enough of them to time stably.
constexpr std::size_t kUnitsPerCall = 64;

/// Steps the loop, one unit per step, until no event is due within kQuiet
/// (or, with a deadline, until the next event lies past it).
void drive(Mesh& m, StepBatcher& batcher, Tracer* tracer,
           std::optional<SimTime> deadline = {}) {
  while (true) {
    const std::optional<SimTime> next = m.loop.next_event_time();
    if (!next || *next > deadline.value_or(m.loop.now() + kQuiet)) return;
    batcher.run([&] {
      PERFBENCH_SPAN(tracer, "simkit.step", 0);
      m.loop.step();
    });
  }
}

/// Runs one schedule on `m`, its units timed through `batcher` and its
/// oracle checks tallied into `out`. `before_drain` runs once every
/// invocation has landed, while the windows are still open.
template <typename BeforeDrain>
RoundResult run_schedule(Mesh& m, const MeshSizes& s, Fault fault,
                         StepBatcher& batcher, Tracer* tracer, Outcome& out,
                         BeforeDrain&& before_drain) {
  for (auto& b : m.controllers) {
    batcher.run([&] {
      PERFBENCH_SPAN(tracer, "control.discover", b->as_number());
      for (auto& a : m.controllers) {
        if (a != b) b->discover(a->advertisement());
      }
    });
  }
  drive(m, batcher, tracer);
  for (auto& c : m.controllers) {
    batcher.run([&] {
      PERFBENCH_SPAN(tracer, "control.rekey_all_peers", c->as_number());
      c->rekey_all_peers();
    });
  }
  drive(m, batcher, tracer);

  // Every pair peered, and each side's stamping key is the other's
  // verification key.
  std::uint64_t pairs = 0, bad_pairs = 0;
  for (std::size_t i = 0; i < m.controllers.size(); ++i) {
    for (std::size_t j = i + 1; j < m.controllers.size(); ++j) {
      const Controller& a = *m.controllers[i];
      const Controller& b = *m.controllers[j];
      ++pairs;
      const auto* ab_s = a.tables().key_s.find(b.as_number());
      const auto* ab_v = b.tables().key_v.find(a.as_number());
      const auto* ba_s = b.tables().key_s.find(a.as_number());
      const auto* ba_v = a.tables().key_v.find(b.as_number());
      const bool ok = a.is_peer(b.as_number()) && b.is_peer(a.as_number()) &&
                      ab_s && ab_v && ba_s && ba_v &&
                      ab_s->active == ab_v->active && ba_s->active == ba_v->active;
      bad_pairs += ok ? 0 : 1;
    }
  }
  out.tally(pairs, bad_pairs, "pair not peered with agreeing keys");

  const std::vector<AsNumber> by_space = m.dataset.ases_by_space_desc();
  std::vector<Controller*> victims;
  std::vector<const Controller*> peers;
  for (auto& c : m.controllers) peers.push_back(c.get());
  for (std::size_t v = 0; v < s.victims; ++v) victims.push_back(&m.of(by_space[v]));
  if (fault == Fault::kDetachPeerBeforeInvoke) {
    m.channel.detach(m.controllers.back()->as_number());
  }
  const SimTime invoked_at = m.loop.now();
  const RoundResult round = run_invocation_round(
      m.loop, m.channel, victims, peers, kInvocation, kQuiet, &batcher, tracer);
  check_round(round, peers, out);
  before_drain(m);

  // Windows drain: once the invocation expired, no peer still holds it.
  drive(m, batcher, tracer, invoked_at + kInvocation + kQuiet);
  std::uint64_t windows = 0, stuck = 0;
  for (const Controller* victim : victims) {
    const Ipv4Address addr = victim->local_prefixes().front().address();
    for (const Controller* peer : peers) {
      if (peer == victim) continue;
      ++windows;
      if (peer->tables().out_dst.lookup(addr, m.loop.now()).functions != 0 ||
          peer->tables().out_dst.window_count() != 0) {
        ++stuck;
      }
    }
  }
  out.tally(windows, stuck, "invocation window did not drain");
  return round;
}

/// Runs schedules on fresh meshes for `seconds` (at least one). The first
/// uses `first` (the set-up instance); the last mesh and its invocation
/// round are handed back through `last` / `last_round` when given.
template <typename BeforeDrain>
LoopStats mesh_loop(std::unique_ptr<Mesh> first, std::uint64_t seed,
                    const MeshSizes& s, Fault fault, double seconds,
                    Tracer* tracer, Outcome& out, BeforeDrain&& before_drain,
                    std::unique_ptr<Mesh>* last = nullptr,
                    RoundResult* last_round = nullptr) {
  LoopStats st;
  const auto begin = Clock::now();
  std::unique_ptr<Mesh> mesh = std::move(first);
  for (std::uint64_t n = 0; n == 0 || seconds_since(begin) < seconds; ++n) {
    if (mesh == nullptr) mesh = make_mesh(seed, s);
    StepBatcher batcher(st, mesh->channel, kUnitsPerCall);
    const RoundResult round =
        run_schedule(*mesh, s, fault, batcher, tracer, out, before_drain);
    batcher.flush();
    if (last_round != nullptr) *last_round = round;
    if (last != nullptr) *last = std::move(mesh);
    mesh.reset();
  }
  return st;
}

}  // namespace

Outcome run_control_mesh(const RunConfig& rc, Fault fault) {
  Outcome out;
  const MeshSizes s = mesh_sizes(rc.small);
  out.param("dases", s.dases);
  out.param("victims", s.victims);
  out.param("drop_pct", 2);
  out.param("duplicate_pct", 2);
  out.param("latency_ms", 10);
  out.param("jitter_ms", 2);

  std::unique_ptr<Mesh> first;
  const double setup_s = timed_setups(kSetupReps, [&](int i) {
    auto m = make_mesh(rc.seed, s);
    if (i == 0) first = std::move(m);
  });

  const auto no_probe = [](Mesh&) {};
  if (!rc.trace) {
    const LoopStats loop = mesh_loop(std::move(first), rc.seed, s, fault,
                                     rc.seconds, nullptr, out, no_probe);
    report_end_to_end(loop, setup_s, out);
    return out;
  }

  // Untraced schedules; the first also runs the data-plane probes while its
  // victims are protected, and the last leaves its mesh for the channel
  // probes.
  std::unique_ptr<Mesh> last;
  RoundResult round;
  bool probed = false;
  const auto probe = [&](Mesh& m) {
    if (probed) return;
    probed = true;
    const std::vector<AsNumber> by_space = m.dataset.ases_by_space_desc();
    Controller& victim = m.of(by_space[0]);
    Controller& stamper = m.of(by_space[s.victims]);
    DataplaneProbeInputs in;
    in.dataset = &m.dataset;
    in.out_engine = &stamper.engine();
    in.out_tables = &stamper.tables();
    in.out_as = stamper.as_number();
    in.in_engine = &victim.engine();
    in.in_tables = &victim.tables();
    in.in_as = victim.as_number();
    TrafficSampler sampler(m.dataset, derive_seed(rc.seed, 33));
    for (int i = 0; i < 4096; ++i) {
      in.outbound.emplace_back(sampler.legit_packet(in.out_as, in.in_as));
    }
    in.now = m.loop.now();
    in.seed = rc.seed;
    probe_dataplane(in, out);
  };
  const LoopStats untraced = mesh_loop(std::move(first), rc.seed, s, fault,
                                       rc.seconds / 2, nullptr, out, probe, &last,
                                       &round);
  Tracer tracer;
  const LoopStats traced = mesh_loop(nullptr, rc.seed, s, fault, rc.seconds / 2,
                                     &tracer, out, no_probe);
  report_traced_loops(untraced, traced, {&tracer}, rc.trace_path, out);
  report_worker_stats({}, {}, untraced.call_ns.size(), out);

  std::vector<const Controller*> all;
  for (auto& c : last->controllers) all.push_back(c.get());
  report_control(round, last->channel, all, out);
  out.set("concon.send_ns",
          probe_concon_send_ns(last->channel, last->loop,
                               last->controllers.front()->as_number()));

  const std::vector<AsNumber> dases = last->dataset.as_numbers();
  probe_twin(last->internet, dases, last->dataset.ases_by_space_desc().front(),
             rc.seed, out);
  return out;
}

}  // namespace perfbench

// discs_node: one DISCS controller as a standalone OS process, speaking
// the DCS2 wire format over real UDP sockets. N of these on loopback (or
// anywhere the endpoint map points) form a live multi-process control
// plane: they peer, exchange keys, re-key, and run invocation windows
// end-to-end over real packets — no simulated channel anywhere in the
// path. ReliableLink provides retransmission over the lossy socket, and
// the optional --loss shim injects deterministic drop at the transport so
// the repair machinery can be demonstrated on an otherwise perfect
// loopback.
//
//   discs_node --as 1 --peers peers.conf --rpki rpki.txt
//       [--rekey] [--invoke 10.1.0.0/16] [--window-ms 500]
//       [--expect-invocations K] [--loss P] [--loss-seed S]
//       [--peer-wait-s 10] [--linger-s 2] [--rto-ms 20] [--metrics FILE]
//       [--trace-shard FILE] [--scrape-port N]
//
// Observability: --trace-shard streams this node's distributed-tracing
// records to a JSONL shard (merge the run's shards with discs_trace_merge);
// --scrape-port serves GET /metrics (Prometheus text) on 127.0.0.1 from
// the same poll loop the protocol runs on. SIGTERM/SIGINT interrupt the
// choreography but still write the metrics JSON and flush the shard, so a
// killed or timed-out run leaves a verdict behind (exit stays nonzero).
//
// Choreography is barrier-free: every node discovers every other AS in
// the endpoint map at startup and waits (bounded) for full peering; then
// the flag-selected roles run — --rekey re-keys every peer, --invoke
// requests a DP+CDP window for a local prefix, --expect-invocations waits
// to be on the receiving end — and every node lingers to answer
// stragglers' retransmissions before writing its metrics JSON and exiting
// 0 only if its role completed with zero delivery failures.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "bgp/message.hpp"
#include "control/controller.hpp"
#include "simkit/realtime.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/scrape.hpp"
#include "telemetry/span.hpp"
#include "topology/dataset.hpp"
#include "transport/udp_transport.hpp"

namespace {

using namespace discs;

// Written by the signal handler, polled by every phase predicate (the
// driver re-evaluates predicates at least every 50ms, and a signal also
// interrupts the poll() nap directly).
volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

struct Options {
  AsNumber as = kNoAs;
  std::string peers_file;
  std::string rpki_file;
  std::string metrics_file;
  bool rekey = false;
  std::optional<Prefix4> invoke;
  std::uint64_t window_ms = 500;
  std::uint64_t expect_invocations = 0;
  double loss = 0.0;
  std::uint64_t loss_seed = 0x5eed;
  std::uint64_t peer_wait_s = 10;
  std::uint64_t linger_s = 2;
  std::uint64_t rto_ms = 20;
  std::string trace_shard;
  std::optional<std::uint16_t> scrape_port;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --as N --peers FILE --rpki FILE [--rekey]\n"
      "          [--invoke PREFIX] [--window-ms MS] [--expect-invocations K]\n"
      "          [--loss P] [--loss-seed S] [--peer-wait-s S] [--linger-s S]\n"
      "          [--rto-ms MS] [--metrics FILE] [--trace-shard FILE]\n"
      "          [--scrape-port N]\n",
      argv0);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--as") {
      opt.as = static_cast<AsNumber>(std::strtoul(need_value(i), nullptr, 0));
    } else if (arg == "--peers") {
      opt.peers_file = need_value(i);
    } else if (arg == "--rpki") {
      opt.rpki_file = need_value(i);
    } else if (arg == "--metrics") {
      opt.metrics_file = need_value(i);
    } else if (arg == "--rekey") {
      opt.rekey = true;
    } else if (arg == "--invoke") {
      const char* text = need_value(i);
      opt.invoke = Prefix4::parse(text);
      if (!opt.invoke) {
        std::fprintf(stderr, "discs_node: bad --invoke prefix '%s'\n", text);
        std::exit(2);
      }
    } else if (arg == "--window-ms") {
      opt.window_ms = std::strtoull(need_value(i), nullptr, 0);
    } else if (arg == "--expect-invocations") {
      opt.expect_invocations = std::strtoull(need_value(i), nullptr, 0);
    } else if (arg == "--loss") {
      opt.loss = std::strtod(need_value(i), nullptr);
    } else if (arg == "--loss-seed") {
      opt.loss_seed = std::strtoull(need_value(i), nullptr, 0);
    } else if (arg == "--peer-wait-s") {
      opt.peer_wait_s = std::strtoull(need_value(i), nullptr, 0);
    } else if (arg == "--linger-s") {
      opt.linger_s = std::strtoull(need_value(i), nullptr, 0);
    } else if (arg == "--rto-ms") {
      opt.rto_ms = std::strtoull(need_value(i), nullptr, 0);
    } else if (arg == "--trace-shard") {
      opt.trace_shard = need_value(i);
    } else if (arg == "--scrape-port") {
      opt.scrape_port =
          static_cast<std::uint16_t>(std::strtoul(need_value(i), nullptr, 0));
    } else {
      usage(argv[0]);
    }
  }
  if (opt.as == kNoAs || opt.peers_file.empty() || opt.rpki_file.empty()) {
    usage(argv[0]);
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);

  const auto dataset = InternetDataset::load_caida_file(opt.rpki_file);
  if (!dataset.ok()) {
    std::fprintf(stderr, "discs_node: %s\n",
                 dataset.error().to_string().c_str());
    return 2;
  }
  auto endpoints = load_endpoint_map_file(opt.peers_file);
  if (!endpoints.ok()) {
    std::fprintf(stderr, "discs_node: %s\n",
                 endpoints.error().to_string().c_str());
    return 2;
  }
  if (!endpoints->contains(opt.as)) {
    std::fprintf(stderr, "discs_node: --as %u not in %s\n", opt.as,
                 opt.peers_file.c_str());
    return 2;
  }

  // Declared before the transport and controller: both unbind their
  // collectors from the registry on destruction, so it must outlive them.
  telemetry::MetricsRegistry registry;
  telemetry::SpanTracer spans(opt.as);
  if (!opt.trace_shard.empty()) {
    if (!spans.open(opt.trace_shard)) {
      std::fprintf(stderr, "discs_node: cannot open trace shard %s\n",
                   opt.trace_shard.c_str());
      return 2;
    }
    spans.bind_metrics(registry, {{"as", std::to_string(opt.as)}});
  }

  EventLoop loop;
  RealtimeDriver driver(loop);
  UdpTransport transport(driver, *endpoints,
                         LossShim{opt.loss, opt.loss_seed});

  telemetry::ScrapeEndpoint scrape(driver, registry);
  if (opt.scrape_port) {
    if (!scrape.listen("127.0.0.1", *opt.scrape_port)) {
      std::fprintf(stderr, "discs_node: cannot listen on 127.0.0.1:%u\n",
                   static_cast<unsigned>(*opt.scrape_port));
      return 2;
    }
    std::fprintf(stderr, "discs_node[%u]: /metrics on 127.0.0.1:%u\n", opt.as,
                 static_cast<unsigned>(scrape.port()));
  }

  ControllerConfig config;
  config.as = opt.as;
  config.max_peering_delay = 50 * kMillisecond;  // wall-clock jitter
  config.reliability.initial_rto = opt.rto_ms * kMillisecond;
  config.reliability.max_rto = 20 * opt.rto_ms * kMillisecond;
  config.reliability.max_retries = 12;
  config.seed = opt.as * 1000 + 7;
  Controller controller(config, loop, transport, *dataset);

  controller.bind_metrics(registry);
  transport.bind_metrics(registry, {{"as", std::to_string(opt.as)}});
  if (spans.is_open()) controller.set_span_tracer(&spans);

  // Flush-on-signal choreography: phases abort, the verdict still lands.
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  // DAS discovery: the endpoint map doubles as the set of DISCS-Ads this
  // deployment would have flooded via BGP.
  for (const auto& [peer_as, ep] : transport.endpoints()) {
    if (peer_as == opt.as) continue;
    controller.discover(
        DiscsAd{peer_as, "controller.as" + std::to_string(peer_as)});
  }
  const std::size_t expected_peers = transport.endpoints().size() - 1;

  bool ok = true;
  auto phase = [&](const char* name, const std::function<bool()>& done,
                   SimTime timeout) {
    const bool reached = driver.run_until_cond(
        [&] { return g_signal != 0 || done(); }, timeout);
    if (g_signal != 0) {
      std::fprintf(stderr, "discs_node[%u]: %s INTERRUPTED (signal %d)\n",
                   opt.as, name, static_cast<int>(g_signal));
      ok = false;
      return false;
    }
    std::fprintf(stderr, "discs_node[%u]: %s %s at %.3fs\n", opt.as, name,
                 reached ? "done" : "TIMED OUT",
                 static_cast<double>(driver.elapsed()) / kSecond);
    ok = ok && reached;
    return reached;
  };

  // Phase 1: full-mesh peering (both directions keyed). Snapshot the count
  // at phase completion: peers that finish their role first tear down
  // their sessions while we linger, which is not a peering failure.
  phase("peering", [&] { return controller.peer_count() == expected_peers; },
        opt.peer_wait_s * kSecond);
  const std::size_t peers_established = controller.peer_count();

  // Phase 2 (optional): re-key every peer over the real socket.
  if (ok && opt.rekey) {
    const std::uint64_t before = controller.stats().rekeys_completed;
    controller.rekey_all_peers();
    phase("rekey",
          [&] {
            return controller.stats().rekeys_completed >=
                   before + expected_peers;
          },
          opt.peer_wait_s * kSecond);
  }

  // Phase 3 (optional): victim role — open one DP+CDP window on every
  // peer and hold until it expires everywhere we can observe (locally).
  if (ok && opt.invoke) {
    const std::size_t asked = controller.invoke_ddos_defense(
        VictimPrefix{*opt.invoke}, /*spoofed_source=*/false,
        opt.window_ms * kMillisecond);
    if (asked != expected_peers) {
      std::fprintf(stderr, "discs_node[%u]: invoked %zu of %zu peers\n",
                   opt.as, asked, expected_peers);
      ok = false;
    }
    phase("invocation window",
          [&] {
            return controller.tables().window_count() == 0 &&
                   controller.link().pending_count() == 0;
          },
          opt.peer_wait_s * kSecond + opt.window_ms * kMillisecond);
  }

  // Phase 3' (optional): peer role — wait to execute the victim's windows
  // and for them to expire again (deployed-then-expired, never orphaned).
  if (ok && opt.expect_invocations > 0) {
    phase("invocations received",
          [&] {
            return controller.stats().invocations_received >=
                   opt.expect_invocations;
          },
          opt.peer_wait_s * kSecond);
    phase(
        "windows expired",
        [&] { return controller.tables().window_count() == 0; },
        opt.peer_wait_s * kSecond + opt.window_ms * kMillisecond);
  }

  // Linger: answer peers still retransmitting toward us before vanishing
  // (skipped when signalled — the sender wants us gone now).
  if (g_signal == 0) driver.run_for(opt.linger_s * kSecond);

  const ReliabilityStats& rs = controller.link().stats();
  if (rs.delivery_failures != 0) {
    std::fprintf(stderr, "discs_node[%u]: %llu delivery failures\n", opt.as,
                 static_cast<unsigned long long>(rs.delivery_failures));
    ok = false;
  }

  // Node-level outcome gauges ride the same registry as the controller and
  // transport metrics, so one JSON document carries the whole verdict.
  registry.gauge("discs_node_ok").set(ok ? 1 : 0);
  registry.gauge("discs_node_peers")
      .set(static_cast<std::int64_t>(peers_established));
  registry.gauge("discs_node_expected_peers")
      .set(static_cast<std::int64_t>(expected_peers));
  registry.gauge("discs_node_residual_windows")
      .set(static_cast<std::int64_t>(controller.tables().window_count()));
  registry.gauge("discs_node_interrupted")
      .set(g_signal != 0 ? static_cast<std::int64_t>(g_signal) : 0);
  if (!opt.metrics_file.empty() &&
      !telemetry::write_metrics_json(registry, opt.metrics_file)) {
    ok = false;
  }
  spans.flush();

  controller.shutdown();
  std::fprintf(stderr, "discs_node[%u]: %s\n", opt.as,
               g_signal != 0 ? "INTERRUPTED" : (ok ? "OK" : "FAILED"));
  return ok ? 0 : 1;
}

// Event-order pin: a seeded 12-controller mesh over a lossy ConConNetwork
// runs peering -> re-key -> invoke -> window drain, and every counter the
// run produces is pinned to an exact golden. Under a fault plan the channel
// draws its drop/duplicate decisions from one RNG stream in send order, so
// any change to the order in which same-time events fire (event loop
// tie-break, delivery scheduling, retransmit-timer bookkeeping) moves the
// draws onto different messages and changes these numbers.
//
// The goldens were recorded on the event loop that kept a
// priority_queue<std::function> plus a tombstone hash set, before the
// slab/generation rewrite; the rewrite must reproduce them bit for bit.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "control/controller.hpp"
#include "control/secure_channel.hpp"
#include "simkit/event_loop.hpp"
#include "topology/synthetic.hpp"

namespace discs {
namespace {

constexpr SimTime kQuiet = 10 * kSecond;
constexpr SimTime kInvocation = 60 * kSecond;

struct PinnedMesh {
  PinnedMesh()
      : dataset(generate_dataset(internet())),
        channel(loop, 10 * kMillisecond) {
    FaultPlan plan;
    // No jitter: every copy rides the same fixed latency, so messages sent
    // from one handler (and a duplicate and its original) land at the same
    // microsecond and only the tie-break orders them.
    plan.drop_probability = 0.03;
    plan.duplicate_probability = 0.05;
    plan.seed = 0x0de7;
    channel.set_fault_plan(plan);
    for (const AsNumber as : dataset.as_numbers()) {
      ControllerConfig cfg;
      cfg.as = as;
      cfg.seed = as * 1000 + 7;
      cfg.max_peering_delay = kSecond;
      cfg.engine.shards = 1;
      controllers.push_back(
          std::make_unique<Controller>(cfg, loop, channel, dataset));
    }
  }

  static SyntheticConfig internet() {
    SyntheticConfig c;
    c.num_ases = 12;
    c.num_prefixes = 120;
    c.seed = 0x9e3779b9;
    return c;
  }

  /// Steps until no event is due within kQuiet, or past `deadline`.
  void drive(std::optional<SimTime> deadline = {}) {
    while (true) {
      const std::optional<SimTime> next = loop.next_event_time();
      if (!next || *next > deadline.value_or(loop.now() + kQuiet)) return;
      loop.step();
    }
  }

  Controller& of(AsNumber as) {
    for (auto& c : controllers) {
      if (c->as_number() == as) return *c;
    }
    ADD_FAILURE() << "no controller for AS " << as;
    return *controllers.front();
  }

  InternetDataset dataset;
  EventLoop loop;
  ConConNetwork channel;
  std::vector<std::unique_ptr<Controller>> controllers;  // after loop/channel
};

TEST(EventOrderPinTest, LossyMeshCountersMatchTheRecordedGoldens) {
  PinnedMesh m;
  for (auto& b : m.controllers) {
    for (auto& a : m.controllers) {
      if (a != b) b->discover(a->advertisement());
    }
  }
  m.drive();
  for (auto& c : m.controllers) c->rekey_all_peers();
  m.drive();

  std::size_t peered_pairs = 0;
  for (const auto& a : m.controllers) peered_pairs += a->peer_count();
  EXPECT_EQ(peered_pairs, 12u * 11u);

  const std::vector<AsNumber> by_space = m.dataset.ases_by_space_desc();
  const SimTime invoked_at = m.loop.now();
  for (std::size_t v = 0; v < 2; ++v) {
    Controller& victim = m.of(by_space[v]);
    (void)victim.invoke_ddos_defense(victim.local_prefixes().front(),
                                     /*spoofed_source=*/false, kInvocation);
  }
  m.drive(invoked_at + kInvocation + kQuiet);
  for (const auto& c : m.controllers) EXPECT_EQ(c->tables().window_count(), 0u);

  ReliabilityStats sum;
  for (const auto& c : m.controllers) {
    const ReliabilityStats& r = c->link().stats();
    sum.reliable_sends += r.reliable_sends;
    sum.retransmits += r.retransmits;
    sum.delivery_failures += r.delivery_failures;
    sum.acks_sent += r.acks_sent;
    sum.acks_received += r.acks_received;
    sum.duplicates_suppressed += r.duplicates_suppressed;
  }
  const ChannelStats& ch = m.channel.stats();
  const FaultStats& f = m.channel.fault_stats();

  EXPECT_EQ(ch.messages, 1754u);
  EXPECT_EQ(ch.bytes, 209759u);
  EXPECT_EQ(ch.handshakes, 66u);
  EXPECT_EQ(f.dropped, 61u);
  EXPECT_EQ(f.duplicated, 89u);
  EXPECT_EQ(sum.reliable_sends, 825u);
  EXPECT_EQ(sum.retransmits, 29u);
  EXPECT_EQ(sum.delivery_failures, 0u);
  EXPECT_EQ(sum.acks_sent, 878u);
  EXPECT_EQ(sum.acks_received, 880u);
  EXPECT_EQ(sum.duplicates_suppressed, 51u);
  EXPECT_EQ(m.loop.now(), 65502919u);
}

}  // namespace
}  // namespace discs

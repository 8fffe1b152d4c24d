// Chaos over the REAL transport: the same control-plane life cycle the
// simulated chaos suite pins (peer under loss, re-key across a partition,
// invoke and drain) must also converge when the messages are genuine UDP
// datagrams on loopback, with loss injected deterministically by the
// transport's send-side shim. The sim backend's runs are bit-identical by
// construction; over sockets the wall clock is real, so these trials
// assert convergence invariants instead: full peering and key agreement,
// zero delivery failures, retransmission bounded by the retry cap, no
// unsettled sends, and no orphaned function windows.
//
// Three controllers share one process and one UdpTransport (each attached
// to its own socket), driven by one RealtimeDriver — millisecond RTOs keep
// eight 30%-loss trials comfortably inside a CI time slice.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "control/controller.hpp"
#include "simkit/realtime.hpp"
#include "transport/udp_transport.hpp"

namespace discs {
namespace {

Prefix4 pfx(const char* t) { return *Prefix4::parse(t); }

constexpr int kMaxRetries = 12;

/// Three DASes (AS 1..3) on ephemeral loopback ports, 30% deterministic
/// send-side loss. Mirrors the simulated chaos template minus the legacy
/// AS (the socket path has no TLS cost model to exercise).
class UdpChaosWorld {
 public:
  explicit UdpChaosWorld(std::uint64_t loss_seed)
      : rpki_({{pfx("10.0.0.0/8"), {1}},
               {pfx("20.0.0.0/8"), {2}},
               {pfx("30.0.0.0/8"), {3}}}),
        driver_(loop_),
        transport_(driver_,
                   {{1, {"127.0.0.1", 0}},
                    {2, {"127.0.0.1", 0}},
                    {3, {"127.0.0.1", 0}}},
                   LossShim{0.3, loss_seed}) {
    for (AsNumber as : {1u, 2u, 3u}) {
      ControllerConfig config;
      config.as = as;
      config.seed = as * 1000 + 7;
      config.max_peering_delay = 10 * kMillisecond;
      // 30% loss per datagram: a 2 ms initial RTO with 12 transmissions
      // repairs any message within ~a second even on unlucky streaks.
      config.reliability.initial_rto = 2 * kMillisecond;
      config.reliability.max_rto = 50 * kMillisecond;
      config.reliability.max_retries = kMaxRetries;
      controllers_.push_back(
          std::make_unique<Controller>(config, loop_, transport_, rpki_));
    }
    for (auto& a : controllers_) {
      for (auto& b : controllers_) {
        if (a != b) a->discover(b->advertisement());
      }
    }
  }

  ~UdpChaosWorld() {
    for (auto& c : controllers_) c->shutdown();
  }

  Controller& as(AsNumber n) { return *controllers_[n - 1]; }
  const std::vector<std::unique_ptr<Controller>>& controllers() const {
    return controllers_;
  }
  RealtimeDriver& driver() { return driver_; }
  UdpTransport& transport() { return transport_; }

  /// Peered AND both key directions installed for every pair — peer_count
  /// alone can tick over while the reverse-direction KeyInstall is still
  /// in flight on the wire.
  [[nodiscard]] bool fully_peered() const {
    for (const auto& a : controllers_) {
      if (a->peer_count() != controllers_.size() - 1) return false;
      for (const auto& b : controllers_) {
        if (a == b) continue;
        if (!a->tables().key_s.has_key(b->as_number()) ||
            !a->tables().key_v.has_key(b->as_number())) {
          return false;
        }
      }
    }
    return true;
  }

  [[nodiscard]] bool quiescent() const {
    for (const auto& c : controllers_) {
      if (c->link().pending_count() != 0) return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t total_windows() const {
    std::size_t n = 0;
    for (const auto& c : controllers_) n += c->tables().window_count();
    return n;
  }

 private:
  InternetDataset rpki_;
  EventLoop loop_;
  RealtimeDriver driver_;
  UdpTransport transport_;
  std::vector<std::unique_ptr<Controller>> controllers_;
};

void expect_pair_key_consistent(Controller& a, Controller& b) {
  ASSERT_TRUE(a.is_peer(b.as_number()))
      << a.as_number() << " does not peer " << b.as_number();
  const auto* stamp = a.tables().key_s.find(b.as_number());
  const auto* verify = b.tables().key_v.find(a.as_number());
  ASSERT_NE(stamp, nullptr);
  ASSERT_NE(verify, nullptr);
  EXPECT_EQ(stamp->active, verify->active)
      << "key_{" << a.as_number() << "," << b.as_number() << "} diverged";
}

void run_udp_chaos_trial(std::uint64_t loss_seed) {
  UdpChaosWorld world(loss_seed);

  // Phase 1: peering converges through 30% real-datagram loss.
  ASSERT_TRUE(world.driver().run_until_cond(
      [&] { return world.fully_peered(); }, 20 * kSecond))
      << "peering never converged";
  for (auto& a : world.controllers()) {
    for (auto& b : world.controllers()) {
      if (a != b) expect_pair_key_consistent(*a, *b);
    }
  }

  // Phase 2: AS 1 re-keys everyone while its path to AS 2 is hard-blocked
  // at the shim — the socket analogue of a FaultPlan partition. The
  // KeyInstall toward AS 2 must survive on retransmissions until the
  // partition heals under the retry budget.
  world.transport().set_blocked(1, 2, true);
  const std::uint64_t before = world.as(1).stats().rekeys_completed;
  world.as(1).rekey_all_peers();
  world.driver().run_for(8 * kMillisecond);  // a few RTOs inside the outage
  world.transport().set_blocked(1, 2, false);
  ASSERT_TRUE(world.driver().run_until_cond(
      [&] { return world.as(1).stats().rekeys_completed >= before + 2; },
      20 * kSecond))
      << "re-key never completed across the partition";
  EXPECT_GT(world.transport().stats().shim_blocked, 0u)
      << "the partition never actually bit";
  for (auto& a : world.controllers()) {
    for (auto& b : world.controllers()) {
      if (a != b) expect_pair_key_consistent(*a, *b);
    }
  }

  // Phase 3: a short invocation window deploys on both peers and expires
  // everywhere — deployed-then-expired, never orphaned.
  ASSERT_EQ(world.as(1).invoke_ddos_defense(pfx("10.1.0.0/16"),
                                            /*spoofed_source=*/false,
                                            100 * kMillisecond),
            2u);
  ASSERT_TRUE(world.driver().run_until_cond(
      [&] {
        return world.as(2).stats().invocations_received >= 1 &&
               world.as(3).stats().invocations_received >= 1;
      },
      20 * kSecond))
      << "invocation never reached both peers";
  ASSERT_TRUE(world.driver().run_until_cond(
      [&] { return world.total_windows() == 0 && world.quiescent(); },
      20 * kSecond))
      << "windows or pending sends never drained";

  // Reliability invariants: the loss really bit, repair stayed within the
  // retry budget, and nothing was abandoned.
  EXPECT_GT(world.transport().stats().shim_dropped, 0u);
  for (const auto& c : world.controllers()) {
    const ReliabilityStats& rs = c->link().stats();
    EXPECT_EQ(rs.delivery_failures, 0u)
        << "AS " << c->as_number() << " abandoned a message";
    EXPECT_LE(rs.retransmits,
              rs.reliable_sends * static_cast<std::uint64_t>(kMaxRetries));
    EXPECT_EQ(c->link().pending_count(), 0u);
  }
  const ReliabilityStats& rs1 = world.as(1).link().stats();
  EXPECT_GT(rs1.retransmits + rs1.duplicates_suppressed, 0u)
      << "30% loss produced no observable repair work";
}

TEST(UdpChaosTest, ConvergesUnderRealDatagramLossAndPartition) {
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    run_udp_chaos_trial(derive_seed(0xdcb5, trial));
  }
}

TEST(UdpChaosTest, LosslessLoopbackConvergesWithoutRepairWork) {
  // Control: no shim loss at all. Loopback UDP essentially never drops,
  // so convergence should involve few (usually zero) retransmissions —
  // pinning that the chaos above is caused by the shim, not the backend.
  UdpChaosWorld world(/*loss_seed=*/1);
  world.transport().set_loss(LossShim{0.0, 1});
  ASSERT_TRUE(world.driver().run_until_cond(
      [&] { return world.fully_peered(); }, 20 * kSecond));
  for (const auto& c : world.controllers()) {
    EXPECT_EQ(c->link().stats().delivery_failures, 0u);
  }
  EXPECT_EQ(world.transport().stats().shim_dropped, 0u);
}

}  // namespace
}  // namespace discs

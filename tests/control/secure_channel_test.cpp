#include "control/secure_channel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "common/rng.hpp"

namespace discs {
namespace {

TEST(WireSizeTest, MatchesTheRealCodec) {
  EXPECT_EQ(wire_size(PeeringRequest{}), 24u);  // header only
  EXPECT_GT(wire_size(KeyInstall{}), wire_size(KeyInstallAck{}));
  InvocationRequest inv;
  inv.triples.resize(3);  // v4 triples: family+addr+len+functions+duration
  EXPECT_EQ(wire_size(inv) - wire_size(InvocationRequest{}), 3u * 15u);
  InvocationRequest inv6;
  inv6.triples.push_back({*Prefix6::parse("2400:1::/32"), 1, kHour});
  EXPECT_EQ(wire_size(inv6) - wire_size(InvocationRequest{}), 27u);
}

TEST(ConConNetworkTest, DeliversWithLatency) {
  EventLoop loop;
  ConConNetwork net(loop, 100 * kMillisecond);
  std::vector<Envelope> received;
  SimTime delivered_at = 0;
  net.attach(2, [&](const Envelope& e) {
    received.push_back(e);
    delivered_at = loop.now();
  });
  net.send(1, 2, PeeringRequest{});
  loop.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].from, 1u);
  EXPECT_EQ(received[0].to, 2u);
  // First contact pays the handshake latency on top of propagation.
  EXPECT_EQ(delivered_at, 100 * kMillisecond + 2 * kMillisecond);
}

TEST(ConConNetworkTest, UnattachedDestinationDropsSilently) {
  EventLoop loop;
  ConConNetwork net(loop);
  net.send(1, 99, PeeringRequest{});
  loop.run();  // no crash, message vanished
  EXPECT_EQ(net.stats().messages, 1u);
}

TEST(ConConNetworkTest, SessionCacheAvoidsRepeatedHandshakes) {
  EventLoop loop;
  ConConNetwork net(loop);
  net.attach(2, [](const Envelope&) {});
  for (int i = 0; i < 5; ++i) net.send(1, 2, PeeringRequest{});
  loop.run();
  EXPECT_EQ(net.stats().handshakes, 1u);
  EXPECT_EQ(net.stats().session_resumptions, 4u);
}

TEST(ConConNetworkTest, SessionExpiresAfterTtl) {
  EventLoop loop;
  ChannelCostModel cost;
  cost.session_ttl = 1 * kSecond;
  ConConNetwork net(loop, 10 * kMillisecond, cost);
  net.attach(2, [](const Envelope&) {});
  net.send(1, 2, PeeringRequest{});
  loop.run();
  loop.run_until(loop.now() + 2 * kSecond);
  net.send(1, 2, PeeringRequest{});
  loop.run();
  EXPECT_EQ(net.stats().handshakes, 2u);
}

TEST(ConConNetworkTest, SessionIsSharedBetweenDirections) {
  EventLoop loop;
  ConConNetwork net(loop);
  net.attach(1, [](const Envelope&) {});
  net.attach(2, [](const Envelope&) {});
  net.send(1, 2, PeeringRequest{});
  net.send(2, 1, PeeringAccept{});
  loop.run();
  EXPECT_EQ(net.stats().handshakes, 1u);
}

TEST(ConConNetworkTest, ByteAccountingIncludesOverheads) {
  EventLoop loop;
  ChannelCostModel cost;
  cost.record_overhead_bytes = 29;
  cost.handshake_bytes = 1500;
  ConConNetwork net(loop, 0, cost);
  net.attach(2, [](const Envelope&) {});
  net.send(1, 2, KeyInstall{});
  loop.run();
  EXPECT_EQ(net.stats().bytes, 1500u + wire_size(KeyInstall{}) + 29u);
}

TEST(ConConNetworkTest, SessionCacheStaysBoundedOverTime) {
  EventLoop loop;
  ChannelCostModel cost;
  cost.session_ttl = kSecond;
  ConConNetwork net(loop, 0, cost);
  net.attach(1, [](const Envelope&) {});
  // A churn of short-lived pairs: each second a different peer talks to
  // AS 1, and dead sessions get swept instead of accumulating forever.
  for (AsNumber as = 2; as <= 101; ++as) {
    net.send(as, 1, PeeringRequest{});
    loop.run_until(loop.now() + kSecond);
  }
  loop.run();
  EXPECT_GT(net.stats().sessions_expired, 90u);
  EXPECT_LE(net.session_cache_size(), 10u);
  EXPECT_LE(net.live_sessions(loop.now()), net.session_cache_size());
}

TEST(ConConNetworkTest, CertainDropDeliversNothing) {
  EventLoop loop;
  ConConNetwork net(loop);
  std::size_t received = 0;
  net.attach(2, [&](const Envelope&) { ++received; });
  FaultPlan plan;
  plan.drop_probability = 1.0;
  net.set_fault_plan(plan);
  for (int k = 0; k < 20; ++k) net.send(1, 2, PeeringRequest{});
  loop.run();
  EXPECT_EQ(received, 0u);
  EXPECT_EQ(net.fault_stats().dropped, 20u);
  EXPECT_EQ(net.stats().messages, 20u);  // cost accounting is send-side
}

TEST(ConConNetworkTest, CertainDuplicationDeliversTwoCopies) {
  EventLoop loop;
  ConConNetwork net(loop);
  std::size_t received = 0;
  net.attach(2, [&](const Envelope&) { ++received; });
  FaultPlan plan;
  plan.duplicate_probability = 1.0;
  net.set_fault_plan(plan);
  net.send(1, 2, PeeringRequest{});
  loop.run();
  EXPECT_EQ(received, 2u);
  EXPECT_EQ(net.fault_stats().duplicated, 1u);
  EXPECT_EQ(net.stats().messages, 1u);  // the duplicate is the fault's doing
}

TEST(ConConNetworkTest, PartitionBlocksBothDirectionsWithinWindow) {
  EventLoop loop;
  ConConNetwork net(loop);
  std::size_t received = 0;
  net.attach(1, [&](const Envelope&) { ++received; });
  net.attach(2, [&](const Envelope&) { ++received; });
  FaultPlan plan;
  plan.partitions = {{1, 2, kSecond, 3 * kSecond}};
  net.set_fault_plan(plan);

  net.send(1, 2, PeeringRequest{});  // t=0: before the window, flows
  loop.run_until(2 * kSecond);
  net.send(1, 2, PeeringRequest{});  // t=2s: inside, both directions cut
  net.send(2, 1, PeeringRequest{});
  loop.run_until(4 * kSecond);
  net.send(2, 1, PeeringRequest{});  // t=4s: healed
  loop.run();

  EXPECT_EQ(received, 2u);
  EXPECT_EQ(net.fault_stats().partition_drops, 2u);
}

TEST(ConConNetworkTest, SameSeedReplaysTheSameFaultSchedule) {
  const auto run_once = [] {
    EventLoop loop;
    ConConNetwork net(loop);
    std::vector<SimTime> deliveries;
    net.attach(2, [&](const Envelope&) { deliveries.push_back(loop.now()); });
    FaultPlan plan;
    plan.drop_probability = 0.3;
    plan.duplicate_probability = 0.2;
    plan.latency_jitter = 30 * kMillisecond;
    plan.reorder_window = 20 * kMillisecond;
    plan.seed = 1234;
    net.set_fault_plan(plan);
    for (int k = 0; k < 50; ++k) net.send(1, 2, PeeringRequest{});
    loop.run();
    return std::make_pair(deliveries, net.fault_stats());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_TRUE(a.second == b.second);
  EXPECT_GT(a.second.dropped, 0u);
  EXPECT_GT(a.second.duplicated, 0u);
}

TEST(ConConNetworkTest, TracksPeakConcurrentSessions) {
  EventLoop loop;
  ConConNetwork net(loop);
  for (AsNumber as = 2; as <= 6; ++as) net.attach(as, [](const Envelope&) {});
  for (AsNumber as = 2; as <= 6; ++as) net.send(1, as, PeeringRequest{});
  loop.run();
  EXPECT_EQ(net.stats().peak_concurrent_sessions, 5u);
  EXPECT_EQ(net.live_sessions(loop.now()), 5u);
}

// Sessions expire between sends, some after the periodic sweep already ran
// (so dead entries still sit in the cache), one expired pair comes back
// before it is swept, and one resumption pushes a session past the expiry
// of its first handshake. The peak must count live sessions only, exactly.
TEST(ConConNetworkTest, PeakCountsOnlyLiveSessionsAcrossExpiries) {
  EventLoop loop;
  ChannelCostModel cost;
  cost.session_ttl = kSecond;
  ConConNetwork net(loop, 0, cost);
  const auto send_at = [&](SimTime t, AsNumber to) {
    loop.run_until(t);
    net.send(1, to, PeeringRequest{});
  };
  const auto ms = [](SimTime n) { return n * kMillisecond; };

  send_at(0, 2);
  send_at(0, 3);
  EXPECT_EQ(net.stats().peak_concurrent_sessions, 2u);
  send_at(ms(500), 4);
  EXPECT_EQ(net.stats().peak_concurrent_sessions, 3u);
  send_at(ms(1200), 5);  // 2 and 3 expired at 1 s (and are swept now)
  EXPECT_EQ(net.live_sessions(loop.now()), 2u);
  EXPECT_EQ(net.stats().peak_concurrent_sessions, 3u);
  send_at(ms(1600), 6);  // 4 expired at 1.5 s; the next sweep is at 2.2 s
  send_at(ms(1600), 7);
  EXPECT_EQ(net.live_sessions(loop.now()), 3u);
  EXPECT_EQ(net.session_cache_size(), 4u);
  EXPECT_EQ(net.stats().peak_concurrent_sessions, 3u);
  send_at(ms(1700), 4);  // expired, not yet swept: a fresh handshake
  EXPECT_EQ(net.stats().peak_concurrent_sessions, 4u);
  send_at(ms(2000), 5);  // resumption: 5 now lives until 3.0 s, not 2.2 s
  send_at(ms(2500), 8);
  EXPECT_EQ(net.live_sessions(loop.now()), 5u);
  EXPECT_EQ(net.stats().peak_concurrent_sessions, 5u);
  send_at(ms(2650), 9);  // 6 and 7 expired at 2.6 s, unswept until 3.5 s
  EXPECT_EQ(net.live_sessions(loop.now()), 4u);
  EXPECT_EQ(net.session_cache_size(), 6u);
  EXPECT_EQ(net.stats().peak_concurrent_sessions, 5u);

  EXPECT_EQ(net.stats().handshakes, 9u);
  EXPECT_EQ(net.stats().session_resumptions, 1u);
  EXPECT_EQ(net.stats().sessions_expired, 2u);
}

// Seeded sends over 55 pairs whose times cross many TTLs: a hot set of
// pairs keeps resuming while the rest mostly expire between visits. After
// every send the channel must agree with a brute-force model that scans
// every pair's expiry.
TEST(ConConNetworkTest, PeakMatchesBruteForceOracleOnRandomSends) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    EventLoop loop;
    ChannelCostModel cost;
    cost.session_ttl = kSecond;
    ConConNetwork net(loop, 10 * kMillisecond, cost);
    Xoshiro256 rng(seed);
    std::map<std::pair<AsNumber, AsNumber>, SimTime> expiry;
    std::size_t peak = 0;
    std::uint64_t handshakes = 0;
    for (int k = 0; k < 3000; ++k) {
      if (!rng.chance(0.2)) {
        loop.run_until(loop.now() + rng.below(cost.session_ttl / 10));
      }
      const AsNumber span = rng.chance(0.5) ? 4 : 11;  // hot set: ASes 1-4
      const AsNumber a = 1 + static_cast<AsNumber>(rng.below(span));
      AsNumber b = 1 + static_cast<AsNumber>(rng.below(span - 1));
      if (b >= a) ++b;
      const SimTime now = loop.now();
      net.send(a, b, PeeringRequest{});

      SimTime& e = expiry[{std::min(a, b), std::max(a, b)}];
      if (e <= now) ++handshakes;
      e = now + cost.session_ttl;
      const auto live = static_cast<std::size_t>(
          std::count_if(expiry.begin(), expiry.end(),
                        [now](const auto& kv) { return kv.second > now; }));
      peak = std::max(peak, live);
      ASSERT_EQ(net.live_sessions(now), live) << "seed " << seed << " send " << k;
      ASSERT_EQ(net.stats().peak_concurrent_sessions, peak)
          << "seed " << seed << " send " << k;
    }
    EXPECT_EQ(net.stats().handshakes, handshakes);
    EXPECT_EQ(net.stats().session_resumptions, 3000u - handshakes);
    EXPECT_GT(loop.now(), 20 * cost.session_ttl);
    EXPECT_GT(handshakes, 500u);
    EXPECT_GT(3000u - handshakes, 500u);
  }
}

}  // namespace
}  // namespace discs

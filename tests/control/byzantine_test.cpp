// Byzantine-peer fuzz: a malicious or broken controller sprays arbitrary
// control messages at a DAS. Invariants:
//   * the victim controller never crashes;
//   * no defense function is ever installed for a prefix the sender does
//     not own (the §IV-E3 ownership check holds under fuzz);
//   * keys are only accepted from established peers;
//   * alarm/drop transitions only honor peers.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "control/controller.hpp"

namespace discs {
namespace {

Prefix4 pfx(const char* t) { return *Prefix4::parse(t); }
Ipv4Address ip(const char* t) { return *Ipv4Address::parse(t); }

class ByzantineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ByzantineFuzz, RandomMessageStormViolatesNoInvariant) {
  Xoshiro256 rng(GetParam());
  const InternetDataset rpki({
      {pfx("10.0.0.0/8"), {1}},   // the defender
      {pfx("20.0.0.0/8"), {2}},   // a legitimate peer
      {pfx("30.0.0.0/8"), {666}}, // the attacker-controlled DAS
      {pfx("40.0.0.0/8"), {4}},   // a bystander LAS
  });
  EventLoop loop;
  ConConNetwork net(loop, kMillisecond);

  ControllerConfig c1_cfg;
  c1_cfg.as = 1;
  c1_cfg.seed = 11;
  c1_cfg.max_peering_delay = 0;
  Controller defender(c1_cfg, loop, net, rpki);
  ControllerConfig c2_cfg;
  c2_cfg.as = 2;
  c2_cfg.seed = 22;
  c2_cfg.max_peering_delay = 0;
  Controller peer(c2_cfg, loop, net, rpki);

  // Legitimate peering between 1 and 2; AS 666 also becomes a peer (DISCS
  // peers under open policy — the ownership check is the backstop).
  ControllerConfig evil_cfg;
  evil_cfg.as = 666;
  evil_cfg.seed = 66;
  evil_cfg.max_peering_delay = 0;
  Controller evil(evil_cfg, loop, net, rpki);
  for (Controller* a : {&defender, &peer, &evil}) {
    for (Controller* b : {&defender, &peer, &evil}) {
      if (a != b) b->discover(a->advertisement());
    }
  }
  loop.run();
  ASSERT_TRUE(defender.is_peer(2));
  ASSERT_TRUE(defender.is_peer(666));
  const Key128 legit_key = defender.tables().key_v.find(2)->active;

  // The attacker now sprays 2000 random messages, many malformed or
  // unauthorized: invocations for other ASes' prefixes, keys with random
  // serials, teardowns, alarm quits, rejects...
  auto random_prefix = [&]() -> Prefix4 {
    const std::uint32_t bases[] = {0x0a000000, 0x14000000, 0x1e000000,
                                   0x28000000};
    return Prefix4(Ipv4Address(bases[rng.below(4)] |
                               (static_cast<std::uint32_t>(rng.next()) & 0xffff00)),
                   8 + static_cast<unsigned>(rng.below(17)));
  };
  for (int k = 0; k < 2000; ++k) {
    ControlMessage msg;
    switch (rng.below(8)) {
      case 0: msg = PeeringRequest{}; break;
      case 1: msg = PeeringAccept{}; break;
      case 2: msg = PeeringReject{"chaos"}; break;
      case 3:
        msg = KeyInstall{derive_key128(rng.next()), rng.next(),
                         rng.chance(0.5)};
        break;
      case 4: msg = KeyInstallAck{rng.next()}; break;
      case 5: {
        InvocationRequest inv;
        inv.alarm_mode = rng.chance(0.3);
        const std::size_t triples = 1 + rng.below(4);
        for (std::size_t t = 0; t < triples; ++t) {
          inv.triples.push_back({random_prefix(),
                                 static_cast<InvokableSet>(rng.below(16)),
                                 rng.below(kHour)});
        }
        msg = std::move(inv);
        break;
      }
      case 6: msg = AlarmQuit{}; break;
      case 7: msg = PeeringTeardown{"bye"}; break;
    }
    net.send(666, 1, std::move(msg));
    if (k % 64 == 0) loop.run();
  }
  loop.run();

  // Invariant 1: functions may exist ONLY for prefixes AS 666 owns (30/8).
  const SimTime now = loop.now();
  for (const char* addr : {"10.1.2.3", "20.1.2.3", "40.1.2.3"}) {
    EXPECT_EQ(defender.tables().out_dst.lookup(ip(addr), now).functions, 0)
        << addr;
    EXPECT_EQ(defender.tables().out_src.lookup(ip(addr), now).functions, 0)
        << addr;
    EXPECT_EQ(defender.tables().in_src.lookup(ip(addr), now).functions, 0)
        << addr;
    EXPECT_EQ(defender.tables().in_dst.lookup(ip(addr), now).functions, 0)
        << addr;
  }

  // Invariant 2: the legitimate peer's verification key is intact (random
  // KeyInstalls only ever touched the sender's own slot, and only while
  // peered).
  if (defender.is_peer(2)) {
    ASSERT_NE(defender.tables().key_v.find(2), nullptr);
    EXPECT_EQ(defender.tables().key_v.find(2)->active, legit_key);
  }

  // Invariant 3: the defender's own packets still flow to its peer.
  // (Control-plane chaos must not poison the data plane for bystanders.)
  // One-packet batch through the defender's engine, its only data plane.
  PacketBatch batch;
  batch.add(Ipv4Packet::make(ip("10.0.0.1"), ip("20.0.0.1"), IpProto::kUdp,
                             {1, 2, 3}));
  EXPECT_EQ(defender.engine().process_outbound(batch, now)[0], Verdict::kPass);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByzantineFuzz, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace discs

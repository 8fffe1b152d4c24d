// TableTransaction semantics: batched atomic application, epoch stamping,
// duration-relative windows, the sealed-tables writer discipline, and the
// prepare/commit split (a differential oracle after every commit, and the
// engine's writer-lock hold against its off-lock prepare), and the Pfx2AS's
// copy-on-write: a shared snapshot is never written, a sole owner is.
#include "dataplane/transaction.hpp"

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "crypto/cmac.hpp"
#include "dataplane/engine.hpp"

namespace discs {
namespace {

Prefix4 pfx(const char* t) { return *Prefix4::parse(t); }
Ipv4Address ip(const char* t) { return *Ipv4Address::parse(t); }

TEST(TableTransactionTest, AppliesAllOpsAtomicallyAndBumpsEpochOnce) {
  RouterTables tables;
  EXPECT_EQ(tables.applied_epoch(), 0u);

  TableTransaction txn;
  txn.map_prefix(pfx("10.0.0.0/8"), 100)
      .set_stamp_key(200, derive_key128(1))
      .set_verify_key(200, derive_key128(2))
      .install_function(FunctionDirection::kOutDst, AnyPrefix(pfx("10.1.0.0/16")),
                        DefenseFunction::kDp, kHour);
  EXPECT_EQ(txn.size(), 4u);
  EXPECT_FALSE(txn.empty());

  const TableEpoch epoch = txn.apply(tables, 5 * kSecond);
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(tables.applied_epoch(), 1u);

  EXPECT_EQ(tables.pfx2as.lookup(ip("10.9.9.9")), 100u);
  EXPECT_TRUE(tables.key_s.has_key(200));
  EXPECT_TRUE(tables.key_v.has_key(200));
  // Duration-relative window resolves against apply-time `now`.
  EXPECT_NE(tables.out_dst.lookup(ip("10.1.0.1"), 5 * kSecond + kMinute).functions,
            0);
  EXPECT_EQ(tables.out_dst.lookup(ip("10.1.0.1"), 5 * kSecond + 2 * kHour).functions,
            0);
}

TEST(TableTransactionTest, EpochIsMonotonicAcrossTransactions) {
  RouterTables tables;
  for (TableEpoch expected = 1; expected <= 5; ++expected) {
    TableTransaction txn;
    txn.set_stamp_key(expected, derive_key128(expected));
    EXPECT_EQ(txn.apply(tables, 0), expected);
  }
  EXPECT_EQ(tables.applied_epoch(), 5u);
  // Even an empty transaction is an observable table generation.
  EXPECT_EQ(TableTransaction{}.apply(tables, 0), 6u);
}

TEST(TableTransactionTest, RekeyOpsKeepAndDropGraceKey) {
  RouterTables tables;
  const Key128 old_key = derive_key128(7);
  const Key128 new_key = derive_key128(8);

  TableTransaction install;
  install.set_verify_key(300, old_key);
  install.apply(tables, 0);

  TableTransaction rekey;
  rekey.set_verify_key(300, new_key, /*retain_previous=*/true);
  rekey.apply(tables, kSecond);
  ASSERT_NE(tables.key_v.find(300), nullptr);
  EXPECT_EQ(tables.key_v.find(300)->active, new_key);
  ASSERT_TRUE(tables.key_v.find(300)->previous.has_value());
  EXPECT_EQ(*tables.key_v.find(300)->previous, old_key);

  TableTransaction finish;
  finish.finish_rekey(300);
  finish.apply(tables, 3 * kSecond);
  EXPECT_FALSE(tables.key_v.find(300)->previous.has_value());
}

TEST(TableTransactionTest, ErasePeerAndClearKeysHitBothTables) {
  RouterTables tables;
  TableTransaction setup;
  setup.set_stamp_key(1, derive_key128(1))
      .set_verify_key(1, derive_key128(2))
      .set_stamp_key(2, derive_key128(3))
      .set_verify_key(2, derive_key128(4));
  setup.apply(tables, 0);

  TableTransaction erase;
  erase.erase_peer(1);
  erase.apply(tables, 0);
  EXPECT_FALSE(tables.key_s.has_key(1));
  EXPECT_FALSE(tables.key_v.has_key(1));
  EXPECT_TRUE(tables.key_s.has_key(2));

  TableTransaction wipe;
  wipe.clear_keys();
  wipe.apply(tables, 0);
  EXPECT_EQ(tables.key_s.size(), 0u);
  EXPECT_EQ(tables.key_v.size(), 0u);
}

TEST(TableTransactionTest, ExpireFunctionsRemovesLapsedWindows) {
  RouterTables tables;
  TableTransaction install;
  install
      .install_function_window(FunctionDirection::kInDst,
                               AnyPrefix(pfx("10.0.0.0/8")),
                               DefenseFunction::kCdpVerify, 0, kMinute)
      .install_function_window(FunctionDirection::kInDst,
                               AnyPrefix(pfx("20.0.0.0/8")),
                               DefenseFunction::kCdpVerify, 0, kHour);
  install.apply(tables, 0);
  EXPECT_EQ(tables.in_dst.window_count(), 2u);

  TableTransaction sweep;
  sweep.expire_functions();
  sweep.apply(tables, 2 * kMinute);
  EXPECT_EQ(tables.in_dst.window_count(), 1u);  // only the kHour window left
}

TEST(TableTransactionTest, MaxRelativeEndAndInstallIntrospection) {
  TableTransaction txn;
  EXPECT_EQ(txn.max_relative_end(), 0u);
  EXPECT_FALSE(txn.installs_functions());

  txn.install_function(FunctionDirection::kInSrc, AnyPrefix(pfx("10.0.0.0/8")),
                       DefenseFunction::kCspVerify, kMinute);
  txn.install_function(FunctionDirection::kOutSrc, AnyPrefix(pfx("10.0.0.0/8")),
                       DefenseFunction::kCspStamp, kHour);
  // Absolute windows don't contribute: their expiry is the caller's problem.
  txn.install_function_window(FunctionDirection::kOutDst,
                              AnyPrefix(pfx("10.0.0.0/8")), DefenseFunction::kDp,
                              0, 10 * kHour);
  EXPECT_EQ(txn.max_relative_end(), kHour);
  EXPECT_TRUE(txn.installs_functions());
}

TEST(TableTransactionTest, Ipv6PrefixesRouteToTheRightTables) {
  RouterTables tables;
  const Prefix6 p6 = *Prefix6::parse("2001:db8::/32");
  TableTransaction txn;
  txn.map_prefix(p6, 900).install_function(
      FunctionDirection::kInDst, AnyPrefix(p6), DefenseFunction::kCdpVerify,
      kHour);
  txn.apply(tables, 0);
  const Ipv6Address addr = *Ipv6Address::parse("2001:db8::1");
  EXPECT_EQ(tables.pfx2as.lookup(addr), 900u);
  EXPECT_NE(tables.in_dst.lookup(addr, kMinute).functions, 0);
}

TEST(TableTransactionTest, SealedTablesStillAcceptTransactions) {
  RouterTables tables;
  tables.seal();
  ASSERT_TRUE(tables.sealed());
  TableTransaction txn;
  txn.set_stamp_key(7, derive_key128(7));
  EXPECT_EQ(txn.apply(tables, 0), 1u);
  EXPECT_TRUE(tables.key_s.has_key(7));
}

using TableWriteGuardDeathTest = ::testing::Test;

TEST(TableWriteGuardDeathTest, DirectWriteToSealedTablesAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  RouterTables tables;
  tables.seal();
  EXPECT_DEATH(tables.key_s.set_key(1, derive_key128(1)), "sealed");
  EXPECT_DEATH(tables.pfx2as.add(pfx("10.0.0.0/8"), 1), "sealed");
  EXPECT_DEATH(
      tables.in_dst.install(pfx("10.0.0.0/8"), DefenseFunction::kCdpVerify, 0,
                            kHour),
      "sealed");
  EXPECT_DEATH(tables.in_dst.expire(0), "sealed");
}

TEST(TableWriteGuardDeathTest, UnsealedTablesMutateFreely) {
  RouterTables tables;  // test fixtures and benches rely on this
  tables.key_s.set_key(1, derive_key128(1));
  tables.pfx2as.add(pfx("10.0.0.0/8"), 1);
  tables.in_dst.install(pfx("10.0.0.0/8"), DefenseFunction::kCdpVerify, 0, kHour);
  EXPECT_TRUE(tables.key_s.has_key(1));
}

TEST(TableTransactionTest, EngineAppliesTransactionUnderWriterLock) {
  RouterTables tables;
  tables.pfx2as.add(pfx("10.0.0.0/8"), 100);
  tables.seal();
  DataPlaneEngine engine(tables, 100);

  TableTransaction txn;
  txn.install_function(FunctionDirection::kOutDst, AnyPrefix(pfx("10.0.0.0/8")),
                       DefenseFunction::kDp, kHour);
  const TableEpoch epoch = engine.apply(txn, kSecond);
  EXPECT_EQ(epoch, tables.applied_epoch());

  // The installed function is live for batches immediately after apply.
  PacketBatch batch;
  batch.add(Ipv4Packet::make(ip("20.0.0.1"), ip("10.0.0.5"), IpProto::kUdp, {}));
  const auto verdicts = engine.process_outbound(batch, kSecond + kMinute);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0], Verdict::kDropFiltered);  // src not local under kDp
}

// ------------------------------------------------ prepare/commit oracle

/// At this many v4 prefixes the compiled Pfx2AS table takes the DIR-24-8
/// shape (a 2^24-slot root), the one whose rebuild prepare moves off-lock.
constexpr std::uint32_t kDir24Prefixes = 1u << 16;

Prefix4 dense24(std::uint32_t i) {
  return Prefix4(Ipv4Address((10u << 24) + (i << 8)), 24);
}

Prefix4 random_prefix4(Xoshiro256& rng, unsigned min_len) {
  const auto len = static_cast<unsigned>(min_len + rng.below(33 - min_len));
  return Prefix4(Ipv4Address(static_cast<std::uint32_t>(rng.next())), len);
}

/// Under 2001:db8::/32 with few distinct groups, so prefixes nest.
Ipv6Address random_addr6(Xoshiro256& rng) {
  auto group = [&] { return static_cast<std::uint16_t>(rng.below(4) << 14); };
  return Ipv6Address::from_groups({0x2001, 0xdb8, group(), group(), 0, 0,
                                   static_cast<std::uint16_t>(rng.next()),
                                   static_cast<std::uint16_t>(rng.next())});
}

Prefix6 random_prefix6(Xoshiro256& rng) {
  return Prefix6(random_addr6(rng), static_cast<unsigned>(32 + rng.below(97)));
}

Ipv4Address inside(const Prefix4& p, Xoshiro256& rng) {
  const std::uint32_t host = p.length() >= 32 ? 0u : ~0u >> p.length();
  return Ipv4Address(p.address().bits() |
                     (static_cast<std::uint32_t>(rng.next()) & host));
}

Ipv6Address inside(const Prefix6& p, Xoshiro256& rng) {
  std::array<std::uint8_t, 16> bytes = p.address().bytes();
  for (unsigned bit = p.length(); bit < 128; ++bit) {
    if (rng.below(2) != 0) {
      bytes[bit / 8] |= static_cast<std::uint8_t>(0x80u >> (bit % 8));
    }
  }
  return Ipv6Address(bytes);
}

constexpr DefenseFunction kAllFunctions[] = {
    DefenseFunction::kDp,        DefenseFunction::kCdpStamp,
    DefenseFunction::kCdpVerify, DefenseFunction::kSp,
    DefenseFunction::kCspStamp,  DefenseFunction::kCspVerify};

/// The first lookup on which `sealed` and its never-sealed `twin` disagree
/// (Pfx2AS or any of the four function tables), or "" when none does.
template <typename Address>
std::string first_mismatch(const RouterTables& sealed, const RouterTables& twin,
                           const Address& addr, SimTime now) {
  std::ostringstream out;
  if (sealed.pfx2as.lookup(addr) != twin.pfx2as.lookup(addr)) {
    out << "pfx2as " << addr.to_string() << ": sealed "
        << sealed.pfx2as.lookup(addr) << " trie " << twin.pfx2as.lookup(addr);
    return out.str();
  }
  const std::pair<const FunctionTable*, const FunctionTable*> tables[] = {
      {&sealed.in_src, &twin.in_src},
      {&sealed.in_dst, &twin.in_dst},
      {&sealed.out_src, &twin.out_src},
      {&sealed.out_dst, &twin.out_dst}};
  for (std::size_t t = 0; t < 4; ++t) {
    const FunctionMatch a = tables[t].first->lookup(addr, now);
    const FunctionMatch b = tables[t].second->lookup(addr, now);
    if (a.functions != b.functions || a.erase_only != b.erase_only) {
      out << "function table " << t << " " << addr.to_string() << ": sealed "
          << int{a.functions} << "/" << a.erase_only << " trie "
          << int{b.functions} << "/" << b.erase_only;
      return out.str();
    }
  }
  return {};
}

/// Sealed DIR-24 tables take a seeded stream of transactions — new
/// prefixes, origin changes, re-asserts, new and existing function
/// prefixes, expiries — through prepare/commit, beside an unsealed twin
/// that takes the same stream on the trie path. After every commit the two
/// must agree on every touched address and on 4k random ones.
TEST(TableTransactionTest, PreparedCommitsMatchTheTriePathAfterEveryTxn) {
  Xoshiro256 rng(20151);
  RouterTables sealed;
  RouterTables twin;
  std::vector<std::pair<Prefix4, AsNumber>> known4;
  std::vector<std::pair<Prefix6, AsNumber>> known6;
  std::vector<AnyPrefix> known_functions[4];
  auto direction = [](std::size_t d) {
    return static_cast<FunctionDirection>(d);
  };

  // Setup: a dense DIR-24 Pfx2AS core plus random nesting prefixes of both
  // families, and a few function prefixes in every table.
  for (std::uint32_t i = 0; i < kDir24Prefixes + 512; ++i) {
    known4.emplace_back(dense24(i), 1000 + i % 512);
  }
  for (int i = 0; i < 2000; ++i) {
    known4.emplace_back(random_prefix4(rng, 8), 2000 + rng.below(64));
  }
  for (int i = 0; i < 400; ++i) {
    known6.emplace_back(random_prefix6(rng), 3000 + rng.below(64));
  }
  TableTransaction setup;
  for (const auto& [p, as] : known4) setup.map_prefix(p, as);
  for (const auto& [p, as] : known6) setup.map_prefix(p, as);
  for (std::size_t d = 0; d < 4; ++d) {
    for (int i = 0; i < 24; ++i) {
      const AnyPrefix p = i % 4 == 0 ? AnyPrefix(random_prefix6(rng))
                                     : AnyPrefix(random_prefix4(rng, 6));
      setup.install_function_window(direction(d), p,
                                    kAllFunctions[rng.below(6)], 0,
                                    kMinute * (1 + rng.below(30)));
      known_functions[d].push_back(p);
    }
  }
  setup.apply(sealed, 0);
  setup.apply(twin, 0);
  sealed.seal();
  ASSERT_GE(sealed.pfx2as.compiled_memory_bytes(),
            (std::size_t{1} << 24) * sizeof(std::uint32_t))
      << "the sealed Pfx2AS table must take the DIR-24-8 shape";

  SimTime now = 0;
  for (int step = 0; step < 32; ++step) {
    now += kMinute;
    TableTransaction txn;
    std::vector<AnyPrefix> touched;
    const std::size_t ops = 1 + rng.below(8);
    for (std::size_t o = 0; o < ops; ++o) {
      switch (rng.below(8)) {
        case 0: {  // new Pfx2AS prefix, v4 or v6
          if (rng.below(3) == 0) {
            known6.emplace_back(random_prefix6(rng), 4000 + rng.below(64));
            txn.map_prefix(known6.back().first, known6.back().second);
            touched.emplace_back(known6.back().first);
          } else {
            known4.emplace_back(random_prefix4(rng, 8), 4000 + rng.below(64));
            txn.map_prefix(known4.back().first, known4.back().second);
            touched.emplace_back(known4.back().first);
          }
          break;
        }
        case 1: {  // origin change of an existing prefix, v4 or v6
          if (rng.below(3) == 0) {
            auto& [p, as] = known6[rng.below(known6.size())];
            as = 5000 + rng.below(64);
            txn.map_prefix(p, as);
            touched.emplace_back(p);
          } else {
            auto& [p, as] = known4[rng.below(known4.size())];
            as = 5000 + rng.below(64);
            txn.map_prefix(p, as);
            touched.emplace_back(p);
          }
          break;
        }
        case 2: {  // re-assert an origin, then overwrite it in the same txn
          const auto& [p, as] = known4[rng.below(known4.size())];
          txn.map_prefix(p, as);
          txn.map_prefix(p, 6000);
          txn.map_prefix(p, as);
          touched.emplace_back(p);
          break;
        }
        case 3:
        case 4: {  // new function prefix, sometimes installed twice
          const std::size_t d = rng.below(4);
          const AnyPrefix p = rng.below(4) == 0
                                  ? AnyPrefix(random_prefix6(rng))
                                  : AnyPrefix(random_prefix4(rng, 6));
          const DefenseFunction f = kAllFunctions[rng.below(6)];
          txn.install_function(direction(d), p, f,
                               kMinute * (1 + rng.below(20)));
          if (rng.below(2) == 0) {
            txn.install_function_window(direction(d), p,
                                        kAllFunctions[rng.below(6)], now,
                                        now + kHour);
          }
          known_functions[d].push_back(p);
          touched.push_back(p);
          break;
        }
        case 5: {  // new window on an existing function prefix
          const std::size_t d = rng.below(4);
          const AnyPrefix& p =
              known_functions[d][rng.below(known_functions[d].size())];
          txn.install_function_window(direction(d), p,
                                      kAllFunctions[rng.below(6)],
                                      now - kMinute, now + 10 * kMinute);
          touched.push_back(p);
          break;
        }
        case 6:
          txn.expire_functions();
          break;
        case 7:
          txn.set_stamp_key(static_cast<AsNumber>(rng.below(8)),
                            derive_key128(rng.next()));
          break;
      }
    }
    ASSERT_EQ(txn.apply(sealed, now), txn.apply(twin, now));
    ASSERT_TRUE(sealed.pfx2as.compiled() && sealed.in_src.compiled() &&
                sealed.in_dst.compiled() && sealed.out_src.compiled() &&
                sealed.out_dst.compiled())
        << "step " << step << ": a commit left a sealed table uncompiled";
    ASSERT_EQ(sealed.window_count(), twin.window_count()) << "step " << step;

    for (const AnyPrefix& prefix : touched) {
      const std::string diff = std::visit(
          [&](const auto& p) {
            const std::string at_base =
                first_mismatch(sealed, twin, p.address(), now);
            return at_base.empty()
                       ? first_mismatch(sealed, twin, inside(p, rng), now)
                       : at_base;
          },
          prefix);
      ASSERT_TRUE(diff.empty()) << "step " << step << ": " << diff;
    }
    for (int i = 0; i < 4096; ++i) {
      const Ipv4Address addr4(static_cast<std::uint32_t>(rng.next()));
      const std::string diff =
          i % 4 == 0 ? first_mismatch(sealed, twin, random_addr6(rng), now)
                     : first_mismatch(sealed, twin, addr4, now);
      ASSERT_TRUE(diff.empty()) << "step " << step << ": " << diff;
    }
  }
}

/// True when `prepared` carries no compiled form for any table.
bool prepared_nothing(const TableTransaction::Prepared& prepared) {
  bool none = !prepared.pfx2as.v4 && !prepared.pfx2as.v6;
  for (const FunctionTable::Next& next : prepared.functions) {
    none = none && !next.v4 && !next.v6;
  }
  return none;
}

/// Both key tables agree with the twin's for `peer` (keys and grace keys).
void expect_same_keys(const RouterTables& sealed, const RouterTables& twin,
                      AsNumber peer) {
  const std::pair<const KeyTable*, const KeyTable*> tables[] = {
      {&sealed.key_s, &twin.key_s}, {&sealed.key_v, &twin.key_v}};
  for (const auto& [a, b] : tables) {
    const KeyTable::Entry* ea = a->find(peer);
    const KeyTable::Entry* eb = b->find(peer);
    ASSERT_EQ(ea == nullptr, eb == nullptr) << "peer " << peer;
    if (ea == nullptr) continue;
    EXPECT_EQ(ea->active, eb->active) << "peer " << peer;
    EXPECT_EQ(ea->previous, eb->previous) << "peer " << peer;
  }
}

/// The con-rou traffic of a settled mesh — key installs, re-key finishes,
/// peer erasures, key wipes, expiry sweeps — changes no prefix structure,
/// so on sealed tables its prepare builds nothing, and its commit leaves
/// the same lookups as the never-sealed twin. One map_prefix or one new
/// function prefix is enough to make prepare build again.
TEST(TableTransactionTest, KeyOnlyTransactionsPrepareNoForm) {
  Xoshiro256 rng(23);
  RouterTables sealed(2 * kSecond);
  RouterTables twin(2 * kSecond);
  TableTransaction setup;
  for (int i = 0; i < 256; ++i) {
    setup.map_prefix(random_prefix4(rng, 8), 100 + rng.below(16));
  }
  for (std::size_t d = 0; d < 4; ++d) {
    setup.install_function_window(static_cast<FunctionDirection>(d),
                                  AnyPrefix(random_prefix4(rng, 8)),
                                  kAllFunctions[d], 0, kMinute * (d + 1));
  }
  for (AsNumber peer = 1; peer <= 4; ++peer) {
    setup.set_stamp_key(peer, derive_key128(peer))
        .set_verify_key(peer, derive_key128(peer + 100));
  }
  setup.apply(sealed, 0);
  setup.apply(twin, 0);
  sealed.seal();

  std::vector<TableTransaction> key_only(6);
  key_only[0].set_stamp_key(5, derive_key128(5))
      .set_verify_key(5, derive_key128(6));
  key_only[1].set_stamp_key(1, derive_key128(11), /*retain_previous=*/true);
  key_only[2].finish_rekey(1, /*stamping=*/true);
  key_only[3].erase_peer(2);
  key_only[4].expire_functions();
  key_only[5].clear_keys();
  SimTime now = 0;
  for (std::size_t t = 0; t < key_only.size(); ++t) {
    now += kMinute;
    TableTransaction::Prepared prepared = key_only[t].prepare(sealed);
    EXPECT_TRUE(prepared_nothing(prepared)) << "transaction " << t;
    ASSERT_EQ(key_only[t].commit(sealed, std::move(prepared), now),
              key_only[t].apply(twin, now));
    EXPECT_EQ(sealed.window_count(), twin.window_count()) << "txn " << t;
    for (AsNumber peer = 1; peer <= 5; ++peer) {
      expect_same_keys(sealed, twin, peer);
    }
    for (int i = 0; i < 1024; ++i) {
      const Ipv4Address addr(static_cast<std::uint32_t>(rng.next()));
      const std::string diff = first_mismatch(sealed, twin, addr, now);
      ASSERT_TRUE(diff.empty()) << "transaction " << t << ": " << diff;
    }
  }

  TableTransaction map;
  map.set_stamp_key(7, derive_key128(7)).map_prefix(pfx("198.51.100.0/24"), 7);
  EXPECT_TRUE(map.prepare(sealed).pfx2as.v4.has_value());
  TableTransaction install;
  install.set_verify_key(7, derive_key128(8))
      .install_function(FunctionDirection::kOutDst,
                        AnyPrefix(pfx("203.0.113.0/24")), DefenseFunction::kDp,
                        kMinute);
  const auto d = static_cast<std::size_t>(FunctionDirection::kOutDst);
  EXPECT_TRUE(install.prepare(sealed).functions[d].v4.has_value());
}

/// The engine's apply() builds a 64-op Pfx2AS refresh of a DIR-24 table
/// off-lock, so its writer-lock hold is a small fraction of its prepare.
TEST(TableTransactionTest, EngineHoldsTheWriterLockOnlyToCommit) {
  RouterTables tables;
  for (std::uint32_t i = 0; i < kDir24Prefixes; ++i) {
    tables.pfx2as.add(dense24(i), 1000 + i % 64);
  }
  tables.seal();
  telemetry::MetricsRegistry registry;  // outlives the engine bound to it
  EngineConfig config;
  config.shards = 1;
  DataPlaneEngine engine(tables, 1000, config);
  engine.bind_metrics(registry);

  TableTransaction txn;
  for (std::uint32_t i = 0; i < 64; ++i) txn.map_prefix(dense24(i * 997), 7);
  engine.apply(txn, kSecond);
  EXPECT_EQ(tables.pfx2as.lookup(dense24(997).address()), 7u);

  const telemetry::Histogram::Snapshot prepare =
      registry.histogram("discs_engine_apply_prepare_seconds", {}).snapshot();
  const telemetry::Histogram::Snapshot hold =
      registry.histogram("discs_engine_apply_lock_hold_seconds", {}).snapshot();
  ASSERT_EQ(prepare.count, 1u);
  ASSERT_EQ(hold.count, 1u);
  EXPECT_GT(prepare.sum, 0.0);
  EXPECT_LT(hold.sum, prepare.sum / 10)
      << "lock hold " << hold.sum << " s vs prepare " << prepare.sum << " s";
}

Ipv6Address ip6(const char* t) { return *Ipv6Address::parse(t); }

/// 10/8 and 2001:db8::/32 -> AS 100, compiled the way a world's snapshot is.
Pfx2AsSnapshot small_snapshot() {
  Lpm4<AsNumber> v4;
  v4.insert(pfx("10.0.0.0/8"), 100);
  Lpm6<AsNumber> v6;
  v6.insert(*Prefix6::parse("2001:db8::/32"), 100);
  return Pfx2AsTable::compile_snapshot(std::move(v4), std::move(v6));
}

/// The snapshot still maps exactly what small_snapshot() put in it.
void expect_snapshot_intact(const Pfx2AsData& data) {
  EXPECT_EQ(data.v4.size(), 1u);
  EXPECT_EQ(data.v4.lookup(ip("10.1.2.3")).value_or(kNoAs), 100u);
  EXPECT_EQ(data.c4.lookup_or(ip("10.1.2.3"), kNoAs), 100u);
  EXPECT_EQ(data.c6.lookup_or(ip6("2001:db8::1"), kNoAs), 100u);
}

TEST(Pfx2AsCopyOnWriteTest, MapPrefixOnSharedDataCommitsAPrivateSuccessor) {
  const Pfx2AsSnapshot snapshot = small_snapshot();
  RouterTables a;
  RouterTables b;
  a.pfx2as.adopt(snapshot);
  b.pfx2as.adopt(snapshot);
  a.seal();
  b.seal();
  // Sealing compiles nothing: both tables still read the snapshot itself.
  ASSERT_EQ(a.pfx2as.data(), snapshot.get());
  ASSERT_EQ(b.pfx2as.data(), snapshot.get());

  TableTransaction txn;
  txn.map_prefix(pfx("10.1.0.0/16"), 7);
  TableTransaction::Prepared prepared = txn.prepare(a);
  ASSERT_TRUE(prepared.pfx2as.successor);
  EXPECT_FALSE(prepared.pfx2as.v4 || prepared.pfx2as.v6);
  txn.commit(a, std::move(prepared), 0);
  // After the swap the retired pointer is what the prepared value holds.
  EXPECT_EQ(prepared.pfx2as.successor.get(), snapshot.get());

  EXPECT_NE(a.pfx2as.data(), snapshot.get());
  EXPECT_EQ(a.pfx2as.lookup(ip("10.1.2.3")), 7u);
  EXPECT_EQ(a.pfx2as.lookup(ip("10.2.0.1")), 100u);
  EXPECT_EQ(a.pfx2as.lookup(ip6("2001:db8::1")), 100u);  // family kept
  EXPECT_EQ(b.pfx2as.data(), snapshot.get());
  EXPECT_EQ(b.pfx2as.lookup(ip("10.1.2.3")), 100u);
  expect_snapshot_intact(*snapshot);

  // The successor is a's alone: the next map_prefix edits it in place.
  const Pfx2AsData* successor = a.pfx2as.data();
  TableTransaction again;
  again.map_prefix(pfx("10.2.0.0/16"), 8);
  again.apply(a, 0);
  EXPECT_EQ(a.pfx2as.data(), successor);
  EXPECT_EQ(a.pfx2as.lookup(ip("10.2.0.1")), 8u);
}

TEST(Pfx2AsCopyOnWriteTest, DirectAddToSharedDataCopiesFirst) {
  const Pfx2AsSnapshot snapshot = small_snapshot();
  Pfx2AsTable table;  // unsealed: adds mutate directly
  table.adopt(snapshot);
  table.add(pfx("10.1.0.0/16"), 7);
  EXPECT_NE(table.data(), snapshot.get());
  EXPECT_EQ(table.lookup(ip("10.1.2.3")), 7u);
  EXPECT_EQ(table.lookup(ip("10.2.0.1")), 100u);
  expect_snapshot_intact(*snapshot);
}

/// A sealed table that holds the only reference to its data commits a
/// map_prefix in place — the path every fixture and a standalone engine
/// take — with no trie clone: its data pointer never moves.
TEST(Pfx2AsCopyOnWriteTest, SoleOwnerCommitsInPlace) {
  RouterTables tables;
  tables.pfx2as.add(pfx("10.0.0.0/8"), 100);
  tables.seal();
  const Pfx2AsData* data = tables.pfx2as.data();

  TableTransaction txn;
  txn.map_prefix(pfx("10.1.0.0/16"), 7);
  TableTransaction::Prepared prepared = txn.prepare(tables);
  EXPECT_FALSE(prepared.pfx2as.successor);
  EXPECT_TRUE(prepared.pfx2as.v4.has_value());
  txn.commit(tables, std::move(prepared), 0);
  EXPECT_EQ(tables.pfx2as.data(), data);
  EXPECT_EQ(tables.pfx2as.lookup(ip("10.1.2.3")), 7u);

  DataPlaneEngine engine(tables, 100);
  TableTransaction through_engine;
  through_engine.map_prefix(pfx("10.2.0.0/16"), 8);
  engine.apply(through_engine, kSecond);
  EXPECT_EQ(tables.pfx2as.data(), data);
  EXPECT_EQ(tables.pfx2as.lookup(ip("10.2.0.1")), 8u);
}

}  // namespace
}  // namespace discs

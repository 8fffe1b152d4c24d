// One Pfx2AS per world: every DAS's tables read the dataset's compiled
// snapshot (the same pointer, not an equal copy), and a map_prefix applied
// to one DAS's engine gives that DAS a private successor while every other
// reader — the other DASes, the dataset and the facade's resolver — keeps
// the old origin.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/discs_system.hpp"

namespace discs {
namespace {

DiscsSystem::Config small_world() {
  DiscsSystem::Config cfg;
  cfg.internet.num_ases = 48;
  cfg.internet.num_prefixes = 480;
  cfg.internet.seed = 7;
  cfg.controller.engine.shards = 1;
  return cfg;
}

TEST(Pfx2AsSharingTest, EveryControllerOfASystemReadsTheDatasetSnapshot) {
  DiscsSystem system(small_world());
  const std::vector<AsNumber> order = system.dataset().ases_by_space_desc();
  for (std::size_t i = 0; i < 6; ++i) system.deploy(order[i]);
  system.settle();

  const std::shared_ptr<const Pfx2AsData> snapshot =
      system.dataset().pfx2as_snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_TRUE(snapshot->compiled);
  for (const AsNumber as : system.deployed_ases()) {
    const Pfx2AsTable& table = system.controller(as)->tables().pfx2as;
    EXPECT_EQ(table.data(), snapshot.get()) << "AS " << as;
  }
  // The snapshot is built once: a second request returns the same data.
  EXPECT_EQ(system.dataset().pfx2as_snapshot(), snapshot);
}

TEST(Pfx2AsSharingTest, BareControllerMeshSharesOneSnapshot) {
  const InternetDataset dataset = generate_dataset(small_world().internet);
  EventLoop loop;
  ConConNetwork channel(loop, 10 * kMillisecond);
  std::vector<std::unique_ptr<Controller>> controllers;
  for (std::size_t i = 0; i < 4; ++i) {
    ControllerConfig cfg;
    cfg.as = dataset.as_numbers()[i];
    cfg.seed = 100 + i;
    cfg.engine.shards = 1;
    controllers.push_back(
        std::make_unique<Controller>(cfg, loop, channel, dataset));
  }
  const Pfx2AsData* snapshot = dataset.pfx2as_snapshot().get();
  for (const auto& controller : controllers) {
    EXPECT_EQ(controller->tables().pfx2as.data(), snapshot);
    // No bootstrap transaction: the tables are sealed at epoch 0.
    EXPECT_TRUE(controller->tables().sealed());
    EXPECT_EQ(controller->tables().applied_epoch(), 0u);
  }
}

TEST(Pfx2AsSharingTest, MapPrefixThroughOneEngineChangesOnlyThatDas) {
  DiscsSystem system(small_world());
  const InternetDataset& dataset = system.dataset();
  const std::vector<AsNumber> order = dataset.ases_by_space_desc();
  Controller& changed = system.deploy(order[0]);
  Controller& other = system.deploy(order[1]);
  system.settle();

  // Remap one prefix of a third AS, in each family, to an AS that does not
  // originate it.
  const AsNumber owner = order[2];
  const Prefix4 prefix = dataset.prefixes_of(owner).front();
  ASSERT_FALSE(dataset.prefixes6_of(owner).empty());
  const Prefix6 prefix6 = dataset.prefixes6_of(owner).front();
  const Ipv4Address addr = prefix.address();
  const Ipv6Address addr6 = prefix6.address();
  ASSERT_EQ(dataset.origin_of(addr), owner);
  ASSERT_EQ(dataset.origin_of(addr6), owner);
  const AsNumber hijacker = order[3];

  const Pfx2AsData* snapshot = dataset.pfx2as_snapshot().get();
  TableTransaction txn;
  txn.map_prefix(prefix, hijacker).map_prefix(prefix6, hijacker);
  changed.engine().apply(txn, system.now());

  const Pfx2AsTable& mine = changed.tables().pfx2as;
  EXPECT_NE(mine.data(), snapshot);
  EXPECT_EQ(mine.lookup(addr), hijacker);
  EXPECT_EQ(mine.lookup(addr6), hijacker);

  const Pfx2AsTable& theirs = other.tables().pfx2as;
  EXPECT_EQ(theirs.data(), snapshot);
  EXPECT_EQ(theirs.lookup(addr), owner);
  EXPECT_EQ(theirs.lookup(addr6), owner);
  EXPECT_EQ(dataset.origin_of(addr), owner);
  EXPECT_EQ(dataset.origin_of(addr6), owner);
  EXPECT_EQ(system.origin_of(addr), owner);
  EXPECT_EQ(system.origin_of(addr6), owner);

  // A DAS deployed afterwards still adopts the untouched snapshot.
  Controller& late = system.deploy(order[4]);
  EXPECT_EQ(late.tables().pfx2as.data(), snapshot);
  EXPECT_EQ(late.tables().pfx2as.lookup(addr), owner);
}

}  // namespace
}  // namespace discs

// Randomized stress for the event loop: interleaved schedules and cancels
// must preserve the (time, insertion-order) execution invariant exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "simkit/event_loop.hpp"

namespace discs {
namespace {

class EventLoopStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventLoopStress, ExecutionOrderMatchesSpecification) {
  Xoshiro256 rng(GetParam());
  EventLoop loop;

  struct Expected {
    SimTime when;
    std::uint64_t seq;  // global schedule order
    int tag;
  };
  std::vector<Expected> expected;
  std::vector<int> executed;
  std::map<int, std::uint64_t> ids;
  std::uint64_t seq = 0;

  for (int tag = 0; tag < 500; ++tag) {
    const SimTime when = rng.below(100);
    ids[tag] = loop.schedule_at(when, [&executed, tag] { executed.push_back(tag); });
    expected.push_back({when, seq++, tag});
  }
  // Cancel a random 30%.
  std::vector<int> cancelled;
  for (int tag = 0; tag < 500; ++tag) {
    if (rng.chance(0.3)) {
      EXPECT_TRUE(loop.cancel(ids[tag]));
      cancelled.push_back(tag);
    }
  }
  loop.run();

  std::erase_if(expected, [&](const Expected& e) {
    return std::find(cancelled.begin(), cancelled.end(), e.tag) != cancelled.end();
  });
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Expected& a, const Expected& b) {
                     if (a.when != b.when) return a.when < b.when;
                     return a.seq < b.seq;
                   });
  ASSERT_EQ(executed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(executed[i], expected[i].tag) << i;
  }
  // All cancels of already-run events must now fail.
  for (const auto& [tag, id] : ids) EXPECT_FALSE(loop.cancel(id));
}

TEST_P(EventLoopStress, NestedSchedulingUnderRandomLoad) {
  Xoshiro256 rng(GetParam() ^ 0xbeef);
  EventLoop loop;
  int executions = 0;
  SimTime last_time = 0;
  std::function<void(int)> spawn = [&](int depth) {
    ++executions;
    EXPECT_GE(loop.now(), last_time);  // time is monotone
    last_time = loop.now();
    if (depth <= 0) return;
    const std::size_t children = rng.below(3);
    for (std::size_t c = 0; c < children; ++c) {
      loop.schedule(rng.below(50), [&spawn, depth] { spawn(depth - 1); });
    }
  };
  for (int root = 0; root < 50; ++root) {
    loop.schedule(rng.below(1000), [&spawn] { spawn(4); });
  }
  loop.run();
  EXPECT_GE(executions, 50);
  EXPECT_EQ(loop.pending(), 0u);
}

// ~90% of events are cancelled, many from inside other events' callbacks,
// so tombstones keep outnumbering live entries and the heap compacts over
// and over. A reference queue (an ordered map keyed by (when, seq)) runs in
// lockstep: every fired event must be its minimum, every cancel must
// return exactly whether the event was still in it (stale ids of events
// that ran or were cancelled, their slots long reused, must return false),
// and pending() must equal its size after every operation.
TEST_P(EventLoopStress, HeavyCancellationFromCallbacksMatchesTheOracle) {
  using Key = std::pair<SimTime, std::uint64_t>;  // (when, schedule order)
  Xoshiro256 rng(GetParam() ^ 0x90);
  EventLoop loop;
  std::map<Key, std::size_t> oracle;  // -> tag
  std::vector<std::uint64_t> id_of;   // by tag
  std::vector<std::optional<Key>> key_of;  // by tag; nullopt once gone
  std::vector<std::size_t> doomed;    // tags to cancel later
  std::uint64_t seq = 0;
  std::size_t fired = 0, cancelled = 0;
  constexpr std::size_t kBudget = 20000;

  std::function<void(std::size_t)> fire;
  const auto spawn = [&](SimTime delay) {
    const std::size_t tag = id_of.size();
    const Key key{loop.now() + delay, seq++};
    id_of.push_back(loop.schedule(delay, [&fire, tag] { fire(tag); }));
    key_of.push_back(key);
    oracle.emplace(key, tag);
    if (rng.chance(0.9)) doomed.push_back(tag);
  };
  const auto cancel_tag = [&](std::size_t tag) {
    const bool live = key_of[tag].has_value();
    EXPECT_EQ(loop.cancel(id_of[tag]), live) << "tag " << tag;
    if (live) {
      oracle.erase(*key_of[tag]);
      key_of[tag].reset();
      ++cancelled;
    }
    EXPECT_EQ(loop.pending(), oracle.size());
  };
  const auto cancel_some = [&] {
    // Each doomed tag dies now with even odds, else in a later callback.
    for (std::size_t i = 0; i < doomed.size();) {
      if (rng.chance(0.5)) {
        cancel_tag(doomed[i]);
        doomed[i] = doomed.back();
        doomed.pop_back();
      } else {
        ++i;
      }
    }
    // And one random earlier tag: live, ran, or already cancelled.
    if (!id_of.empty()) cancel_tag(rng.below(id_of.size()));
  };
  fire = [&](std::size_t tag) {
    ASSERT_FALSE(oracle.empty());
    const auto first = oracle.begin();
    ASSERT_EQ(first->second, tag);
    EXPECT_EQ(first->first.first, loop.now());
    oracle.erase(first);
    key_of[tag].reset();
    ++fired;
    EXPECT_EQ(loop.pending(), oracle.size());
    const std::size_t children = 8 + rng.below(8);
    for (std::size_t c = 0; c < children && id_of.size() < kBudget; ++c) {
      spawn(rng.below(40));
    }
    cancel_some();
  };

  for (int root = 0; root < 200; ++root) spawn(rng.below(100));
  cancel_some();
  while (loop.step()) {
  }

  EXPECT_TRUE(oracle.empty());
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(fired + cancelled, id_of.size());
  EXPECT_EQ(id_of.size(), kBudget);
  EXPECT_GT(cancelled, 8 * fired);  // ~90% cancelled
  for (const std::uint64_t id : id_of) EXPECT_FALSE(loop.cancel(id));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventLoopStress,
                         ::testing::Values(1, 7, 42, 1337));

}  // namespace
}  // namespace discs

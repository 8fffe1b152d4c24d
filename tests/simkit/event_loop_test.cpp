#include "simkit/event_loop.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

namespace discs {
namespace {

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(30, [&] { order.push_back(3); });
  loop.schedule(10, [&] { order.push_back(1); });
  loop.schedule(20, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30u);
}

TEST(EventLoopTest, EqualTimestampsFireInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule(7, [&, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, EventsCanScheduleMoreEvents) {
  EventLoop loop;
  std::vector<SimTime> fire_times;
  std::function<void()> tick = [&] {
    fire_times.push_back(loop.now());
    if (fire_times.size() < 3) loop.schedule(5, tick);
  };
  loop.schedule(5, tick);
  loop.run();
  EXPECT_EQ(fire_times, (std::vector<SimTime>{5, 10, 15}));
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  int fired = 0;
  const auto id = loop.schedule(10, [&] { ++fired; });
  loop.schedule(5, [&] { ++fired; });
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(id));  // double cancel
  loop.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventLoopTest, CancelAfterExecutionFails) {
  EventLoop loop;
  const auto id = loop.schedule(1, [] {});
  loop.run();
  EXPECT_FALSE(loop.cancel(id));
}

TEST(EventLoopTest, RunUntilStopsAtDeadline) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(10, [&] { order.push_back(1); });
  loop.schedule(20, [&] { order.push_back(2); });
  loop.schedule(30, [&] { order.push_back(3); });
  loop.run_until(20);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.now(), 20u);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopTest, RunUntilAdvancesTimeWithoutEvents) {
  EventLoop loop;
  loop.run_until(1000);
  EXPECT_EQ(loop.now(), 1000u);
}

TEST(EventLoopTest, ScheduleAtPastClampsToNow) {
  EventLoop loop;
  loop.run_until(100);
  SimTime fired_at = 0;
  loop.schedule_at(50, [&] { fired_at = loop.now(); });
  loop.run();
  EXPECT_EQ(fired_at, 100u);
}

TEST(EventLoopTest, StepReturnsFalseOnEmpty) {
  EventLoop loop;
  EXPECT_FALSE(loop.step());
  int fired = 0;
  loop.schedule(1, [&] { ++fired; });
  EXPECT_TRUE(loop.step());
  EXPECT_FALSE(loop.step());
  EXPECT_EQ(fired, 1);
}

TEST(EventLoopTest, StaleIdDoesNotCancelTheEventThatReusedItsSlot) {
  EventLoop loop;
  int old_fired = 0, new_fired = 0;
  const auto old_id = loop.schedule(10, [&] { ++old_fired; });
  ASSERT_TRUE(loop.cancel(old_id));
  // The freed slot is the only one, so this event reuses it.
  const auto new_id = loop.schedule(20, [&] { ++new_fired; });
  EXPECT_NE(new_id, old_id);
  EXPECT_FALSE(loop.cancel(old_id));  // stale: must not touch the new event
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(old_fired, 0);
  EXPECT_EQ(new_fired, 1);

  // Same after the slot's previous event ran instead of being cancelled.
  const auto ran_id = loop.schedule(1, [] {});
  loop.run();
  const auto reuse_id = loop.schedule(1, [&] { ++new_fired; });
  EXPECT_FALSE(loop.cancel(ran_id));
  loop.run();
  EXPECT_EQ(new_fired, 2);
  EXPECT_FALSE(loop.cancel(reuse_id));
}

TEST(EventLoopTest, IdZeroAndUnknownIdsCancelNothing) {
  EventLoop loop;
  int fired = 0;
  const auto id = loop.schedule(1, [&] { ++fired; });
  EXPECT_FALSE(loop.cancel(0));
  EXPECT_FALSE(loop.cancel(id + 1));               // a slot never used
  EXPECT_FALSE(loop.cancel(id + (1ull << 32)));    // the free-slot generation
  EXPECT_FALSE(loop.cancel(~std::uint64_t{0}));
  loop.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventLoopTest, CallbackCancellingItsOwnIdReturnsFalse) {
  EventLoop loop;
  std::uint64_t id = 0;
  std::optional<bool> cancelled;
  int sibling_fired = 0;
  id = loop.schedule(5, [&] {
    cancelled = loop.cancel(id);
    // Its slot is already free: a fresh event may take it and must run.
    loop.schedule(1, [&] { ++sibling_fired; });
  });
  loop.run();
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_FALSE(*cancelled);
  EXPECT_EQ(sibling_fired, 1);
}

TEST(EventLoopTest, PendingCountsLiveEventsAtEveryStep) {
  EventLoop loop;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(loop.schedule(static_cast<SimTime>(i % 7), [] {}));
  }
  std::size_t live = ids.size();
  EXPECT_EQ(loop.pending(), live);
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    ASSERT_TRUE(loop.cancel(ids[i]));
    EXPECT_EQ(loop.pending(), --live);
  }
  while (loop.step()) EXPECT_EQ(loop.pending(), --live);
  EXPECT_EQ(live, 0u);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_FALSE(loop.next_event_time().has_value());
}

TEST(EventLoopTest, TimeConstantsAreConsistent) {
  EXPECT_EQ(kSecond, 1000u * kMillisecond);
  EXPECT_EQ(kMinute, 60u * kSecond);
  EXPECT_EQ(kHour, 60u * kMinute);
}

}  // namespace
}  // namespace discs

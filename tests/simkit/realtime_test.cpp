// RealtimeDriver: EventLoop timers mapped onto the wall clock, interleaved
// with poll()-driven fd readiness. These tests pin the contract the UDP
// transport depends on — timers fire no earlier than scheduled, fd
// callbacks run when data is pending, and EventLoop::next_event_time()
// (which sizes the poll timeout) sees through cancelled tombstones.
#include "simkit/realtime.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>

#include "simkit/event_loop.hpp"

namespace discs {
namespace {

class Pipe {
 public:
  Pipe() { EXPECT_EQ(pipe(fds_.data()), 0); }
  ~Pipe() {
    close(fds_[0]);
    close(fds_[1]);
  }
  [[nodiscard]] int read_fd() const { return fds_[0]; }
  void put(char c) const { EXPECT_EQ(write(fds_[1], &c, 1), 1); }
  [[nodiscard]] char take() const {
    char c = 0;
    EXPECT_EQ(read(fds_[0], &c, 1), 1);
    return c;
  }

 private:
  std::array<int, 2> fds_{-1, -1};
};

TEST(RealtimeDriverTest, TimerFiresNoEarlierThanScheduled) {
  EventLoop loop;
  RealtimeDriver driver(loop);
  bool fired = false;
  loop.schedule(20 * kMillisecond, [&] { fired = true; });

  ASSERT_TRUE(driver.run_until_cond([&] { return fired; }, kSecond));
  EXPECT_GE(driver.elapsed(), 20 * kMillisecond);
  EXPECT_GE(loop.now(), 20 * kMillisecond);
}

TEST(RealtimeDriverTest, TimersFireInScheduleOrder) {
  EventLoop loop;
  RealtimeDriver driver(loop);
  std::vector<int> order;
  loop.schedule(10 * kMillisecond, [&] { order.push_back(2); });
  loop.schedule(5 * kMillisecond, [&] { order.push_back(1); });
  loop.schedule(15 * kMillisecond, [&] { order.push_back(3); });

  ASSERT_TRUE(driver.run_until_cond([&] { return order.size() == 3; },
                                    kSecond));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(RealtimeDriverTest, ReadableFdDispatchesItsCallback) {
  EventLoop loop;
  RealtimeDriver driver(loop);
  Pipe pipe;
  char got = 0;
  driver.watch_fd(pipe.read_fd(), [&] { got = pipe.take(); });
  EXPECT_EQ(driver.watched_fds(), 1u);

  pipe.put('x');  // readable before the poll loop even starts
  ASSERT_TRUE(driver.run_until_cond([&] { return got != 0; }, kSecond));
  EXPECT_EQ(got, 'x');
}

TEST(RealtimeDriverTest, TimersAndFdsInterleave) {
  EventLoop loop;
  RealtimeDriver driver(loop);
  Pipe pipe;
  int reads = 0;
  driver.watch_fd(pipe.read_fd(), [&] {
    (void)pipe.take();
    ++reads;
  });
  // A timer chain writes into the pipe: timer -> readable -> callback,
  // repeatedly — the exact shape of a retransmit hitting a socket.
  std::function<void(int)> arm = [&](int remaining) {
    if (remaining == 0) return;
    loop.schedule(2 * kMillisecond, [&, remaining] {
      pipe.put('r');
      arm(remaining - 1);
    });
  };
  arm(3);
  ASSERT_TRUE(driver.run_until_cond([&] { return reads == 3; }, kSecond));
}

TEST(RealtimeDriverTest, UnwatchStopsDispatch) {
  EventLoop loop;
  RealtimeDriver driver(loop);
  Pipe pipe;
  int reads = 0;
  driver.watch_fd(pipe.read_fd(), [&] {
    (void)pipe.take();
    ++reads;
  });
  driver.unwatch_fd(pipe.read_fd());
  EXPECT_EQ(driver.watched_fds(), 0u);

  pipe.put('x');
  driver.run_for(20 * kMillisecond);  // nothing should drain the pipe
  EXPECT_EQ(reads, 0);
  EXPECT_EQ(pipe.take(), 'x');  // byte still queued
}

TEST(RealtimeDriverTest, RunUntilCondTimesOutAndReportsFalse) {
  EventLoop loop;
  RealtimeDriver driver(loop);
  const SimTime before = driver.elapsed();
  EXPECT_FALSE(driver.run_until_cond([] { return false; },
                                     30 * kMillisecond));
  EXPECT_GE(driver.elapsed() - before, 30 * kMillisecond);
}

TEST(RealtimeDriverTest, AlreadySatisfiedConditionReturnsImmediately) {
  EventLoop loop;
  RealtimeDriver driver(loop);
  EXPECT_TRUE(driver.run_until_cond([] { return true; }, kHour));
  EXPECT_LT(driver.elapsed(), kSecond);  // did not sleep toward the hour
}

// next_event_time() is the poll-timeout oracle; cancelled events must be
// invisible to it or the driver would wake up for tombstones.
TEST(EventLoopNextEventTest, SeesThroughCancelledTombstones) {
  EventLoop loop;
  EXPECT_FALSE(loop.next_event_time().has_value());

  const auto early = loop.schedule(10 * kMillisecond, [] {});
  loop.schedule(40 * kMillisecond, [] {});
  ASSERT_TRUE(loop.next_event_time().has_value());
  EXPECT_EQ(*loop.next_event_time(), 10 * kMillisecond);

  loop.cancel(early);
  ASSERT_TRUE(loop.next_event_time().has_value());
  EXPECT_EQ(*loop.next_event_time(), 40 * kMillisecond);

  loop.run_until(kSecond);
  EXPECT_FALSE(loop.next_event_time().has_value());
}

}  // namespace
}  // namespace discs

// Deterministic discrete-event loop driving the DISCS control plane
// simulation: controller timers (peering-request jitter, invocation
// durations, re-keying), message latency, and attack timelines.
//
// Time is in integer microseconds. Events at equal timestamps fire in
// scheduling order (a monotonic sequence number breaks ties), so a given
// scenario replays identically.
//
// Storage is split in two so that neither schedule nor cancel hashes or
// allocates in steady state:
//  * a slab of slots, each holding one pending callable and a 32-bit
//    generation. A slot's generation is odd while it holds a pending event
//    and even while it sits on the free list; it advances on every
//    transition, so each (slot, generation) pair names one event ever.
//  * a binary min-heap of 24-byte POD entries {when, seq, slot, gen},
//    ordered by (when, seq). An entry whose generation no longer matches
//    its slot's is a tombstone (the event was cancelled) and is discarded
//    when it reaches the top. When tombstones outnumber live events the
//    heap is compacted in one pass, so settled retransmit timers cannot
//    pile up.
//
// An event id is (gen << 32) | (slot + 1): 0 is never a valid id, and an
// id whose event ran or was cancelled stays invalid after its slot is
// reused (the generation moved on). Generations wrap after 2^31 reuses of
// one slot.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace discs {

/// Simulation time in microseconds.
using SimTime = std::uint64_t;

inline constexpr SimTime kMicrosecond = 1;
inline constexpr SimTime kMillisecond = 1000;
inline constexpr SimTime kSecond = 1000 * kMillisecond;
inline constexpr SimTime kMinute = 60 * kSecond;
inline constexpr SimTime kHour = 60 * kMinute;

class EventLoop {
 public:
  /// Schedules `fn` to run at now() + delay. Returns an id usable in cancel().
  std::uint64_t schedule(SimTime delay, std::function<void()> fn);

  /// Schedules at an absolute time (clamped to now() if in the past).
  std::uint64_t schedule_at(SimTime when, std::function<void()> fn);

  /// Cancels a pending event; returns false if it already ran (or is
  /// running), was already cancelled, or never existed. O(1).
  bool cancel(std::uint64_t id);

  /// Runs events until the queue is empty.
  void run();

  /// Runs events with timestamps <= deadline, then sets now() = deadline.
  void run_until(SimTime deadline);

  /// Runs at most one event; returns false when the queue is empty. The
  /// event's slot is freed before its callable runs, so the callable may
  /// schedule (and its own id no longer cancels anything).
  bool step();

  /// Timestamp of the earliest live pending event; nullopt when idle.
  /// Non-const because it discards cancelled tombstones off the heap top
  /// (observable only through memory, never through event order). The
  /// RealtimeDriver uses this to size its poll() timeout.
  [[nodiscard]] std::optional<SimTime> next_event_time();

  [[nodiscard]] SimTime now() const { return now_; }
  /// Live (scheduled, not yet run or cancelled) events.
  [[nodiscard]] std::size_t pending() const { return live_; }

 private:
  struct Slot {
    std::function<void()> fn;
    std::uint32_t gen = 0;  // odd: holds a pending event; even: free
  };
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  /// Heap order for std::*_heap (a max-heap): "a fires after b".
  static bool later(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }

  [[nodiscard]] bool live(const Entry& e) const {
    return slots_[e.slot].gen == e.gen;
  }
  /// Ends the slot's event (ran or cancelled) and returns it to the free list.
  void release(std::uint32_t slot);
  /// Pops tombstones off the heap top; false when no live event remains.
  bool prune_top();

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<Entry> heap_;
  std::size_t live_ = 0;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace discs

#include "simkit/event_loop.hpp"

#include <algorithm>

namespace discs {

std::uint64_t EventLoop::schedule(SimTime delay, std::function<void()> fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

std::uint64_t EventLoop::schedule_at(SimTime when, std::function<void()> fn) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  const std::uint32_t gen = ++s.gen;  // even -> odd: pending
  heap_.push_back(Entry{std::max(when, now_), next_seq_++, slot, gen});
  std::push_heap(heap_.begin(), heap_.end(), later);
  ++live_;
  return (static_cast<std::uint64_t>(gen) << 32) | (std::uint64_t{slot} + 1);
}

void EventLoop::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;  // odd -> even: every id and heap entry naming it goes stale
  // Destroyed last, once the slab is consistent: a capture's destructor
  // may itself schedule or cancel.
  std::function<void()> dead;
  dead.swap(s.fn);
  free_.push_back(slot);
  --live_;
}

bool EventLoop::cancel(std::uint64_t id) {
  // Slot bits 0 (id 0 among them) wrap to a slot past any real one.
  const std::uint64_t slot = (id & 0xffffffffu) - 1;
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen || gen % 2 == 0) {
    return false;
  }
  release(static_cast<std::uint32_t>(slot));
  // Compact once tombstones outnumber live events: each compaction is paid
  // for by the cancels since the last, so cancel stays amortized O(1).
  if (heap_.size() - live_ > live_) {
    std::erase_if(heap_, [this](const Entry& e) { return !live(e); });
    std::make_heap(heap_.begin(), heap_.end(), later);
  }
  return true;
}

bool EventLoop::prune_top() {
  while (!heap_.empty() && !live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
  return !heap_.empty();
}

bool EventLoop::step() {
  if (!prune_top()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), later);
  const Entry e = heap_.back();
  heap_.pop_back();
  std::function<void()> fn;
  fn.swap(slots_[e.slot].fn);
  release(e.slot);
  now_ = e.when;
  fn();
  return true;
}

void EventLoop::run() {
  while (step()) {
  }
}

std::optional<SimTime> EventLoop::next_event_time() {
  if (!prune_top()) return std::nullopt;
  return heap_.front().when;
}

void EventLoop::run_until(SimTime deadline) {
  // Tombstones are discarded before the deadline check: step() always runs
  // one live event, and with tombstones on top that event could lie beyond
  // the deadline.
  while (prune_top() && heap_.front().when <= deadline) step();
  now_ = std::max(now_, deadline);
}

}  // namespace discs

// Reference event engine: the pre-overhaul des::Engine design, kept as the
// simplest implementation of the ordering contract. Events run in (time,
// priority, sequence) order, FIFO among ties; callbacks are std::function
// in a binary std::priority_queue, and cancellation is tracked in two hash
// sets.
//
// Two users: tests/engine_golden_test.cpp replays scripts through it and
// des::Engine and requires identical execution orders, and
// bench/engine_hot.cpp runs its event mix on it so the speedup of the
// production engine is measured live rather than quoted.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "des/time.h"

namespace refdes {

class Engine {
 public:
  using Callback = std::function<void()>;
  struct EventId {
    std::uint64_t seq = 0;
    [[nodiscard]] bool valid() const noexcept { return seq != 0; }
  };

  [[nodiscard]] des::SimTime now() const noexcept { return now_; }

  EventId schedule_at(des::SimTime t, Callback fn, int priority = 0) {
    const std::uint64_t seq = next_seq_++;
    queue_.push(Event{t, priority, seq, std::move(fn)});
    live_.insert(seq);
    return EventId{seq};
  }
  EventId schedule_in(des::Duration dt, Callback fn, int priority = 0) {
    return schedule_at(now_ + dt, std::move(fn), priority);
  }
  bool cancel(EventId id) {
    if (!id.valid() || live_.count(id.seq) == 0) return false;
    return cancelled_.insert(id.seq).second;
  }
  /// Runs the next live event; false once the queue is empty.
  bool step() {
    while (!queue_.empty()) {
      Event event;
      if (!pop_head(event)) continue;
      now_ = event.time;
      ++processed_;
      event.fn();
      return true;
    }
    return false;
  }
  void run() {
    while (step()) {
    }
  }
  [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }

 private:
  struct Event {
    des::SimTime time{};
    int priority = 0;
    std::uint64_t seq = 0;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq > b.seq;
    }
  };
  /// Pops the head into `out`; false (and nothing to run) if it was
  /// cancelled.
  bool pop_head(Event& out) {
    Event event = queue_.top();
    queue_.pop();
    live_.erase(event.seq);
    if (const auto it = cancelled_.find(event.seq); it != cancelled_.end()) {
      cancelled_.erase(it);
      return false;
    }
    out = std::move(event);
    return true;
  }

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<std::uint64_t> live_;
  std::unordered_set<std::uint64_t> cancelled_;
  des::SimTime now_{};
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
};

}  // namespace refdes

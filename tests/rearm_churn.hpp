// The TCP retransmit-timer pattern as a scheduler workload: every short
// event cancels its connection's long timer and re-arms it 5 ms out, so
// each short event leaves one cancelled entry behind in the event heap.
//
// Works against any scheduler exposing schedule_at / cancel / now /
// pending_events / heap_entries (Engine, Domain). It logs every firing and
// every event that was scheduled and never cancelled, so a test can check
// the firing order against a (time, scheduling order)-sorted oracle, and it
// samples the heap size against the compaction bound inside every event.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace tsn::sim::testing {

template <typename Sched>
class RearmChurn {
 public:
  // One scheduled event: fire time, scheduling index (the queue's seq
  // order within this scheduler) and tag (>= 0 short event for that
  // connection, < 0 retransmit timer of connection -1 - tag).
  struct Event {
    std::int64_t at = 0;
    std::uint64_t index = 0;
    int tag = 0;
    bool operator==(const Event&) const = default;
  };

  static constexpr Duration kRto = millis(std::int64_t{5});

  RearmChurn(Sched& sched, int connections, int short_events_per_connection)
      : sched_(sched),
        remaining_(static_cast<std::size_t>(connections), short_events_per_connection),
        rto_(static_cast<std::size_t>(connections)) {}

  // Schedules each connection's first short event and retransmit timer.
  void start() {
    for (int conn = 0; conn < static_cast<int>(rto_.size()); ++conn) {
      rto_[static_cast<std::size_t>(conn)] = arm(sched_.now() + kRto, -1 - conn);
      schedule_short(conn);
    }
  }

  // Every event scheduled and never cancelled, sorted by (time, index):
  // the order a correct queue must fire them in.
  [[nodiscard]] std::vector<Event> oracle() const {
    std::vector<Event> live;
    for (const Event& e : scheduled_) {
      if (!cancelled_[e.index]) live.push_back(e);
    }
    std::sort(live.begin(), live.end(), [](const Event& a, const Event& b) {
      return std::tie(a.at, a.index) < std::tie(b.at, b.index);
    });
    return live;
  }

  [[nodiscard]] const std::vector<Event>& fired() const noexcept { return fired_; }
  [[nodiscard]] std::uint64_t rearms() const noexcept { return rearms_; }
  [[nodiscard]] std::size_t max_heap() const noexcept { return max_heap_; }
  // Samples where heap_entries() exceeded 2 * pending_events() + slack.
  [[nodiscard]] std::uint64_t bound_violations() const noexcept { return violations_; }

 private:
  struct Timer {
    EventHandle handle;
    std::uint64_t index = 0;
  };

  Timer arm(Time at, int tag) {
    const std::uint64_t index = scheduled_.size();
    scheduled_.push_back(Event{at.picos(), index, tag});
    cancelled_.push_back(false);
    const EventHandle handle = sched_.schedule_at(at, [this, index] { fire(index); });
    return Timer{handle, index};
  }

  void schedule_short(int conn) {
    int& left = remaining_[static_cast<std::size_t>(conn)];
    if (left == 0) return;
    --left;
    // Connections 0/2 and 1/3 share spacings, so same-instant ties abound.
    arm(sched_.now() + nanos(std::int64_t{1'000} * (1 + conn % 2)), conn);
  }

  void fire(std::uint64_t index) {
    fired_.push_back(scheduled_[index]);
    sample_heap();
    const int tag = scheduled_[index].tag;
    if (tag < 0) return;  // a timer that was finally allowed to expire
    Timer& timer = rto_[static_cast<std::size_t>(tag)];
    if (sched_.cancel(timer.handle)) cancelled_[timer.index] = true;
    sample_heap();
    timer = arm(sched_.now() + kRto, -1 - tag);
    ++rearms_;
    schedule_short(tag);
  }

  void sample_heap() {
    const std::size_t heap = sched_.heap_entries();
    max_heap_ = std::max(max_heap_, heap);
    if (heap > 2 * sched_.pending_events() + EventQueue::kCompactSlack) ++violations_;
  }

  Sched& sched_;
  std::vector<int> remaining_;
  std::vector<Timer> rto_;
  std::vector<Event> scheduled_;
  std::vector<bool> cancelled_;
  std::vector<Event> fired_;
  std::uint64_t rearms_ = 0;
  std::size_t max_heap_ = 0;
  std::uint64_t violations_ = 0;
};

}  // namespace tsn::sim::testing

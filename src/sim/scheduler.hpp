// The scheduling API every event producer talks to: one event queue with a
// clock.
//
// Links, switches, the exchange, trading apps, and the fault injector all
// schedule through a `Scheduler&`, never through the run loop that drives
// it. Two subclasses add the run loops: `Engine` (the classic
// single-threaded loop, domain 0) and `Domain` (one shard of a
// `ShardedEngine`). Components built against a Domain are automatically
// confined to that shard; anything that must cross shards goes through
// `Domain::post_to`, which is how the sharded runtime keeps per-shard
// execution race-free.
//
// Events scheduled for the same instant fire in scheduling order (a
// monotonically increasing sequence number breaks ties), which makes runs
// fully deterministic. Actions live in pooled slots (sim/event_queue.hpp),
// so scheduling allocates nothing once the pool and heap are warm.
//
// Event handles are domain-qualified: a handle remembers which shard its
// event lives on, and cancelling it through a scheduler of a different
// domain is a TSN_DCHECK-able bug (the slot index would silently name an
// unrelated event on the other shard's pool).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/check.hpp"
#include "sim/action.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace tsn::sim {

class Scheduler {
 public:
  using Action = InlineAction;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Current simulation time of this scheduler's shard. Monotonically
  // non-decreasing.
  [[nodiscard]] Time now() const noexcept { return now_; }

  // Schedules `action` to run at absolute time `at` on this scheduler's
  // shard. Scheduling into the past clamps to `now()` (the event fires
  // next, after already-due events).
  // tsn-lint: hotpath
  EventHandle schedule_at(Time at, Action action) {
    if (at < now_) at = now_;
    return queue_.push(at, (*seq_)++, std::move(action));
  }

  // Schedules `action` to run `delay` after now. Negative delays clamp to 0.
  EventHandle schedule_in(Duration delay, Action action) {
    if (delay < Duration::zero()) delay = Duration::zero();
    return schedule_at(now_ + delay, std::move(action));
  }

  // Cancels a pending event in O(1). Returns true if the event existed and
  // had not yet fired; stale handles (fired, already cancelled, or slot
  // reused) return false. Cancelling a handle from a different domain is a
  // TSN_DCHECK failure (and returns false in release builds).
  // tsn-lint: hotpath
  bool cancel(EventHandle handle) {
    TSN_DCHECK(!handle.valid() || handle.domain() == id_,
               "cancelling an event through the wrong domain's scheduler");
    if (handle.valid() && handle.domain() != id_) return false;
    return queue_.cancel(handle);
  }

  // Which shard this scheduler runs. Plain engines report kMainDomain.
  [[nodiscard]] DomainId domain_id() const noexcept { return id_; }

  // Pre-warms pool slabs and the heap vector for `events` concurrent
  // pending events, so bursts (Fig 2c) hit no allocation at schedule time.
  void reserve(std::size_t events) { queue_.reserve(events); }

  [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.live(); }
  [[nodiscard]] std::uint64_t events_fired() const noexcept { return fired_; }
  // Pool introspection (tests and capacity planning).
  [[nodiscard]] std::size_t pool_capacity() const noexcept { return queue_.pool_capacity(); }
  [[nodiscard]] std::size_t pool_in_use() const noexcept { return queue_.pool_in_use(); }
  [[nodiscard]] std::size_t heap_entries() const noexcept { return queue_.heap_entries(); }

 protected:
  explicit Scheduler(DomainId id = kMainDomain) noexcept : queue_(id), id_(id) {}
  // Components hold `Scheduler&` but never own the engine; destruction is
  // always through the concrete type.
  ~Scheduler() = default;

  // Fires every event with time < horizon (exclusive), checking `stop`
  // before each one. Returns events fired.
  std::uint64_t run_before(Time horizon, const bool& stop);

  EventQueue queue_;
  Time now_ = Time::zero();
  std::uint64_t fired_ = 0;
  std::uint64_t own_seq_ = 1;
  // Tie-break counter. Golden-mode ShardedEngines point every shard at one
  // shared counter so the merged execution is byte-identical to a plain
  // Engine; otherwise it is the scheduler's own.
  std::uint64_t* seq_ = &own_seq_;
  DomainId id_;
};

}  // namespace tsn::sim

// The discrete-event simulation engine (single-threaded golden reference).
//
// A single-threaded event loop over the `Scheduler`'s time-ordered queue.
// `Engine` adds only the run loops and a stop flag; the other `Scheduler`
// subclass is `Domain` (sim/domain.hpp), one shard of a parallel
// `ShardedEngine`. The engine is the golden reference the sharded runtime
// must match: a golden-mode ShardedEngine run is byte-identical to an
// Engine run of the same topology.
//
// Hot-path memory model: actions are stored in pooled, slab-allocated slots
// (`EventPool`) as `InlineAction`s — no heap allocation per event once the
// pool and the heap vector are warm. Cancellation is genuinely O(1): a
// handle names (slot, generation); cancelling releases the slot immediately
// and leaves a stale heap entry, which the queue prunes when it surfaces or
// compacts away in bulk once stale entries outnumber live ones.
#pragma once

#include <cstdint>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace tsn::sim {

class Engine final : public Scheduler {
 public:
  Engine() = default;

  // Runs until the queue drains. Returns the number of events fired.
  std::uint64_t run();

  // Runs events with time <= deadline, then advances the clock to exactly
  // `deadline` (even if the queue drained early). Returns events fired.
  std::uint64_t run_until(Time deadline);

  // Runs exactly one event, if any. Returns true if one fired.
  bool step() { return queue_.pop_one(now_, fired_); }

  // Stops a run() / run_until() in progress after the current event.
  void request_stop() noexcept { stop_requested_ = true; }

 private:
  bool stop_requested_ = false;
};

}  // namespace tsn::sim

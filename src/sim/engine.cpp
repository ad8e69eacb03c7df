#include "sim/engine.hpp"

namespace tsn::sim {

std::uint64_t Engine::run() {
  stop_requested_ = false;
  std::uint64_t count = 0;
  while (!stop_requested_ && queue_.pop_one(now_, fired_)) ++count;
  return count;
}

std::uint64_t Engine::run_until(Time deadline) {
  stop_requested_ = false;
  // The loop's horizon is exclusive; one tick past the deadline makes it
  // inclusive.
  const std::uint64_t count = run_before(saturating_add(deadline, Duration{1}), stop_requested_);
  if (now_ < deadline) now_ = deadline;
  return count;
}

}  // namespace tsn::sim

#include "sim/scheduler.hpp"

namespace tsn::sim {

std::uint64_t Scheduler::run_before(Time horizon, const bool& stop) {
  std::uint64_t count = 0;
  while (!stop) {
    const EventQueue::HeapEntry* next = queue_.peek_live();
    if (next == nullptr || next->at >= horizon) break;
    if (queue_.pop_one(now_, fired_)) ++count;
  }
  return count;
}

}  // namespace tsn::sim

#include "sim/domain.hpp"

#include <utility>

#include "sim/sharded_engine.hpp"

namespace tsn::sim {

void Domain::post_to(DomainId dst, Time at, Action action) {
  parent_->post(id_, dst, at, std::move(action));
}

std::uint64_t Domain::run_window(Time window_end) {
  // The shard-local context is installed on *this* thread for the whole
  // window: every span a worker-run event records lands in the shard's own
  // sink instead of vanishing with the worker's empty thread-local.
  if (context_ != nullptr) context_->enter();
  static constexpr bool kNeverStop = false;
  const std::uint64_t count = run_before(window_end, kNeverStop);
  if (context_ != nullptr) context_->leave();
  return count;
}

}  // namespace tsn::sim

// The time-ordered event queue core under every `Scheduler`.
//
// Pooled slab-allocated slots (`EventPool`), a binary heap of small entries,
// and O(1) generation-checked cancellation. A cancelled event's heap entry
// goes stale; stale entries are pruned when they surface at the top, and
// the whole heap is compacted in one O(n) pass once they outnumber the live
// entries by more than kCompactSlack. The queue owns neither the clock nor
// the sequence counter — its owner passes `seq` into push() (a Domain under
// a golden-mode ShardedEngine shares one counter across all shards so the
// merged run is byte-identical to a plain Engine) and advances its own
// `now` from the entries the queue pops.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/check.hpp"
#include "sim/action.hpp"
#include "sim/event_pool.hpp"
#include "sim/time.hpp"

namespace tsn::sim {

// Identifies one event-queue shard. A plain `Engine` is always domain 0.
using DomainId = std::uint16_t;
inline constexpr DomainId kMainDomain = 0;

// Opaque handle for cancelling a scheduled event. Generation-checked: a
// handle kept past its event's firing (or past a cancel) goes stale and all
// later cancels through it return false, even after the slot is reused.
class EventHandle {
 public:
  EventHandle() noexcept = default;

  [[nodiscard]] bool valid() const noexcept { return generation_ != 0; }
  // Which shard the event lives on. Handles may only be cancelled through
  // the scheduler of the same domain.
  [[nodiscard]] DomainId domain() const noexcept { return domain_; }

 private:
  friend class EventQueue;
  EventHandle(std::uint32_t slot, std::uint32_t generation, DomainId domain) noexcept
      : slot_(slot), generation_(generation), domain_(domain) {}
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
  DomainId domain_ = kMainDomain;
};

class EventQueue {
 public:
  // Heap entries are small POD (the action stays in the pool slot); a
  // cancelled event's entry lingers, detected by generation mismatch.
  struct HeapEntry {
    Time at;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
  };

  explicit EventQueue(DomainId domain = kMainDomain) noexcept : domain_(domain) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Adds an event. The caller supplies the tie-break sequence number; (at,
  // seq) must be unique per queue and seq monotonically increasing for
  // deterministic same-instant ordering.
  // tsn-lint: hotpath
  EventHandle push(Time at, std::uint64_t seq, InlineAction action) {
    const std::uint32_t index = pool_.acquire();
    EventPool::Slot& slot = pool_.slot(index);
    slot.at = at;
    slot.seq = seq;
    slot.armed = true;
    slot.action = std::move(action);
    heap_.push_back(HeapEntry{at, seq, index, slot.generation});
    std::push_heap(heap_.begin(), heap_.end(), FiresLater{});
    ++live_;
    return EventHandle{index, slot.generation, domain_};
  }

  // O(1) cancel; see Scheduler::cancel for the handle-staleness contract.
  // The caller is responsible for the domain check — this queue only checks
  // slot liveness.
  // tsn-lint: hotpath
  bool cancel(EventHandle handle) {
    if (!handle.valid() || handle.slot_ >= pool_.capacity()) return false;
    EventPool::Slot& slot = pool_.slot(handle.slot_);
    // A fired, cancelled, or reused slot has moved past the handle's
    // generation; only the live original matches.
    if (!slot.armed || slot.generation != handle.generation_) return false;
    pool_.release(handle.slot_);  // heap entry goes stale
    --live_;
    compact_if_stale();
    return true;
  }

  // Discards stale (cancelled) top entries; returns the next live entry or
  // nullptr. The single peek path shared by every run loop.
  // tsn-lint: hotpath
  const HeapEntry* peek_live() {
    while (!heap_.empty()) {
      if (!stale(heap_.front())) return &heap_.front();
      // Cancelled: the slot was released (and possibly re-armed under a new
      // generation); this entry is stale.
      std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
      heap_.pop_back();
    }
    return nullptr;
  }

  // Pops the next live event, advances `now` to its timestamp, bumps
  // `fired`, and invokes the action. Returns false if the queue is empty.
  // Forced inline: it is the body of every run loop. Left to GCC 12's
  // heuristics (Release) it was inlined into some loops and called from
  // others, ~2% per event on the windowed sharded-market run.
  // tsn-lint: hotpath
  [[gnu::always_inline]] bool pop_one(Time& now, std::uint64_t& fired) {
    const HeapEntry* top = peek_live();
    if (top == nullptr) return false;
    const HeapEntry entry = *top;
    std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
    heap_.pop_back();
    EventPool::Slot& slot = pool_.slot(entry.slot);
    // Release the slot before invoking: the action may schedule new events
    // (reusing this slot under a fresh generation) or cancel others.
    InlineAction action = std::move(slot.action);
    pool_.release(entry.slot);
    --live_;
    compact_if_stale();
    TSN_DCHECK(entry.at >= now, "event queue must never run time backwards");
    now = entry.at;
    ++fired;
    action();
    return true;
  }

  // Pre-warms pool slabs and the heap vector for `events` concurrent
  // pending events, so bursts hit no allocation at schedule time.
  void reserve(std::size_t events) {
    pool_.reserve(events);
    heap_.reserve(events);
  }

  [[nodiscard]] std::size_t live() const noexcept { return live_; }
  [[nodiscard]] std::size_t pool_capacity() const noexcept { return pool_.capacity(); }
  [[nodiscard]] std::size_t pool_in_use() const noexcept { return pool_.in_use(); }
  // Heap entries, live and stale; never more than 2 * live() + kCompactSlack.
  [[nodiscard]] std::size_t heap_entries() const noexcept { return heap_.size(); }

  // Stale entries tolerated beyond the live count before a compaction.
  static constexpr std::size_t kCompactSlack = 64;

 private:
  // std::push_heap/pop_heap build a max-heap; "fires later" as the ordering
  // puts the earliest (time, seq) on top.
  struct FiresLater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] bool stale(const HeapEntry& entry) const noexcept {
    const EventPool::Slot& slot = pool_.slot(entry.slot);
    return !slot.armed || slot.generation != entry.generation;
  }

  // A timer cancelled and re-armed on every event (TCP RTO) would otherwise
  // leave one stale entry per re-arm until it surfaced, growing the heap
  // (and every push/pop) far past the live set. Dropping every stale entry
  // once they exceed live + kCompactSlack costs O(n) per Ω(n) cancels, and
  // cannot reorder anything: (at, seq) is a strict total order, so the
  // rebuilt heap pops the same live entries in the same sequence.
  // tsn-lint: hotpath
  void compact_if_stale() {
    if (heap_.size() <= 2 * live_ + kCompactSlack) return;
    std::erase_if(heap_, [this](const HeapEntry& entry) { return stale(entry); });
    std::make_heap(heap_.begin(), heap_.end(), FiresLater{});
  }

  std::vector<HeapEntry> heap_;
  EventPool pool_;
  DomainId domain_ = kMainDomain;
  std::uint64_t live_ = 0;  // pending minus cancelled
};

}  // namespace tsn::sim

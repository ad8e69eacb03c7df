#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <utility>

#include "core/check.hpp"

namespace tsn::sim {

ShardedEngine::ShardedEngine(ShardedConfig config) : config_(config) {
  TSN_ASSERT(config_.domains >= 1, "a sharded engine needs at least one domain");
  if (config_.num_workers == 0) config_.num_workers = 1;
  golden_ = config_.mode == SyncMode::kGolden;
  domains_.reserve(config_.domains);
  for (std::uint32_t i = 0; i < config_.domains; ++i) {
    domains_.emplace_back(new Domain(*this, static_cast<DomainId>(i)));
  }
  mailboxes_.resize(static_cast<std::size_t>(config_.domains) * config_.domains);
  if (golden_) {
    // One shared tie-break counter makes the merged execution assign the
    // exact sequence numbers a plain Engine would — the byte-identity
    // contract of the golden reference.
    for (auto& d : domains_) d->seq_ = &shared_seq_;
  }
}

ShardedEngine::~ShardedEngine() {
  if (!workers_.empty()) {
    shutdown_.store(true, std::memory_order_release);
    window_start_->arrive_and_wait();
    for (std::thread& t : workers_) t.join();
  }
}

void ShardedEngine::note_cross_domain_delay(Duration delay) {
  TSN_ASSERT(delay > Duration::zero(),
             "zero-delay cross-domain links defeat conservative lookahead");
  lookahead_ = std::min(lookahead_, delay);
}

void ShardedEngine::reserve(std::size_t events_per_domain) {
  for (auto& d : domains_) d->reserve(events_per_domain);
}

std::uint64_t ShardedEngine::events_fired() const noexcept {
  std::uint64_t total = 0;
  for (const auto& d : domains_) total += d->events_fired();
  return total;
}

std::size_t ShardedEngine::pending_events() const noexcept {
  std::size_t total = 0;
  for (const auto& d : domains_) total += d->pending_events();
  return total;
}

Time ShardedEngine::now() const noexcept {
  Time earliest = Time::max();
  for (const auto& d : domains_) earliest = std::min(earliest, d->now());
  return earliest;
}

void ShardedEngine::post(DomainId src, DomainId dst, Time at, InlineAction action) {
  TSN_ASSERT(dst < domains_.size(), "post_to an unknown domain");
  Domain& source = *domains_[src];
  TSN_DCHECK(lookahead_ == Duration::max() || at - source.now() >= lookahead_,
             "post_to inside the lookahead window breaks conservative sync");
  if (golden_) {
    // Merged mode: deliver immediately, drawing from the shared counter at
    // the moment of the call — exactly when a plain Engine's schedule_at
    // would have assigned it.
    Domain& sink = *domains_[dst];
    if (at < sink.now_) at = sink.now_;
    sink.queue_.push(at, (*sink.seq_)++, std::move(action));
    return;
  }
  std::vector<Post>& box = mailbox(src, dst);
  box.push_back(Post{at, source.now(), box.size(), std::move(action)});
}

std::uint64_t ShardedEngine::run_until(Time deadline) {
  const std::uint64_t fired = golden_ ? run_golden(deadline) : run_windowed(deadline);
  for (auto& d : domains_) d->now_ = std::max(d->now_, deadline);
  return fired;
}

std::uint64_t ShardedEngine::run() {
  // No final clock advance: like Engine::run, the clocks rest on the last
  // event fired.
  return golden_ ? run_golden(Time::max()) : run_windowed(Time::max());
}

std::uint64_t ShardedEngine::run_golden(Time deadline) {
  stop_requested_.store(false, std::memory_order_relaxed);
  std::uint64_t count = 0;
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    // Global (time, seq) minimum across shards — the event a plain Engine's
    // heap would surface next.
    Domain* best = nullptr;
    const EventQueue::HeapEntry* best_entry = nullptr;
    for (auto& d : domains_) {
      const EventQueue::HeapEntry* entry = d->peek();
      if (entry == nullptr) continue;
      if (best_entry == nullptr || entry->at < best_entry->at ||
          (entry->at == best_entry->at && entry->seq < best_entry->seq)) {
        best_entry = entry;
        best = d.get();
      }
    }
    if (best_entry == nullptr || best_entry->at > deadline) break;
    best->pop_head();
    ++count;
  }
  return count;
}

std::uint64_t ShardedEngine::run_windowed(Time deadline) {
  stop_requested_.store(false, std::memory_order_relaxed);
  const bool threaded = config_.num_workers > 1;
  if (threaded) ensure_workers();
  // Events *at* the deadline must run (run_until is inclusive), and windows
  // are exclusive at the top, so the horizon sits one tick past it.
  const Time horizon = saturating_add(deadline, Duration{1});
  const std::uint64_t fired_before = events_fired();
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    Time t_min = Time::max();
    for (auto& d : domains_) {
      const EventQueue::HeapEntry* entry = d->peek();
      if (entry != nullptr) t_min = std::min(t_min, entry->at);
    }
    if (t_min == Time::max() || t_min > deadline) break;
    const Time window_end = std::min(saturating_add(t_min, lookahead_), horizon);
    window_end_ = window_end;
    if (threaded) {
      next_domain_.store(0, std::memory_order_relaxed);
      window_start_->arrive_and_wait();
      // Workers claim domains and run the window; both barriers order the
      // domain/mailbox state between coordinator and workers.
      window_done_->arrive_and_wait();
    } else {
      for (auto& d : domains_) d->run_window(window_end);
    }
    drain_mailboxes(window_end);
  }
  return events_fired() - fired_before;
}

void ShardedEngine::drain_mailboxes(Time window_end) {
  // Deterministic delivery order — (send time, source domain, per-source
  // index) — so sequence-number assignment in the destination queues never
  // depends on worker scheduling. Same-instant cross-domain arrivals are
  // therefore ordered run-to-run identically for any worker count.
  for (DomainId dst = 0; dst < domains_.size(); ++dst) {
    scratch_refs_.clear();
    for (DomainId src = 0; src < domains_.size(); ++src) {
      for (Post& p : mailbox(src, dst)) scratch_refs_.push_back(PostRef{p.sent, src, p.idx, &p});
    }
    if (scratch_refs_.empty()) continue;
    std::sort(scratch_refs_.begin(), scratch_refs_.end(),
              [](const PostRef& a, const PostRef& b) {
                if (a.sent != b.sent) return a.sent < b.sent;
                if (a.src != b.src) return a.src < b.src;
                return a.idx < b.idx;
              });
    Domain& sink = *domains_[dst];
    for (const PostRef& r : scratch_refs_) {
      TSN_DCHECK(r.post->at >= window_end,
                 "cross-domain post lands inside the window it was sent from");
      sink.queue_.push(r.post->at, sink.own_seq_++, std::move(r.post->action));
    }
    for (DomainId src = 0; src < domains_.size(); ++src) mailbox(src, dst).clear();
  }
}

void ShardedEngine::ensure_workers() {
  if (!workers_.empty()) return;
  const auto participants = static_cast<std::ptrdiff_t>(config_.num_workers) + 1;
  window_start_ = std::make_unique<std::barrier<>>(participants);
  window_done_ = std::make_unique<std::barrier<>>(participants);
  workers_.reserve(config_.num_workers);
  for (std::uint32_t i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ShardedEngine::worker_loop() {
  while (true) {
    window_start_->arrive_and_wait();
    if (shutdown_.load(std::memory_order_acquire)) return;
    // Claim domains one at a time; a domain is run by exactly one worker
    // per window.
    for (std::size_t i = next_domain_.fetch_add(1, std::memory_order_relaxed);
         i < domains_.size(); i = next_domain_.fetch_add(1, std::memory_order_relaxed)) {
      domains_[i]->run_window(window_end_);
    }
    window_done_->arrive_and_wait();
  }
}

}  // namespace tsn::sim

// Sharded, parallel discrete-event engine under conservative lookahead
// synchronization.
//
// The simulation is partitioned into `Domain`s (one per topology region /
// matching-engine partition). Each domain owns an independent event queue
// and clock; cross-domain effects travel exclusively through `post_to`
// mailboxes whose delivery times are bounded below by the minimum
// cross-domain link propagation delay — the classic conservative-lookahead
// argument (Miles & Cliff's planetary-scale exchange simulator distributes
// sims exactly this way): if every cross-shard message arrives at least
// `lookahead` after it is sent, then all events strictly before
// `min_next_event + lookahead` are causally independent across shards and
// may run in parallel.
//
// Two synchronization modes:
//
//   kGolden    Single-threaded merged execution: one shared sequence
//              counter, events popped in global (time, seq) order across
//              all domains. Byte-identical — event order, telemetry JSON,
//              feed bytes — to running the same topology on a plain
//              `Engine`. This is the reference mode.
//
//   kWindowed  Barrier-synchronized windows on a persistent worker pool.
//              Each round the coordinator computes
//                window_end = min(T_min + lookahead, deadline)
//              (T_min = earliest pending event anywhere), workers claim
//              domains and run events with `at < window_end`, then the
//              coordinator drains mailboxes in a deterministic order
//              (send time, source domain, per-source index) so results are
//              identical for any worker count and across repeat runs.
//
// Golden is the default mode. End-state digests (book state, positions,
// metrics counters) of a windowed run match the golden run; the event
// *interleaving* (and therefore e.g. trace-span ordering across domains) may
// differ between modes, which is why digests — not byte streams — are the
// cross-mode contract.
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "sim/domain.hpp"
#include "sim/time.hpp"

namespace tsn::sim {

enum class SyncMode : std::uint8_t {
  kGolden,    // merged single-threaded reference execution
  kWindowed,  // parallel lookahead windows
};

struct ShardedConfig {
  std::uint32_t domains = 1;
  // Worker threads for windowed mode. 1 keeps everything on the calling
  // thread (still windowed execution). Golden mode ignores it.
  std::uint32_t num_workers = 1;
  SyncMode mode = SyncMode::kGolden;
};

class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedConfig config);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;
  ~ShardedEngine();

  [[nodiscard]] Domain& domain(DomainId id) noexcept { return *domains_[id]; }
  [[nodiscard]] std::size_t domain_count() const noexcept { return domains_.size(); }

  // Registers a cross-domain delivery latency (e.g. a bridge link's
  // propagation delay). The lookahead window is the minimum of all
  // registered delays; every post_to must honor it. With none registered
  // (no cross-domain traffic) it stays at max() and domains free-run to the
  // deadline.
  void note_cross_domain_delay(Duration delay);
  [[nodiscard]] Duration lookahead() const noexcept { return lookahead_; }

  // True when this engine executes in golden (merged reference) mode.
  [[nodiscard]] bool golden() const noexcept { return golden_; }
  [[nodiscard]] std::uint32_t num_workers() const noexcept { return config_.num_workers; }

  // Runs events with time <= deadline on every shard, then advances every
  // shard's clock to exactly `deadline`. Returns total events fired.
  std::uint64_t run_until(Time deadline);

  // Runs until every queue (and mailbox) drains. Returns events fired.
  std::uint64_t run();

  // Stops a run in progress: after the current event in golden mode, at the
  // next window boundary in windowed mode.
  void request_stop() noexcept { stop_requested_.store(true, std::memory_order_relaxed); }

  // Pre-warms every shard's pool and heap for `events_per_domain`.
  void reserve(std::size_t events_per_domain);

  [[nodiscard]] std::uint64_t events_fired() const noexcept;
  [[nodiscard]] std::size_t pending_events() const noexcept;
  // Earliest shard clock (== the deadline between runs).
  [[nodiscard]] Time now() const noexcept;

 private:
  friend class Domain;

  // One cross-domain message, parked in a per-(src, dst) mailbox until the
  // window barrier. `sent`/`idx` give mailbox draining a total order that
  // does not depend on worker scheduling.
  struct Post {
    Time at;
    Time sent;
    std::uint64_t idx = 0;
    InlineAction action;
  };

  // Sorting view over parked posts during a drain (coordinator-only
  // scratch, reused across windows).
  struct PostRef {
    Time sent;
    DomainId src = 0;
    std::uint64_t idx = 0;
    Post* post = nullptr;
  };

  void post(DomainId src, DomainId dst, Time at, InlineAction action);

  std::uint64_t run_golden(Time deadline);
  std::uint64_t run_windowed(Time deadline);
  // Delivers parked posts into their destination queues in deterministic
  // order. Runs on the coordinator thread between windows.
  void drain_mailboxes(Time window_end);
  void ensure_workers();
  void worker_loop();

  [[nodiscard]] std::vector<Post>& mailbox(DomainId src, DomainId dst) noexcept {
    return mailboxes_[static_cast<std::size_t>(src) * domains_.size() + dst];
  }

  ShardedConfig config_;
  bool golden_ = true;
  Duration lookahead_ = Duration::max();
  std::vector<std::unique_ptr<Domain>> domains_;
  std::vector<std::vector<Post>> mailboxes_;  // [src * n + dst]
  std::vector<PostRef> scratch_refs_;
  std::uint64_t shared_seq_ = 1;  // golden mode: one counter across shards
  std::atomic<bool> stop_requested_{false};

  // Windowed-mode worker pool (lazily started). The coordinator publishes
  // window_end_ before the start barrier; barrier phases order all access
  // to domain and mailbox state between coordinator and workers.
  std::vector<std::thread> workers_;
  std::unique_ptr<std::barrier<>> window_start_;
  std::unique_ptr<std::barrier<>> window_done_;
  std::atomic<std::size_t> next_domain_{0};
  std::atomic<bool> shutdown_{false};
  Time window_end_ = Time::zero();
};

}  // namespace tsn::sim

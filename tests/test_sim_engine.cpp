#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "rearm_churn.hpp"

namespace tsn::sim {
namespace {

TEST(Engine, StartsAtTimeZeroWithEmptyQueue) {
  Engine engine;
  EXPECT_EQ(engine.now(), Time::zero());
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.run(), 0u);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(Time{300}, [&] { order.push_back(3); });
  engine.schedule_at(Time{100}, [&] { order.push_back(1); });
  engine.schedule_at(Time{200}, [&] { order.push_back(2); });
  EXPECT_EQ(engine.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), Time{300});
}

TEST(Engine, SameInstantFiresInSchedulingOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(Time{50}, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ScheduleInIsRelative) {
  Engine engine;
  Time fired;
  engine.schedule_at(Time{1'000}, [&] {
    engine.schedule_in(Duration{500}, [&] { fired = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(fired, Time{1'500});
}

TEST(Engine, SchedulingIntoThePastClampsToNow) {
  Engine engine;
  Time fired;
  engine.schedule_at(Time{1'000}, [&] {
    engine.schedule_at(Time{10}, [&] { fired = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(fired, Time{1'000});
}

TEST(Engine, NegativeDelayClampsToZero) {
  Engine engine;
  bool fired = false;
  engine.schedule_in(Duration{-100}, [&] { fired = true; });
  engine.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(engine.now(), Time::zero());
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool fired = false;
  const EventHandle handle = engine.schedule_at(Time{100}, [&] { fired = true; });
  EXPECT_TRUE(engine.cancel(handle));
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, DoubleCancelReturnsFalse) {
  Engine engine;
  const EventHandle handle = engine.schedule_at(Time{100}, [] {});
  EXPECT_TRUE(engine.cancel(handle));
  EXPECT_FALSE(engine.cancel(handle));
}

TEST(Engine, InvalidHandleCancelReturnsFalse) {
  Engine engine;
  EXPECT_FALSE(engine.cancel(EventHandle{}));
}

TEST(Engine, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(Time{100}, [&] { ++fired; });
  engine.schedule_at(Time{200}, [&] { ++fired; });
  engine.schedule_at(Time{300}, [&] { ++fired; });
  EXPECT_EQ(engine.run_until(Time{200}), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now(), Time{200});
  // The remaining event still fires later.
  EXPECT_EQ(engine.run(), 1u);
  EXPECT_EQ(fired, 3);
}

TEST(Engine, RunUntilAdvancesClockEvenWhenQueueDrains) {
  Engine engine;
  engine.run_until(Time{5'000});
  EXPECT_EQ(engine.now(), Time{5'000});
}

TEST(Engine, EventsScheduledDuringRunAreExecuted) {
  Engine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) engine.schedule_in(Duration{1}, recurse);
  };
  engine.schedule_at(Time{0}, recurse);
  EXPECT_EQ(engine.run(), 100u);
  EXPECT_EQ(depth, 100);
}

TEST(Engine, RequestStopHaltsRun) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(Time{1}, [&] {
    ++fired;
    engine.request_stop();
  });
  engine.schedule_at(Time{2}, [&] { ++fired; });
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.pending_events(), 1u);
}

TEST(Engine, StepExecutesExactlyOneEvent) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(Time{1}, [&] { ++fired; });
  engine.schedule_at(Time{2}, [&] { ++fired; });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(fired, 2);
}

TEST(Engine, PendingEventsTracksCancellations) {
  Engine engine;
  const auto h1 = engine.schedule_at(Time{1}, [] {});
  engine.schedule_at(Time{2}, [] {});
  EXPECT_EQ(engine.pending_events(), 2u);
  engine.cancel(h1);
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.run();
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.events_fired(), 1u);
}

TEST(Engine, CancelledEventBeforeDeadlineDoesNotBlockRunUntil) {
  Engine engine;
  const auto h = engine.schedule_at(Time{100}, [] {});
  engine.schedule_at(Time{150}, [] {});
  engine.cancel(h);
  EXPECT_EQ(engine.run_until(Time{200}), 1u);
}

TEST(Engine, CancelAfterFireReturnsFalse) {
  Engine engine;
  int fired = 0;
  const auto h = engine.schedule_at(Time{100}, [&] { ++fired; });
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(engine.cancel(h));
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(Engine, StaleHandleDoesNotCancelSlotReuse) {
  // After the first event fires, its pool slot is recycled for the next
  // event under a fresh generation; the stale handle must not cancel the
  // newcomer even though both name the same slot.
  Engine engine;
  const auto stale = engine.schedule_at(Time{100}, [] {});
  engine.run();
  bool second_fired = false;
  const auto fresh = engine.schedule_at(Time{200}, [&] { second_fired = true; });
  EXPECT_FALSE(engine.cancel(stale));
  engine.run();
  EXPECT_TRUE(second_fired);
  // And the fresh handle goes stale in turn.
  EXPECT_FALSE(engine.cancel(fresh));
}

TEST(Engine, CancelledHandleStaysDeadAfterSlotReuse) {
  Engine engine;
  const auto h = engine.schedule_at(Time{100}, [] {});
  EXPECT_TRUE(engine.cancel(h));
  bool fired = false;
  engine.schedule_at(Time{50}, [&] { fired = true; });  // reuses the slot
  EXPECT_FALSE(engine.cancel(h));
  engine.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, SameInstantOrderSurvivesInterleavedCancels) {
  Engine engine;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 20; ++i) {
    handles.push_back(engine.schedule_at(Time{50}, [&order, i] { order.push_back(i); }));
  }
  // Cancel every third event; survivors must still fire in scheduling order.
  for (std::size_t i = 0; i < handles.size(); i += 3) EXPECT_TRUE(engine.cancel(handles[i]));
  engine.run();
  std::vector<int> expected;
  for (int i = 0; i < 20; ++i) {
    if (i % 3 != 0) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

TEST(Engine, SameInstantScheduledDuringRunFiresAfterEarlierPeers) {
  // An event scheduled *for now* from inside a handler gets a later seq, so
  // it fires after events already queued for the same instant.
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(Time{10}, [&] {
    order.push_back(0);
    engine.schedule_at(Time{10}, [&] { order.push_back(2); });
  });
  engine.schedule_at(Time{10}, [&] { order.push_back(1); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, PoolGrowsUnderBurstAndStaysWarmAcrossBursts) {
  // Fig 2c peak: 1066 events inside one 100 us window. The pool must grow
  // to cover the burst, then absorb identical bursts with no further
  // growth — the allocation-free steady state.
  Engine engine;
  std::uint64_t fired = 0;
  auto burst = [&engine, &fired](Time base) {
    for (int i = 0; i < 1'066; ++i) {
      const auto offset = sim::nanos(static_cast<std::int64_t>((i * 94) % 100'000));
      engine.schedule_at(base + offset, [&fired] { ++fired; });
    }
  };
  burst(Time{0});
  EXPECT_EQ(engine.pool_in_use(), 1'066u);
  EXPECT_GE(engine.pool_capacity(), 1'066u);
  const std::size_t grown = engine.pool_capacity();
  engine.run();
  EXPECT_EQ(fired, 1'066u);
  EXPECT_EQ(engine.pool_in_use(), 0u);
  for (int round = 1; round <= 3; ++round) {
    burst(engine.now() + sim::millis(std::int64_t{1}));
    engine.run();
    EXPECT_EQ(engine.pool_capacity(), grown) << "burst round " << round << " grew the pool";
  }
  EXPECT_EQ(fired, 4u * 1'066u);
}

TEST(Engine, ReservePrewarmsPool) {
  Engine engine;
  engine.reserve(2'000);
  EXPECT_GE(engine.pool_capacity(), 2'000u);
  const std::size_t capacity = engine.pool_capacity();
  for (int i = 0; i < 2'000; ++i) engine.schedule_at(Time{i}, [] {});
  EXPECT_EQ(engine.pool_capacity(), capacity);
  engine.run();
}

TEST(Engine, ManyCancelsStayCheap) {
  // Regression guard for the old O(n) cancelled-list scan: cancelling tens
  // of thousands of pending events (and popping past their stale heap
  // entries) must complete quickly. Run as a functional check; the perf
  // shape is covered by bench_micro_hotpaths.
  Engine engine;
  std::vector<EventHandle> handles;
  handles.reserve(50'000);
  for (int i = 0; i < 50'000; ++i) {
    handles.push_back(engine.schedule_at(Time{i}, [] {}));
  }
  for (auto& h : handles) EXPECT_TRUE(engine.cancel(h));
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.run(), 0u);
  EXPECT_EQ(engine.events_fired(), 0u);
}

TEST(Engine, RearmChurnCompactsHeapWithoutReordering) {
  // The TCP RTO pattern: 4 connections x 1,500 short events, each cancelling
  // and re-arming a 5 ms timer. Without compaction every re-arm would leave
  // a stale entry in the heap until its 5 ms deadline surfaced.
  Engine engine;
  testing::RearmChurn<Engine> churn{engine, 4, 1'500};
  churn.start();
  engine.run();
  EXPECT_EQ(churn.rearms(), 6'000u);
  EXPECT_EQ(churn.fired(), churn.oracle()) << "firing order must be (time, seq) order";
  EXPECT_EQ(churn.fired().size(), 6'000u + 4u);  // every short event + the last timers
  EXPECT_EQ(churn.bound_violations(), 0u) << "heap exceeded 2 * live + kCompactSlack";
  // At most two live events per connection (its timer and its next short
  // event), so never more than 10 live on any scheduler here.
  EXPECT_LE(churn.max_heap(), 2 * 10 + EventQueue::kCompactSlack);
  EXPECT_EQ(engine.heap_entries(), 0u);
}

TEST(Engine, CompactionKeepsEveryLiveEventAfterMassCancel) {
  // Cancel all but every tenth of 10k events in one burst: compaction fires
  // many times mid-burst and must keep exactly the survivors, in order.
  Engine engine;
  std::vector<EventHandle> handles;
  std::vector<int> order;
  for (int i = 0; i < 10'000; ++i) {
    // Reverse time order so the heap's layout differs from the firing order.
    handles.push_back(engine.schedule_at(Time{10'000 - i}, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 10'000; ++i) {
    if (i % 10 != 0) {
      EXPECT_TRUE(engine.cancel(handles[static_cast<std::size_t>(i)]));
      EXPECT_LE(engine.heap_entries(),
                2 * engine.pending_events() + EventQueue::kCompactSlack);
    }
  }
  EXPECT_EQ(engine.pending_events(), 1'000u);
  EXPECT_LE(engine.heap_entries(), 2 * 1'000u + EventQueue::kCompactSlack);
  EXPECT_EQ(engine.run(), 1'000u);
  ASSERT_EQ(order.size(), 1'000u);
  for (std::size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(order[k], 9'990 - static_cast<int>(k) * 10);
  }
}

}  // namespace
}  // namespace tsn::sim

// Zero-allocation assertions for the simulator's hot paths.
//
// This file replaces the global allocation functions with counting variants,
// which changes behaviour for the whole process — so it builds into its own
// test executable (`tsn_hotpath_alloc_tests`) rather than joining tsn_tests.
//
// The contract under test (DESIGN.md "Hot-path memory model"): once pools
// and scratch buffers are warm, (a) an Engine schedule → fire (or cancel)
// cycle, including a cancel/re-arm churn that compacts the heap, (b) a
// PacketFactory make → drop cycle for small frames, (c) a full NIC → link →
// NIC UDP delivery and (d) a switch multicast fan-out perform zero heap
// allocations.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "book/order_book.hpp"
#include "exchange/session_store.hpp"
#include "l2/commodity_switch.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "net/packet.hpp"
#include "net/stack.hpp"
#include "proto/pitch.hpp"
#include "sim/engine.hpp"

namespace {

std::atomic<std::uint64_t> g_allocation_count{0};

void* counted_alloc(std::size_t size) {
  ++g_allocation_count;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  ++g_allocation_count;
  // aligned_alloc requires size to be a multiple of alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocation_count;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocation_count;
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace tsn {
namespace {

std::uint64_t allocations() { return g_allocation_count.load(std::memory_order_relaxed); }

TEST(HotPathAlloc, EngineScheduleFireCancelCycleIsAllocationFree) {
  sim::Engine engine;
  std::uint64_t fired = 0;
  // Warm-up: grow the event pool and the heap vector to steady-state size,
  // including the cancel path.
  for (int i = 0; i < 1'024; ++i) {
    engine.schedule_in(sim::nanos(std::int64_t{100} + i), [&fired] { ++fired; });
  }
  for (int i = 0; i < 64; ++i) {
    engine.cancel(engine.schedule_in(sim::micros(std::int64_t{5}), [] {}));
  }
  engine.run();

  const std::uint64_t before = allocations();
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 1'024; ++i) {
      engine.schedule_in(sim::nanos(std::int64_t{100} + i), [&fired] { ++fired; });
    }
    for (int i = 0; i < 64; ++i) {
      engine.cancel(engine.schedule_in(sim::micros(std::int64_t{5}), [] {}));
    }
    engine.run();
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "steady-state schedule -> fire/cancel cycles must not touch the heap";
  EXPECT_EQ(fired, 9u * 1'024u);
}

TEST(HotPathAlloc, RearmChurnAcrossCompactionIsAllocationFree) {
  // The TCP RTO pattern: every short event cancels a 5 ms timer and re-arms
  // it. Each round leaves one stale heap entry, so the heap compacts every
  // ~kCompactSlack rounds; erase_if + make_heap work in place.
  sim::Engine engine;
  sim::EventHandle rto;
  std::uint64_t expired = 0;
  std::uint64_t ticks = 0;
  auto churn = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      engine.cancel(rto);
      rto = engine.schedule_in(sim::millis(std::int64_t{5}), [&expired] { ++expired; });
      engine.schedule_in(sim::nanos(std::int64_t{100}), [&ticks] { ++ticks; });
      engine.run_until(engine.now() + sim::nanos(std::int64_t{100}));
    }
  };
  churn(512);  // warm: pool slabs and heap capacity

  const std::uint64_t before = allocations();
  churn(4'096);
  EXPECT_EQ(allocations() - before, 0u)
      << "warm cancel/re-arm churn, compactions included, must not touch the heap";
  EXPECT_EQ(ticks, 512u + 4'096u);
  EXPECT_EQ(expired, 0u);
  EXPECT_EQ(engine.pending_events(), 1u);
  EXPECT_LE(engine.heap_entries(), 2 * engine.pending_events() + sim::EventQueue::kCompactSlack)
      << "stale re-arm entries must be compacted, not accumulated";
}

TEST(HotPathAlloc, PacketMakeDropCycleIsAllocationFree) {
  net::PacketFactory factory;
  std::array<std::byte, 26> frame{};  // Table 1 new-order message
  frame.fill(std::byte{0x5a});
  // Warm-up: first make allocates the pooled block and sizes the freelist.
  { auto p = factory.make(std::span<const std::byte>{frame}, sim::Time{}); }

  const std::uint64_t before = allocations();
  for (int i = 0; i < 4'096; ++i) {
    auto p = factory.make(std::span<const std::byte>{frame}, sim::Time{});
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "small-frame make -> drop cycles must recycle pooled blocks";
  EXPECT_GE(factory.pool_blocks_reused(), 4'096u);
}

TEST(HotPathAlloc, EndToEndUdpDeliveryIsAllocationFree) {
  sim::Engine engine;
  net::Fabric fabric{engine};
  net::Nic a{engine, "a", net::MacAddr::from_host_id(1), net::Ipv4Addr{10, 0, 0, 1}};
  net::Nic b{engine, "b", net::MacAddr::from_host_id(2), net::Ipv4Addr{10, 0, 0, 2}};
  fabric.connect(a, 0, b, 0, net::LinkConfig{});
  // A software hop on the receiver exercises the deferred-rx capture — the
  // largest InlineAction payload on any hot path.
  b.set_rx_delay(sim::nanos(std::int64_t{500}));
  net::NetStack stack_a{a};
  net::NetStack stack_b{b};
  std::uint64_t received_bytes = 0;
  stack_b.bind_udp(7'000, [&received_bytes](const net::Ipv4Header&, const net::UdpHeader&,
                                            std::span<const std::byte> payload, sim::Time) {
    received_bytes += payload.size();
  });
  // 18 B payload -> 64 B frame (Ethernet + IPv4 + UDP + FCS): the inline
  // boundary exactly, so the pooled Packet carries it with no heap payload.
  std::array<std::byte, 18> payload{};
  payload.fill(std::byte{0x42});
  auto send_batch = [&](int count) {
    for (int i = 0; i < count; ++i) {
      stack_a.send_udp(b.mac(), b.ip(), 6'000, 7'000, std::span<const std::byte>{payload});
      engine.run();
    }
  };
  send_batch(64);  // warm: pools, tx scratch, engine heap, link path
  ASSERT_EQ(received_bytes, 64u * 18u);

  const std::uint64_t before = allocations();
  send_batch(64);
  EXPECT_EQ(allocations() - before, 0u)
      << "warm NIC -> link -> NIC UDP delivery must not touch the heap";
  EXPECT_EQ(received_bytes, 128u * 18u);
}

TEST(HotPathAlloc, WarmSwitchMulticastFanOutIsAllocationFree) {
  // A multicast frame through a CommoditySwitch to three receivers: the
  // switch reads the packet's construction-time parse, builds its egress
  // set in a reserved scratch vector, and shares one pooled packet across
  // every replica.
  sim::Engine engine;
  net::Fabric fabric{engine};
  l2::CommoditySwitch sw{engine, "sw", l2::CommoditySwitchConfig{.port_count = 4}};
  std::vector<std::unique_ptr<net::Nic>> nics;
  for (std::uint8_t i = 0; i < 4; ++i) {
    nics.push_back(std::make_unique<net::Nic>(engine, "h", net::MacAddr::from_host_id(i + 1u),
                                              net::Ipv4Addr{10, 0, 0, i}));
    fabric.connect(sw, i, *nics.back(), 0, net::LinkConfig{});
  }
  const net::Ipv4Addr group{239, 1, 1, 1};
  std::uint64_t delivered = 0;
  for (net::PortId port = 1; port < 4; ++port) {
    sw.join_group(group, port);
    nics[port]->subscribe_multicast_mac(net::multicast_mac(group));
    nics[port]->set_rx_handler([&delivered](const net::PacketPtr&, sim::Time) { ++delivered; });
  }
  nics[1]->set_rx_delay(sim::nanos(std::int64_t{500}));  // deferred-rx capture too
  std::array<std::byte, 18> payload{};
  payload.fill(std::byte{0x42});
  std::vector<std::byte> frame;
  net::build_multicast_frame_into(frame, nics[0]->mac(), nics[0]->ip(), group, 30'001,
                                  std::span<const std::byte>{payload});
  auto send_batch = [&](int count) {
    for (int i = 0; i < count; ++i) {
      nics[0]->send_frame(std::span<const std::byte>{frame});
      engine.run();
    }
  };
  send_batch(64);  // warm: packet pools, engine heap, switch scratch
  ASSERT_EQ(delivered, 64u * 3u);

  const std::uint64_t before = allocations();
  send_batch(64);
  EXPECT_EQ(allocations() - before, 0u)
      << "warm switch multicast fan-out must not touch the heap";
  EXPECT_EQ(delivered, 128u * 3u);
  EXPECT_EQ(sw.stats().replications, 128u * 3u);
}

TEST(HotPathAlloc, WarmBookUpdateMixIsAllocationFree) {
  // The SoA book contract: with reserved slabs (or after organic growth),
  // submit/cancel/reduce/replace — including matching — never allocate.
  // CacheAlignedAllocator goes through aligned operator new, so slab growth
  // IS counted here; reserve() must front-load all of it.
  book::OrderBook book{proto::Symbol{"ACME"}};
  book.reserve(4'096, 256);
  proto::OrderId id = 1;
  auto churn = [&book, &id](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      const auto side = (id & 1) != 0 ? proto::Side::kBuy : proto::Side::kSell;
      const auto price = (side == proto::Side::kBuy ? 9'000 : 14'200) +
                         static_cast<proto::Price>(i % 50) * 100;
      book.submit({id, side, price, 100});
      (void)book.reduce(id, 60);
      // Marketable IOC consumes one resting order on the opposite side.
      const auto best = book.best();
      if (side == proto::Side::kBuy && best.ask_price) {
        (void)book.submit({id + 1'000'000, proto::Side::kBuy, *best.ask_price, 60}, true);
      }
      if (id > 64) (void)book.cancel(id - 64);
      ++id;
    }
  };
  churn(512);  // warm: index growth, level ladder, freelists
  const std::uint64_t before = allocations();
  churn(2'048);
  EXPECT_EQ(allocations() - before, 0u)
      << "warm SoA book updates must not touch the heap";
  EXPECT_GT(book.executions(), 0u);
}

TEST(HotPathAlloc, WarmSessionStoreCycleIsAllocationFree) {
  // The pooled session store's contract (DESIGN.md "Session scale-out"):
  // with reserve() front-loading the slabs, indexes and journal arena, the
  // per-session lifecycle — login, bind, order register/close with dedupe,
  // journal stage + group flush, replay, flap (unbind/bind) and re-login —
  // is allocation-free.
  exchange::SessionStore store{exchange::SessionStoreConfig{.shards = 16}};
  store.reserve(1'024, 8'192, std::size_t{1} << 20);

  constexpr std::uint32_t kPop = 256;
  constexpr std::uint32_t kBase = 7'000'000;
  std::uint64_t next_client = 1;
  std::uint64_t next_exch = 1;
  std::uint32_t next_conn = 1;
  std::vector<std::uint32_t> tx(kPop, 0);
  std::vector<proto::OrderId> scratch;
  std::array<std::byte, 24> payload{};
  payload.fill(std::byte{0x5a});
  std::uint64_t replayed = 0;

  const auto token_of = [](std::uint32_t s) { return 0xfeedULL + s; };
  for (std::uint32_t s = 0; s < kPop; ++s) {
    const auto result = store.login(kBase + s, token_of(s));
    store.bind(result.slot, next_conn++);
  }

  auto churn = [&](int rounds) {
    for (int round = 0; round < rounds; ++round) {
      for (std::uint32_t s = 0; s < kPop; ++s) {
        const std::uint32_t slot = store.lookup(kBase + s);
        // Register one fresh order (plus a duplicate probe) and retire it.
        const proto::OrderId client_id = next_client++;
        ASSERT_EQ(store.register_order(slot, client_id, next_exch++, 0),
                  exchange::OrderVerdict::kAccepted);
        ASSERT_EQ(store.register_order(slot, client_id, next_exch, 0),
                  exchange::OrderVerdict::kDuplicateClientId);
        store.collect_open_client_ids(slot, scratch);
        store.close_order(store.find_open(slot, client_id));
        // Stage a sequenced send; every eighth session group-flushes.
        store.journal_stage(slot, ++tx[s], payload);
        if (s % 8 == 7) store.journal_flush();
        // Flap: drop the connection, come back, replay the tail.
        if (s % 16 == static_cast<std::uint32_t>(round) % 16) {
          store.unbind(slot);
          store.bind(slot, next_conn++);
          store.replay(slot, tx[s] > 2 ? tx[s] - 2 : 0,
                       [&replayed](std::uint32_t, std::span<const std::byte>) {
                         ++replayed;
                       });
        }
      }
      store.journal_flush();
      // A couple of re-logins: the session resumes its own slot and
      // directory entry without growing anything.
      for (std::uint32_t k = 0; k < 2; ++k) {
        const std::uint32_t s = (static_cast<std::uint32_t>(round) * 2 + k) % kPop;
        const std::uint32_t slot = store.lookup(kBase + s);
        const auto back = store.login(kBase + s, token_of(s));
        ASSERT_EQ(back.verdict, exchange::LoginVerdict::kMatch);
        ASSERT_EQ(back.slot, slot);
        store.bind(back.slot, next_conn++);
      }
    }
  };
  churn(4);  // warm: freelists, staging ring, scratch capacities

  const std::uint64_t before = allocations();
  churn(8);
  EXPECT_EQ(allocations() - before, 0u)
      << "warm session login/order/journal/replay cycles must not touch the heap";
  EXPECT_GT(replayed, 0u);
  EXPECT_EQ(store.session_count(), kPop);
}

TEST(HotPathAlloc, ReservedSessionStoreFirstUseIsAllocationFree) {
  // reserve() reserves the slabs' capacity but builds no row: a row is
  // constructed the first time it is handed out. That first use must fit in
  // the reserved capacity, so with no warm-up at all, the first logins,
  // binds, order register/close, journal stage/flush, replay and a
  // re-login stay off the heap while within the reserved budget.
  exchange::SessionStore store{exchange::SessionStoreConfig{.shards = 16}};
  store.reserve(1'024, 8'192, std::size_t{1} << 20);

  constexpr std::uint32_t kPop = 512;
  constexpr std::uint32_t kBase = 8'000'000;
  std::vector<std::uint32_t> slots(kPop, 0);
  std::array<std::byte, 24> payload{};
  payload.fill(std::byte{0x3c});
  std::uint64_t replayed = 0;
  const auto count_replayed = [&replayed](std::uint32_t, std::span<const std::byte>) {
    ++replayed;
  };

  const std::uint64_t before = allocations();
  for (std::uint32_t s = 0; s < kPop; ++s) {
    const auto result = store.login(kBase + s, 0xbeefULL + s);
    ASSERT_EQ(result.verdict, exchange::LoginVerdict::kNew);
    slots[s] = result.slot;
    store.bind(result.slot, s);
  }
  proto::OrderId next_id = 1;
  for (int round = 0; round < 4; ++round) {
    for (std::uint32_t s = 0; s < kPop; ++s) {
      // Two fresh orders per session per round; the older one closes.
      for (int k = 0; k < 2; ++k) {
        ASSERT_EQ(store.register_order(slots[s], next_id, next_id, 0),
                  exchange::OrderVerdict::kAccepted);
        ++next_id;
      }
      store.close_order(store.find_open(slots[s], next_id - 2));
      store.journal_stage(slots[s], store.next_seq(slots[s]), payload);
    }
    store.journal_flush();
    store.replay(slots[round], 0, count_replayed);
    store.unbind(slots[round]);
  }
  const auto back = store.login(kBase, 0xbeefULL);
  ASSERT_EQ(back.verdict, exchange::LoginVerdict::kMatch);
  ASSERT_EQ(back.slot, slots[0]);
  EXPECT_EQ(allocations() - before, 0u)
      << "first use of a reserved session store must not touch the heap";
  EXPECT_EQ(replayed, 1u + 2u + 3u + 4u);  // session r holds r + 1 records at round r
  EXPECT_EQ(store.open_orders_total(), kPop * 4u);
}

TEST(HotPathAlloc, WarmBatchDecodeIsAllocationFree) {
  // decode_batch into a reused DecodedBatch: columns keep their capacity, so
  // a warm decode of the same-shaped datagram is pure loads and stores.
  std::vector<std::byte> payload;
  proto::pitch::FrameBuilder builder{1, 1458,
                                     [&payload](std::vector<std::byte> p,
                                                const proto::pitch::UnitHeader&) {
                                       payload = std::move(p);
                                     }};
  proto::pitch::AddOrder add;
  add.symbol = proto::Symbol{"ACME"};
  add.quantity = 100;
  add.price = 60'000;
  for (int i = 0; i < 30; ++i) {
    add.order_id = static_cast<proto::OrderId>(i + 1);
    builder.append(proto::pitch::Message{add});
  }
  proto::pitch::DeleteOrder del;
  for (int i = 0; i < 20; ++i) {
    del.order_id = static_cast<proto::OrderId>(i + 1);
    builder.append(proto::pitch::Message{del});
  }
  builder.flush();
  proto::pitch::DecodedBatch batch;
  ASSERT_TRUE(proto::pitch::decode_batch(payload, batch));  // warm: column growth
  ASSERT_EQ(batch.count, 50u);

  const std::uint64_t before = allocations();
  for (int i = 0; i < 4'096; ++i) {
    ASSERT_TRUE(proto::pitch::decode_batch(payload, batch));
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "warm batch decode must reuse the SoA columns without heap traffic";
  EXPECT_EQ(batch.count, 50u);
}

TEST(HotPathAlloc, WarmFeedMirrorIsAllocationFree) {
  // OrderBook::mirror, the feed-row edit the normalizer and BookReplayer
  // share: once the book's slabs and index are warm, adds (including
  // replacing a live id), executes, reduces, modifies and deletes reuse
  // freed slots and never allocate.
  std::vector<std::byte> payload;
  proto::pitch::FrameBuilder builder{1, 1458,
                                     [&payload](std::vector<std::byte> p,
                                                const proto::pitch::UnitHeader&) {
                                       payload = std::move(p);
                                     }};
  proto::pitch::AddOrder add;
  add.symbol = proto::Symbol{"ACME"};
  add.quantity = 100;
  for (int i = 0; i < 24; ++i) {
    add.order_id = static_cast<proto::OrderId>(i + 1);
    add.side = (i & 1) != 0 ? proto::Side::kBuy : proto::Side::kSell;
    add.price = (add.side == proto::Side::kBuy ? 50'000 : 60'000) + (i % 6) * 100;
    builder.append(proto::pitch::Message{add});
  }
  for (int i = 0; i < 6; ++i) {
    const auto id = static_cast<proto::OrderId>(i + 1);
    builder.append(proto::pitch::Message{proto::pitch::OrderExecuted{0, id, 40, 0}});
    builder.append(proto::pitch::Message{proto::pitch::ReduceSize{0, id + 6, 30}});
    builder.append(proto::pitch::Message{proto::pitch::ModifyOrder{0, id + 12, 70, 55'000, 0}});
    builder.append(proto::pitch::Message{proto::pitch::DeleteOrder{0, id + 18}});
  }
  builder.flush();
  proto::pitch::DecodedBatch batch;
  ASSERT_TRUE(proto::pitch::decode_batch(payload, batch));
  book::OrderBook book{proto::Symbol{"ACME"}};
  auto mirror_all = [&book, &batch] {
    for (std::size_t row = 0; row < batch.count; ++row) (void)book.mirror(batch, row);
  };
  mirror_all();  // warm: slab, level and index growth

  const std::uint64_t before = allocations();
  for (int i = 0; i < 1'024; ++i) mirror_all();
  EXPECT_EQ(allocations() - before, 0u) << "warm feed mirroring must not touch the heap";
  EXPECT_EQ(book.open_orders(), 18u);  // every live id replaced, six deleted
  EXPECT_EQ(book.executions(), 0u);
}

}  // namespace
}  // namespace tsn

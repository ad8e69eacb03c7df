// Differential property test: SessionStore vs a naive std::map oracle.
//
// Randomized op soups (create / bind / unbind / re-login / takeover-style
// wrong-token logins / order register / close / journal stage+flush+replay)
// run against both the pooled sharded store and a transparently correct
// oracle built on std::map/std::set. After every mutation batch the test
// compares lookups, verdicts, per-shard connected membership *in bind
// order*, open-order sets, dedupe marks and byte-exact replay streams.
// Multiple shard counts exercise the directory sharding.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "exchange/session_store.hpp"
#include "sim/random.hpp"

namespace tsn {
namespace {

using exchange::LoginVerdict;
using exchange::OrderVerdict;
using exchange::SessionStore;
using exchange::SessionStoreConfig;

constexpr std::uint32_t kIdBase = 5'000'000;

struct OracleSession {
  std::uint64_t token = 0;
  bool bound = false;
  std::map<proto::OrderId, proto::OrderId> open;  // client id -> exchange id
  std::set<proto::OrderId> used;                  // every client id ever used
  std::vector<std::pair<std::uint32_t, std::vector<std::byte>>> journal;
  std::uint32_t tx = 1;
};

struct Oracle {
  std::map<std::uint32_t, OracleSession> sessions;        // by external id
  std::map<std::uint32_t, std::vector<std::uint32_t>> shard_lists;  // bind order
  std::map<proto::OrderId, std::pair<std::uint32_t, proto::OrderId>> exch;  // -> (ext, client)

  void bind(std::uint32_t shard, std::uint32_t ext) {
    auto& list = shard_lists[shard];
    std::erase(list, ext);
    list.push_back(ext);
    sessions[ext].bound = true;
  }
  void unbind(std::uint32_t shard, std::uint32_t ext) {
    std::erase(shard_lists[shard], ext);
    sessions[ext].bound = false;
  }
};

class SessionStoreDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SessionStoreDifferentialTest, OpSoupMatchesOracle) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng(seed);
  const std::uint32_t shard_cfg[] = {1, 4, 16, 32};
  SessionStoreConfig config;
  config.shards = shard_cfg[seed % 4];
  SessionStore store(config);
  if (seed % 2 == 0) store.reserve(64, 256, 1 << 14);  // odd seeds grow on demand
  Oracle oracle;

  const std::uint32_t population = 48;
  std::uint64_t next_exchange_id = 1;
  std::uint32_t next_conn = 1;
  std::uint64_t next_client_id = 1;
  std::vector<proto::OrderId> scratch_ids;

  const auto token_of = [](std::uint32_t ext) { return 0x70CE2ULL + ext * 7919ULL; };
  const auto slot_of = [&](std::uint32_t ext) { return store.lookup(ext); };
  const auto pick_live = [&]() -> std::uint32_t {
    if (oracle.sessions.empty()) return 0;
    auto it = oracle.sessions.begin();
    std::advance(it, static_cast<long>(rng.next_below(oracle.sessions.size())));
    return it->first;
  };

  for (int op = 0; op < 3000; ++op) {
    const std::uint64_t kind = rng.next_below(100);
    if (kind < 22) {  // login (fresh, resume, or wrong token)
      const std::uint32_t ext = kIdBase + static_cast<std::uint32_t>(rng.next_below(population));
      const bool wrong = rng.bernoulli(0.15);
      const std::uint64_t token = wrong ? ~token_of(ext) : token_of(ext);
      const auto result = store.login(ext, token);
      auto it = oracle.sessions.find(ext);
      if (it == oracle.sessions.end()) {
        ASSERT_EQ(result.verdict, LoginVerdict::kNew);
        oracle.sessions[ext].token = token;
      } else if (it->second.token == token) {
        ASSERT_EQ(result.verdict, LoginVerdict::kMatch);
        ASSERT_EQ(store.session_id(result.slot), ext);
      } else {
        ASSERT_EQ(result.verdict, LoginVerdict::kInUse);
        ASSERT_EQ(result.slot, SessionStore::kNullSlot);
      }
    } else if (kind < 34) {  // bind (fresh conn, possibly a rebind)
      if (oracle.sessions.empty()) continue;
      const std::uint32_t ext = pick_live();
      store.bind(slot_of(ext), next_conn++);
      oracle.bind(store.shard_of(ext), ext);
    } else if (kind < 42) {  // unbind
      if (oracle.sessions.empty()) continue;
      const std::uint32_t ext = pick_live();
      store.unbind(slot_of(ext));
      oracle.unbind(store.shard_of(ext), ext);
    } else if (kind < 62) {  // register an order (sometimes a duplicate id)
      if (oracle.sessions.empty()) continue;
      const std::uint32_t ext = pick_live();
      auto& osess = oracle.sessions[ext];
      proto::OrderId client_id;
      if (!osess.used.empty() && rng.bernoulli(0.25)) {
        auto it = osess.used.begin();
        std::advance(it, static_cast<long>(rng.next_below(osess.used.size())));
        client_id = *it;
      } else {
        client_id = next_client_id++;
      }
      const proto::OrderId exchange_id = next_exchange_id++;
      const auto verdict = store.register_order(slot_of(ext), client_id, exchange_id,
                                                static_cast<std::uint16_t>(ext % 7));
      if (osess.used.contains(client_id)) {
        ASSERT_EQ(verdict, OrderVerdict::kDuplicateClientId) << "id " << client_id;
      } else {
        ASSERT_EQ(verdict, OrderVerdict::kAccepted);
        osess.used.insert(client_id);
        osess.open[client_id] = exchange_id;
        oracle.exch[exchange_id] = {ext, client_id};
      }
    } else if (kind < 72) {  // close an open order
      if (oracle.exch.empty()) continue;
      auto it = oracle.exch.begin();
      std::advance(it, static_cast<long>(rng.next_below(oracle.exch.size())));
      const auto [ext, client_id] = it->second;
      const std::uint32_t order = store.find_open(slot_of(ext), client_id);
      ASSERT_NE(order, SessionStore::kNullSlot);
      ASSERT_EQ(store.order_exchange_id(order), it->first);
      store.close_order(order);
      oracle.sessions[ext].open.erase(client_id);
      oracle.exch.erase(it);
    } else if (kind < 84) {  // journal a sequenced message
      if (oracle.sessions.empty()) continue;
      const std::uint32_t ext = pick_live();
      auto& osess = oracle.sessions[ext];
      std::vector<std::byte> payload(1 + rng.next_below(24));
      for (auto& b : payload) b = static_cast<std::byte>(rng.next_below(256));
      const std::uint32_t seq = osess.tx++;
      store.journal_stage(slot_of(ext), seq, payload);
      osess.journal.emplace_back(seq, std::move(payload));
      if (rng.bernoulli(0.3)) store.journal_flush();
    } else if (kind < 90) {  // replay from a random horizon
      if (oracle.sessions.empty()) continue;
      const std::uint32_t ext = pick_live();
      const auto& osess = oracle.sessions[ext];
      const std::uint32_t last_seen =
          static_cast<std::uint32_t>(rng.next_below(osess.tx + 1));
      std::vector<std::pair<std::uint32_t, std::vector<std::byte>>> got;
      store.replay(slot_of(ext), last_seen, [&](std::uint32_t seq,
                                                std::span<const std::byte> bytes) {
        got.emplace_back(seq, std::vector<std::byte>(bytes.begin(), bytes.end()));
      });
      std::vector<std::pair<std::uint32_t, std::vector<std::byte>>> want;
      for (const auto& [seq, bytes] : osess.journal) {
        if (seq > last_seen) want.emplace_back(seq, bytes);
      }
      ASSERT_EQ(got, want) << "replay horizon " << last_seen;
    } else {  // point queries on a random live session
      if (oracle.sessions.empty()) continue;
      const std::uint32_t ext = pick_live();
      const auto& osess = oracle.sessions.at(ext);
      const std::uint32_t slot = slot_of(ext);
      ASSERT_NE(slot, SessionStore::kNullSlot);
      ASSERT_EQ(store.open_order_count(slot), osess.open.size());
      store.collect_open_client_ids(slot, scratch_ids);
      std::vector<proto::OrderId> want_ids;
      for (const auto& [cid, eid] : osess.open) want_ids.push_back(cid);
      ASSERT_EQ(scratch_ids, want_ids);  // both sorted ascending
      const proto::OrderId probe = rng.next_below(next_client_id + 4);
      ASSERT_EQ(store.client_id_used(slot, probe), osess.used.contains(probe));
      ASSERT_EQ(store.find_open(slot, probe) != SessionStore::kNullSlot,
                osess.open.contains(probe));
    }

    if (op % 97 == 0) {  // full cross-check: directory + sweep membership
      ASSERT_EQ(store.session_count(), oracle.sessions.size());
      ASSERT_EQ(store.open_orders_total(), oracle.exch.size());
      for (const auto& [eid, owner] : oracle.exch) {
        const std::uint32_t order = store.find_by_exchange(eid);
        ASSERT_NE(order, SessionStore::kNullSlot);
        ASSERT_EQ(store.order_client_id(order), owner.second);
        ASSERT_EQ(store.session_id(store.order_session(order)), owner.first);
      }
      for (std::uint32_t shard = 0; shard < store.shard_count(); ++shard) {
        std::vector<std::uint32_t> got;
        store.for_each_connected(shard, [&](std::uint32_t slot) {
          got.push_back(store.session_id(slot));
        });
        const auto it = oracle.shard_lists.find(shard);
        const std::vector<std::uint32_t> want =
            it == oracle.shard_lists.end() ? std::vector<std::uint32_t>{} : it->second;
        ASSERT_EQ(got, want) << "shard " << shard << " bind order diverged";
        ASSERT_EQ(store.connected_count(shard), want.size());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionStoreDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 17u, 42u, 1001u, 9999u));

// The client index is insert-only and sized from the open-order budget, so
// a store that registers more client ids than that grows it by rehash. Force
// several doublings on an unreserved store across many sessions, closing
// some orders along the way: after the rehashes every id used must still be
// rejected as a duplicate, every open order must still resolve through
// find_open, and ids never used must still be free.
TEST(SessionStoreClientIndex, GrowthKeepsDedupeAndOpenOrders) {
  SessionStore store(SessionStoreConfig{.shards = 4});
  constexpr std::uint32_t kSessions = 8;
  constexpr proto::OrderId kIdsPerSession = 300;
  std::vector<std::uint32_t> slots;
  for (std::uint32_t s = 0; s < kSessions; ++s) slots.push_back(store.login(kIdBase + s, s).slot);
  std::map<std::pair<std::uint32_t, proto::OrderId>, std::uint32_t> open;  // -> order slot
  proto::OrderId next_exchange = 1;
  for (proto::OrderId id = 1; id <= kIdsPerSession; ++id) {
    for (const std::uint32_t slot : slots) {
      ASSERT_EQ(store.register_order(slot, id, next_exchange++, 0), OrderVerdict::kAccepted);
      const std::uint32_t order = store.find_open(slot, id);
      ASSERT_NE(order, SessionStore::kNullSlot);
      if (id % 3 == 0) {
        store.close_order(order);
      } else {
        open[{slot, id}] = order;
      }
    }
  }
  ASSERT_EQ(store.stats().orders_registered, kSessions * kIdsPerSession);
  ASSERT_EQ(store.open_orders_total(), open.size());
  for (const std::uint32_t slot : slots) {
    for (proto::OrderId id = 1; id <= kIdsPerSession; ++id) {
      EXPECT_TRUE(store.client_id_used(slot, id));
      ASSERT_EQ(store.register_order(slot, id, next_exchange++, 0),
                OrderVerdict::kDuplicateClientId);
      const auto it = open.find({slot, id});
      const std::uint32_t want = it == open.end() ? SessionStore::kNullSlot : it->second;
      ASSERT_EQ(store.find_open(slot, id), want) << "slot " << slot << " id " << id;
    }
    EXPECT_FALSE(store.client_id_used(slot, kIdsPerSession + 1));
    EXPECT_FALSE(store.client_id_used(slot, 0));
  }
  for (const auto& [key, order] : open) {
    EXPECT_EQ(store.order_session(order), key.first);
    EXPECT_EQ(store.order_client_id(order), key.second);
  }
}

// Tombstone-heavy churn: a bounded set of open orders cycling through the
// exchange-id index piles up tombstones to the load-factor trip over and
// over. The trip must compact in place (rehash at unchanged capacity, drop
// tombstones), not double forever; lookups stay correct against a std::map
// oracle throughout.
TEST(SessionStoreExchangeIndex, TombstoneChurnCompactsAndStaysCorrect) {
  sim::Rng rng(7);
  SessionStore store(SessionStoreConfig{.shards = 1});
  const std::uint32_t ext = kIdBase + 1;
  const std::uint32_t slot = store.login(ext, 9).slot;
  std::map<proto::OrderId, proto::OrderId> open;  // exchange id -> client id
  proto::OrderId next_client = 1;
  proto::OrderId next_exchange = 1;
  std::size_t capacity_hwm = 0;
  for (int op = 0; op < 20'000; ++op) {
    if (open.size() < 24 && (open.empty() || rng.bernoulli(0.55))) {
      const proto::OrderId cid = next_client++;
      const proto::OrderId eid = next_exchange++;
      ASSERT_EQ(store.register_order(slot, cid, eid, 0), OrderVerdict::kAccepted);
      open[eid] = cid;
    } else {
      auto it = open.begin();
      std::advance(it, static_cast<long>(rng.next_below(open.size())));
      const std::uint32_t order = store.find_by_exchange(it->first);
      ASSERT_NE(order, SessionStore::kNullSlot);
      ASSERT_EQ(store.order_client_id(order), it->second);
      store.close_order(order);
      open.erase(it);
    }
    capacity_hwm = std::max(capacity_hwm, store.debug_exchange_index_capacity());
    if (op % 500 == 0) {
      ASSERT_EQ(store.open_orders_total(), open.size());
      for (const auto& [eid, cid] : open) {
        const std::uint32_t order = store.find_by_exchange(eid);
        ASSERT_NE(order, SessionStore::kNullSlot);
        ASSERT_EQ(store.order_client_id(order), cid);
        ASSERT_EQ(store.find_open(slot, cid), order);
      }
      for (proto::OrderId eid = 1; eid < next_exchange; ++eid) {
        if (!open.contains(eid)) {
          ASSERT_EQ(store.find_by_exchange(eid), SessionStore::kNullSlot) << "eid " << eid;
        }
      }
    }
  }
  // 24 live orders need 64 table entries at the 70% trip; the compacting
  // rehash keeps the index there no matter how many ids churn through.
  EXPECT_LE(capacity_hwm, 64u);
}

// Slot hand-out does not depend on reserve(): reserve only reserves slab
// capacity, session rows are appended in login order, and order rows come
// from the freelist (LIFO) before fresh rows (ascending) either way. The
// same seeded op soup on a reserved store and an unreserved one must return
// the same slot at every step, the same open ids, the same lookups and the
// same digest. The population outgrows the reserved
// budget, so growth past reserve() is covered too.
class SessionStoreReserveTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SessionStoreReserveTest, SlotOrderIndependentOfReserve) {
  sim::Rng rng(GetParam());
  SessionStore reserved(SessionStoreConfig{.shards = 4});
  reserved.reserve(32, 64, 1 << 12);
  SessionStore grown(SessionStoreConfig{.shards = 4});
  proto::OrderId next_client = 1;
  proto::OrderId next_exchange = 1;
  std::uint32_t next_conn = 1;
  std::vector<proto::OrderId> ids_reserved;
  std::vector<proto::OrderId> ids_grown;
  const std::byte payload[4] = {std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4}};

  // The session slot of a random external id, equal in both stores.
  const auto pick = [&]() -> std::uint32_t {
    const std::uint32_t ext = kIdBase + static_cast<std::uint32_t>(rng.next_below(80));
    const std::uint32_t slot = reserved.lookup(ext);
    EXPECT_EQ(slot, grown.lookup(ext));
    return slot;
  };

  for (int op = 0; op < 4000; ++op) {
    const std::uint64_t kind = rng.next_below(100);
    if (kind < 20) {  // login: fresh, resume or wrong token
      const std::uint32_t ext = kIdBase + static_cast<std::uint32_t>(rng.next_below(80));
      const std::uint64_t token = rng.bernoulli(0.1) ? 7 : ext;
      const auto a = reserved.login(ext, token);
      const auto b = grown.login(ext, token);
      ASSERT_EQ(a.slot, b.slot);
      ASSERT_EQ(a.verdict, b.verdict);
      continue;
    }
    const std::uint32_t slot = pick();
    if (slot == SessionStore::kNullSlot) continue;
    if (kind < 40) {  // register, sometimes reusing an id
      const proto::OrderId cid =
          rng.bernoulli(0.2) ? 1 + rng.next_below(next_client) : next_client++;
      const proto::OrderId eid = next_exchange++;
      ASSERT_EQ(reserved.register_order(slot, cid, eid, 3),
                grown.register_order(slot, cid, eid, 3));
      ASSERT_EQ(reserved.find_by_exchange(eid), grown.find_by_exchange(eid));
    } else if (kind < 55) {  // close by client id
      const proto::OrderId cid = 1 + rng.next_below(next_client);
      const std::uint32_t order = reserved.find_open(slot, cid);
      ASSERT_EQ(order, grown.find_open(slot, cid));
      if (order != SessionStore::kNullSlot) {
        reserved.close_order(order);
        grown.close_order(order);
      }
    } else if (kind < 65) {  // close by exchange id
      const proto::OrderId eid = 1 + rng.next_below(next_exchange);
      const std::uint32_t order = reserved.find_by_exchange(eid);
      ASSERT_EQ(order, grown.find_by_exchange(eid));
      if (order != SessionStore::kNullSlot) {
        reserved.close_order(order);
        grown.close_order(order);
      }
    } else if (kind < 80) {  // journal, flushing now and then
      reserved.journal_stage(slot, reserved.next_seq(slot), payload);
      grown.journal_stage(slot, grown.next_seq(slot), payload);
      if (rng.bernoulli(0.3)) {
        reserved.journal_flush();
        grown.journal_flush();
      }
    } else if (kind < 90) {  // bind or unbind
      if (rng.bernoulli(0.6)) {
        reserved.bind(slot, next_conn);
        grown.bind(slot, next_conn++);
      } else {
        reserved.unbind(slot);
        grown.unbind(slot);
      }
    } else {  // open ids
      reserved.collect_open_client_ids(slot, ids_reserved);
      grown.collect_open_client_ids(slot, ids_grown);
      ASSERT_EQ(ids_reserved, ids_grown);
    }
    if (op % 50 == 0) {
      ASSERT_EQ(reserved.state_digest(), grown.state_digest()) << "op " << op;
    }
  }
  EXPECT_GT(reserved.session_count(), 32u);  // the reserved budget was outgrown
  EXPECT_EQ(reserved.state_digest(), grown.state_digest());
  EXPECT_EQ(reserved.open_orders_total(), grown.open_orders_total());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionStoreReserveTest, ::testing::Values(5u, 23u, 777u));

// The hand-out order itself: session slots ascend from 0 in login order,
// and order slots come back last-closed first, before any fresh slot; the
// same with and without reserve().
TEST(SessionStoreSlots, FreshAscendingThenLifoOrderReuse) {
  for (const bool reserve : {false, true}) {
    SCOPED_TRACE(reserve ? "reserved" : "unreserved");
    SessionStore store(SessionStoreConfig{.shards = 4});
    if (reserve) store.reserve(8, 8, 1 << 10);
    for (std::uint32_t i = 0; i < 6; ++i) ASSERT_EQ(store.login(kIdBase + i, 1).slot, i);
    EXPECT_EQ(store.login(kIdBase + 3, 1).slot, 3u);  // a re-login keeps its slot

    const std::uint32_t slot = store.lookup(kIdBase);
    for (std::uint32_t i = 0; i < 5; ++i) {
      ASSERT_EQ(store.register_order(slot, 100 + i, 1'000 + i, 0), OrderVerdict::kAccepted);
      ASSERT_EQ(store.find_open(slot, 100 + i), i);
    }
    store.close_order(store.find_open(slot, 101));
    store.close_order(store.find_open(slot, 103));
    ASSERT_EQ(store.register_order(slot, 200, 2'000, 0), OrderVerdict::kAccepted);
    ASSERT_EQ(store.register_order(slot, 201, 2'001, 0), OrderVerdict::kAccepted);
    ASSERT_EQ(store.register_order(slot, 202, 2'002, 0), OrderVerdict::kAccepted);
    EXPECT_EQ(store.find_open(slot, 200), 3u);
    EXPECT_EQ(store.find_open(slot, 201), 1u);
    EXPECT_EQ(store.find_open(slot, 202), 5u);

    // Another session's orders draw on the same freelist.
    const std::uint32_t other = store.lookup(kIdBase + 5);
    store.close_order(store.find_open(slot, 100));
    store.close_order(store.find_open(slot, 202));
    ASSERT_EQ(store.register_order(other, 100, 3'000, 0), OrderVerdict::kAccepted);
    ASSERT_EQ(store.register_order(other, 101, 3'001, 0), OrderVerdict::kAccepted);
    EXPECT_EQ(store.find_open(other, 100), 5u);
    EXPECT_EQ(store.find_open(other, 101), 0u);
    EXPECT_EQ(store.order_session(5), other);
    EXPECT_EQ(store.find_open(slot, 100), SessionStore::kNullSlot);
    EXPECT_EQ(store.session_count(), 6u);
  }
}

// Directory shards round up to a power of two and ids spread across them.
TEST(SessionStoreShards, RoundsUpAndSpreads) {
  SessionStore store(SessionStoreConfig{.shards = 5});
  EXPECT_EQ(store.shard_count(), 8u);
  std::set<std::uint32_t> seen;
  for (std::uint32_t id = 0; id < 1000; ++id) {
    const std::uint32_t shard = store.shard_of(id);
    ASSERT_LT(shard, store.shard_count());
    seen.insert(shard);
  }
  EXPECT_EQ(seen.size(), 8u);  // 1000 hashed ids hit every one of 8 shards
}

}  // namespace
}  // namespace tsn

// Pooled, sharded session/order/journal state for a million-session
// exchange front end (ROADMAP item 2): the 10^5–10^6 concurrent gateway
// sessions the paper's Design 2/3 fan-in assumes. State lives in slab rows
// addressed by u32 slot.
//
//   session row    one 64-byte line: token | external id | tx_seq | conn |
//                  order head/count | journal head/tail/count | shard |
//                  prev | next | flags
//   order row      client id | exchange id | session | prev | next | symbol
//   journal record offset | seq | length | next   (+ one shared byte arena)
//
// Sessions are permanent: as on a real venue, a session id is resumable
// forever, so a session row is never freed and its directory entry never
// erased. Session rows and journal records are append-only; only order rows
// are recycled, through a LIFO freelist that `close_order` feeds. Slabs are
// touched on first use: `reserve()` only reserves their capacity, and a row
// is built when first handed out (freed order rows first, LIFO, then fresh
// rows ascending), so slots come out the same whether or not it was
// reserved. Every access reads one whole row, and a find takes ~1 probe of
// one entry struct, so each touches one cache line.
//
// The session directory is sharded: session ids hash to one of S shards,
// each with its own open-addressing index and an intrusive bind-ordered
// list of *connected* sessions, so id lookups and liveness /
// cancel-on-disconnect sweeps touch O(shard), never O(population).
//
// Journaling is batched: `journal_stage` appends a sequenced message's
// bytes to a shared staging ring; `journal_flush` commits the whole ring —
// one arena append plus chain links — so the per-message journal cost
// amortizes across every session that sent in the same instant (the
// exchange schedules one flush per instant, like its feed flush). Replay
// walks a session's record chain and hands back the original bytes
// verbatim, preserving the byte-identical exactly-once replay contract.
//
// Client-order-id state (the dedupe set plus the open-order lookup) is one
// global insert-only open-addressing table of 16-byte entries keyed by
// (session slot, client id): an entry holds the live order slot, or, once
// the order is terminal, a closed mark that keeps rejecting duplicate ids
// forever.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "book/order_book.hpp"  // book::Column / CacheAlignedAllocator
#include "proto/types.hpp"

namespace tsn::exchange {

using book::Column;

struct SessionStoreConfig {
  // Directory shard count; rounded up to a power of two.
  std::uint32_t shards = 1;
};

enum class LoginVerdict : std::uint8_t {
  kNew,    // first login for this session id: a row was created
  kMatch,  // existing row, token matches (resume/takeover decided by caller)
  kInUse,  // existing row, wrong token: the kSessionInUse reject
};

enum class OrderVerdict : std::uint8_t {
  kAccepted,
  kDuplicateClientId,  // the id was used before, live or terminal
};

struct SessionStoreStats {
  std::uint64_t sessions_created = 0;
  // Always 0: sessions are permanent. Kept because the wall-clock bench
  // exports it as a per-layer row.
  std::uint64_t sessions_destroyed = 0;
  std::uint64_t orders_registered = 0;
  std::uint64_t journal_appends = 0;
  std::uint64_t journal_flushes = 0;
  std::uint64_t journal_bytes = 0;
};

class SessionStore {
 public:
  static constexpr std::uint32_t kNullSlot = 0xffffffffu;

  explicit SessionStore(SessionStoreConfig config = {});

  // Reserves slab capacity and sizes (fills) every index, the staging ring
  // and the journal arena, so the first `sessions` sessions with `orders`
  // concurrently open orders, up to 1.4 x `orders` client ids used in all,
  // and `journal_bytes` of journaled traffic never grow mid-update. Slab
  // rows are not touched here.
  void reserve(std::size_t sessions, std::size_t orders, std::size_t journal_bytes);

  // --- directory -------------------------------------------------------
  [[nodiscard]] std::uint32_t lookup(std::uint32_t session_id) const noexcept;

  struct LoginResult {
    std::uint32_t slot = kNullSlot;  // kNullSlot only for kInUse
    LoginVerdict verdict = LoginVerdict::kNew;
  };
  // Resolves a login: creates the row on first sight, verifies the token
  // otherwise. On kInUse nothing changes and slot is kNullSlot.
  LoginResult login(std::uint32_t session_id, std::uint64_t token);

  // Attaches a live connection (joining the shard's connected list at the
  // tail) / detaches it. Rebinding an already-bound session moves it to
  // the tail, which is exactly the order a fresh TCP connection would give.
  void bind(std::uint32_t slot, std::uint32_t conn) noexcept;
  void unbind(std::uint32_t slot) noexcept;

  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] std::uint32_t shard_of(std::uint32_t session_id) const noexcept {
    return static_cast<std::uint32_t>(mix32(session_id) & shard_mask_);
  }
  // Visits the shard's connected sessions in bind order. `fn(slot)` may not
  // bind/unbind (the sweep caller collects first, then acts).
  template <typename Fn>
  void for_each_connected(std::uint32_t shard, Fn&& fn) const {
    for (std::uint32_t s = shards_[shard].head; s != kNullSlot; s = sessions_[s].next) fn(s);
  }
  [[nodiscard]] std::size_t connected_count(std::uint32_t shard) const noexcept {
    return shards_[shard].connected;
  }

  // --- session row accessors -------------------------------------------
  [[nodiscard]] std::uint32_t session_id(std::uint32_t slot) const noexcept {
    return sessions_[slot].external;
  }
  [[nodiscard]] std::uint64_t token(std::uint32_t slot) const noexcept {
    return sessions_[slot].token;
  }
  [[nodiscard]] std::uint32_t conn(std::uint32_t slot) const noexcept {
    return sessions_[slot].conn;
  }
  [[nodiscard]] bool logged_in(std::uint32_t slot) const noexcept {
    return (sessions_[slot].flags & kFlagLoggedIn) != 0;
  }
  void set_logged_in(std::uint32_t slot, bool logged_in) noexcept {
    if (logged_in) {
      sessions_[slot].flags |= kFlagLoggedIn;
    } else {
      sessions_[slot].flags &= static_cast<std::uint8_t>(~kFlagLoggedIn);
    }
  }
  // Consumes and returns the next sequenced-application sequence number.
  [[nodiscard]] std::uint32_t next_seq(std::uint32_t slot) noexcept {
    return sessions_[slot].tx_seq++;
  }
  [[nodiscard]] std::uint32_t tx_seq(std::uint32_t slot) const noexcept {
    return sessions_[slot].tx_seq;
  }
  [[nodiscard]] std::size_t session_count() const noexcept { return sessions_.size(); }
  // Test-only: exchange-index table capacity, so the churn suite can assert
  // the tombstone-compacting rehash keeps it bounded.
  [[nodiscard]] std::size_t debug_exchange_index_capacity() const noexcept {
    return exch_index_.entries.size();
  }

  // Order-independent? No — deliberately order-DEPENDENT: a 64-bit FNV-1a
  // fold over every session row in slot order (external id, token, tx_seq,
  // logged-in, open orders, journal entries). Two stores that processed the
  // same admitted input sequence hold the same rows in the same slots, so
  // primary and backup digests are equal at every replication sequence
  // point; any divergence — a lost login, a skipped order, a stray ack —
  // shifts the fold. Connection indexes are excluded (the backup has no TCP
  // legs).
  [[nodiscard]] std::uint64_t state_digest() const noexcept;

  // --- shared journal ---------------------------------------------------
  // Stages one sequenced message for the session. Bytes are copied into the
  // staging ring; the chain/arena commit happens at the next flush. Entries
  // for one session must be staged in ascending seq order (the exchange's
  // tx_seq counter guarantees this).
  void journal_stage(std::uint32_t slot, std::uint32_t seq, std::span<const std::byte> bytes);
  // Group commit: appends the staging ring to the arena and links every
  // staged record into its session's chain, in staging order.
  void journal_flush();
  // Replays entries with seq > last_seen in append order: fn(seq, bytes).
  // Flushes first, so same-instant sends are visible.
  template <typename Fn>
  void replay(std::uint32_t slot, std::uint32_t last_seen, Fn&& fn) {
    if (!staged_.empty()) journal_flush();
    for (std::uint32_t r = sessions_[slot].jr_head; r != kNullSlot; r = records_[r].next) {
      const JournalRecord& rec = records_[r];
      if (rec.seq > last_seen) {
        fn(rec.seq, std::span<const std::byte>{arena_.data() + rec.off, rec.len});
      }
    }
  }

  // --- open orders / client-id dedupe ----------------------------------
  // Registers an accepted order under the session. kDuplicateClientId if
  // the client id was ever used by this session (live OR terminal) — the
  // idempotent-resubmission contract.
  OrderVerdict register_order(std::uint32_t slot, proto::OrderId client_id,
                              proto::OrderId exchange_id, std::uint16_t symbol_idx);
  [[nodiscard]] bool client_id_used(std::uint32_t slot, proto::OrderId client_id) const noexcept;
  // Order slot if the client id maps to a live order of the session.
  [[nodiscard]] std::uint32_t find_open(std::uint32_t slot,
                                        proto::OrderId client_id) const noexcept;
  // Order slot for a live exchange order id (any session).
  [[nodiscard]] std::uint32_t find_by_exchange(proto::OrderId exchange_id) const noexcept;
  // Terminal transition: frees the order row and the exchange-id entry but
  // keeps the client-id mark so duplicates stay rejected.
  void close_order(std::uint32_t order_slot);

  [[nodiscard]] proto::OrderId order_client_id(std::uint32_t order_slot) const noexcept {
    return orders_[order_slot].client;
  }
  [[nodiscard]] proto::OrderId order_exchange_id(std::uint32_t order_slot) const noexcept {
    return orders_[order_slot].exch;
  }
  [[nodiscard]] std::uint32_t order_session(std::uint32_t order_slot) const noexcept {
    return orders_[order_slot].session;
  }
  [[nodiscard]] std::uint16_t order_symbol(std::uint32_t order_slot) const noexcept {
    return orders_[order_slot].symbol;
  }
  [[nodiscard]] std::uint32_t open_order_count(std::uint32_t slot) const noexcept {
    return sessions_[slot].order_count;
  }
  [[nodiscard]] std::size_t open_orders_total() const noexcept { return exch_index_.count; }
  // Fills `out` (cleared first) with the session's open client order ids,
  // sorted ascending — the deterministic cancel-on-disconnect sweep order.
  void collect_open_client_ids(std::uint32_t slot, std::vector<proto::OrderId>& out) const;

  [[nodiscard]] const SessionStoreStats& stats() const noexcept { return stats_; }

 private:
  static constexpr std::uint8_t kFlagLoggedIn = 0x01;
  // Client-index value for a terminal order: the id stays used forever.
  static constexpr std::uint32_t kClosedOrder = 0xfffffffeu;

  // 32-bit avalanche (Murmur3 finalizer): shard choice only.
  [[nodiscard]] static std::uint32_t mix32(std::uint32_t x) noexcept {
    x ^= x >> 16;
    x *= 0x85ebca6bu;
    x ^= x >> 13;
    x *= 0xc2b2ae35u;
    x ^= x >> 16;
    return x;
  }
  // Open-addressing key -> slot map: linear probing, tombstones,
  // power-of-two capacity, one entry struct per bucket; never iterated.
  template <typename Key>
  struct SlotIndex {
    struct Entry {
      Key key = 0;
      std::uint32_t slot = 0;
      std::uint8_t state = 0;  // 0 empty, 1 full, 2 tombstone
    };
    Column<Entry> entries;
    std::size_t count = 0;
    std::size_t occupied = 0;

    [[nodiscard]] std::uint32_t find(Key key) const noexcept;
    void insert(Key key, std::uint32_t slot);
    void erase(Key key) noexcept;
    void grow(std::size_t min_capacity);
  };
  static_assert(sizeof(SlotIndex<std::uint32_t>::Entry) == 12);
  static_assert(sizeof(SlotIndex<proto::OrderId>::Entry) == 16);

  // One shard of the session directory: session id -> slot, plus the
  // intrusive bind-ordered list of its connected sessions.
  struct Shard {
    SlotIndex<std::uint32_t> dir;
    std::uint32_t head = kNullSlot;
    std::uint32_t tail = kNullSlot;
    std::size_t connected = 0;
  };

  // (session slot, client id) -> live order slot or kClosedOrder. Insert
  // only; a bucket is empty while `sess` is kNullSlot, which no session
  // slot reaches.
  struct ClientEntry {
    proto::OrderId client = 0;
    std::uint32_t sess = kNullSlot;
    std::uint32_t value = 0;
  };
  static_assert(sizeof(ClientEntry) == 16);

  // Slab rows, value-initialised when first handed out.
  struct alignas(64) SessionRow {
    std::uint64_t token = 0;
    std::uint32_t external = 0;
    std::uint32_t tx_seq = 1;
    std::uint32_t conn = kNullSlot;
    std::uint32_t order_head = kNullSlot;
    std::uint32_t order_count = 0;
    std::uint32_t jr_head = kNullSlot;
    std::uint32_t jr_tail = kNullSlot;
    std::uint32_t jr_count = 0;
    std::uint32_t shard = 0;
    std::uint32_t prev = kNullSlot;  // connected-list link
    std::uint32_t next = kNullSlot;  // connected-list link
    std::uint8_t flags = 0;
  };
  struct OrderRow {
    proto::OrderId client = 0;
    proto::OrderId exch = 0;
    std::uint32_t session = 0;
    std::uint32_t prev = kNullSlot;
    std::uint32_t next = kNullSlot;  // session chain / freelist link
    std::uint16_t symbol = 0;
  };
  struct JournalRecord {
    std::uint64_t off = 0;  // into arena_
    std::uint32_t seq = 0;
    std::uint32_t len = 0;
    std::uint32_t next = kNullSlot;  // session chain
  };
  static_assert(sizeof(SessionRow) == 64);
  static_assert(sizeof(OrderRow) <= 32);
  static_assert(sizeof(JournalRecord) <= 24);

  struct Staged {
    std::uint32_t slot = 0;
    std::uint32_t seq = 0;
    std::uint64_t off = 0;  // offset into staging_bytes_
    std::uint32_t len = 0;
  };

  [[nodiscard]] std::uint32_t client_find(std::uint32_t slot, proto::OrderId id) const noexcept;
  void client_insert(std::uint32_t slot, proto::OrderId id, std::uint32_t value);
  void client_grow(std::size_t min_capacity);

  void unlink_order(std::uint32_t order_slot) noexcept;

  std::uint32_t shard_mask_ = 0;
  std::vector<Shard> shards_;

  Column<SessionRow> sessions_;
  Column<OrderRow> orders_;
  std::uint32_t free_ord_ = kNullSlot;

  // Journal record slab + shared byte arena + staging ring.
  Column<JournalRecord> records_;
  std::vector<std::byte> arena_;
  std::vector<Staged> staged_;
  std::vector<std::byte> staging_bytes_;

  SlotIndex<proto::OrderId> exch_index_;  // exchange order id -> order slot (global)
  Column<ClientEntry> client_index_;
  std::size_t client_count_ = 0;

  SessionStoreStats stats_;
};

}  // namespace tsn::exchange

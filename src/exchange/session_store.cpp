#include "exchange/session_store.hpp"

#include <algorithm>

#include "core/check.hpp"
#include "sim/digest.hpp"

namespace tsn::exchange {

namespace {

[[nodiscard]] std::size_t next_pow2(std::size_t x) {
  std::size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

constexpr std::uint8_t kEmpty = 0;
constexpr std::uint8_t kFull = 1;
constexpr std::uint8_t kTombstone = 2;

[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Avalanche the id BEFORE folding in the slot: clients commonly derive ids
// from their session number (e.g. session<<32 | seq), and slots are handed
// out in login order, so a plain xor of the raw parts cancels to a handful
// of distinct pre-mix keys across the whole population — every session
// then probes the same chain. mix64 is bijective, so mixing first keeps
// distinct ids distinct no matter how structured they are.
[[nodiscard]] std::uint64_t client_key_hash(std::uint32_t slot, proto::OrderId client_id) noexcept {
  return mix64(mix64(client_id) + slot * 0x9e3779b97f4a7c15ULL);
}

}  // namespace

SessionStore::SessionStore(SessionStoreConfig config) {
  const std::size_t shard_count = next_pow2(std::max<std::uint32_t>(1, config.shards));
  shards_.resize(shard_count);
  shard_mask_ = static_cast<std::uint32_t>(shard_count - 1);
  for (Shard& shard : shards_) shard.dir.grow(16);
  exch_index_.grow(16);
  client_grow(16);
}

void SessionStore::reserve(std::size_t sessions, std::size_t orders, std::size_t journal_bytes) {
  sessions_.reserve(next_pow2(sessions));
  orders_.reserve(next_pow2(orders));
  // One journal record per staged message; size the record slab for the
  // arena byte budget assuming small (header-ish) messages.
  const std::size_t records = std::max<std::size_t>(sessions, journal_bytes / 16);
  records_.reserve(next_pow2(records));
  for (Shard& shard : shards_) {
    shard.dir.grow(next_pow2(std::max<std::size_t>(16, (2 * sessions) / shards_.size())));
  }
  // The client index keeps one entry per client id ever used, so it can
  // only outgrow the open-order budget it is sized from here; past that it
  // doubles by cold rehash in register_order.
  exch_index_.grow(next_pow2(std::max<std::size_t>(16, 2 * orders)));
  client_grow(next_pow2(std::max<std::size_t>(16, 2 * orders)));
  arena_.reserve(journal_bytes);
  staging_bytes_.reserve(std::max<std::size_t>(4096, journal_bytes / 8));
  staged_.reserve(std::max<std::size_t>(256, sessions));
}

// --- slot indexes: per-shard session directory, exchange-order-id index ----

// Slot indexes hash with mix64, never with shard_of's mix32: every id of a
// shard shares mix32's low bits, which would leave a shard's table only
// capacity / shards home buckets and turn each probe into a long walk.

// tsn-lint: hotpath
template <typename Key>
std::uint32_t SessionStore::SlotIndex<Key>::find(Key key) const noexcept {
  const std::size_t mask = entries.size() - 1;
  std::size_t pos = mix64(key) & mask;
  while (true) {
    const Entry& e = entries[pos];
    if (e.state == kEmpty) return kNullSlot;
    if (e.state == kFull && e.key == key) return e.slot;
    pos = (pos + 1) & mask;
  }
}

template <typename Key>
void SessionStore::SlotIndex<Key>::insert(Key key, std::uint32_t slot) {
  if ((occupied + 1) * 10 >= entries.size() * 7) {
    // Load trip dominated by tombstones (churn, not growth): rehash in
    // place to reclaim them instead of doubling — a long-lived table under
    // order register/close churn would otherwise grow without bound.
    const bool mostly_dead = count * 2 < entries.size();
    grow(mostly_dead ? entries.size() : entries.size() * 2);
  }
  const std::size_t mask = entries.size() - 1;
  std::size_t pos = mix64(key) & mask;
  while (entries[pos].state == kFull) pos = (pos + 1) & mask;
  if (entries[pos].state == kEmpty) ++occupied;
  entries[pos] = Entry{key, slot, kFull};
  ++count;
}

template <typename Key>
void SessionStore::SlotIndex<Key>::erase(Key key) noexcept {
  const std::size_t mask = entries.size() - 1;
  std::size_t pos = mix64(key) & mask;
  while (true) {
    Entry& e = entries[pos];
    TSN_DCHECK(e.state != kEmpty, "probe fell off a full table");
    if (e.state == kFull && e.key == key) {
      e.state = kTombstone;
      --count;
      return;
    }
    pos = (pos + 1) & mask;
  }
}

template <typename Key>
void SessionStore::SlotIndex<Key>::grow(std::size_t min_capacity) {
  const std::size_t capacity = next_pow2(std::max<std::size_t>(min_capacity, 2 * count));
  if (capacity <= entries.size() && occupied == count) return;
  Column<Entry> old = std::move(entries);
  entries.assign(capacity, Entry{});
  count = 0;
  occupied = 0;
  for (const Entry& e : old) {
    if (e.state == kFull) insert(e.key, e.slot);
  }
}

// --- (session, client id) index -------------------------------------------

// tsn-lint: hotpath
std::uint32_t SessionStore::client_find(std::uint32_t slot, proto::OrderId id) const noexcept {
  const std::size_t mask = client_index_.size() - 1;
  std::size_t pos = client_key_hash(slot, id) & mask;
  while (true) {
    const ClientEntry& e = client_index_[pos];
    if (e.sess == kNullSlot) return kNullSlot;
    if (e.sess == slot && e.client == id) return static_cast<std::uint32_t>(pos);
    pos = (pos + 1) & mask;
  }
}

void SessionStore::client_insert(std::uint32_t slot, proto::OrderId id, std::uint32_t value) {
  const std::size_t mask = client_index_.size() - 1;
  std::size_t pos = client_key_hash(slot, id) & mask;
  while (client_index_[pos].sess != kNullSlot) pos = (pos + 1) & mask;
  client_index_[pos] = ClientEntry{id, slot, value};
  ++client_count_;
}

void SessionStore::client_grow(std::size_t min_capacity) {
  const std::size_t capacity = next_pow2(std::max<std::size_t>(min_capacity, 2 * client_count_));
  if (capacity <= client_index_.size()) return;
  Column<ClientEntry> old = std::move(client_index_);
  client_index_.assign(capacity, ClientEntry{});
  client_count_ = 0;
  for (const ClientEntry& e : old) {
    if (e.sess != kNullSlot) client_insert(e.sess, e.client, e.value);
  }
}

// --- directory API --------------------------------------------------------

// tsn-lint: hotpath
std::uint32_t SessionStore::lookup(std::uint32_t session_id) const noexcept {
  return shards_[shard_of(session_id)].dir.find(session_id);
}

SessionStore::LoginResult SessionStore::login(std::uint32_t session_id, std::uint64_t token) {
  Shard& shard = shards_[shard_of(session_id)];
  const std::uint32_t existing = shard.dir.find(session_id);
  if (existing != kNullSlot) {
    if (sessions_[existing].token != token) return {kNullSlot, LoginVerdict::kInUse};
    return {existing, LoginVerdict::kMatch};
  }
  const auto slot = static_cast<std::uint32_t>(sessions_.size());
  sessions_.push_back(
      SessionRow{.token = token, .external = session_id, .shard = shard_of(session_id)});
  shard.dir.insert(session_id, slot);
  ++stats_.sessions_created;
  return {slot, LoginVerdict::kNew};
}

// tsn-lint: hotpath
void SessionStore::bind(std::uint32_t slot, std::uint32_t conn) noexcept {
  if (sessions_[slot].conn != kNullSlot) unbind(slot);
  SessionRow& row = sessions_[slot];
  Shard& shard = shards_[row.shard];
  row.conn = conn;
  row.prev = shard.tail;
  row.next = kNullSlot;
  if (shard.tail != kNullSlot) {
    sessions_[shard.tail].next = slot;
  } else {
    shard.head = slot;
  }
  shard.tail = slot;
  ++shard.connected;
}

// tsn-lint: hotpath
void SessionStore::unbind(std::uint32_t slot) noexcept {
  SessionRow& row = sessions_[slot];
  if (row.conn == kNullSlot) return;
  Shard& shard = shards_[row.shard];
  if (row.prev != kNullSlot) {
    sessions_[row.prev].next = row.next;
  } else {
    shard.head = row.next;
  }
  if (row.next != kNullSlot) {
    sessions_[row.next].prev = row.prev;
  } else {
    shard.tail = row.prev;
  }
  row.conn = kNullSlot;
  row.prev = kNullSlot;
  row.next = kNullSlot;
  --shard.connected;
}

// --- journal ---------------------------------------------------------------

// tsn-lint: hotpath
void SessionStore::journal_stage(std::uint32_t slot, std::uint32_t seq,
                                 std::span<const std::byte> bytes) {
  Staged entry;
  entry.slot = slot;
  entry.seq = seq;
  entry.off = staging_bytes_.size();
  entry.len = static_cast<std::uint32_t>(bytes.size());
  staging_bytes_.insert(staging_bytes_.end(), bytes.begin(), bytes.end());
  staged_.push_back(entry);
  ++sessions_[slot].jr_count;
}

// tsn-lint: hotpath
void SessionStore::journal_flush() {
  if (staged_.empty()) return;
  const std::size_t base = arena_.size();
  arena_.insert(arena_.end(), staging_bytes_.begin(), staging_bytes_.end());
  for (const Staged& entry : staged_) {
    const auto rec = static_cast<std::uint32_t>(records_.size());
    records_.push_back(JournalRecord{base + entry.off, entry.seq, entry.len, kNullSlot});
    SessionRow& row = sessions_[entry.slot];
    if (row.jr_tail != kNullSlot) {
      records_[row.jr_tail].next = rec;
    } else {
      row.jr_head = rec;
    }
    row.jr_tail = rec;
    ++stats_.journal_appends;
  }
  stats_.journal_bytes += staging_bytes_.size();
  ++stats_.journal_flushes;
  staged_.clear();
  staging_bytes_.clear();
}

// --- orders ----------------------------------------------------------------

// tsn-lint: hotpath
OrderVerdict SessionStore::register_order(std::uint32_t slot, proto::OrderId client_id,
                                          proto::OrderId exchange_id, std::uint16_t symbol_idx) {
  if (client_find(slot, client_id) != kNullSlot) return OrderVerdict::kDuplicateClientId;
  // Closed rows come back LIFO before a fresh row is appended.
  std::uint32_t order = free_ord_;
  if (order == kNullSlot) {
    order = static_cast<std::uint32_t>(orders_.size());
    orders_.emplace_back();
  } else {
    free_ord_ = orders_[order].next;
  }
  SessionRow& row = sessions_[slot];
  orders_[order] = OrderRow{client_id, exchange_id, slot, kNullSlot, row.order_head, symbol_idx};
  if (row.order_head != kNullSlot) orders_[row.order_head].prev = order;
  row.order_head = order;
  ++row.order_count;
  if ((client_count_ + 1) * 10 >= client_index_.size() * 7) client_grow(client_index_.size() * 2);
  client_insert(slot, client_id, order);
  exch_index_.insert(exchange_id, order);
  ++stats_.orders_registered;
  return OrderVerdict::kAccepted;
}

// tsn-lint: hotpath
bool SessionStore::client_id_used(std::uint32_t slot, proto::OrderId client_id) const noexcept {
  return client_find(slot, client_id) != kNullSlot;
}

// tsn-lint: hotpath
std::uint32_t SessionStore::find_open(std::uint32_t slot, proto::OrderId client_id) const noexcept {
  const std::uint32_t pos = client_find(slot, client_id);
  if (pos == kNullSlot) return kNullSlot;
  const std::uint32_t value = client_index_[pos].value;
  return value == kClosedOrder ? kNullSlot : value;
}

// tsn-lint: hotpath
std::uint32_t SessionStore::find_by_exchange(proto::OrderId exchange_id) const noexcept {
  return exch_index_.find(exchange_id);
}

// tsn-lint: hotpath
void SessionStore::unlink_order(std::uint32_t order_slot) noexcept {
  const OrderRow& o = orders_[order_slot];
  SessionRow& row = sessions_[o.session];
  if (o.prev != kNullSlot) {
    orders_[o.prev].next = o.next;
  } else {
    row.order_head = o.next;
  }
  if (o.next != kNullSlot) orders_[o.next].prev = o.prev;
  --row.order_count;
}

// tsn-lint: hotpath
void SessionStore::close_order(std::uint32_t order_slot) {
  const OrderRow& o = orders_[order_slot];
  const std::uint32_t pos = client_find(o.session, o.client);
  TSN_DCHECK(pos != kNullSlot, "directory entry vanished");
  client_index_[pos].value = kClosedOrder;
  exch_index_.erase(o.exch);
  unlink_order(order_slot);
  orders_[order_slot].next = free_ord_;
  free_ord_ = order_slot;
}

void SessionStore::collect_open_client_ids(std::uint32_t slot,
                                           std::vector<proto::OrderId>& out) const {
  out.clear();
  for (std::uint32_t order = sessions_[slot].order_head; order != kNullSlot;
       order = orders_[order].next) {
    out.push_back(orders_[order].client);
  }
  std::sort(out.begin(), out.end());
}

std::uint64_t SessionStore::state_digest() const noexcept {
  sim::Digest d;
  d.mix(sessions_.size());
  for (const SessionRow& row : sessions_) {
    d.mix(row.external);
    d.mix(row.token);
    d.mix(0);  // once a slot-reuse counter, always 0: keeps pinned digests unchanged
    d.mix(row.tx_seq);
    d.mix((row.flags & kFlagLoggedIn) != 0 ? 1 : 0);
    d.mix(row.order_count);
    d.mix(row.jr_count);
  }
  return d.hash;
}

}  // namespace tsn::exchange

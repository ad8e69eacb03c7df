// Market-data normalizer (§2).
//
// Subscribes to one exchange's raw feed units, batch-decodes the
// exchange-native TsnPitch messages, mirrors them into one book::OrderBook
// per symbol (enough book state to attribute executes/deletes/modifies to
// symbols), converts everything into the firm's NORM format, tags
// BBO-affecting updates, and republishes on the firm's own multicast
// partitions under the firm's partitioning scheme. This performs the common
// processing once so dozens of strategy servers don't repeat it.
//
// The normalizer also watches feed sequence numbers per unit and counts
// gaps — the loss signal that matters operationally when mroute tables
// overflow or merged feeds saturate.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "book/order_book.hpp"
#include "mcast/responder.hpp"
#include "net/stack.hpp"
#include "proto/norm.hpp"
#include "proto/partition.hpp"
#include "proto/pitch.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/metrics.hpp"

namespace tsn::trading {

struct NormalizerConfig {
  std::string name = "norm";
  std::uint8_t exchange_id = 0;
  // Exchange feed groups to subscribe to (a subset of the exchange's units).
  std::vector<net::Ipv4Addr> feed_groups;
  std::uint16_t feed_port = 30001;
  // Snapshot (gap-recovery) channel. When configured, a detected sequence
  // gap puts the affected unit into recovery: live messages are buffered,
  // the next snapshot cycle rebuilds the unit's order state, and buffered
  // messages past the snapshot's resume point are replayed. Requires
  // exchange_partitioning (to know which symbols belong to the unit).
  std::vector<net::Ipv4Addr> snapshot_groups;
  std::uint16_t snapshot_port = 30002;
  std::shared_ptr<const proto::PartitionScheme> exchange_partitioning;
  // Firm-side output partitioning.
  std::shared_ptr<const proto::PartitionScheme> partitioning;
  net::Ipv4Addr out_group_base{239, 200, 0, 0};
  std::uint16_t out_port = 31001;
  std::size_t out_mtu_payload = 1458;
  // Kernel-bypass software hop (§3: below 1 us on tuned hosts).
  sim::Duration software_latency = sim::nanos(std::int64_t{800});
  net::MacAddr in_mac;
  net::Ipv4Addr in_ip;
  net::MacAddr out_mac;
  net::Ipv4Addr out_ip;
};

struct NormalizerStats {
  std::uint64_t datagrams_in = 0;
  std::uint64_t messages_in = 0;
  std::uint64_t updates_out = 0;
  std::uint64_t datagrams_out = 0;
  std::uint64_t bbo_updates = 0;
  std::uint64_t unknown_orders = 0;  // executes/deletes for unseen order ids
  std::uint64_t sequence_gaps = 0;
  std::uint64_t messages_lost = 0;  // inferred from gap sizes
  // Snapshot recovery.
  std::uint64_t resyncs_started = 0;
  std::uint64_t resyncs_completed = 0;
  std::uint64_t snapshot_orders_applied = 0;
  std::uint64_t messages_buffered_in_recovery = 0;
  std::uint64_t messages_replayed_after_recovery = 0;
};

class Normalizer {
 public:
  Normalizer(sim::Scheduler& engine, NormalizerConfig config);
  ~Normalizer();
  Normalizer(const Normalizer&) = delete;
  Normalizer& operator=(const Normalizer&) = delete;

  [[nodiscard]] net::Nic& in_nic() noexcept { return *in_nic_; }
  [[nodiscard]] net::Nic& out_nic() noexcept { return *out_nic_; }

  // Joins every configured feed group (and keeps the membership alive
  // against switch aging via an IGMP responder). Call after the NICs are
  // wired into the topology.
  void join_feeds();

  [[nodiscard]] net::Ipv4Addr partition_group(std::uint32_t partition) const noexcept {
    return net::Ipv4Addr{config_.out_group_base.value() + partition};
  }
  [[nodiscard]] std::uint32_t partition_count() const noexcept {
    return config_.partitioning->partition_count();
  }
  [[nodiscard]] const NormalizerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const NormalizerConfig& config() const noexcept { return config_; }

  // Registers decode/republish/gap counters as gauges under "<prefix>".
  void register_metrics(telemetry::Registry& registry, const std::string& prefix) const;

  // Monitoring view: the normalizer's reconstructed best bid/ask for a
  // symbol (zeros for missing sides; nullopt when the symbol is unknown).
  struct ReconstructedBbo {
    proto::Price bid = 0;
    proto::Price ask = 0;
  };
  [[nodiscard]] std::optional<ReconstructedBbo> best_of(const proto::Symbol& symbol) const;
  [[nodiscard]] std::size_t tracked_orders() const noexcept { return order_books_.size(); }

 private:
  struct Partition;

  void on_feed_datagram(std::span<const std::byte> payload, sim::Time arrival);
  void on_snapshot_datagram(std::span<const std::byte> payload);
  // The one lane: every live and replayed message is a DecodedBatch row.
  // apply_row counts it, mirrors it into its symbol's book and emits the
  // NORM update plus any top-of-book change.
  void apply_row(const proto::pitch::DecodedBatch& batch, std::size_t row);
  // Mirrors one book-edit row (live, replayed or snapshot) into its book and
  // keeps the id index in step.
  struct Mirrored {
    book::OrderBook* book = nullptr;   // null: an edit of an unknown order id
    book::BestQuote before;            // the book's top before the edit
    std::optional<book::Order> prior;  // the order before the edit
    proto::Quantity left = 0;          // its resting quantity after the edit
  };
  Mirrored mirror(const proto::pitch::DecodedBatch& batch, std::size_t row);
  [[nodiscard]] book::OrderBook& book_for(const proto::Symbol& symbol);
  void emit(const proto::norm::Update& update);
  // Emits the explicit top-of-book update real normalized feeds carry, once
  // per side of `book` whose best price or depth moved since `before`.
  void emit_bbo(const book::OrderBook& book, const book::BestQuote& before,
                std::uint64_t exchange_time_ns);
  struct Recovery;
  [[nodiscard]] bool in_unit(const proto::Symbol& symbol, std::uint8_t unit) const;
  void purge_unit_state(std::uint8_t unit, Recovery& recovery);
  // On SnapshotEnd: one BBO update per side of each of the unit's symbols
  // whose rebuilt top differs from the one published before the gap.
  void publish_rebuilt_tops(std::uint8_t unit, Recovery& recovery);
  [[nodiscard]] bool recovery_enabled() const noexcept {
    return !config_.snapshot_groups.empty();
  }

  sim::Scheduler& engine_;
  NormalizerConfig config_;
  std::unique_ptr<net::Host> host_;
  net::Nic* in_nic_ = nullptr;
  net::Nic* out_nic_ = nullptr;
  std::unique_ptr<net::NetStack> in_stack_;
  std::unique_ptr<net::NetStack> out_stack_;
  std::unique_ptr<mcast::IgmpResponder> responder_;
  std::vector<std::unique_ptr<Partition>> partitions_;
  // Reusable batch-decode buffers (warm after the first datagram; columns
  // keep their capacity). The snapshot datagram has its own: SnapshotEnd
  // replays the buffered tail through batch_ while the snapshot rows are
  // still being iterated.
  proto::pitch::DecodedBatch batch_;
  proto::pitch::DecodedBatch snapshot_batch_;
  // The mirrored book state: one book per symbol, and the book each live
  // order id rests in.
  std::unordered_map<proto::Symbol, std::unique_ptr<book::OrderBook>> books_;
  std::unordered_map<proto::OrderId, book::OrderBook*> order_books_;
  std::unordered_map<std::uint8_t, std::uint32_t> expected_seq_;  // per unit
  std::uint32_t clock_seconds_ = 0;
  // Wire arrival of the feed datagram currently being processed (software
  // span start for updates it triggers).
  sim::Time current_input_arrival_;

  // Recovery state, per unit. The live tail is buffered as raw datagrams and
  // re-decoded on SnapshotEnd.
  struct BufferedDatagram {
    std::uint32_t first_sequence = 0;
    std::size_t rows = 0;  // leading rows inside the buffer limit
    std::vector<std::byte> bytes;
  };
  struct Recovery {
    bool recovering = false;
    bool snapshot_active = false;
    std::uint32_t resume_sequence = 0;
    std::size_t buffered_messages = 0;
    std::vector<BufferedDatagram> buffered;
    // The unit's tops as last published, saved at the first purge.
    bool tops_saved = false;
    std::vector<std::pair<proto::Symbol, book::BestQuote>> published_tops;
  };
  std::unordered_map<std::uint8_t, Recovery> recovery_;
  static constexpr std::size_t kRecoveryBufferLimit = 100'000;  // messages

  NormalizerStats stats_;
};

}  // namespace tsn::trading

#include "trading/normalizer.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/check.hpp"
#include "mcast/subscribe.hpp"
#include "telemetry/trace.hpp"

namespace tsn::trading {

// Per-output-partition packing state.
struct Normalizer::Partition {
  Partition(Normalizer& owner, std::uint16_t index)
      : group(owner.partition_group(index)),
        builder(index, owner.config_.out_mtu_payload,
                [&owner, this](std::vector<std::byte> payload,
                               const proto::norm::DatagramHeader&) {
                  owner.out_stack_->send_multicast(group, owner.config_.out_port, payload);
                  ++owner.stats_.datagrams_out;
                }) {}

  net::Ipv4Addr group;
  proto::norm::DatagramBuilder builder;
  bool flush_scheduled = false;
};

Normalizer::Normalizer(sim::Scheduler& engine, NormalizerConfig config)
    : engine_(engine), config_(std::move(config)) {
  if (!config_.partitioning) throw std::invalid_argument{"normalizer requires partitioning"};
  host_ = std::make_unique<net::Host>(engine_, config_.name, config_.software_latency);
  in_nic_ = &host_->add_nic("md-in", config_.in_mac, config_.in_ip);
  out_nic_ = &host_->add_nic("md-out", config_.out_mac, config_.out_ip);
  in_stack_ = std::make_unique<net::NetStack>(*in_nic_);
  out_stack_ = std::make_unique<net::NetStack>(*out_nic_);
  responder_ = std::make_unique<mcast::IgmpResponder>(*in_stack_);

  const std::uint32_t partitions = config_.partitioning->partition_count();
  partitions_.reserve(partitions);
  for (std::uint32_t p = 0; p < partitions; ++p) {
    partitions_.push_back(std::make_unique<Partition>(*this, static_cast<std::uint16_t>(p)));
  }

  in_stack_->bind_udp(config_.feed_port,
                      [this](const net::Ipv4Header&, const net::UdpHeader&,
                             std::span<const std::byte> payload, sim::Time arrival) {
                        on_feed_datagram(payload, arrival);
                      });
  if (recovery_enabled()) {
    if (!config_.exchange_partitioning) {
      throw std::invalid_argument{
          "snapshot recovery requires the exchange's partitioning scheme"};
    }
    in_stack_->bind_udp(config_.snapshot_port,
                        [this](const net::Ipv4Header&, const net::UdpHeader&,
                               std::span<const std::byte> payload, sim::Time) {
                          on_snapshot_datagram(payload);
                        });
  }
}

Normalizer::~Normalizer() = default;

void Normalizer::join_feeds() {
  for (const auto group : config_.feed_groups) responder_->join(group);
  for (const auto group : config_.snapshot_groups) responder_->join(group);
}

void Normalizer::on_feed_datagram(std::span<const std::byte> payload, sim::Time arrival) {
  const auto header = proto::pitch::peek_header(payload);
  if (!header) return;
  // Wire arrival of the datagram being processed: the software span an
  // emitted update is attributed to starts here (the NIC rx delay is part
  // of the software hop, §3).
  current_input_arrival_ = arrival;
  ++stats_.datagrams_in;
  // Gap detection per unit.
  auto [it, inserted] = expected_seq_.emplace(header->unit, header->sequence);
  if (!inserted) {
    if (header->sequence > it->second) {
      ++stats_.sequence_gaps;
      stats_.messages_lost += header->sequence - it->second;
      if (recovery_enabled()) {
        Recovery& recovery = recovery_[header->unit];
        if (!recovery.recovering) {
          recovery.recovering = true;
          ++stats_.resyncs_started;
        }
        // A gap starts a fresh buffer. A second gap while recovering punches
        // a hole in the buffered tail, which then cannot be replayed: the
        // in-flight cycle is abandoned and the next snapshot rebuilds.
        recovery.snapshot_active = false;
        recovery.buffered.clear();
        recovery.buffered_messages = 0;
      }
    }
  }
  it->second = header->sequence + header->count;

  // During recovery, buffer the raw datagram for replay past the snapshot's
  // resume point instead of applying it to stale state.
  if (recovery_enabled()) {
    if (auto rec_it = recovery_.find(header->unit);
        rec_it != recovery_.end() && rec_it->second.recovering) {
      Recovery& recovery = rec_it->second;
      if (recovery.buffered_messages < kRecoveryBufferLimit) {
        const std::size_t rows = std::min<std::size_t>(
            header->count, kRecoveryBufferLimit - recovery.buffered_messages);
        recovery.buffered.push_back(
            {header->sequence, rows, std::vector<std::byte>(payload.begin(), payload.end())});
        recovery.buffered_messages += rows;
        stats_.messages_buffered_in_recovery += rows;
      }
      return;
    }
  }
  // One batch decode into the reusable SoA buffer, then one row at a time
  // through the shared lane. A malformed tail leaves the valid prefix in
  // `batch_.count`.
  (void)proto::pitch::decode_batch(payload, batch_);
  for (std::size_t row = 0; row < batch_.count; ++row) apply_row(batch_, row);
}

void Normalizer::on_snapshot_datagram(std::span<const std::byte> payload) {
  using proto::pitch::DecodedKind;
  const auto header = proto::pitch::peek_header(payload);
  if (!header) return;
  const std::uint8_t unit = header->unit;
  auto rec_it = recovery_.find(unit);
  if (rec_it == recovery_.end() || !rec_it->second.recovering) return;  // healthy: ignore
  Recovery& recovery = rec_it->second;
  (void)proto::pitch::decode_batch(payload, snapshot_batch_);
  const proto::pitch::DecodedBatch& snap = snapshot_batch_;
  for (std::size_t row = 0; row < snap.count; ++row) {
    const DecodedKind kind = snap.kind[row];
    if (kind == DecodedKind::kSnapshotBegin) {
      // A fresh cycle: rebuild from scratch.
      purge_unit_state(unit, recovery);
      recovery.snapshot_active = true;
      recovery.resume_sequence = snap.u32a[row];
      continue;
    }
    if (!recovery.snapshot_active) continue;  // mid-cycle join: wait for the next begin
    if (kind == DecodedKind::kAddOrder) {
      (void)mirror(snap, row);
      ++stats_.snapshot_orders_applied;
    } else if (kind == DecodedKind::kSnapshotEnd) {
      // Snapshot complete: publish the rebuilt tops, re-decode the buffered
      // live tail and replay the rows past the resume point, then return to
      // normal processing.
      recovery.snapshot_active = false;
      recovery.recovering = false;
      publish_rebuilt_tops(unit, recovery);
      for (const BufferedDatagram& datagram : recovery.buffered) {
        (void)proto::pitch::decode_batch(datagram.bytes, batch_);
        const std::size_t rows = std::min(batch_.count, datagram.rows);
        for (std::size_t r = 0; r < rows; ++r) {
          const auto sequence = static_cast<std::uint32_t>(datagram.first_sequence + r);
          if (sequence < recovery.resume_sequence) continue;  // included in the snapshot
          apply_row(batch_, r);
          ++stats_.messages_replayed_after_recovery;
        }
      }
      recovery.buffered.clear();
      recovery.buffered_messages = 0;
      ++stats_.resyncs_completed;
    }
  }
}

bool Normalizer::in_unit(const proto::Symbol& symbol, std::uint8_t unit) const {
  return config_.exchange_partitioning->partition_of(symbol, proto::InstrumentKind::kEquity) ==
         unit;
}

void Normalizer::purge_unit_state(std::uint8_t unit, Recovery& recovery) {
  // The first purge of a recovery keeps the tops subscribers last saw (no
  // book of the unit has moved since the gap): the rebuilt tops are
  // published against them.
  if (!recovery.tops_saved) {
    recovery.tops_saved = true;
    // tsn-lint: allow(unordered-iter) order-independent: sorted before publishing
    for (const auto& [symbol, book] : books_) {
      if (in_unit(symbol, unit)) recovery.published_tops.emplace_back(symbol, book->best());
    }
  }
  // Filtered erases: the surviving set does not depend on hash order.
  std::erase_if(order_books_,
                [&](const auto& entry) { return in_unit(entry.second->symbol(), unit); });
  std::erase_if(books_, [&](const auto& entry) { return in_unit(entry.first, unit); });
}

void Normalizer::publish_rebuilt_tops(std::uint8_t unit, Recovery& recovery) {
  auto& tops = recovery.published_tops;
  const std::size_t saved = tops.size();
  // tsn-lint: allow(unordered-iter) order-independent: sorted before publishing
  for (const auto& [symbol, book] : books_) {
    const auto seen = [&](const auto& top) { return top.first == symbol; };
    if (in_unit(symbol, unit) && std::none_of(tops.begin(), tops.begin() + saved, seen)) {
      tops.emplace_back(symbol, book::BestQuote{});  // new since the gap
    }
  }
  std::sort(tops.begin(), tops.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // A symbol the snapshot left empty gets an empty book, so its emptied
  // sides are published too.
  const std::uint64_t now_ns = std::uint64_t{clock_seconds_} * 1'000'000'000ULL;
  for (const auto& [symbol, before] : tops) emit_bbo(book_for(symbol), before, now_ns);
  tops.clear();
  recovery.tops_saved = false;
}

book::OrderBook& Normalizer::book_for(const proto::Symbol& symbol) {
  auto& slot = books_[symbol];
  if (!slot) slot = std::make_unique<book::OrderBook>(symbol);
  return *slot;
}

Normalizer::Mirrored Normalizer::mirror(const proto::pitch::DecodedBatch& batch,
                                        std::size_t row) {
  const proto::OrderId id = batch.order_id[row];
  const auto it = order_books_.find(id);
  Mirrored out;
  if (batch.kind[row] == proto::pitch::DecodedKind::kAddOrder) {
    out.book = &book_for(batch.symbol[row]);
    // An id still live in another symbol's book is stale there too.
    if (it != order_books_.end() && it->second != out.book) (void)it->second->cancel(id);
  } else if (it != order_books_.end()) {
    out.book = it->second;
  } else {
    ++stats_.unknown_orders;
    return out;
  }
  out.before = out.book->best();
  out.prior = out.book->mirror(batch, row);
  const auto after = out.book->find(id);
  out.left = after ? after->quantity : 0;
  if (!after) {
    if (it != order_books_.end()) order_books_.erase(it);
  } else if (it != order_books_.end()) {
    it->second = out.book;
  } else {
    order_books_.emplace(id, out.book);
  }
  return out;
}

// tsn-lint: hotpath
void Normalizer::apply_row(const proto::pitch::DecodedBatch& batch, std::size_t row) {
  using proto::pitch::DecodedKind;
  using proto::norm::UpdateKind;
  ++stats_.messages_in;
  const DecodedKind kind = batch.kind[row];
  proto::norm::Update update;
  update.exchange_id = config_.exchange_id;
  update.order_id = batch.order_id[row];
  update.exchange_time_ns =
      std::uint64_t{clock_seconds_} * 1'000'000'000ULL + batch.u32a[row];
  switch (kind) {
    case DecodedKind::kTime:
      clock_seconds_ = batch.u32a[row];  // clock messages are not republished
      return;
    case DecodedKind::kTrade:
      // An off-book print: republished as is, no book edit.
      update.kind = UpdateKind::kTradePrint;
      update.side = batch.side[row];
      update.symbol = batch.symbol[row];
      update.price = batch.price[row];
      update.quantity = batch.quantity[row];
      emit(update);
      return;
    case DecodedKind::kSnapshotBegin:
    case DecodedKind::kSnapshotEnd:
      return;  // no book state on the live feed: counted and dropped
    default:
      break;
  }
  const Mirrored m = mirror(batch, row);
  if (m.book == nullptr) return;
  TSN_DCHECK(m.prior || kind == DecodedKind::kAddOrder, "indexed order missing from its book");
  update.symbol = m.book->symbol();
  switch (kind) {
    case DecodedKind::kAddOrder:
      update.kind = UpdateKind::kOrderAdd;
      update.side = batch.side[row];
      update.price = batch.price[row];
      update.quantity = batch.quantity[row];
      break;
    case DecodedKind::kOrderExecuted:
      update.kind = UpdateKind::kTradePrint;
      update.side = m.prior->side;
      update.price = m.prior->price;
      update.quantity = m.prior->quantity - m.left;  // traded
      break;
    case DecodedKind::kReduceSize:
      update.kind = UpdateKind::kOrderModify;
      update.side = m.prior->side;
      update.price = m.prior->price;
      update.quantity = m.left;
      break;
    case DecodedKind::kModifyOrder:
      update.kind = UpdateKind::kOrderModify;
      update.side = m.prior->side;
      update.price = batch.price[row];
      update.quantity = batch.quantity[row];
      break;
    default:  // kDeleteOrder
      update.kind = UpdateKind::kOrderDelete;
      update.side = m.prior->side;
      update.price = m.prior->price;
      update.quantity = 0;
      break;
  }
  emit(update);
  emit_bbo(*m.book, m.before, update.exchange_time_ns);
}

void Normalizer::emit_bbo(const book::OrderBook& book, const book::BestQuote& before,
                          std::uint64_t exchange_time_ns) {
  const book::BestQuote after = book.best();
  const auto emit_side = [&](proto::Side side, std::optional<proto::Price> best,
                             proto::Quantity quantity) {
    ++stats_.bbo_updates;
    proto::norm::Update update;
    update.kind = proto::norm::UpdateKind::kBboUpdate;
    update.exchange_id = config_.exchange_id;
    update.side = side;
    update.symbol = book.symbol();
    update.price = best.value_or(0);  // the *new* best (0 = side emptied)
    update.quantity = quantity;       // depth at the new best
    update.order_id = 0;
    update.exchange_time_ns = exchange_time_ns;
    emit(update);
  };
  if (after.bid_price != before.bid_price || after.bid_quantity != before.bid_quantity) {
    emit_side(proto::Side::kBuy, after.bid_price, after.bid_quantity);
  }
  if (after.ask_price != before.ask_price || after.ask_quantity != before.ask_quantity) {
    emit_side(proto::Side::kSell, after.ask_price, after.ask_quantity);
  }
}

void Normalizer::register_metrics(telemetry::Registry& registry,
                                  const std::string& prefix) const {
  registry.gauge(prefix + ".datagrams_in",
                 [this] { return static_cast<double>(stats_.datagrams_in); });
  registry.gauge(prefix + ".messages_in",
                 [this] { return static_cast<double>(stats_.messages_in); });
  registry.gauge(prefix + ".updates_out",
                 [this] { return static_cast<double>(stats_.updates_out); });
  registry.gauge(prefix + ".datagrams_out",
                 [this] { return static_cast<double>(stats_.datagrams_out); });
  registry.gauge(prefix + ".bbo_updates",
                 [this] { return static_cast<double>(stats_.bbo_updates); });
  registry.gauge(prefix + ".sequence_gaps",
                 [this] { return static_cast<double>(stats_.sequence_gaps); });
  registry.gauge(prefix + ".messages_lost",
                 [this] { return static_cast<double>(stats_.messages_lost); });
  registry.gauge(prefix + ".unknown_orders",
                 [this] { return static_cast<double>(stats_.unknown_orders); });
  registry.gauge(prefix + ".resyncs_started",
                 [this] { return static_cast<double>(stats_.resyncs_started); });
  registry.gauge(prefix + ".resyncs_completed",
                 [this] { return static_cast<double>(stats_.resyncs_completed); });
  registry.gauge(prefix + ".snapshot_orders_applied",
                 [this] { return static_cast<double>(stats_.snapshot_orders_applied); });
  registry.gauge(prefix + ".messages_buffered_in_recovery",
                 [this] { return static_cast<double>(stats_.messages_buffered_in_recovery); });
  registry.gauge(prefix + ".messages_replayed_after_recovery",
                 [this] { return static_cast<double>(stats_.messages_replayed_after_recovery); });
  registry.gauge(prefix + ".tracked_orders",
                 [this] { return static_cast<double>(tracked_orders()); });
}

std::optional<Normalizer::ReconstructedBbo> Normalizer::best_of(
    const proto::Symbol& symbol) const {
  const auto it = books_.find(symbol);
  if (it == books_.end()) return std::nullopt;
  const book::BestQuote best = it->second->best();
  return ReconstructedBbo{best.bid_price.value_or(0), best.ask_price.value_or(0)};
}

void Normalizer::emit(const proto::norm::Update& update) {
  const std::uint32_t partition = config_.partitioning->partition_of(
      update.symbol, proto::InstrumentKind::kEquity);
  Partition& out = *partitions_.at(partition);
  const auto now_ns = static_cast<std::uint64_t>(engine_.now().picos() / 1000);
  out.builder.append(update, now_ns);
  ++stats_.updates_out;
  if (!out.flush_scheduled) {
    out.flush_scheduled = true;
    // The flush runs as its own event: carry the triggering datagram's trace
    // into it so the republished frames join the same trace, and close the
    // normalizer's software span [feed wire arrival, flush/hand-off].
    const telemetry::TraceId trace = telemetry::current_trace();
    const sim::Time t_in = current_input_arrival_;
    engine_.schedule_in(sim::Duration::zero(), [this, &out, trace, t_in] {
      out.flush_scheduled = false;
      telemetry::TraceScope scope{trace};
      out.builder.flush();
      telemetry::record_span(trace, config_.name, telemetry::SpanKind::kSoftware, t_in,
                             engine_.now());
    });
  }
}

}  // namespace tsn::trading

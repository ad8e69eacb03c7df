#include "trading/strategy.hpp"

#include <utility>

#include "mcast/subscribe.hpp"
#include "telemetry/trace.hpp"

namespace tsn::trading {

Strategy::Strategy(sim::Scheduler& engine, StrategyConfig config)
    : engine_(engine), config_(std::move(config)) {
  host_ = std::make_unique<net::Host>(engine_, config_.name, config_.software_latency);
  md_nic_ = &host_->add_nic("md", config_.md_mac, config_.md_ip);
  order_nic_ = &host_->add_nic("orders", config_.order_mac, config_.order_ip);
  md_stack_ = std::make_unique<net::NetStack>(*md_nic_);
  order_stack_ = std::make_unique<net::NetStack>(*order_nic_);
  responder_ = std::make_unique<mcast::IgmpResponder>(*md_stack_);

  md_stack_->bind_udp(config_.norm_port,
                      [this](const net::Ipv4Header&, const net::UdpHeader&,
                             std::span<const std::byte> payload, sim::Time handler_time) {
                        on_norm_datagram(payload, handler_time);
                      });
}

Strategy::~Strategy() = default;

void Strategy::start() {
  for (const auto group : config_.subscriptions) responder_->join(group);
  session_ = &order_stack_->connect_tcp(config_.gateway_mac, config_.gateway_ip,
                                        config_.gateway_port, 0);
  session_->set_data_handler([this](std::span<const std::byte> bytes, sim::Time) {
    on_session_bytes(bytes);
  });
  transmit(proto::boe::LoginRequest{1, 0xfeed});
}

void Strategy::transmit(const proto::boe::Message& message) {
  const auto bytes = proto::boe::encode(message, tx_seq_++);
  session_->send(bytes);
}

void Strategy::on_norm_datagram(std::span<const std::byte> payload, sim::Time nic_arrival) {
  // The NIC reports the wire-arrival time even though the handler runs a
  // software hop later; tick-to-trade is measured from that wire arrival.
  (void)proto::norm::for_each_update(payload, [this, nic_arrival](
                                                  const proto::norm::Update& update) {
    ++stats_.updates_received;
    if (update.exchange_time_ns != 0) {
      const sim::Time event_time{static_cast<std::int64_t>(update.exchange_time_ns) * 1000};
      if (nic_arrival >= event_time) feed_path_.add((nic_arrival - event_time).nanos());
    }
    current_update_nic_arrival_ = nic_arrival;
    in_update_context_ = true;
    on_update(update, nic_arrival);
    in_update_context_ = false;
  });
}

proto::OrderId Strategy::send_order(proto::Side side, proto::Symbol symbol, proto::Price price,
                                    proto::Quantity quantity, proto::boe::TimeInForce tif) {
  const proto::OrderId id = next_client_id_++;
  proto::boe::NewOrder order;
  order.client_order_id = id;
  order.side = side;
  order.quantity = quantity;
  order.symbol = symbol;
  order.price = price;
  order.tif = tif;
  open_orders_.emplace(id, symbol);
  ++stats_.orders_sent;
  if (in_update_context_) {
    const sim::Time nic_departure = engine_.now() + config_.decision_latency;
    tick_to_trade_.add((nic_departure - current_update_nic_arrival_).nanos());
  }
  // The order leaves decision_latency from now, in its own event: carry the
  // triggering update's trace across, and close the strategy's software span
  // [market-data wire arrival, order hand-off] — the tick-to-trade hop.
  const telemetry::TraceId trace = telemetry::current_trace();
  const sim::Time md_arrival =
      in_update_context_ ? current_update_nic_arrival_ : engine_.now();
  engine_.schedule_in(config_.decision_latency, [this, order, trace, md_arrival] {
    order_sent_at_[order.client_order_id] = engine_.now();
    telemetry::TraceScope scope{trace};
    transmit(order);
    telemetry::record_span(trace, config_.name, telemetry::SpanKind::kSoftware, md_arrival,
                           engine_.now());
  });
  return id;
}

void Strategy::send_cancel(proto::OrderId client_order_id) {
  ++stats_.cancels_sent;
  proto::boe::CancelOrder cancel;
  cancel.client_order_id = client_order_id;
  const telemetry::TraceId trace = telemetry::current_trace();
  engine_.schedule_in(config_.decision_latency, [this, cancel, trace] {
    telemetry::TraceScope scope{trace};
    transmit(cancel);
  });
}

void Strategy::register_metrics(telemetry::Registry& registry,
                                const std::string& prefix) const {
  registry.gauge(prefix + ".updates_received",
                 [this] { return static_cast<double>(stats_.updates_received); });
  registry.gauge(prefix + ".orders_sent",
                 [this] { return static_cast<double>(stats_.orders_sent); });
  registry.gauge(prefix + ".cancels_sent",
                 [this] { return static_cast<double>(stats_.cancels_sent); });
  registry.gauge(prefix + ".acks", [this] { return static_cast<double>(stats_.acks); });
  registry.gauge(prefix + ".rejects", [this] { return static_cast<double>(stats_.rejects); });
  registry.gauge(prefix + ".fills", [this] { return static_cast<double>(stats_.fills); });
  registry.gauge(prefix + ".open_orders",
                 [this] { return static_cast<double>(open_orders_.size()); });
  registry.histogram_ref(prefix + ".tick_to_trade_ns", tick_to_trade_);
  registry.histogram_ref(prefix + ".order_rtt_ns", order_rtt_);
  registry.histogram_ref(prefix + ".feed_path_ns", feed_path_);
}

void Strategy::on_session_bytes(std::span<const std::byte> bytes) {
  parser_.feed(bytes);
  while (auto decoded = parser_.next()) dispatch_response(decoded->message);
}

void Strategy::dispatch_response(const proto::boe::Message& message) {
  using namespace proto::boe;
  if (const auto* ack = std::get_if<OrderAccepted>(&message)) {
    ++stats_.acks;
    if (const auto it = order_sent_at_.find(ack->client_order_id);
        it != order_sent_at_.end()) {
      order_rtt_.add((engine_.now() - it->second).nanos());
      order_sent_at_.erase(it);
    }
    on_ack(*ack);
  } else if (const auto* reject = std::get_if<OrderRejected>(&message)) {
    ++stats_.rejects;
    open_orders_.erase(reject->client_order_id);
    on_reject(*reject);
  } else if (const auto* fill = std::get_if<Fill>(&message)) {
    ++stats_.fills;
    if (fill->leaves_quantity == 0) open_orders_.erase(fill->client_order_id);
    on_fill(*fill);
  } else if (const auto* cancelled = std::get_if<OrderCancelled>(&message)) {
    open_orders_.erase(cancelled->client_order_id);
    on_cancelled(*cancelled);
  } else if (std::get_if<CancelRejected>(&message) != nullptr) {
    ++stats_.cancel_rejects;
  }
}

void Strategy::on_ack(const proto::boe::OrderAccepted&) {}
void Strategy::on_reject(const proto::boe::OrderRejected&) {}
void Strategy::on_fill(const proto::boe::Fill&) {}
void Strategy::on_cancelled(const proto::boe::OrderCancelled&) {}

// --- MomentumTaker -----------------------------------------------------------

MomentumTaker::MomentumTaker(sim::Scheduler& engine, StrategyConfig config, proto::Price tick,
                             proto::Quantity clip)
    : Strategy(engine, std::move(config)), tick_(tick), clip_(clip) {}

void MomentumTaker::on_update(const proto::norm::Update& update, sim::Time /*nic_arrival*/) {
  if (update.kind != proto::norm::UpdateKind::kTradePrint) return;
  State& s = state_[update.symbol];
  if (s.last_price != 0) {
    if (update.price > s.last_price) {
      s.run = s.run >= 0 ? s.run + 1 : 1;
    } else if (update.price < s.last_price) {
      s.run = s.run <= 0 ? s.run - 1 : -1;
    }
    if (s.run >= 2) {
      (void)send_order(proto::Side::kBuy, update.symbol, update.price + tick_, clip_,
                       proto::boe::TimeInForce::kImmediateOrCancel);
      s.run = 0;
    } else if (s.run <= -2) {
      (void)send_order(proto::Side::kSell, update.symbol, update.price - tick_, clip_,
                       proto::boe::TimeInForce::kImmediateOrCancel);
      s.run = 0;
    }
  }
  s.last_price = update.price;
}

// --- MarketMaker -------------------------------------------------------------

MarketMaker::MarketMaker(sim::Scheduler& engine, StrategyConfig config, proto::Price half_spread,
                         proto::Quantity clip)
    : Strategy(engine, std::move(config)), half_spread_(half_spread), clip_(clip) {}

void MarketMaker::on_update(const proto::norm::Update& update, sim::Time /*nic_arrival*/) {
  if (update.price <= 0) return;
  Quote& quote = quotes_[update.symbol];
  // Reprice when the market has drifted more than half the spread from the
  // quote anchor (§2: repricing quickly is critical).
  if (quote.anchor != 0 && std::abs(update.price - quote.anchor) < half_spread_ / 2) return;
  if (quote.bid_id != 0) send_cancel(quote.bid_id);
  if (quote.ask_id != 0) send_cancel(quote.ask_id);
  quote.anchor = update.price;
  proto::Price bid = update.price - half_spread_;
  proto::Price ask = update.price + half_spread_;
  adjust_quote(update.symbol, bid, ask);
  quote.bid_id = send_order(proto::Side::kBuy, update.symbol, bid, clip_);
  quote.ask_id = send_order(proto::Side::kSell, update.symbol, ask, clip_);
}

void MarketMaker::on_fill(const proto::boe::Fill& fill) {
  // tsn-lint: allow(unordered-iter) order-independent: entries matched by unique order id
  for (auto& [symbol, quote] : quotes_) {
    if (quote.bid_id == fill.client_order_id && fill.leaves_quantity == 0) quote.bid_id = 0;
    if (quote.ask_id == fill.client_order_id && fill.leaves_quantity == 0) quote.ask_id = 0;
  }
}

// --- CompliantMarketMaker ----------------------------------------------------

CompliantMarketMaker::CompliantMarketMaker(sim::Scheduler& engine, StrategyConfig config,
                                           proto::Price half_spread, proto::Quantity clip,
                                           proto::Price tick)
    : MarketMaker(engine, std::move(config), half_spread, clip), tick_(tick) {}

void CompliantMarketMaker::on_update(const proto::norm::Update& update, sim::Time nic_arrival) {
  monitor_.on_update(update);
  MarketMaker::on_update(update, nic_arrival);
}

void CompliantMarketMaker::adjust_quote(const proto::Symbol& symbol, proto::Price& bid,
                                        proto::Price& ask) {
  // SEC gate: never post a quote that locks or crosses an away market.
  const proto::Price compliant_bid =
      monitor_.clamp_to_compliant(symbol, proto::Side::kBuy, bid, tick_);
  const proto::Price compliant_ask =
      monitor_.clamp_to_compliant(symbol, proto::Side::kSell, ask, tick_);
  if (compliant_bid != bid || compliant_ask != ask) ++quotes_clamped_;
  bid = compliant_bid;
  ask = compliant_ask;
}

// --- CrossVenueArb -----------------------------------------------------------

CrossVenueArb::CrossVenueArb(sim::Scheduler& engine, StrategyConfig config, std::uint8_t venue_a,
                             std::uint8_t venue_b, proto::Price threshold,
                             proto::Quantity clip)
    : Strategy(engine, std::move(config)),
      venue_a_(venue_a),
      venue_b_(venue_b),
      threshold_(threshold),
      clip_(clip) {}

void CrossVenueArb::on_update(const proto::norm::Update& update, sim::Time /*nic_arrival*/) {
  if (update.price <= 0) return;
  VenuePrices& v = prices_[update.symbol];
  if (update.exchange_id == venue_a_) {
    v.price_a = update.price;
  } else if (update.exchange_id == venue_b_) {
    v.price_b = update.price;
  } else {
    return;
  }
  if (v.price_a == 0 || v.price_b == 0) return;
  const proto::Price edge = v.price_a - v.price_b;
  if (edge >= threshold_) {
    ++opportunities_;
    // Buy cheap on B, sell rich on A.
    (void)send_order(proto::Side::kBuy, update.symbol, v.price_b, clip_,
                     proto::boe::TimeInForce::kImmediateOrCancel);
    (void)send_order(proto::Side::kSell, update.symbol, v.price_a, clip_,
                     proto::boe::TimeInForce::kImmediateOrCancel);
  } else if (-edge >= threshold_) {
    ++opportunities_;
    (void)send_order(proto::Side::kBuy, update.symbol, v.price_a, clip_,
                     proto::boe::TimeInForce::kImmediateOrCancel);
    (void)send_order(proto::Side::kSell, update.symbol, v.price_b, clip_,
                     proto::boe::TimeInForce::kImmediateOrCancel);
  }
}

}  // namespace tsn::trading

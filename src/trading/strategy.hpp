// The strategy framework and sample strategies (§2).
//
// A Strategy subscribes to normalized market-data partitions, runs a custom
// decision function on every update, and sends orders over a long-lived TCP
// session to an order gateway. The framework measures tick-to-trade
// latency the way the paper describes (§2): the time between the most
// recent input event arriving at the NIC and the resulting order leaving.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mcast/responder.hpp"
#include "net/stack.hpp"
#include "proto/boe.hpp"
#include "proto/norm.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/metrics.hpp"
#include "trading/compliance.hpp"

namespace tsn::trading {

struct StrategyConfig {
  std::string name = "strat";
  // Normalized partitions to consume. The paper's L1S design caps how many
  // of these a strategy may have (§4.3); the cluster manager enforces it.
  std::vector<net::Ipv4Addr> subscriptions;
  std::uint16_t norm_port = 31001;
  net::MacAddr gateway_mac;
  net::Ipv4Addr gateway_ip;
  std::uint16_t gateway_port = 35000;
  // Decision-function latency (the paper assumes each function averages
  // under 2 us, §4).
  sim::Duration decision_latency = sim::micros(std::int64_t{2});
  sim::Duration software_latency = sim::nanos(std::int64_t{900});
  net::MacAddr md_mac;
  net::Ipv4Addr md_ip;
  net::MacAddr order_mac;
  net::Ipv4Addr order_ip;
};

struct StrategyStats {
  std::uint64_t updates_received = 0;
  std::uint64_t orders_sent = 0;
  std::uint64_t cancels_sent = 0;
  std::uint64_t acks = 0;
  std::uint64_t rejects = 0;
  std::uint64_t fills = 0;
  std::uint64_t cancel_rejects = 0;
};

class Strategy {
 public:
  Strategy(sim::Scheduler& engine, StrategyConfig config);
  virtual ~Strategy();
  Strategy(const Strategy&) = delete;
  Strategy& operator=(const Strategy&) = delete;

  [[nodiscard]] net::Nic& md_nic() noexcept { return *md_nic_; }
  [[nodiscard]] net::Nic& order_nic() noexcept { return *order_nic_; }

  // Joins subscriptions, connects to the gateway, logs in. Call after the
  // NICs are wired into the topology.
  void start();

  [[nodiscard]] const StrategyStats& stats() const noexcept { return stats_; }
  // Tick-to-trade latency samples in nanoseconds.
  [[nodiscard]] const telemetry::Histogram& tick_to_trade() const noexcept { return tick_to_trade_; }
  // Order round-trip (order sent -> exchange ack received), nanoseconds.
  [[nodiscard]] const telemetry::Histogram& order_rtt() const noexcept { return order_rtt_; }
  // Feed-path latency (exchange event timestamp -> strategy NIC), ns.
  [[nodiscard]] const telemetry::Histogram& feed_path() const noexcept { return feed_path_; }
  [[nodiscard]] const StrategyConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t open_orders() const noexcept { return open_orders_.size(); }

  // Registers order-flow counters and the latency histograms under
  // "<prefix>" (tick_to_trade/order_rtt/feed_path appear as gauge rows per
  // summary statistic plus histogram entries when exported).
  void register_metrics(telemetry::Registry& registry, const std::string& prefix) const;

 protected:
  // The decision function. `nic_arrival` is when the datagram hit the NIC
  // (before the software hop) — the reference point for tick-to-trade.
  virtual void on_update(const proto::norm::Update& update, sim::Time nic_arrival) = 0;
  virtual void on_ack(const proto::boe::OrderAccepted& ack);
  virtual void on_reject(const proto::boe::OrderRejected& reject);
  virtual void on_fill(const proto::boe::Fill& fill);
  virtual void on_cancelled(const proto::boe::OrderCancelled& cancelled);

  // Sends a new order after the configured decision latency. Returns the
  // client order id assigned.
  proto::OrderId send_order(proto::Side side, proto::Symbol symbol, proto::Price price,
                            proto::Quantity quantity,
                            proto::boe::TimeInForce tif = proto::boe::TimeInForce::kDay);
  void send_cancel(proto::OrderId client_order_id);

  [[nodiscard]] sim::Scheduler& engine() noexcept { return engine_; }

 private:
  void on_norm_datagram(std::span<const std::byte> payload, sim::Time handler_time);
  void on_session_bytes(std::span<const std::byte> bytes);
  void dispatch_response(const proto::boe::Message& message);
  void transmit(const proto::boe::Message& message);

  sim::Scheduler& engine_;
  StrategyConfig config_;
  std::unique_ptr<net::Host> host_;
  net::Nic* md_nic_ = nullptr;
  net::Nic* order_nic_ = nullptr;
  std::unique_ptr<net::NetStack> md_stack_;
  std::unique_ptr<net::NetStack> order_stack_;
  std::unique_ptr<mcast::IgmpResponder> responder_;
  net::TcpEndpoint* session_ = nullptr;
  proto::boe::StreamParser parser_;
  std::uint32_t tx_seq_ = 1;
  proto::OrderId next_client_id_ = 1;
  std::unordered_map<proto::OrderId, proto::Symbol> open_orders_;
  std::unordered_map<proto::OrderId, sim::Time> order_sent_at_;
  sim::Time current_update_nic_arrival_ = sim::Time::zero();
  bool in_update_context_ = false;
  StrategyStats stats_;
  telemetry::Histogram tick_to_trade_;
  telemetry::Histogram order_rtt_;
  telemetry::Histogram feed_path_;
};

// --- Sample strategies -------------------------------------------------------

// Momentum taker: two consecutive upticks (downticks) in trade prints for a
// symbol trigger an IOC order chasing the move.
class MomentumTaker final : public Strategy {
 public:
  MomentumTaker(sim::Scheduler& engine, StrategyConfig config, proto::Price tick = 100,
                proto::Quantity clip = 100);

 protected:
  void on_update(const proto::norm::Update& update, sim::Time nic_arrival) override;

 private:
  struct State {
    proto::Price last_price = 0;
    int run = 0;  // +n upticks, -n downticks
  };
  std::unordered_map<proto::Symbol, State> state_;
  proto::Price tick_;
  proto::Quantity clip_;
};

// Simple market maker: keeps a two-sided quote around the last observed
// price for each watched symbol, repricing when the market drifts. A quote
// that has fully filled is forgotten, so a reprice never cancels it.
class MarketMaker : public Strategy {
 public:
  MarketMaker(sim::Scheduler& engine, StrategyConfig config, proto::Price half_spread = 300,
              proto::Quantity clip = 200);

 protected:
  void on_update(const proto::norm::Update& update, sim::Time nic_arrival) override;
  void on_fill(const proto::boe::Fill& fill) override;
  // Last word on a fresh quote's prices before they are sent; the plain
  // maker posts them unchanged.
  virtual void adjust_quote(const proto::Symbol& /*symbol*/, proto::Price& /*bid*/,
                            proto::Price& /*ask*/) {}

 private:
  struct Quote {
    proto::Price anchor = 0;
    proto::OrderId bid_id = 0;
    proto::OrderId ask_id = 0;
  };
  std::unordered_map<proto::Symbol, Quote> quotes_;
  proto::Price half_spread_;
  proto::Quantity clip_;
};

// A market maker that keeps its quotes inside the SEC's locked/crossed
// rules (§4.2): every BBO update feeds a MarketStateMonitor, and quote
// prices are clamped so they never lock or cross another venue's displayed
// market. This is the firm-wide-state consumer the paper says makes cloud
// designs hard: the monitor needs every venue's top of book, everywhere.
// Quoting, repricing and fill handling are MarketMaker's; the clamp is the
// only difference.
class CompliantMarketMaker final : public MarketMaker {
 public:
  CompliantMarketMaker(sim::Scheduler& engine, StrategyConfig config,
                       proto::Price half_spread = 300, proto::Quantity clip = 200,
                       proto::Price tick = 100);

  [[nodiscard]] const MarketStateMonitor& monitor() const noexcept { return monitor_; }
  [[nodiscard]] std::uint64_t quotes_clamped() const noexcept { return quotes_clamped_; }

 protected:
  void on_update(const proto::norm::Update& update, sim::Time nic_arrival) override;
  void adjust_quote(const proto::Symbol& symbol, proto::Price& bid, proto::Price& ask) override;

 private:
  MarketStateMonitor monitor_;
  proto::Price tick_;
  std::uint64_t quotes_clamped_ = 0;
};

// Cross-venue arbitrage: watches the same symbol on two exchange ids and
// fires paired IOC orders when their prices diverge past a threshold —
// the "analyze combined market data from many exchanges" pattern (§2).
class CrossVenueArb final : public Strategy {
 public:
  CrossVenueArb(sim::Scheduler& engine, StrategyConfig config, std::uint8_t venue_a,
                std::uint8_t venue_b, proto::Price threshold = 500,
                proto::Quantity clip = 100);

  [[nodiscard]] std::uint64_t opportunities() const noexcept { return opportunities_; }

 protected:
  void on_update(const proto::norm::Update& update, sim::Time nic_arrival) override;

 private:
  struct VenuePrices {
    proto::Price price_a = 0;
    proto::Price price_b = 0;
  };
  std::unordered_map<proto::Symbol, VenuePrices> prices_;
  std::uint8_t venue_a_;
  std::uint8_t venue_b_;
  proto::Price threshold_;
  proto::Quantity clip_;
  std::uint64_t opportunities_ = 0;
};

}  // namespace tsn::trading

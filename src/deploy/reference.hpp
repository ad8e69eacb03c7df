// Reference deployments: the full §2 application stack (exchange with
// matching engine and PITCH feed, normalizers, strategies, gateway) wired
// onto each §4 network design, ready to run. Benches and examples build on
// these instead of re-wiring the pipeline by hand.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "exchange/activity.hpp"
#include "exchange/exchange.hpp"
#include "sim/engine.hpp"
#include "topo/leaf_spine.hpp"
#include "topo/quad_l1s.hpp"
#include "trading/gateway.hpp"
#include "trading/normalizer.hpp"
#include "trading/strategy.hpp"

namespace tsn::deploy {

struct DeploymentConfig {
  std::size_t strategy_count = 4;
  std::size_t symbol_count = 8;
  std::uint32_t norm_partitions = 4;
  std::uint8_t exchange_units = 2;
  double events_per_second = 40'000.0;
  std::uint64_t seed = 17;
  // Strategy behaviour.
  proto::Price momentum_tick = 100;
  sim::Duration decision_latency = sim::micros(std::int64_t{2});
  sim::Duration software_latency = sim::nanos(std::int64_t{900});
};

struct DeploymentReport {
  std::uint64_t feed_datagrams = 0;
  std::uint64_t feed_messages = 0;
  std::uint64_t normalized_updates = 0;
  std::uint64_t sequence_gaps = 0;
  std::uint64_t updates_received = 0;
  std::uint64_t orders_sent = 0;
  std::uint64_t acks = 0;
  std::uint64_t fills = 0;
  telemetry::Histogram tick_to_trade_ns;    // across all strategies
  telemetry::Histogram order_rtt_ns;        // order -> exchange ack
  telemetry::Histogram feed_path_ns;        // exchange event -> strategy NIC
  std::uint64_t frames_dropped = 0;
};

// Shared base: owns the engine, the application boxes, and the activity
// driver; subclasses wire the boxes onto a specific fabric.
class Deployment {
 public:
  virtual ~Deployment() = default;

  // Starts joins/handshakes/logins and lets them settle.
  void start();
  // Runs background market activity for the given duration (drains the
  // event queue afterwards — unsuitable when periodic services like IGMP
  // queriers or snapshot channels are running).
  void run(sim::Duration duration);
  // Runs market activity for `activity`, then a `drain` window, advancing
  // the clock with run_until so perpetual services don't wedge the run.
  void run_bounded(sim::Duration activity, sim::Duration drain = sim::millis(std::int64_t{5}));

  [[nodiscard]] DeploymentReport report() const;

  // Registers every box's metrics (exchange, normalizer, gateway,
  // strategies, fabric aggregate) plus fabric-specific switch metrics in
  // subclasses. One call gives a run a full observability surface.
  virtual void register_metrics(telemetry::Registry& registry) const;

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] exchange::Exchange& exchange() noexcept { return *exchange_; }
  [[nodiscard]] trading::Normalizer& normalizer() noexcept { return *normalizer_; }
  [[nodiscard]] trading::Gateway& gateway() noexcept { return *gateway_; }
  [[nodiscard]] trading::Strategy& strategy(std::size_t i) { return *strategies_.at(i); }
  [[nodiscard]] std::size_t strategy_count() const noexcept { return strategies_.size(); }
  [[nodiscard]] net::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] const DeploymentConfig& config() const noexcept { return config_; }

 protected:
  // Addressing callback: (rack, index) -> IP. Leaf-spine uses its rack
  // subnets, the L1S fabric a flat space, multi-colo one /16 per site.
  using Addresser = std::function<net::Ipv4Addr(std::size_t rack, std::size_t index)>;

  explicit Deployment(DeploymentConfig config);

  // Builds the application boxes (exchange = rack 0, normalizer rack 1,
  // strategies rack 2, gateway rack 3), drawing MACs from next_host_id_.
  // Subclasses then wire them onto their fabric.
  void build_apps(const Addresser& address);
  // Runs the background activity driver (built on first use) for `activity`.
  void drive(sim::Duration activity);

  sim::Engine engine_;
  net::Fabric fabric_{engine_};
  DeploymentConfig config_;
  std::unique_ptr<exchange::Exchange> exchange_;
  std::unique_ptr<trading::Normalizer> normalizer_;
  std::unique_ptr<trading::Gateway> gateway_;
  std::vector<std::unique_ptr<trading::MomentumTaker>> strategies_;
  std::unique_ptr<exchange::MarketActivityDriver> driver_;
  std::uint32_t next_host_id_ = 5000;
};

// Design 1: the stack on a leaf-spine fabric, functions grouped by rack
// (exchange ToR = rack 0, normalizers rack 1, strategies rack 2, gateways
// rack 3) — the placement that yields the paper's 12-switch-hop round trip.
class LeafSpineDeployment final : public Deployment {
 public:
  explicit LeafSpineDeployment(DeploymentConfig config = {},
                               topo::LeafSpineConfig topo_config = default_topo());

  [[nodiscard]] topo::LeafSpineFabric& topology() noexcept { return *topo_; }

  [[nodiscard]] static topo::LeafSpineConfig default_topo();

  // Base metrics plus every leaf/spine switch (including mroute tables).
  void register_metrics(telemetry::Registry& registry) const override;

 private:
  std::unique_ptr<topo::LeafSpineFabric> topo_;
};

// Design 3: the stack on four L1S circuit fabrics. The normalized feed
// fans out to every strategy; strategies merge onto the gateway port (the
// order-aggregation mux). Merge-contention behaviour under wider merges is
// exercised by the D3 bench directly against Layer1Switch.
class QuadL1sDeployment final : public Deployment {
 public:
  explicit QuadL1sDeployment(DeploymentConfig config = {},
                             topo::QuadL1Config topo_config = topo::QuadL1Config{});

  [[nodiscard]] topo::QuadL1Fabric& topology() noexcept { return *topo_; }

  // Base metrics plus the four stage switches.
  void register_metrics(telemetry::Registry& registry) const override;

 private:
  std::unique_ptr<topo::QuadL1Fabric> topo_;
};

}  // namespace tsn::deploy

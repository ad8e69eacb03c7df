// Pins the normalizer's observable output on real exchange traffic: a seeded
// MarketActivityDriver trades on an Exchange whose feed reaches a Normalizer
// through a lossy path, and each scenario digests every republished NORM
// datagram, the final reconstructed BBO of every symbol and the
// NormalizerStats. The digests are exact: any change to how the normalizer
// mirrors the book, detects top-of-book moves, buffers or replays shows up
// here.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <utility>

#include "exchange/activity.hpp"
#include "exchange/exchange.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "trading/normalizer.hpp"

namespace tsn::trading {
namespace {

// Forwards exchange frames to the normalizer, dropping every Nth frame
// (drop_every 0 = lossless). Snapshot-channel frames take a slower second
// egress (port 1), as if the recovery feed came from a separate service:
// live datagrams then overtake the snapshot cycle, so recovery has a
// buffered tail to replay.
class LossyPath final : public net::PortedDevice {
 public:
  explicit LossyPath(std::uint64_t drop_every) : drop_every_(drop_every) {}

  void attach_port(net::PortId port, net::Link& egress) noexcept override {
    (port == 0 ? live_ : snapshot_) = &egress;
  }
  void receive(const net::PacketPtr& packet, net::PortId) override {
    ++seen_;
    if (drop_every_ != 0 && seen_ % drop_every_ == 0) return;
    const auto& decoded = packet->decoded();
    const bool snapshot = decoded && decoded->is_udp() && decoded->udp->dst_port == 30002;
    net::Link* egress = snapshot && snapshot_ != nullptr ? snapshot_ : live_;
    if (egress != nullptr) egress->transmit(packet);
  }
  [[nodiscard]] std::string_view name() const noexcept override { return "lossy-path"; }

 private:
  net::Link* live_ = nullptr;
  net::Link* snapshot_ = nullptr;
  std::uint64_t drop_every_;
  std::uint64_t seen_ = 0;
};

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(std::span<const std::byte> data) {
    for (const std::byte b : data) {
      h ^= static_cast<std::uint8_t>(b);
      h *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(std::as_bytes(std::span{&v, 1})); }
};

struct PinOutcome {
  std::uint64_t digest = 0;
  std::uint64_t frames = 0;
  bool crossed_seen = false;
  NormalizerStats stats;
  // Per symbol: the last BBO published on the NORM feed (bid, ask; 0 = an
  // empty side) and the normalizer's final reconstructed BBO.
  std::map<proto::Symbol, std::pair<proto::Price, proto::Price>> last_published;
  std::map<proto::Symbol, std::pair<proto::Price, proto::Price>> final_best;
};

PinOutcome run_pin(std::uint64_t drop_every, bool with_snapshots) {
  sim::Engine engine;
  net::Fabric fabric{engine};

  exchange::ExchangeConfig xc;
  xc.symbols = {{proto::Symbol{"AAA"}, proto::InstrumentKind::kEquity,
                 proto::price_from_dollars(100)},
                {proto::Symbol{"BBB"}, proto::InstrumentKind::kEquity,
                 proto::price_from_dollars(50)},
                {proto::Symbol{"CCC"}, proto::InstrumentKind::kEquity,
                 proto::price_from_dollars(20)},
                {proto::Symbol{"DDD"}, proto::InstrumentKind::kEquity,
                 proto::price_from_dollars(75)}};
  xc.feed_partitioning = std::make_shared<proto::HashPartition>(2);
  xc.snapshot_interval = sim::millis(std::int64_t{5});
  xc.feed_mac = net::MacAddr::from_host_id(1);
  xc.feed_ip = net::Ipv4Addr{10, 0, 0, 1};
  xc.order_mac = net::MacAddr::from_host_id(2);
  xc.order_ip = net::Ipv4Addr{10, 0, 0, 2};
  exchange::Exchange exch{engine, xc};

  NormalizerConfig nc;
  nc.exchange_id = 1;
  nc.feed_groups = {exch.unit_group(0), exch.unit_group(1)};
  nc.partitioning = std::make_shared<proto::HashPartition>(3);
  if (with_snapshots) {
    nc.snapshot_groups = {exch.snapshot_group(0), exch.snapshot_group(1)};
    nc.exchange_partitioning = xc.feed_partitioning;
  }
  nc.in_mac = net::MacAddr::from_host_id(10);
  nc.in_ip = net::Ipv4Addr{10, 0, 1, 1};
  nc.out_mac = net::MacAddr::from_host_id(11);
  nc.out_ip = net::Ipv4Addr{10, 0, 1, 2};
  Normalizer normalizer{engine, nc};

  LossyPath path{drop_every};
  net::LinkConfig hop;
  hop.propagation = sim::micros(std::int64_t{50});
  exch.feed_nic().attach_port(0, fabric.make_link("feed->path", hop, path, 0));
  path.attach_port(0, fabric.make_link("path->norm", hop, normalizer.in_nic(), 0));
  net::LinkConfig slow = hop;
  slow.propagation = sim::micros(std::int64_t{400});
  path.attach_port(1, fabric.make_link("path->norm/snap", slow, normalizer.in_nic(), 0));
  normalizer.in_nic().attach_port(
      0, fabric.make_link("norm->feed", net::LinkConfig{}, exch.feed_nic(), 0));

  PinOutcome out;
  Fnv fnv;
  net::Nic collector{engine, "collector", net::MacAddr::from_host_id(12),
                     net::Ipv4Addr{10, 0, 1, 3}};
  fabric.connect(normalizer.out_nic(), 0, collector, 0, net::LinkConfig{});
  collector.set_promiscuous(true);
  collector.set_rx_handler([&](const net::PacketPtr& packet, sim::Time) {
    const auto& decoded = packet->decoded();
    if (!decoded || !decoded->is_udp()) return;
    fnv.bytes(decoded->payload);
    ++out.frames;
    (void)proto::norm::for_each_update(decoded->payload, [&](const proto::norm::Update& u) {
      if (u.kind != proto::norm::UpdateKind::kBboUpdate) return;
      auto& last = out.last_published[u.symbol];
      (u.side == proto::Side::kBuy ? last.first : last.second) = u.price;
    });
  });
  normalizer.join_feeds();
  engine.run_until(engine.now() + sim::millis(std::int64_t{1}));
  if (with_snapshots) exch.start_snapshots();

  exchange::ActivityConfig activity;
  activity.events_per_second = 40'000;
  exchange::MarketActivityDriver driver{exch, activity, 2024};
  const sim::Time end = engine.now() + sim::millis(std::int64_t{120});
  driver.run_until(end);
  while (engine.now() < end) {
    engine.run_until(engine.now() + sim::micros(std::int64_t{250}));
    for (const auto& spec : exch.symbols()) {
      const auto bbo = normalizer.best_of(spec.symbol);
      if (bbo && bbo->bid != 0 && bbo->ask != 0 && bbo->bid >= bbo->ask) out.crossed_seen = true;
    }
  }
  engine.run_until(engine.now() + sim::millis(std::int64_t{10}));

  for (const auto& spec : exch.symbols()) {
    const auto bbo = normalizer.best_of(spec.symbol);
    fnv.u64(bbo.has_value() ? 1 : 0);
    fnv.u64(bbo ? static_cast<std::uint64_t>(bbo->bid) : 0);
    fnv.u64(bbo ? static_cast<std::uint64_t>(bbo->ask) : 0);
    if (bbo) out.final_best[spec.symbol] = {bbo->bid, bbo->ask};
  }
  const NormalizerStats& s = normalizer.stats();
  for (const std::uint64_t v :
       {s.datagrams_in, s.messages_in, s.updates_out, s.datagrams_out, s.bbo_updates,
        s.unknown_orders, s.sequence_gaps, s.messages_lost, s.resyncs_started,
        s.resyncs_completed, s.snapshot_orders_applied, s.messages_buffered_in_recovery,
        s.messages_replayed_after_recovery}) {
    fnv.u64(v);
  }
  fnv.u64(normalizer.tracked_orders());
  out.digest = fnv.h;
  out.stats = s;
  return out;
}

TEST(NormalizerPin, CleanFeed) {
  const PinOutcome out = run_pin(/*drop_every=*/0, /*with_snapshots=*/false);
  EXPECT_EQ(out.stats.sequence_gaps, 0u);
  EXPECT_EQ(out.stats.unknown_orders, 0u);
  EXPECT_FALSE(out.crossed_seen);
  EXPECT_GT(out.frames, 100u);
  EXPECT_EQ(out.digest, 0x8c5074705fcdda4dULL) << std::hex << out.digest;
}

TEST(NormalizerPin, LossWithoutSnapshots) {
  const PinOutcome out = run_pin(/*drop_every=*/31, /*with_snapshots=*/false);
  EXPECT_GT(out.stats.sequence_gaps, 0u);
  EXPECT_GT(out.stats.unknown_orders, 0u);
  // Lost deletes leave stale depth behind; the mirror crosses.
  EXPECT_TRUE(out.crossed_seen);
  EXPECT_EQ(out.digest, 0xfdabf3bed0da13c4ULL) << std::hex << out.digest;
}

TEST(NormalizerPin, LossWithSnapshotRecovery) {
  const PinOutcome out = run_pin(/*drop_every=*/31, /*with_snapshots=*/true);
  EXPECT_GT(out.stats.resyncs_completed, 0u);
  EXPECT_GT(out.stats.snapshot_orders_applied, 0u);
  EXPECT_GT(out.stats.messages_replayed_after_recovery, 0u);
  EXPECT_EQ(out.digest, 0x511c4535a786b7ffULL) << std::hex << out.digest;
}

// A completed resync publishes the rebuilt top of every symbol of the unit,
// so subscribers end the run on the normalizer's own book, not on the top
// from before the gap.
TEST(NormalizerPin, ResyncPublishesRebuiltTop) {
  const PinOutcome out = run_pin(/*drop_every=*/31, /*with_snapshots=*/true);
  ASSERT_GT(out.stats.resyncs_completed, 0u);
  ASSERT_EQ(out.final_best.size(), 4u);
  EXPECT_EQ(out.last_published, out.final_best);
}

}  // namespace
}  // namespace tsn::trading

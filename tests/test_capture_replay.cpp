// Record-and-replay: the §2 after-hours-simulation workflow. A live run's
// feed is tapped and recorded; replaying it through an identical
// normalizer stack must reproduce the day bit-for-bit.
#include "sim/engine.hpp"
#include <gtest/gtest.h>

#include "capture/replay.hpp"
#include "capture/tap.hpp"
#include "exchange/activity.hpp"
#include "exchange/exchange.hpp"
#include "net/fabric.hpp"
#include "trading/normalizer.hpp"

namespace tsn::capture {
namespace {

exchange::ExchangeConfig exchange_config() {
  exchange::ExchangeConfig config;
  config.symbols = {{proto::Symbol{"AAA"}, proto::InstrumentKind::kEquity,
                     proto::price_from_dollars(100)},
                    {proto::Symbol{"BBB"}, proto::InstrumentKind::kEquity,
                     proto::price_from_dollars(50)}};
  config.feed_partitioning = std::make_shared<proto::HashPartition>(1);
  config.feed_mac = net::MacAddr::from_host_id(1);
  config.feed_ip = net::Ipv4Addr{10, 0, 0, 1};
  config.order_mac = net::MacAddr::from_host_id(2);
  config.order_ip = net::Ipv4Addr{10, 0, 0, 2};
  return config;
}

trading::NormalizerConfig normalizer_config() {
  trading::NormalizerConfig config;
  config.exchange_id = 1;
  config.feed_groups = {net::Ipv4Addr{239, 100, 0, 0}};
  config.partitioning = std::make_shared<proto::HashPartition>(2);
  config.in_mac = net::MacAddr::from_host_id(10);
  config.in_ip = net::Ipv4Addr{10, 0, 1, 1};
  config.out_mac = net::MacAddr::from_host_id(11);
  config.out_ip = net::Ipv4Addr{10, 0, 1, 2};
  return config;
}

// Collects the normalizer's output payloads for comparison.
struct OutputCollector {
  std::vector<std::vector<std::byte>> payloads;

  void attach(sim::Engine& engine, net::Fabric& fabric, trading::Normalizer& normalizer,
              std::unique_ptr<net::Nic>& nic, std::uint32_t host_id) {
    nic = std::make_unique<net::Nic>(engine, "collector", net::MacAddr::from_host_id(host_id),
                                     net::Ipv4Addr{10, 0, 2, 1});
    nic->set_promiscuous(true);
    fabric.connect(normalizer.out_nic(), 0, *nic, 0, net::LinkConfig{});
    nic->set_rx_handler([this](const net::PacketPtr& packet, sim::Time) {
      const auto decoded = net::decode_frame(packet->frame());
      if (decoded && decoded->is_udp()) {
        payloads.emplace_back(decoded->payload.begin(), decoded->payload.end());
      }
    });
  }
};

TEST(Replay, ReplayReproducesTheLiveRunExactly) {
  // ---- Live run: exchange -> tap -> normalizer, record the feed. -------
  FrameRecorder recorder;
  OutputCollector live_output;
  std::uint64_t live_updates = 0;
  {
    sim::Engine engine;
    net::Fabric fabric{engine};
    exchange::Exchange exch{engine, exchange_config()};
    trading::Normalizer normalizer{engine, normalizer_config()};
    Tap tap{engine, "tap"};
    tap.set_packet_hook([&recorder](const net::PacketPtr& packet, net::PortId port,
                                    sim::Time at) {
      if (port == 0) recorder.record(packet, at);  // exchange-side direction
    });
    fabric.connect(exch.feed_nic(), 0, tap, 0, net::LinkConfig{});
    fabric.connect(tap, 1, normalizer.in_nic(), 0, net::LinkConfig{});
    normalizer.join_feeds();
    std::unique_ptr<net::Nic> collector_nic;
    live_output.attach(engine, fabric, normalizer, collector_nic, 20);

    exchange::MarketActivityDriver driver{exch, exchange::ActivityConfig{}, 11};
    driver.run_until(sim::Time::zero() + sim::millis(std::int64_t{20}));
    engine.run();
    live_updates = normalizer.stats().updates_out;
    ASSERT_GT(recorder.size(), 50u);
    ASSERT_GT(live_updates, 50u);
  }

  // ---- Replay: recorded frames -> fresh normalizer. --------------------
  OutputCollector replay_output;
  std::uint64_t replay_updates = 0;
  {
    sim::Engine engine;
    net::Fabric fabric{engine};
    trading::Normalizer normalizer{engine, normalizer_config()};
    net::Nic source{engine, "replay-src", net::MacAddr::from_host_id(1),
                    net::Ipv4Addr{10, 0, 0, 1}};
    fabric.connect(source, 0, normalizer.in_nic(), 0, net::LinkConfig{});
    normalizer.join_feeds();
    std::unique_ptr<net::Nic> collector_nic;
    replay_output.attach(engine, fabric, normalizer, collector_nic, 21);

    FrameReplayer replayer{engine, source};
    EXPECT_EQ(replayer.replay(recorder.frames(), sim::Time::zero()), recorder.size());
    engine.run();
    EXPECT_EQ(replayer.frames_sent(), recorder.size());
    replay_updates = normalizer.stats().updates_out;
  }

  // The replay regenerates the identical normalized stream.
  EXPECT_EQ(replay_updates, live_updates);
  ASSERT_EQ(replay_output.payloads.size(), live_output.payloads.size());
  // Datagram headers carry the normalizer's own send time, which shifts
  // with the replay's start offset; the updates themselves — symbol,
  // price, size, kind, exchange timestamp — must match exactly.
  for (std::size_t i = 0; i < live_output.payloads.size(); ++i) {
    const auto live = proto::norm::parse(live_output.payloads[i]);
    const auto replay = proto::norm::parse(replay_output.payloads[i]);
    ASSERT_TRUE(live.has_value());
    ASSERT_TRUE(replay.has_value());
    ASSERT_EQ(live->updates.size(), replay->updates.size());
    for (std::size_t u = 0; u < live->updates.size(); ++u) {
      EXPECT_EQ(live->updates[u].symbol, replay->updates[u].symbol);
      EXPECT_EQ(live->updates[u].price, replay->updates[u].price);
      EXPECT_EQ(live->updates[u].quantity, replay->updates[u].quantity);
      EXPECT_EQ(static_cast<int>(live->updates[u].kind),
                static_cast<int>(replay->updates[u].kind));
      EXPECT_EQ(live->updates[u].exchange_time_ns, replay->updates[u].exchange_time_ns);
    }
  }
}

TEST(Replay, SerializeRoundTrip) {
  FrameRecorder recorder;
  net::PacketFactory factory;
  for (int i = 0; i < 10; ++i) {
    recorder.record(factory.make(std::vector<std::byte>(64 + static_cast<std::size_t>(i),
                                                        static_cast<std::byte>(i)),
                                 sim::Time{i * 1'000}),
                    sim::Time{i * 1'000});
  }
  const auto blob = recorder.serialize();
  const auto restored = FrameRecorder::deserialize(blob);
  ASSERT_EQ(restored.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(restored[i].at, recorder.frames()[i].at);
    EXPECT_EQ(restored[i].frame, recorder.frames()[i].frame);
  }
}

TEST(Replay, DeserializeRejectsGarbage) {
  std::vector<std::byte> junk(16, std::byte{0x42});
  EXPECT_THROW((void)FrameRecorder::deserialize(junk), std::invalid_argument);
  FrameRecorder recorder;
  net::PacketFactory factory;
  recorder.record(factory.make(std::vector<std::byte>(64), sim::Time{}), sim::Time{});
  auto blob = recorder.serialize();
  blob.resize(blob.size() - 10);  // truncate
  EXPECT_THROW((void)FrameRecorder::deserialize(blob), std::invalid_argument);
}

TEST(Replay, SpeedScalesInterArrivalTimes) {
  sim::Engine engine;
  net::Nic out{engine, "src", net::MacAddr::from_host_id(1), net::Ipv4Addr{10, 0, 0, 1}};
  std::vector<RecordedFrame> recording;
  recording.push_back({sim::Time{1'000'000}, std::vector<std::byte>(64)});
  recording.push_back({sim::Time{3'000'000}, std::vector<std::byte>(64)});
  FrameReplayer replayer{engine, out};
  (void)replayer.replay(recording, sim::Time::zero() + sim::micros(std::int64_t{10}),
                        /*speed=*/2.0);
  // First at 10 us; second 1 us later (2 us gap compressed by 2x).
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(engine.now(), sim::Time::zero() + sim::micros(std::int64_t{10}));
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(engine.now(), sim::Time::zero() + sim::micros(std::int64_t{11}));
  EXPECT_THROW((void)replayer.replay(recording, sim::Time::zero(), 0.0),
               std::invalid_argument);
}

TEST(Replay, EmptyRecordingIsANoop) {
  sim::Engine engine;
  net::Nic out{engine, "src", net::MacAddr::from_host_id(1), net::Ipv4Addr{10, 0, 0, 1}};
  FrameReplayer replayer{engine, out};
  EXPECT_EQ(replayer.replay({}, sim::Time::zero()), 0u);
  EXPECT_EQ(engine.pending_events(), 0u);
}

// Packs hand-written feed messages into one PITCH datagram payload.
std::vector<std::byte> pitch_payload(const std::vector<proto::pitch::Message>& messages) {
  std::vector<std::byte> payload;
  proto::pitch::FrameBuilder builder{
      0, 1458, [&payload](std::vector<std::byte> p, const proto::pitch::UnitHeader&) {
        payload = std::move(p);
      }};
  for (const auto& message : messages) builder.append(message);
  builder.flush();
  return payload;
}

std::vector<book::Order> orders_of(const book::OrderBook& book) {
  std::vector<book::Order> out;
  book.for_each_order([&out](const book::Order& o) { out.push_back(o); });
  return out;
}

TEST(BookReplayer, ReplayOfRecordedFeedReproducesExchangeBook) {
  sim::Engine engine;
  net::Fabric fabric{engine};
  auto config = exchange_config();
  config.symbols.resize(1);  // the replay-to-book lane mirrors one symbol
  exchange::Exchange exch{engine, config};
  FrameRecorder recorder;
  Tap tap{engine, "tap"};
  tap.set_packet_hook([&recorder](const net::PacketPtr& packet, net::PortId port, sim::Time at) {
    if (port == 0) recorder.record(packet, at);
  });
  net::Nic sink{engine, "sink", net::MacAddr::from_host_id(30), net::Ipv4Addr{10, 0, 3, 1}};
  fabric.connect(exch.feed_nic(), 0, tap, 0, net::LinkConfig{});
  fabric.connect(tap, 1, sink, 0, net::LinkConfig{});
  exchange::MarketActivityDriver driver{exch, exchange::ActivityConfig{}, 17};
  driver.run_until(sim::Time::zero() + sim::millis(std::int64_t{40}));
  engine.run();
  const book::OrderBook& truth = exch.book(config.symbols[0].symbol);
  ASSERT_GT(driver.stats().replaces, 0u);
  ASSERT_GT(driver.stats().crosses, 0u);
  ASSERT_GT(truth.open_orders(), 10u);

  book::OrderBook mirror{config.symbols[0].symbol};
  BookReplayer replayer{mirror};
  EXPECT_GT(replayer.replay(recorder.frames()), 0u);
  EXPECT_EQ(replayer.stats().unknown_orders, 0u);
  EXPECT_EQ(replayer.stats().malformed_datagrams, 0u);
  EXPECT_EQ(mirror.best(), truth.best());
  EXPECT_EQ(mirror.open_orders(), truth.open_orders());
  const auto expected = orders_of(truth);
  const auto actual = orders_of(mirror);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id);
    EXPECT_EQ(actual[i].price, expected[i].price);
    EXPECT_EQ(actual[i].quantity, expected[i].quantity);
  }
  EXPECT_EQ(mirror.executions(), 0u);  // the mirror never matches
}

TEST(BookReplayer, CrossingAddRestsWithoutMatching) {
  book::OrderBook book{proto::Symbol{"AAA"}};
  BookReplayer replayer{book};
  proto::pitch::AddOrder bid;
  bid.order_id = 1;
  bid.side = proto::Side::kBuy;
  bid.symbol = proto::Symbol{"AAA"};
  bid.price = proto::price_from_dollars(10);
  bid.quantity = 100;
  proto::pitch::AddOrder ask = bid;
  ask.order_id = 2;
  ask.side = proto::Side::kSell;
  ask.price = proto::price_from_dollars(9);  // crosses the bid
  ask.quantity = 40;
  EXPECT_EQ(replayer.replay_payload(pitch_payload({bid, ask})), 2u);
  EXPECT_EQ(book.open_orders(), 2u);
  EXPECT_EQ(book.executions(), 0u);
  const auto best = book.best();
  EXPECT_EQ(best.bid_price, proto::price_from_dollars(10));
  EXPECT_EQ(best.bid_quantity, 100u);
  EXPECT_EQ(best.ask_price, proto::price_from_dollars(9));
  EXPECT_EQ(best.ask_quantity, 40u);
}

TEST(BookReplayer, UnknownIdsAreCounted) {
  book::OrderBook book{proto::Symbol{"AAA"}};
  BookReplayer replayer{book};
  proto::pitch::OrderExecuted exec;
  exec.order_id = 11;
  exec.executed_quantity = 10;
  proto::pitch::ReduceSize reduce;
  reduce.order_id = 12;
  reduce.cancelled_quantity = 10;
  proto::pitch::ModifyOrder modify;
  modify.order_id = 13;
  modify.quantity = 10;
  modify.price = 100;
  proto::pitch::DeleteOrder del;
  del.order_id = 14;
  EXPECT_EQ(replayer.replay_payload(pitch_payload({exec, reduce, modify, del})), 0u);
  EXPECT_EQ(replayer.stats().messages, 4u);
  EXPECT_EQ(replayer.stats().unknown_orders, 4u);
  EXPECT_EQ(book.open_orders(), 0u);
}

}  // namespace
}  // namespace tsn::capture

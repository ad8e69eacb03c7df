// Session liveness on the order-entry link: exchanges heartbeat idle
// sessions and disconnect dead counterparties (§2's long-lived TCP
// sessions survive six-hour days only because both ends prove liveness).
#include "sim/engine.hpp"
#include <gtest/gtest.h>

#include "exchange/exchange.hpp"
#include "net/fabric.hpp"
#include "trading/gateway.hpp"

namespace tsn {
namespace {

exchange::ExchangeConfig exchange_config(bool sharded_sweep = false) {
  exchange::ExchangeConfig config;
  config.sharded_liveness_sweep = sharded_sweep;
  config.symbols = {{proto::Symbol{"AAA"}, proto::InstrumentKind::kEquity,
                     proto::price_from_dollars(100)}};
  config.feed_partitioning = std::make_shared<proto::HashPartition>(1);
  config.heartbeat_interval = sim::millis(std::int64_t{20});
  config.session_timeout = sim::millis(std::int64_t{65});
  config.feed_mac = net::MacAddr::from_host_id(1);
  config.feed_ip = net::Ipv4Addr{10, 0, 0, 1};
  config.order_mac = net::MacAddr::from_host_id(2);
  config.order_ip = net::Ipv4Addr{10, 0, 0, 2};
  return config;
}

struct LivenessRig {
  sim::Engine engine;
  net::Fabric fabric{engine};
  exchange::Exchange exch;
  net::Nic client_nic{engine, "client", net::MacAddr::from_host_id(10),
                      net::Ipv4Addr{10, 0, 0, 10}};
  net::NetStack client{client_nic};
  net::TcpEndpoint* session = nullptr;
  proto::boe::StreamParser parser;
  int heartbeats_received = 0;
  std::uint32_t seq = 1;

  explicit LivenessRig(bool sharded_sweep) : exch(engine, exchange_config(sharded_sweep)) {
    fabric.connect(exch.order_nic(), 0, client_nic, 0, net::LinkConfig{});
    session = &client.connect_tcp(exch.order_nic().mac(), exch.order_nic().ip(),
                                  exch.config().order_port, 0);
    session->set_data_handler([this](std::span<const std::byte> bytes, sim::Time) {
      parser.feed(bytes);
      while (auto decoded = parser.next()) {
        if (std::holds_alternative<proto::boe::Heartbeat>(decoded->message)) {
          ++heartbeats_received;
        }
      }
    });
  }

  void login() {
    session->send(proto::boe::encode(proto::boe::LoginRequest{1, 0xfeed}, seq++));
    engine.run_until(engine.now() + sim::millis(std::int64_t{1}));
  }

  void run_for(std::int64_t ms) { engine.run_until(engine.now() + sim::millis(ms)); }
};

// The single-shard cases run under both sweep settings: with one shard,
// sweeping one shard per tick and every shard per tick visit the same
// connections, so every expectation holds for both. Each body is defined
// once and registered as SessionLiveness.<name> (every shard per tick) and
// SessionLivenessOneShardPerTick.<name> (one shard per tick).
#define LIVENESS_TEST_BOTH_SWEEPS(name)                              \
  void name##Body(bool sharded_sweep);                               \
  TEST(SessionLiveness, name) { name##Body(false); }                 \
  TEST(SessionLivenessOneShardPerTick, name) { name##Body(true); }   \
  void name##Body(bool sharded_sweep)

LIVENESS_TEST_BOTH_SWEEPS(IdleSessionReceivesHeartbeats) {
  LivenessRig rig{sharded_sweep};
  rig.login();
  rig.exch.start_heartbeats();
  rig.run_for(60);  // under the timeout; several heartbeat intervals
  EXPECT_GE(rig.heartbeats_received, 1);
  EXPECT_GE(rig.exch.stats().heartbeats_sent, 1u);
  EXPECT_EQ(rig.exch.stats().sessions_timed_out, 0u);
}

LIVENESS_TEST_BOTH_SWEEPS(SilentSessionTimesOutAndIsDisconnected) {
  LivenessRig rig{sharded_sweep};
  rig.login();
  rig.exch.start_heartbeats();
  // The client never answers; TCP ACKs alone don't count as liveness.
  rig.run_for(200);
  EXPECT_EQ(rig.exch.stats().sessions_timed_out, 1u);
  // The exchange closed the connection (FIN reached the client).
  EXPECT_NE(rig.session->state(), net::TcpState::kEstablished);
}

LIVENESS_TEST_BOTH_SWEEPS(ClientHeartbeatsKeepTheSessionAlive) {
  LivenessRig rig{sharded_sweep};
  rig.login();
  rig.exch.start_heartbeats();
  for (int i = 0; i < 20; ++i) {
    rig.session->send(proto::boe::encode(proto::boe::Heartbeat{}, rig.seq++));
    rig.run_for(15);
  }
  EXPECT_EQ(rig.exch.stats().sessions_timed_out, 0u);
  EXPECT_EQ(rig.session->state(), net::TcpState::kEstablished);
}

LIVENESS_TEST_BOTH_SWEEPS(SilentSessionDiesInExactlyTheTimeoutWindow) {
  // heartbeat_interval = 20ms, session_timeout = 65ms: the exchange sweeps
  // on the heartbeat tick and kills a session at the FIRST tick where idle
  // time exceeds the timeout — not a tick earlier, not a tick later.
  LivenessRig rig{sharded_sweep};
  rig.login();  // last_rx ~ now; heartbeat ticks start counting from here
  rig.exch.start_heartbeats();
  // Ticks land near 21/41/61/81ms. At 61ms idle < 65ms: still alive.
  rig.run_for(70);
  EXPECT_EQ(rig.exch.stats().sessions_timed_out, 0u);
  // The 81ms tick sees idle > 65ms: dead exactly one sweep past the window.
  rig.run_for(15);
  EXPECT_EQ(rig.exch.stats().sessions_timed_out, 1u);
}

LIVENESS_TEST_BOTH_SWEEPS(ClientHeartbeatsRefreshWithoutPingPong) {
  // Incoming heartbeats are pure liveness: they refresh the idle clock but
  // are never answered, so a chatty client cannot trigger a heartbeat echo
  // storm. The exchange only heartbeats a session that has gone quiet.
  LivenessRig rig{sharded_sweep};
  rig.login();
  rig.exch.start_heartbeats();
  for (int i = 0; i < 50; ++i) {
    rig.session->send(proto::boe::encode(proto::boe::Heartbeat{}, rig.seq++));
    rig.run_for(2);
  }
  // 50 client heartbeats over 100ms: session alive, and the exchange sent
  // nothing back (idle never crossed one heartbeat interval).
  EXPECT_EQ(rig.exch.stats().sessions_timed_out, 0u);
  EXPECT_EQ(rig.exch.stats().heartbeats_sent, 0u);
  EXPECT_EQ(rig.heartbeats_received, 0);
  EXPECT_EQ(rig.session->state(), net::TcpState::kEstablished);
}

#undef LIVENESS_TEST_BOTH_SWEEPS

// A direct client that never speaks after its login.
struct SilentClient final : exchange::DirectClient {
  void on_direct_bytes(std::uint32_t, std::span<const std::byte>) override {}
};

TEST(SessionLiveness, ShardedSweepKillsWithinShardsMinusOneExtraTicks) {
  // Four directory shards swept one per tick: a silent session dies on the
  // first tick past session_timeout that sweeps its shard, at most three
  // ticks after the tick where a full sweep would have killed it.
  constexpr std::uint32_t kSessions = 16;
  sim::Engine engine;
  auto config = exchange_config(/*sharded_sweep=*/true);
  config.session_shards = 4;
  exchange::Exchange exch{engine, config};
  SilentClient client;
  for (std::uint32_t id = 1; id <= kSessions; ++id) {
    exch.deliver_direct(exch.open_direct(client), proto::boe::LoginRequest{id, 0xfeed});
  }
  const auto at = [](std::int64_t ms) { return sim::Time::zero() + sim::millis(ms); };
  engine.run_until(at(1));  // every session logged in; last heard from at 0 ms
  ASSERT_EQ(exch.session_store().session_count(), kSessions);
  exch.start_heartbeats();  // ticks at 21, 41, 61, 81, ... ms
  // Idle crosses the 65 ms timeout between the 61 and 81 ms ticks.
  engine.run_until(at(80));
  EXPECT_EQ(exch.stats().sessions_timed_out, 0u);
  // The 81 ms tick sweeps one shard only.
  engine.run_until(at(82));
  EXPECT_GT(exch.stats().sessions_timed_out, 0u);
  EXPECT_LT(exch.stats().sessions_timed_out, kSessions);
  // The other three shards come round on the next three ticks.
  engine.run_until(at(80 + 3 * 20));
  EXPECT_LT(exch.stats().sessions_timed_out, kSessions);
  engine.run_until(at(82 + 3 * 20));
  EXPECT_EQ(exch.stats().sessions_timed_out, kSessions);
}

TEST(SessionLiveness, StartHeartbeatsValidatesConfig) {
  sim::Engine engine;
  auto config = exchange_config();
  config.heartbeat_interval = sim::Duration::zero();
  exchange::Exchange exch{engine, std::move(config)};
  EXPECT_THROW(exch.start_heartbeats(), std::invalid_argument);
}

TEST(SessionLiveness, GatewayKeepAliveSurvivesExchangeTimeouts) {
  sim::Engine engine;
  net::Fabric fabric{engine};
  exchange::Exchange exch{engine, exchange_config()};
  trading::GatewayConfig gconfig;
  gconfig.exchange_mac = exch.order_nic().mac();
  gconfig.exchange_ip = exch.order_nic().ip();
  gconfig.exchange_port = exch.config().order_port;
  gconfig.heartbeat_interval = sim::millis(std::int64_t{25});  // < session_timeout
  gconfig.client_mac = net::MacAddr::from_host_id(20);
  gconfig.client_ip = net::Ipv4Addr{10, 0, 0, 20};
  gconfig.upstream_mac = net::MacAddr::from_host_id(21);
  gconfig.upstream_ip = net::Ipv4Addr{10, 0, 0, 21};
  trading::Gateway gateway{engine, gconfig};
  fabric.connect(gateway.upstream_nic(), 0, exch.order_nic(), 0, net::LinkConfig{});
  gateway.start();
  exch.start_heartbeats();
  engine.run_until(engine.now() + sim::millis(std::int64_t{500}));
  EXPECT_TRUE(gateway.upstream_ready());
  EXPECT_GT(gateway.stats().heartbeats_sent, 5u);
  EXPECT_EQ(exch.stats().sessions_timed_out, 0u);
}

}  // namespace
}  // namespace tsn

// The four workloads. Each builds its rig from the seed, runs it, checks its
// outputs and, on a traced iteration, collects per-layer metrics.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "capture/replay.hpp"
#include "capture/tap.hpp"
#include "deploy/reference.hpp"
#include "deploy/sharded_market.hpp"
#include "exchange/activity.hpp"
#include "exchange/exchange.hpp"
#include "exchange/loadgen.hpp"
#include "net/fabric.hpp"
#include "net/headers.hpp"
#include "net/wire.hpp"
#include "proto/norm.hpp"
#include "proto/partition.hpp"
#include "proto/pitch.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/sharded_engine.hpp"
#include "telemetry/metrics.hpp"
#include "wallbench.hpp"

namespace wallbench {
namespace {

using namespace tsn;

double as_double(std::uint64_t v) { return static_cast<double>(v); }

// Keeps a computed value alive so the optimizer cannot drop a timed loop.
volatile std::uint64_t g_sink = 0;

// ---------------------------------------------------------------------------
// Layer probes shared by the workloads.

// Admitted-input tap on a live exchange (the hook a hot standby uses), so
// the traced run can replay the workload's own inputs into a fresh exchange.
class InputRecorder final : public exchange::InputListener {
 public:
  enum class Kind : std::uint8_t { kLogin, kMessage, kDead };
  struct Input {
    Kind kind = Kind::kLogin;
    std::uint32_t session = 0;
    std::uint64_t token = 0;
    std::int64_t at_ps = 0;
    proto::boe::Message message;
  };

  InputRecorder(const sim::Scheduler& clock, std::size_t cap) : clock_(clock), cap_(cap) {
    inputs_.reserve(cap);
  }

  void on_admitted_login(std::uint32_t session_id, std::uint64_t token) override {
    push(Input{Kind::kLogin, session_id, token, clock_.now().picos(), {}});
  }
  void on_admitted_message(std::uint32_t session_id,
                           const proto::boe::Message& message) override {
    push(Input{Kind::kMessage, session_id, 0, clock_.now().picos(), message});
  }
  void on_admitted_session_dead(std::uint32_t session_id) override {
    push(Input{Kind::kDead, session_id, 0, clock_.now().picos(), {}});
  }

  [[nodiscard]] const std::vector<Input>& inputs() const noexcept { return inputs_; }

 private:
  void push(Input input) {
    if (inputs_.size() < cap_) inputs_.push_back(std::move(input));
  }

  const sim::Scheduler& clock_;
  std::size_t cap_;
  std::vector<Input> inputs_;
};

// exchange.build_ms and exchange.apply_ns_per_input: constructs a fresh
// exchange with the live one's configuration (reserves included), then
// applies the recorded admitted inputs through the replication entry points.
void replay_inputs(Tracer* tracer, const exchange::ExchangeConfig& config,
                   const InputRecorder& recorder, Outcome& out) {
  sim::Engine engine;
  Span build{tracer, "exchange.build"};
  exchange::Exchange fresh{engine, config};
  out.layer["exchange.build_ms"] = build.stop() * 1e3;
  const auto& inputs = recorder.inputs();
  if (inputs.empty()) return;
  Span apply{tracer, "exchange.apply_replicated"};
  for (const auto& input : inputs) {
    switch (input.kind) {
      case InputRecorder::Kind::kLogin:
        fresh.apply_replicated_login(input.session, input.token, input.at_ps);
        break;
      case InputRecorder::Kind::kMessage:
        fresh.apply_replicated_message(input.session, input.message, input.at_ps);
        break;
      case InputRecorder::Kind::kDead:
        fresh.apply_replicated_session_dead(input.session, input.at_ps);
        break;
    }
  }
  out.layer["exchange.apply_ns_per_input"] = apply.stop() * 1e9 / as_double(inputs.size());
}

// session_store.find_ns: the three store lookups on the live store with the
// workload's ids — session ids and client order ids from the recorded
// inputs, exchange order ids from the resting books.
void time_store_finds(Tracer* tracer, exchange::Exchange& exch,
                      const InputRecorder& recorder, Outcome& out) {
  const exchange::SessionStore& store = exch.session_store();
  std::vector<std::pair<std::uint32_t, proto::OrderId>> client_ids;
  for (const auto& input : recorder.inputs()) {
    if (input.kind != InputRecorder::Kind::kMessage) continue;
    if (const auto* order = std::get_if<proto::boe::NewOrder>(&input.message)) {
      client_ids.emplace_back(input.session, order->client_order_id);
    }
  }
  std::vector<proto::OrderId> exchange_ids;
  for (const auto& spec : exch.symbols()) {
    exch.book(spec.symbol).for_each_order(
        [&exchange_ids](const book::Order& order) { exchange_ids.push_back(order.id); });
  }
  if (client_ids.empty()) return;
  constexpr std::size_t kMinCalls = 400'000;
  const std::size_t per_round = 2 * client_ids.size() + exchange_ids.size();
  const std::size_t rounds = std::max<std::size_t>(1, kMinCalls / per_round);
  std::uint64_t acc = 0;
  Span span{tracer, "session_store.find"};
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const auto& [session, client_id] : client_ids) {
      const std::uint32_t slot = store.lookup(session);
      acc += slot;
      if (slot != exchange::SessionStore::kNullSlot) acc += store.find_open(slot, client_id);
    }
    for (const proto::OrderId id : exchange_ids) acc += store.find_by_exchange(id);
  }
  const double elapsed = span.stop();
  g_sink = acc;
  out.layer["session_store.find_ns"] = elapsed * 1e9 / as_double(rounds * per_round);
}

// sim.queue_ns_per_event: schedule_at plus firing of a no-op action on a
// bare Engine held at the workload's sampled peak queue depth.
void time_bare_queue(Tracer* tracer, std::size_t depth, std::uint64_t seed, Outcome& out) {
  if (depth == 0) return;
  sim::Engine engine;
  engine.reserve(depth + 16);
  sim::Rng rng{seed};
  constexpr std::int64_t kHorizonPs = 1'000'000'000;  // 1 ms of future
  for (std::size_t i = 0; i < depth; ++i) {
    engine.schedule_at(engine.now() + sim::Duration{rng.uniform_int(1, kHorizonPs)}, [] {});
  }
  constexpr std::size_t kCycles = 1'000'000;
  Span span{tracer, "sim.bare_queue"};
  for (std::size_t i = 0; i < kCycles; ++i) {
    engine.schedule_at(engine.now() + sim::Duration{rng.uniform_int(1, kHorizonPs)}, [] {});
    (void)engine.step();
  }
  out.layer["sim.queue_ns_per_event"] = span.stop() * 1e9 / static_cast<double>(kCycles);
}

// One feed unit per listed symbol, so every regenerated datagram belongs to
// one book (the replay-to-book lane is single-symbol).
class UnitPerSymbol final : public proto::PartitionScheme {
 public:
  explicit UnitPerSymbol(std::vector<proto::Symbol> symbols) : symbols_(std::move(symbols)) {}
  [[nodiscard]] std::uint32_t partition_of(const proto::Symbol& symbol,
                                           proto::InstrumentKind) const noexcept override {
    const auto it = std::find(symbols_.begin(), symbols_.end(), symbol);
    return static_cast<std::uint32_t>(it - symbols_.begin());
  }
  [[nodiscard]] std::uint32_t partition_count() const noexcept override {
    return static_cast<std::uint32_t>(symbols_.size());
  }

 private:
  std::vector<proto::Symbol> symbols_;
};

struct RegeneratedFeed {
  std::vector<std::vector<std::byte>> pitch_frames;  // exchange -> normalizer
  std::vector<std::vector<std::byte>> norm_frames;   // normalizer -> strategies
};

// Re-runs the workload's market activity (same exchange and normalizer
// configuration, same activity seed) on a bare exchange -> normalizer rig
// and records both hops' frames. Background activity is the bulk of the
// live feed; the strategies' own orders are not part of the regeneration.
RegeneratedFeed regenerate_feed(const exchange::ExchangeConfig& xconfig,
                                const trading::NormalizerConfig* nconfig,
                                const exchange::ActivityConfig& activity, std::uint64_t seed,
                                sim::Duration duration) {
  RegeneratedFeed feed;
  sim::Engine engine;
  net::Fabric fabric{engine};
  net::LinkConfig link;
  link.rate_bps = 0;  // no serialization: the recording is what matters
  exchange::Exchange exch{engine, xconfig};
  capture::Tap tap{engine, "regen-tap"};
  tap.set_packet_hook([&feed](const net::PacketPtr& packet, net::PortId port, sim::Time) {
    if (port == 0) {
      feed.pitch_frames.emplace_back(packet->frame().begin(), packet->frame().end());
    }
  });
  fabric.connect(exch.feed_nic(), 0, tap, 0, link);
  std::unique_ptr<trading::Normalizer> norm;
  net::Nic sink{engine, "regen-sink", net::MacAddr::from_host_id(9'999),
                net::Ipv4Addr{10, 250, 0, 1}};
  if (nconfig != nullptr) {
    norm = std::make_unique<trading::Normalizer>(engine, *nconfig);
    fabric.connect(tap, 1, norm->in_nic(), 0, link);
    sink.set_promiscuous(true);
    sink.set_rx_handler([&feed](const net::PacketPtr& packet, sim::Time) {
      feed.norm_frames.emplace_back(packet->frame().begin(), packet->frame().end());
    });
    fabric.connect(norm->out_nic(), 0, sink, 0, link);
    norm->join_feeds();
  } else {
    fabric.connect(tap, 1, sink, 0, link);
  }
  exchange::MarketActivityDriver driver{exch, activity, seed};
  driver.run_until(sim::Time::zero() + duration);
  engine.run_until(sim::Time::zero() + duration + sim::millis(std::int64_t{5}));
  return feed;
}

// net.decode_frame_ns, proto.pitch_decode_ns_per_msg and
// proto.norm_decode_ns_per_update over the regenerated frames; repeated
// until each loop has run long enough to time.
void time_decoders(Tracer* tracer, const RegeneratedFeed& feed, Outcome& out) {
  constexpr double kMinSeconds = 0.05;
  std::vector<std::span<const std::byte>> pitch_payloads;
  std::uint64_t acc = 0;
  {
    Span span{tracer, "net.decode_frame"};
    std::size_t frames = 0;
    const auto start = Clock::now();
    do {
      for (const auto& frame : feed.pitch_frames) {
        const auto decoded = net::decode_frame(frame);
        acc += decoded ? decoded->payload.size() : 0;
      }
      frames += feed.pitch_frames.size();
    } while (seconds_between(start, Clock::now()) < kMinSeconds);
    const double elapsed = span.stop();
    out.layer["net.decode_frame_ns"] = elapsed * 1e9 / as_double(frames);
  }
  for (const auto& frame : feed.pitch_frames) {
    const auto decoded = net::decode_frame(frame);
    if (decoded && decoded->is_udp()) pitch_payloads.push_back(decoded->payload);
  }
  {
    proto::pitch::DecodedBatch batch;
    std::uint64_t messages = 0;
    Span span{tracer, "proto.pitch_decode_batch"};
    const auto start = Clock::now();
    do {
      for (const auto payload : pitch_payloads) {
        (void)proto::pitch::decode_batch(payload, batch);
        messages += batch.count;
      }
    } while (seconds_between(start, Clock::now()) < kMinSeconds);
    const double elapsed = span.stop();
    out.layer["proto.pitch_decode_ns_per_msg"] = elapsed * 1e9 / as_double(messages);
  }
  std::vector<std::span<const std::byte>> norm_payloads;
  for (const auto& frame : feed.norm_frames) {
    const auto decoded = net::decode_frame(frame);
    if (decoded && decoded->is_udp() && decoded->payload.size() >= proto::norm::kHeaderSize) {
      norm_payloads.push_back(decoded->payload);
    }
  }
  if (!norm_payloads.empty()) {
    std::uint64_t updates = 0;
    Span span{tracer, "proto.norm_decode_one"};
    const auto start = Clock::now();
    do {
      for (const auto payload : norm_payloads) {
        net::WireReader reader{payload.subspan(proto::norm::kHeaderSize)};
        while (const auto update = proto::norm::decode_one(reader)) {
          acc += update->quantity;
          ++updates;
        }
      }
    } while (seconds_between(start, Clock::now()) < kMinSeconds);
    const double elapsed = span.stop();
    out.layer["proto.norm_decode_ns_per_update"] = elapsed * 1e9 / as_double(updates);
  }
  g_sink = acc;
}

// book.replay_ns_per_msg: replay-to-book of a per-symbol regeneration of the
// feed, one fresh book per symbol. A clean replay knows every order id.
void time_book_replay(Tracer* tracer, const std::vector<exchange::SymbolSpec>& symbols,
                      const RegeneratedFeed& per_symbol_feed, Outcome& out) {
  std::vector<std::vector<const std::vector<std::byte>*>> by_unit(symbols.size());
  proto::pitch::DecodedBatch batch;
  for (const auto& frame : per_symbol_feed.pitch_frames) {
    const auto decoded = net::decode_frame(frame);
    if (!decoded || !decoded->is_udp() || !proto::pitch::decode_batch(decoded->payload, batch)) {
      continue;
    }
    if (batch.header.unit < by_unit.size()) by_unit[batch.header.unit].push_back(&frame);
  }
  std::vector<std::unique_ptr<book::OrderBook>> books;
  std::vector<std::unique_ptr<capture::BookReplayer>> replayers;
  for (const auto& spec : symbols) {
    books.push_back(std::make_unique<book::OrderBook>(spec.symbol));
    replayers.push_back(std::make_unique<capture::BookReplayer>(*books.back()));
  }
  Span span{tracer, "book.replay"};
  for (std::size_t u = 0; u < by_unit.size(); ++u) {
    for (const auto* frame : by_unit[u]) (void)replayers[u]->replay_frame(*frame);
  }
  const double elapsed = span.stop();
  std::uint64_t messages = 0;
  std::uint64_t anomalies = 0;
  for (const auto& replayer : replayers) {
    messages += replayer->stats().messages;
    anomalies += replayer->stats().unknown_orders + replayer->stats().malformed_datagrams;
  }
  out.check(anomalies == 0, "book replay of the regenerated feed met unknown or malformed input");
  if (messages > 0) out.layer["book.replay_ns_per_msg"] = elapsed * 1e9 / as_double(messages);
}

std::size_t resting_orders(exchange::Exchange& exch) {
  std::size_t total = 0;
  for (const auto& spec : exch.symbols()) total += exch.book(spec.symbol).open_orders();
  return total;
}

void add_store_counts(const exchange::SessionStore& store, Outcome& out) {
  const auto& s = store.stats();
  out.layer["session_store.sessions_created"] = as_double(s.sessions_created);
  out.layer["session_store.sessions_destroyed"] = as_double(s.sessions_destroyed);
  out.layer["session_store.orders_registered"] = as_double(s.orders_registered);
  out.layer["session_store.journal_appends"] = as_double(s.journal_appends);
  out.layer["session_store.journal_flushes"] = as_double(s.journal_flushes);
  out.layer["session_store.journal_bytes"] = as_double(s.journal_bytes);
}

void add_exchange_counts(const exchange::ExchangeStats& s, Outcome& out) {
  out.layer["exchange.orders_received"] += as_double(s.orders_received);
  out.layer["exchange.orders_accepted"] += as_double(s.orders_accepted);
  out.layer["exchange.fills"] += as_double(s.fills_sent);
  out.layer["exchange.feed_msgs"] += as_double(s.feed_messages);
}

// ---------------------------------------------------------------------------
// leafspine_burst / l1s_burst: a reference deployment under a market burst.

enum class Design { kLeafSpine, kQuadL1s };

constexpr double kBurstEventsPerSecond = 300'000.0;  // Fig 2b median second

Outcome run_burst(Design design, const Options& options) {
  Outcome out;
  Tracer* tracer = options.tracer;
  const bool traced = tracer != nullptr;
  const sim::Duration activity =
      options.tiny ? sim::millis(std::int64_t{5}) : sim::millis(std::int64_t{60});
  const sim::Duration drain = sim::millis(std::int64_t{5});

  deploy::DeploymentConfig config;
  config.strategy_count = 8;
  config.symbol_count = 8;
  config.events_per_second = kBurstEventsPerSecond;
  config.seed = options.seed;

  Span total{tracer, "iteration"};
  Span setup{tracer, "setup"};
  std::unique_ptr<deploy::Deployment> dep;
  {
    Span build{tracer, "deploy.build"};
    if (design == Design::kLeafSpine) {
      dep = std::make_unique<deploy::LeafSpineDeployment>(config);
    } else {
      dep = std::make_unique<deploy::QuadL1sDeployment>(config);
    }
    out.layer["deploy.build_ms"] = build.stop() * 1e3;
  }
  std::optional<InputRecorder> recorder;
  if (traced) {
    recorder.emplace(dep->engine(), std::size_t{1} << 20);
    dep->exchange().set_input_listener(&*recorder);
  }
  {
    Span start{tracer, "deploy.start"};
    dep->start();
    out.layer["deploy.start_ms"] = start.stop() * 1e3;
  }
  out.setup_s = setup.stop();

  sim::Engine& engine = dep->engine();
  const std::uint64_t events_before = engine.events_fired();
  std::size_t pending_peak = 0;
  {
    // The run advances in slices so that the queue depth can be sampled
    // between them: a drain of -activity starts the market activity without
    // advancing the clock, and the slices cover the activity and the drain.
    Span run{tracer, "run"};
    const sim::Time end = engine.now() + activity + drain;
    dep->run_bounded(activity, -activity);
    constexpr int kSlices = 100;
    const sim::Duration slice = (activity + drain) / kSlices;
    for (int i = 1; i <= kSlices; ++i) {
      pending_peak = std::max(pending_peak, engine.pending_events());
      Span s{tracer, "engine.run_until"};
      engine.run_until(i == kSlices ? end : engine.now() + slice);
    }
    out.run_s = run.stop();
  }
  const std::uint64_t run_events = engine.events_fired() - events_before;

  deploy::DeploymentReport report;
  {
    Span span{tracer, "telemetry.report"};
    report = dep->report();
    out.layer["telemetry.report_ms"] = span.stop() * 1e3;
  }
  {
    Span span{tracer, "telemetry.export"};
    telemetry::Registry registry;
    dep->register_metrics(registry);
    const std::string json = registry.to_json(engine.now());
    g_sink = json.size();
    out.layer["telemetry.export_ms"] = span.stop() * 1e3;
  }
  out.total_s = total.stop();

  // --- correctness --------------------------------------------------------
  exchange::Exchange& exch = dep->exchange();
  const auto& xs = exch.stats();
  const auto& ns = dep->normalizer().stats();
  const auto& gs = dep->gateway().stats();
  std::uint64_t rejects = 0;
  for (std::size_t i = 0; i < dep->strategy_count(); ++i) {
    rejects += dep->strategy(i).stats().rejects;
  }
  const std::uint64_t feed_lost =
      (xs.feed_messages > ns.messages_in ? xs.feed_messages - ns.messages_in : 0) +
      ns.messages_lost;
  const std::uint64_t updates_expected = ns.updates_out * dep->strategy_count();
  const std::uint64_t updates_lost =
      updates_expected > report.updates_received ? updates_expected - report.updates_received
                                                 : 0;
  const std::uint64_t answered = report.acks + rejects;
  const std::uint64_t unanswered =
      report.orders_sent > answered ? report.orders_sent - answered : 0;
  out.attempted = report.feed_messages + report.orders_sent;
  out.failed = feed_lost + updates_lost + unanswered + report.sequence_gaps;
  out.check(report.frames_dropped == 0, "fabric dropped frames");
  out.check(report.sequence_gaps == 0, "normalizer saw sequence gaps");
  out.check(feed_lost == 0, "feed messages published but not delivered to the normalizer");
  out.check(updates_lost == 0, "normalized updates not delivered to every strategy");
  out.check(unanswered == 0, "orders without a terminal response");
  out.check(report.acks > 0 && report.feed_path_ns.count() > 0, "the stack did not trade");

  out.rate("feed_msgs_per_s", report.feed_messages, out.run_s);
  out.rate("acked_orders_per_s", report.acks, out.run_s);
  out.sim["sim.feed_path_p50_ns"] = report.feed_path_ns.percentile(50.0);
  out.sim["sim.feed_path_p99_ns"] = report.feed_path_ns.percentile(99.0);
  out.sim["sim.order_rtt_p99_ns"] = report.order_rtt_ns.percentile(99.0);

  out.pin("sim.feed_path_p50_ns", out.sim["sim.feed_path_p50_ns"]);
  out.pin("sim.feed_path_p99_ns", out.sim["sim.feed_path_p99_ns"]);
  out.pin("sim.order_rtt_p99_ns", out.sim["sim.order_rtt_p99_ns"]);
  out.pin("sim.feed_path_samples", report.feed_path_ns.count());
  out.pin("sim.tick_to_trade_p99_ns", report.tick_to_trade_ns.percentile(99.0));
  out.pin("report.feed_datagrams", report.feed_datagrams);
  out.pin("report.feed_messages", report.feed_messages);
  out.pin("report.normalized_updates", report.normalized_updates);
  out.pin("report.updates_received", report.updates_received);
  out.pin("report.orders_sent", report.orders_sent);
  out.pin("report.acks", report.acks);
  out.pin("report.fills", report.fills);
  out.pin("gateway.risk_rejects", gs.orders_rejected_risk);
  out.pin("sim.events", run_events);
  out.pin("exchange.state_digest", exch.state_digest());

  if (!traced) return out;

  // --- per-layer metrics (traced) -----------------------------------------
  Span layers{tracer, "layers"};
  out.layer["sim.events"] = as_double(run_events);
  out.layer["sim.events_per_feed_msg"] = as_double(run_events) / as_double(xs.feed_messages);
  out.layer["sim.ns_per_event"] = out.run_s * 1e9 / as_double(run_events);
  out.layer["sim.pending_peak"] = as_double(pending_peak);
  out.layer["sim.feed_path_samples"] = as_double(report.feed_path_ns.count());
  time_bare_queue(tracer, pending_peak, options.seed, out);

  const net::LinkStats links = dep->fabric().total_stats();
  out.layer["net.frames_delivered"] = as_double(links.frames_delivered);
  out.layer["net.bytes_delivered"] = as_double(links.bytes_delivered);
  out.layer["net.frames_dropped"] =
      as_double(links.frames_dropped_queue + links.frames_dropped_loss + links.frames_dropped_down);
  out.layer["net.frames_per_feed_msg"] =
      as_double(links.frames_delivered) / as_double(xs.feed_messages);

  if (design == Design::kLeafSpine) {
    auto& topo = static_cast<deploy::LeafSpineDeployment&>(*dep).topology();
    l2::SwitchStats sum;
    auto add = [&sum](const l2::SwitchStats& s) {
      sum.unicast_forwarded += s.unicast_forwarded;
      sum.multicast_hw_forwarded += s.multicast_hw_forwarded;
      sum.multicast_sw_forwarded += s.multicast_sw_forwarded;
      sum.replications += s.replications;
      sum.igmp_processed += s.igmp_processed;
    };
    for (std::size_t i = 0; i < topo.leaf_count(); ++i) add(topo.leaf(i).stats());
    for (std::size_t i = 0; i < topo.spine_count(); ++i) add(topo.spine(i).stats());
    out.layer["l2.unicast_forwarded"] = as_double(sum.unicast_forwarded);
    out.layer["l2.mcast_hw_forwarded"] = as_double(sum.multicast_hw_forwarded);
    out.layer["l2.mcast_sw_forwarded"] = as_double(sum.multicast_sw_forwarded);
    out.layer["l2.replications"] = as_double(sum.replications);
    out.layer["l2.igmp_processed"] = as_double(sum.igmp_processed);
    const std::uint64_t mcast = sum.multicast_hw_forwarded + sum.multicast_sw_forwarded;
    out.layer["l2.sw_path_share"] =
        mcast == 0 ? 0.0 : as_double(sum.multicast_sw_forwarded) / as_double(mcast);
  } else {
    auto& topo = static_cast<deploy::QuadL1sDeployment&>(*dep).topology();
    std::uint64_t forwarded = 0;
    std::uint64_t merged = 0;
    for (const auto stage : {topo::Stage::kFeeds, topo::Stage::kNormDist,
                             topo::Stage::kOrderAgg, topo::Stage::kToExchange}) {
      forwarded += topo.stage_switch(stage).stats().frames_forwarded;
      merged += topo.stage_switch(stage).stats().merged_frames;
    }
    out.layer["l1s.frames_forwarded"] = as_double(forwarded);
    out.layer["l1s.merged_frames"] = as_double(merged);
  }

  out.layer["proto.msgs_per_datagram"] = as_double(xs.feed_messages) / as_double(xs.feed_datagrams);
  out.layer["trading.norm_messages_in"] = as_double(ns.messages_in);
  out.layer["trading.norm_updates_out"] = as_double(ns.updates_out);
  out.layer["trading.updates_received"] = as_double(report.updates_received);
  out.layer["trading.orders_sent"] = as_double(report.orders_sent);
  out.layer["trading.risk_rejects"] = as_double(gs.orders_rejected_risk);
  out.layer["trading.sequence_gaps"] = as_double(report.sequence_gaps);
  out.layer["book.resting_orders_end"] = as_double(resting_orders(exch));
  add_exchange_counts(xs, out);
  add_store_counts(exch.session_store(), out);

  std::uint64_t samples = 0;
  for (std::size_t i = 0; i < dep->strategy_count(); ++i) {
    const auto& s = dep->strategy(i);
    samples += s.tick_to_trade().count() + s.order_rtt().count() + s.feed_path().count();
  }
  out.layer["telemetry.samples_held"] = as_double(samples);

  time_store_finds(tracer, exch, *recorder, out);
  replay_inputs(tracer, exch.config(), *recorder, out);

  // Replayed inputs: the workload's activity regenerated from its seed.
  exchange::ActivityConfig activity_config;  // as Deployment::run_bounded sets it
  activity_config.events_per_second = config.events_per_second;
  activity_config.cross_weight = 0.2;
  {
    Span span{tracer, "regenerate.feed"};
    const RegeneratedFeed feed = regenerate_feed(exch.config(), &dep->normalizer().config(),
                                                 activity_config, options.seed, activity);
    span.stop();
    time_decoders(tracer, feed, out);
  }
  {
    Span span{tracer, "regenerate.per_symbol_feed"};
    exchange::ExchangeConfig per_symbol = exch.config();
    std::vector<proto::Symbol> symbols;
    for (const auto& spec : per_symbol.symbols) symbols.push_back(spec.symbol);
    per_symbol.feed_partitioning = std::make_shared<UnitPerSymbol>(symbols);
    const RegeneratedFeed feed =
        regenerate_feed(per_symbol, nullptr, activity_config, options.seed, activity);
    span.stop();
    time_book_replay(tracer, per_symbol.symbols, feed, out);
  }
  return out;
}

}  // namespace

Outcome run_leafspine_burst(const Options& options) {
  return run_burst(Design::kLeafSpine, options);
}

Outcome run_l1s_burst(const Options& options) { return run_burst(Design::kQuadL1s, options); }

// ---------------------------------------------------------------------------
// session_storm: 100k direct sessions on one exchange; admission ramp,
// steady churn, then a reconnect storm.

Outcome run_session_storm(const Options& options) {
  Outcome out;
  Tracer* tracer = options.tracer;
  const bool traced = tracer != nullptr;
  const std::uint32_t sessions = options.tiny ? 5'000 : 100'000;
  const std::uint32_t storm_kill = sessions / 10;
  const std::int64_t churn_ms = options.tiny ? 2 : 10;
  const sim::Duration tick = sim::micros(std::int64_t{100});

  Span total{tracer, "iteration"};
  Span setup{tracer, "setup"};
  sim::Engine engine;
  exchange::ExchangeConfig xcfg;
  xcfg.name = "STORM";
  xcfg.symbols = {{proto::Symbol{"AAPL"}}, {proto::Symbol{"MSFT"}},
                  {proto::Symbol{"NVDA"}}, {proto::Symbol{"AMZN"}}};
  xcfg.feed_partitioning = std::make_shared<proto::AlphabetPartition>(2);
  xcfg.cancel_on_disconnect = true;
  xcfg.heartbeat_interval = sim::millis(std::int64_t{5});
  xcfg.session_timeout = sim::millis(std::int64_t{50});
  xcfg.session_shards = 128;
  xcfg.sharded_liveness_sweep = true;
  xcfg.expected_sessions = sessions + sessions / 8;
  xcfg.expected_open_orders = static_cast<std::size_t>(sessions) * 8;
  xcfg.expected_journal_bytes = (std::size_t{96} << 20) / (100'000 / sessions);
  std::unique_ptr<exchange::Exchange> ex;
  {
    Span build{tracer, "exchange.build"};
    ex = std::make_unique<exchange::Exchange>(engine, xcfg);
    out.layer["exchange.build_ms"] = build.stop() * 1e3;
  }
  exchange::LoadGenConfig gcfg;
  gcfg.sessions = sessions;
  gcfg.seed = options.seed;
  gcfg.logins_per_tick = 5'000;
  gcfg.target_open_orders = 2;
  gcfg.burst_size = 2;
  exchange::LoadGen gen{engine, *ex, gcfg};
  std::optional<InputRecorder> recorder;
  if (traced) {
    recorder.emplace(engine, std::size_t{300'000});
    ex->set_input_listener(&*recorder);
  }
  ex->start_heartbeats();
  out.setup_s = setup.stop();

  std::size_t pending_peak = 0;
  const std::uint64_t events_before = engine.events_fired();
  auto step = [&] {
    pending_peak = std::max(pending_peak, engine.pending_events());
    engine.run_until(engine.now() + tick);
  };

  // Exchange feed messages published during the timed phases.
  std::uint64_t timed_feed_msgs = 0;
  const auto feed_msgs = [&ex] { return ex->stats().feed_messages; };

  // Admission ramp: tick by tick until every session is logged in.
  const sim::Time admission_deadline = engine.now() + sim::millis(std::int64_t{20});
  double admit_s = 0.0;
  {
    Span span{tracer, "phase.admission"};
    const std::uint64_t feed_before = feed_msgs();
    gen.start();
    while (!gen.all_admitted() && engine.now() < admission_deadline) step();
    admit_s = span.stop();
    timed_feed_msgs += feed_msgs() - feed_before;
  }
  out.check(gen.all_admitted(), "not every session was admitted");

  // Steady churn: settle 3 ms, then time a fixed window.
  engine.run_until(sim::Time::zero() + sim::millis(std::int64_t{8}));
  const std::uint64_t acked_before = gen.stats().orders_acked;
  double churn_s = 0.0;
  {
    Span span{tracer, "phase.churn"};
    const std::uint64_t feed_before = feed_msgs();
    const sim::Time end = engine.now() + sim::millis(churn_ms);
    while (engine.now() < end) step();
    churn_s = span.stop();
    timed_feed_msgs += feed_msgs() - feed_before;
  }
  const std::uint64_t churn_acked = gen.stats().orders_acked - acked_before;

  // Reconnect storm: from the kill until every victim is ready again. The
  // kill lands at a seeded instant within the first 10 us of a tick.
  sim::Rng storm_rng{options.seed ^ 0x5702'3a11'0c0f'fee5ULL};
  engine.run_until(engine.now() + sim::nanos(storm_rng.uniform_int(0, 9'999)));
  double storm_s = 0.0;
  std::uint32_t dropped = 0;
  {
    Span span{tracer, "phase.storm"};
    const std::uint64_t feed_before = feed_msgs();
    dropped = gen.storm(storm_kill);
    const sim::Time deadline = engine.now() + sim::millis(std::int64_t{10});
    while (!gen.storm_recovered() && engine.now() < deadline) step();
    storm_s = span.stop();
    timed_feed_msgs += feed_msgs() - feed_before;
  }
  const bool recovered = dropped == storm_kill && gen.storm_recovered();
  out.check(recovered, "storm victims not all ready again within 10 ms");

  // Quiesce: stop the generator and let in-flight requests resolve.
  gen.stop();
  engine.run_until(engine.now() + sim::millis(std::int64_t{2}));
  out.run_s = admit_s + churn_s + storm_s;
  const std::uint64_t run_events = engine.events_fired() - events_before;

  {
    Span span{tracer, "telemetry.export"};
    telemetry::Registry registry;
    ex->register_metrics(registry, "exchange");
    gen.register_metrics(registry, "loadgen");
    const std::string json = registry.to_json(engine.now());
    g_sink = json.size();
    out.layer["telemetry.export_ms"] = span.stop() * 1e3;
  }
  out.total_s = total.stop();

  // A resubmission re-sends an unacked order under its original id, so
  // distinct orders are sends minus resubmissions. Flappers that were down
  // when the generator stopped never re-login to replay their responses;
  // each holds at most kMaxOpenPerSession unacked orders, which are pending
  // rather than lost.
  constexpr std::uint64_t kMaxOpenPerSession = 8;
  const auto& gs = gen.stats();
  const std::uint64_t orders = gs.orders_sent - gs.resubmitted_orders;
  const std::uint64_t answered = gs.orders_acked + gs.order_rejects + gs.duplicate_rejects;
  const std::uint64_t pending_replay =
      static_cast<std::uint64_t>(sessions - gen.ready_sessions()) * kMaxOpenPerSession;
  const std::uint64_t unanswered =
      orders > answered + pending_replay ? orders - answered - pending_replay : 0;
  const std::uint64_t not_readmitted = recovered ? 0 : storm_kill;
  out.attempted = gs.logins_sent + orders;
  out.failed = unanswered + not_readmitted + (gen.all_admitted() ? 0 : 1);
  out.check(unanswered == 0, "orders without a terminal response");

  out.rate("feed_msgs_per_s", timed_feed_msgs, out.run_s);
  out.rate("admitted_sessions_per_s", sessions, admit_s);
  out.rate("acked_orders_per_s", churn_acked, churn_s);
  out.rate("storm_recovered_sessions_per_s", storm_kill, storm_s);
  out.sim["sim.storm_recovery_ms"] = gen.storm_recovery_duration().millis();

  out.pin("sim.storm_recovery_ms", out.sim["sim.storm_recovery_ms"]);
  out.pin("sim.admitted_at_ps", static_cast<std::uint64_t>(gen.admitted_at().picos()));
  out.pin("loadgen.fingerprint", gen.fingerprint());
  out.pin("exchange.state_digest", ex->state_digest());
  out.pin("churn.acked_orders", churn_acked);
  out.pin("timed_feed_msgs", timed_feed_msgs);
  out.pin("sim.events", run_events);

  if (!traced) return out;

  Span layers{tracer, "layers"};
  out.layer["sim.events"] = as_double(run_events);
  out.layer["sim.ns_per_event"] = out.run_s * 1e9 / as_double(run_events);
  out.layer["sim.pending_peak"] = as_double(pending_peak);
  time_bare_queue(tracer, pending_peak, options.seed, out);
  const auto& xs = ex->stats();
  out.layer["proto.msgs_per_datagram"] =
      xs.feed_datagrams == 0 ? 0.0 : as_double(xs.feed_messages) / as_double(xs.feed_datagrams);
  out.layer["book.resting_orders_end"] = as_double(resting_orders(*ex));
  add_exchange_counts(xs, out);
  add_store_counts(ex->session_store(), out);
  out.layer["loadgen.logins_sent"] = as_double(gs.logins_sent);
  out.layer["loadgen.orders_sent"] = as_double(gs.orders_sent);
  out.layer["loadgen.orders_acked"] = as_double(gs.orders_acked);
  out.layer["loadgen.cod_cancels_seen"] = as_double(gs.cod_cancels_seen);
  out.layer["loadgen.replays_requested"] = as_double(gs.replays_requested);
  time_store_finds(tracer, *ex, *recorder, out);
  const double live_build_ms = out.layer["exchange.build_ms"];
  replay_inputs(tracer, ex->config(), *recorder, out);
  out.layer["exchange.build_ms"] = live_build_ms;  // the live constructor is the one to report
  return out;
}

// ---------------------------------------------------------------------------
// sharded_market: 4 partitions on the sharded engine in windowed mode.
//
// The timed run executes the windows on the calling thread, so domains,
// mailboxes, bridged links and lookahead windows all run, but not the worker
// pool. With 4 threads on 4 shared virtual CPUs, any CPU the hypervisor takes
// away stalls every window's barrier; the run-to-run spread of the 4-thread
// rate reached 35-67% of its median, wider than any bound a gate can use. The
// traced run times 4 threads against golden mode instead (shard.speedup_4w).

namespace {

deploy::ShardedMarketConfig market_config(const Options& options) {
  deploy::ShardedMarketConfig config;
  config.partitions = 4;
  config.seed = options.seed;
  config.events_per_second = 200'000.0;
  config.run_for = options.tiny ? sim::millis(std::int64_t{5}) : sim::millis(std::int64_t{60});
  return config;
}

// Worker threads for the parallel configuration: 4 threads in all, the
// calling (coordinator) thread counted as one, never more than the cores.
std::uint32_t pool_workers() {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = std::min(4u, cores);
  return threads <= 1 ? 1u : threads - 1;
}

struct MarketRun {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t max_domain_events = 0;
  double lookahead_ns = 0.0;
};

// Builds and runs the market once in the given mode, handing the live rig to
// `inspect` before it is torn down.
template <typename Inspect>
MarketRun run_market(const Options& options, sim::SyncMode mode, std::uint32_t workers,
                     const char* span_name, Inspect&& inspect) {
  MarketRun r;
  const deploy::ShardedMarketConfig config = market_config(options);
  Span setup{options.tracer, "setup"};
  sim::ShardedEngine engine{
      {.domains = config.partitions, .num_workers = workers, .mode = mode}};
  deploy::ShardedMarket market{engine, config};
  r.setup_s = setup.stop();
  {
    Span run{options.tracer, span_name};
    market.run();
    r.run_s = run.stop();
  }
  r.digest = market.digest();
  r.events = engine.events_fired();
  for (sim::DomainId d = 0; d < config.partitions; ++d) {
    r.max_domain_events = std::max(r.max_domain_events, engine.domain(d).events_fired());
  }
  r.lookahead_ns = engine.lookahead().nanos();
  inspect(market);
  return r;
}

}  // namespace

std::uint64_t sharded_golden_digest(const Options& options) {
  Options untraced = options;
  untraced.tracer = nullptr;
  return run_market(untraced, sim::SyncMode::kGolden, 1, "run.golden",
                    [](deploy::ShardedMarket&) {})
      .digest;
}

Outcome run_sharded_market(const Options& options) {
  Outcome out;
  Tracer* tracer = options.tracer;
  Span total{tracer, "iteration"};
  std::uint64_t feed_messages = 0;
  std::uint64_t lost = 0;
  std::uint64_t cross_datagrams = 0;
  double frames = 0.0;
  double bytes = 0.0;
  double dropped = 0.0;
  l2::SwitchStats l2sum;
  exchange::ExchangeStats xsum;
  std::size_t resting = 0;
  const MarketRun run = run_market(
      options, sim::SyncMode::kWindowed, 1, "run.windowed_1w",
      [&](deploy::ShardedMarket& market) {
        telemetry::Registry registry;
        for (std::size_t p = 0; p < market.partition_count(); ++p) {
          market.register_partition_metrics(p, registry);
          const auto& xs = market.exch(p).stats();
          feed_messages += xs.feed_messages;
          xsum.orders_received += xs.orders_received;
          xsum.orders_accepted += xs.orders_accepted;
          xsum.fills_sent += xs.fills_sent;
          xsum.feed_messages += xs.feed_messages;
          xsum.feed_datagrams += xs.feed_datagrams;
          resting += resting_orders(market.exch(p));
          const auto& ns = market.norm(p).stats();
          lost += ns.messages_lost + ns.sequence_gaps +
                  (xs.feed_messages > ns.messages_in ? xs.feed_messages - ns.messages_in : 0);
          if (const auto* observer = market.observer(p)) {
            lost += observer->stats().messages_lost + observer->stats().sequence_gaps;
            cross_datagrams += observer->stats().datagrams_in;
          }
          const auto& sw = market.xsw(p).stats();
          l2sum.unicast_forwarded += sw.unicast_forwarded;
          l2sum.multicast_hw_forwarded += sw.multicast_hw_forwarded;
          l2sum.multicast_sw_forwarded += sw.multicast_sw_forwarded;
          l2sum.replications += sw.replications;
          l2sum.igmp_processed += sw.igmp_processed;
          const std::string fabric = "p" + std::to_string(p) + ".fabric.";
          frames += registry.gauge_value(fabric + "frames_delivered");
          bytes += registry.gauge_value(fabric + "bytes_delivered");
          dropped += registry.gauge_value(fabric + "frames_dropped_queue") +
                     registry.gauge_value(fabric + "frames_dropped_loss");
        }
      });
  out.setup_s = run.setup_s;
  out.run_s = run.run_s;
  out.total_s = total.stop();

  out.attempted = feed_messages;
  out.failed = lost + static_cast<std::uint64_t>(dropped);
  out.check(lost == 0, "partition or observer normalizers lost feed messages");
  out.check(dropped == 0.0, "partition fabrics dropped frames");
  out.rate("feed_msgs_per_s", feed_messages, run.run_s);
  out.pin("shard.digest", run.digest);
  out.pin("feed_messages", feed_messages);
  out.pin("sim.events", run.events);

  if (tracer == nullptr) return out;

  Span layers{tracer, "layers"};
  out.layer["sim.events"] = as_double(run.events);
  out.layer["sim.events_per_feed_msg"] = as_double(run.events) / as_double(feed_messages);
  out.layer["sim.ns_per_event"] = run.run_s * 1e9 / as_double(run.events);
  out.layer["deploy.build_ms"] = run.setup_s * 1e3;
  const MarketRun golden =
      run_market(options, sim::SyncMode::kGolden, 1, "run.golden", [](auto&) {});
  const MarketRun four = run_market(options, sim::SyncMode::kWindowed, pool_workers(),
                                    "run.windowed_4w", [](auto&) {});
  out.check(golden.digest == run.digest && four.digest == run.digest,
            "windowed digest differs from golden");
  if (golden.digest != run.digest || four.digest != run.digest) ++out.failed;
  out.layer["shard.golden_s"] = golden.run_s;
  out.layer["shard.windowed_1w_s"] = run.run_s;
  out.layer["shard.windowed_4w_s"] = four.run_s;
  out.layer["shard.sync_overhead"] = run.run_s / golden.run_s;
  out.layer["shard.speedup_4w"] = golden.run_s / four.run_s;
  out.layer["shard.balance"] = as_double(run.events) / as_double(run.max_domain_events);
  out.layer["shard.lookahead_ns"] = run.lookahead_ns;
  out.layer["shard.cross_datagrams"] = as_double(cross_datagrams);
  out.layer["net.frames_delivered"] = frames;
  out.layer["net.bytes_delivered"] = bytes;
  out.layer["net.frames_dropped"] = dropped;
  out.layer["net.frames_per_feed_msg"] = frames / as_double(feed_messages);
  out.layer["l2.unicast_forwarded"] = as_double(l2sum.unicast_forwarded);
  out.layer["l2.mcast_hw_forwarded"] = as_double(l2sum.multicast_hw_forwarded);
  out.layer["l2.mcast_sw_forwarded"] = as_double(l2sum.multicast_sw_forwarded);
  out.layer["l2.replications"] = as_double(l2sum.replications);
  out.layer["l2.igmp_processed"] = as_double(l2sum.igmp_processed);
  const std::uint64_t mcast = l2sum.multicast_hw_forwarded + l2sum.multicast_sw_forwarded;
  out.layer["l2.sw_path_share"] =
      mcast == 0 ? 0.0 : as_double(l2sum.multicast_sw_forwarded) / as_double(mcast);
  out.layer["proto.msgs_per_datagram"] =
      as_double(xsum.feed_messages) / as_double(xsum.feed_datagrams);
  out.layer["book.resting_orders_end"] = as_double(resting);
  add_exchange_counts(xsum, out);
  return out;
}

}  // namespace wallbench

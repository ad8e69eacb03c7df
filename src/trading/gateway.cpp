#include "trading/gateway.hpp"

#include <algorithm>
#include <utility>

#include "telemetry/trace.hpp"

namespace tsn::trading {

Gateway::Gateway(sim::Scheduler& engine, GatewayConfig config)
    : engine_(engine),
      config_(std::move(config)),
      risk_(config_.risk_limits) {
  host_ = std::make_unique<net::Host>(engine_, config_.name, config_.software_latency);
  client_nic_ = &host_->add_nic("clients", config_.client_mac, config_.client_ip);
  upstream_nic_ = &host_->add_nic("exchange", config_.upstream_mac, config_.upstream_ip);
  client_stack_ = std::make_unique<net::NetStack>(*client_nic_);
  upstream_stack_ = std::make_unique<net::NetStack>(*upstream_nic_);

  client_stack_->listen_tcp(config_.listen_port,
                            [this](net::TcpEndpoint& endpoint) { on_accept(endpoint); });
}

Gateway::~Gateway() = default;

std::uint32_t Gateway::upstream_session_id() const noexcept {
  // Derive a deployment-unique id when the config leaves it at 0: two
  // gateways sharing an exchange must not collide on the same logical
  // session (the exchange would treat the second login as a takeover).
  if (config_.session_id != 0) return config_.session_id;
  return config_.upstream_ip.value();
}

void Gateway::connect_upstream() {
  // Endpoint rotation: the initial connect and the first retry target the
  // primary (a transient blip should not migrate the session); from the
  // second retry on, walk primary -> backups -> primary so a promoted
  // standby is reached within (1 + backups) backoff steps.
  UpstreamEndpoint target{config_.exchange_mac, config_.exchange_ip, config_.exchange_port};
  upstream_endpoint_index_ = 0;
  if (!config_.backup_exchanges.empty() && backoff_attempt_ > 1) {
    const std::size_t ring = 1 + config_.backup_exchanges.size();
    upstream_endpoint_index_ = static_cast<std::size_t>(backoff_attempt_ - 1) % ring;
    if (upstream_endpoint_index_ > 0) {
      target = config_.backup_exchanges[upstream_endpoint_index_ - 1];
    }
  }
  upstream_ = &upstream_stack_->connect_tcp(target.mac, target.ip, target.port, 0);
  upstream_->set_data_handler([this](std::span<const std::byte> bytes, sim::Time) {
    on_upstream_bytes(bytes);
  });
  upstream_->set_closed_handler([this, self = upstream_](net::TcpCloseReason reason) {
    // A replaced leg can die late (e.g. its FIN-wait retransmits exhaust
    // after we already reconnected); that is history, not a new outage.
    if (self != upstream_) return;
    on_upstream_closed(reason);
  });
  set_upstream_state(UpstreamState::kLoggingIn);
  const auto login = proto::boe::encode(
      proto::boe::LoginRequest{upstream_session_id(), config_.login_token}, upstream_seq_++);
  upstream_->send(login);
  last_upstream_tx_ = engine_.now();
  arm_login_timeout();
}

void Gateway::arm_login_timeout() {
  if (config_.reconnect_response_timeout <= sim::Duration::zero()) return;
  engine_.schedule_in(config_.reconnect_response_timeout, [this, self = upstream_] {
    // Guard on endpoint identity: a timeout armed for a leg that already
    // died (and was replaced) must not abort its successor.
    if (self != upstream_ || upstream_ == nullptr) return;
    if (upstream_state_ != UpstreamState::kLoggingIn &&
        upstream_state_ != UpstreamState::kReplaying) {
      return;
    }
    ++stats_.login_timeouts;
    kill_upstream();  // closed handler fires and the backoff machine resumes
  });
}

void Gateway::start() {
  connect_upstream();
  if (config_.heartbeat_interval > sim::Duration::zero()) {
    engine_.schedule_in(config_.heartbeat_interval, [this] { heartbeat_tick(); });
  }
}

void Gateway::kill_upstream() {
  if (upstream_ == nullptr || upstream_->state() == net::TcpState::kClosed) return;
  upstream_->abort();  // closed handler fires with kAborted
}

void Gateway::on_upstream_closed(net::TcpCloseReason /*reason*/) {
  ++stats_.disconnects;
  last_disconnect_at_ = engine_.now();
  // A peer FIN leaves the endpoint half-open with retransmit timers still
  // armed; abort it so the flow reaches kClosed and reap_closed() can
  // collect it. Re-notification is suppressed by the endpoint itself.
  if (upstream_ != nullptr) upstream_->abort();
  upstream_logged_in_ = false;
  // Orders sent but never answered are now in an unknown state; replay (or
  // resubmission under the dedupe key) resolves them after re-login.
  // tsn-lint: allow(unordered-iter) order-independent: pure counting sweep
  for (auto& [upstream_id, route] : routes_) {
    if (route.sent && !route.acked) ++stats_.orders_marked_unknown;
  }
  schedule_reconnect();
}

void Gateway::schedule_reconnect() {
  if (backoff_attempt_ >= config_.reconnect_max_attempts) {
    set_upstream_state(UpstreamState::kFailed);
    ++stats_.reconnects_given_up;
    return;
  }
  set_upstream_state(UpstreamState::kBackoff);
  ++backoff_attempt_;
  ++stats_.reconnect_attempts;
  // Exponential backoff, capped, with deterministic +/- jitter so a fleet
  // of gateways reconnecting after a shared outage doesn't thundering-herd
  // the exchange — yet a fixed seed replays byte-identically.
  double scale = 1.0;
  for (int i = 1; i < backoff_attempt_; ++i) scale *= config_.reconnect_backoff_multiplier;
  double picos = static_cast<double>(config_.reconnect_backoff_initial.picos()) * scale;
  picos = std::min(picos, static_cast<double>(config_.reconnect_backoff_max.picos()));
  picos *= reconnect_jitter_factor();
  const auto backoff = sim::Duration{static_cast<std::int64_t>(picos)};
  engine_.schedule_in(backoff, [this] { reconnect_now(); });
}

double Gateway::reconnect_jitter_factor() noexcept {
  // Stateless draw keyed on (seed, session id, outage number, attempt):
  // every gateway's jitter is a pure function of who it is and where it is
  // in its own reconnect history. A storm of re-homing gateways therefore
  // replays byte-identically regardless of the order their backoff timers
  // happen to fire — a shared RNG stream would make each draw depend on
  // every *other* gateway's wake order.
  std::uint64_t h = config_.reconnect_jitter_seed;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(upstream_session_id());
  mix(stats_.disconnects);
  mix(static_cast<std::uint64_t>(backoff_attempt_));
  sim::Rng rng{h};
  return 1.0 + config_.reconnect_jitter * (2.0 * rng.uniform() - 1.0);
}

void Gateway::reconnect_now() {
  // Scheduled event: no endpoint callback is on the stack, so reaping the
  // dead flow (destroying its endpoint) is safe here.
  upstream_ = nullptr;
  upstream_stack_->reap_closed();
  upstream_parser_ = proto::boe::StreamParser{};
  connect_upstream();
}

void Gateway::heartbeat_tick() {
  if (upstream_logged_in_ && upstream_state_ == UpstreamState::kReady && upstream_ != nullptr &&
      upstream_->state() == net::TcpState::kEstablished &&
      engine_.now() - last_upstream_tx_ >= config_.heartbeat_interval) {
    upstream_->send(proto::boe::encode(proto::boe::Heartbeat{}, upstream_seq_++));
    last_upstream_tx_ = engine_.now();
    ++stats_.heartbeats_sent;
  }
  engine_.schedule_in(config_.heartbeat_interval, [this] { heartbeat_tick(); });
}

void Gateway::on_accept(net::TcpEndpoint& endpoint) {
  ++stats_.sessions_accepted;
  auto session = std::make_unique<StrategySession>();
  session->endpoint = &endpoint;
  StrategySession* raw = session.get();
  sessions_.push_back(std::move(session));
  endpoint.set_data_handler([this, raw](std::span<const std::byte> bytes, sim::Time arrival) {
    // Wire arrival at the client NIC: start of the gateway's software span
    // for any order this batch of bytes carries.
    current_client_arrival_ = arrival;
    raw->parser.feed(bytes);
    while (auto decoded = raw->parser.next()) on_client_message(*raw, decoded->message);
  });
}

void Gateway::send_to_session(StrategySession& session, const proto::boe::Message& message) {
  session.endpoint->send(proto::boe::encode(message, session.tx_seq++));
}

void Gateway::transmit_upstream(const proto::boe::Message& message) {
  upstream_->send(proto::boe::encode(message, upstream_seq_++));
  last_upstream_tx_ = engine_.now();
  // A NewOrder handed to TCP is now in flight: if the session dies before a
  // response arrives, this order is in the unknown set reconciled on resume.
  if (const auto* order = std::get_if<proto::boe::NewOrder>(&message)) {
    const auto it = routes_.find(order->client_order_id);
    if (it != routes_.end()) it->second.sent = true;
  }
}

void Gateway::shed_upstream(const proto::boe::Message& message) {
  using namespace proto::boe;
  // The pending queue is full: reject the message back to its strategy
  // session rather than queueing unboundedly (the §2 gateway must degrade
  // loudly, not grow until the burst ends).
  if (const auto* order = std::get_if<NewOrder>(&message)) {
    ++stats_.orders_shed;
    const auto it = routes_.find(order->client_order_id);
    if (it != routes_.end()) {
      risk_.on_terminal(order->client_order_id);  // release the reservation
      send_to_session(*it->second.session,
                      OrderRejected{it->second.client_id, RejectReason::kGatewayBackpressure});
      forward_ids_[it->second.session].erase(it->second.client_id);
      routes_.erase(it);
    }
    return;
  }
  proto::OrderId upstream_id = 0;
  if (const auto* cancel = std::get_if<CancelOrder>(&message)) {
    upstream_id = cancel->client_order_id;
  } else if (const auto* modify = std::get_if<ModifyOrder>(&message)) {
    upstream_id = modify->client_order_id;
  }
  ++stats_.cancels_shed;
  const auto it = routes_.find(upstream_id);
  if (it != routes_.end()) {
    // The order itself stays live (and routed); only this request is shed.
    send_to_session(*it->second.session,
                    CancelRejected{it->second.client_id, RejectReason::kGatewayBackpressure});
  }
}

void Gateway::send_upstream(const proto::boe::Message& message) {
  if (!upstream_logged_in_ || upstream_state_ != UpstreamState::kReady) {
    if (pending_upstream_.size() >= config_.max_pending_upstream) {
      shed_upstream(message);
      return;
    }
    pending_upstream_.push_back(message);
    pending_upstream_hwm_ = std::max(pending_upstream_hwm_, pending_upstream_.size());
    return;
  }
  transmit_upstream(message);
}

void Gateway::flush_pending_upstream() {
  while (!pending_upstream_.empty()) {
    transmit_upstream(pending_upstream_.front());
    pending_upstream_.pop_front();
  }
}

void Gateway::on_client_message(StrategySession& session, const proto::boe::Message& message) {
  using namespace proto::boe;
  if (std::get_if<LoginRequest>(&message) != nullptr) {
    session.logged_in = true;
    send_to_session(session, LoginAccepted{});
    return;
  }
  if (std::get_if<Heartbeat>(&message) != nullptr) {
    send_to_session(session, Heartbeat{});
    return;
  }
  if (!session.logged_in) {
    send_to_session(session, LoginRejected{RejectReason::kNotLoggedIn});
    return;
  }
  if (const auto* order = std::get_if<NewOrder>(&message)) {
    const proto::OrderId upstream_id = next_upstream_id_++;
    NewOrder forwarded = *order;
    forwarded.client_order_id = upstream_id;
    const auto verdict = risk_.check_new_order(forwarded);
    if (verdict != RiskEngine::Verdict::kAccept) {
      ++stats_.orders_rejected_risk;
      send_to_session(session, OrderRejected{order->client_order_id, to_reject_reason(verdict)});
      return;
    }
    OrderRoute route;
    route.session = &session;
    route.client_id = order->client_order_id;
    route.forwarded = forwarded;
    routes_[upstream_id] = std::move(route);
    forward_ids_[&session][order->client_order_id] = upstream_id;
    ++stats_.orders_forwarded;
    send_upstream(forwarded);
    // Risk check + id translation + forward happen in this software hop:
    // [order wire arrival at the client NIC, upstream hand-off].
    telemetry::record_span(telemetry::current_trace(), config_.name,
                           telemetry::SpanKind::kSoftware, current_client_arrival_,
                           engine_.now());
    return;
  }
  if (const auto* cancel = std::get_if<CancelOrder>(&message)) {
    const auto& ids = forward_ids_[&session];
    const auto it = ids.find(cancel->client_order_id);
    if (it == ids.end()) {
      send_to_session(session,
                      CancelRejected{cancel->client_order_id, RejectReason::kUnknownOrder});
      return;
    }
    ++stats_.cancels_forwarded;
    send_upstream(CancelOrder{it->second});
    return;
  }
  if (const auto* modify = std::get_if<ModifyOrder>(&message)) {
    const auto& ids = forward_ids_[&session];
    const auto it = ids.find(modify->client_order_id);
    if (it == ids.end()) {
      send_to_session(session,
                      CancelRejected{modify->client_order_id, RejectReason::kUnknownOrder});
      return;
    }
    ModifyOrder forwarded = *modify;
    forwarded.client_order_id = it->second;
    send_upstream(forwarded);
    return;
  }
}

void Gateway::register_metrics(telemetry::Registry& registry, const std::string& prefix) const {
  registry.gauge(prefix + ".sessions_accepted",
                 [this] { return static_cast<double>(stats_.sessions_accepted); });
  registry.gauge(prefix + ".orders_forwarded",
                 [this] { return static_cast<double>(stats_.orders_forwarded); });
  registry.gauge(prefix + ".orders_rejected_risk",
                 [this] { return static_cast<double>(stats_.orders_rejected_risk); });
  registry.gauge(prefix + ".cancels_forwarded",
                 [this] { return static_cast<double>(stats_.cancels_forwarded); });
  registry.gauge(prefix + ".responses_routed",
                 [this] { return static_cast<double>(stats_.responses_routed); });
  registry.gauge(prefix + ".orphan_responses",
                 [this] { return static_cast<double>(stats_.orphan_responses); });
  registry.gauge(prefix + ".heartbeats_sent",
                 [this] { return static_cast<double>(stats_.heartbeats_sent); });
  registry.gauge(prefix + ".upstream_state", [this] {
    return static_cast<double>(static_cast<std::uint8_t>(upstream_state_));
  });
  registry.gauge(prefix + ".disconnects",
                 [this] { return static_cast<double>(stats_.disconnects); });
  registry.gauge(prefix + ".reconnect_attempts",
                 [this] { return static_cast<double>(stats_.reconnect_attempts); });
  registry.gauge(prefix + ".reconnects_completed",
                 [this] { return static_cast<double>(stats_.reconnects_completed); });
  registry.gauge(prefix + ".last_recovery_ms", [this] {
    return static_cast<double>(last_recovery_duration_.picos()) * 1e-9;
  });
  registry.gauge(prefix + ".reconnects_given_up",
                 [this] { return static_cast<double>(stats_.reconnects_given_up); });
  registry.gauge(prefix + ".replays_requested",
                 [this] { return static_cast<double>(stats_.replays_requested); });
  registry.gauge(prefix + ".stale_responses_dropped",
                 [this] { return static_cast<double>(stats_.stale_responses_dropped); });
  registry.gauge(prefix + ".orders_marked_unknown",
                 [this] { return static_cast<double>(stats_.orders_marked_unknown); });
  registry.gauge(prefix + ".orders_resubmitted",
                 [this] { return static_cast<double>(stats_.orders_resubmitted); });
  registry.gauge(prefix + ".duplicate_resubmit_acks",
                 [this] { return static_cast<double>(stats_.duplicate_resubmit_acks); });
  registry.gauge(prefix + ".orders_shed",
                 [this] { return static_cast<double>(stats_.orders_shed); });
  registry.gauge(prefix + ".login_timeouts",
                 [this] { return static_cast<double>(stats_.login_timeouts); });
  registry.gauge(prefix + ".upstream_endpoint",
                 [this] { return static_cast<double>(upstream_endpoint_index_); });
  registry.gauge(prefix + ".cancels_shed",
                 [this] { return static_cast<double>(stats_.cancels_shed); });
  registry.gauge(prefix + ".pending_upstream_depth",
                 [this] { return static_cast<double>(pending_upstream_.size()); });
  registry.gauge(prefix + ".pending_upstream_hwm",
                 [this] { return static_cast<double>(pending_upstream_hwm_); });
}

void Gateway::route_response(proto::OrderId upstream_id, const proto::boe::Message& message,
                             bool final_state) {
  const auto it = routes_.find(upstream_id);
  if (it == routes_.end()) {
    ++stats_.orphan_responses;
    return;
  }
  ++stats_.responses_routed;
  send_to_session(*it->second.session, message);
  if (final_state) {
    forward_ids_[it->second.session].erase(it->second.client_id);
    routes_.erase(it);
  }
}

void Gateway::on_login_accepted() {
  backoff_attempt_ = 0;
  if (!ever_logged_in_) {
    // First login of the session: nothing to reconcile.
    ever_logged_in_ = true;
    upstream_logged_in_ = true;
    set_upstream_state(UpstreamState::kReady);
    flush_pending_upstream();
    return;
  }
  // Resumed session: ask for everything we missed before releasing new
  // flow. The exchange replays the journal tail and closes with a
  // SequenceReset; on_sequence_reset finishes the reconciliation.
  set_upstream_state(UpstreamState::kReplaying);
  ++stats_.replays_requested;
  upstream_->send(
      proto::boe::encode(proto::boe::ReplayRequest{last_applied_seq_}, upstream_seq_++));
  last_upstream_tx_ = engine_.now();
}

void Gateway::on_sequence_reset() {
  upstream_logged_in_ = true;
  set_upstream_state(UpstreamState::kReady);
  ++stats_.reconnects_completed;
  last_recovery_duration_ = engine_.now() - last_disconnect_at_;
  // Replay is complete, so every order the exchange ever answered is now
  // acked. What's left marked sent-but-unacked never reached the matcher:
  // resubmit it verbatim — the client-order-id dedupe upstream makes this
  // idempotent even if we're wrong.
  std::vector<proto::OrderId> to_resubmit;
  // tsn-lint: allow(unordered-iter) order-independent: ids sorted before resubmission
  for (auto& [upstream_id, route] : routes_) {
    if (route.sent && !route.acked && !route.resubmitted) to_resubmit.push_back(upstream_id);
  }
  std::sort(to_resubmit.begin(), to_resubmit.end());  // deterministic order
  for (const proto::OrderId upstream_id : to_resubmit) {
    OrderRoute& route = routes_.at(upstream_id);
    route.resubmitted = true;
    ++stats_.orders_resubmitted;
    // Risk already holds the reservation from the original forward; a
    // re-check would double-count the exposure.
    transmit_upstream(route.forwarded);
  }
  flush_pending_upstream();
}

void Gateway::on_upstream_bytes(std::span<const std::byte> bytes) {
  using namespace proto::boe;
  upstream_parser_.feed(bytes);
  while (auto decoded = upstream_parser_.next()) {
    const Message& message = decoded->message;
    // Sequenced application messages (seq > 0) can arrive twice across a
    // reconnect: once live before the death, again via replay. Apply each
    // sequence exactly once — risk and routing must not double-count.
    if (decoded->seq != 0) {
      if (decoded->seq <= last_applied_seq_) {
        ++stats_.stale_responses_dropped;
        continue;
      }
      last_applied_seq_ = decoded->seq;
    }
    if (std::get_if<LoginAccepted>(&message) != nullptr) {
      on_login_accepted();
      continue;
    }
    if (std::get_if<SequenceReset>(&message) != nullptr) {
      on_sequence_reset();
      continue;
    }
    if (const auto* reject = std::get_if<OrderRejected>(&message);
        reject != nullptr && reject->reason == RejectReason::kDuplicateOrderId) {
      const auto it = routes_.find(reject->client_order_id);
      if (it != routes_.end() && it->second.resubmitted) {
        // Our resubmission raced an order that had in fact reached the
        // exchange: the dedupe caught it. The true outcome arrives (or
        // already arrived) through the sequenced stream — swallow this.
        ++stats_.duplicate_resubmit_acks;
        it->second.acked = true;
        continue;
      }
    }
    if (const auto* ack = std::get_if<OrderAccepted>(&message)) {
      OrderAccepted translated = *ack;
      const auto it = routes_.find(ack->client_order_id);
      if (it != routes_.end()) {
        translated.client_order_id = it->second.client_id;
        it->second.acked = true;
      }
      route_response(ack->client_order_id, translated, false);
    } else if (const auto* reject = std::get_if<OrderRejected>(&message)) {
      risk_.on_terminal(reject->client_order_id);
      OrderRejected translated = *reject;
      const auto it = routes_.find(reject->client_order_id);
      if (it != routes_.end()) {
        translated.client_order_id = it->second.client_id;
        it->second.acked = true;
      }
      route_response(reject->client_order_id, translated, true);
    } else if (const auto* fill = std::get_if<Fill>(&message)) {
      risk_.on_fill(fill->client_order_id, fill->quantity, fill->leaves_quantity);
      Fill translated = *fill;
      const auto it = routes_.find(fill->client_order_id);
      if (it != routes_.end()) {
        translated.client_order_id = it->second.client_id;
        it->second.acked = true;
      }
      route_response(fill->client_order_id, translated, fill->leaves_quantity == 0);
    } else if (const auto* cancelled = std::get_if<OrderCancelled>(&message)) {
      risk_.on_terminal(cancelled->client_order_id);
      OrderCancelled translated = *cancelled;
      const auto it = routes_.find(cancelled->client_order_id);
      if (it != routes_.end()) {
        translated.client_order_id = it->second.client_id;
        it->second.acked = true;
      }
      route_response(cancelled->client_order_id, translated, true);
    } else if (const auto* cancel_reject = std::get_if<CancelRejected>(&message)) {
      CancelRejected translated = *cancel_reject;
      const auto it = routes_.find(cancel_reject->client_order_id);
      if (it != routes_.end()) {
        translated.client_order_id = it->second.client_id;
        it->second.acked = true;
      }
      route_response(cancel_reject->client_order_id, translated, false);
    } else if (const auto* modified = std::get_if<OrderModified>(&message)) {
      OrderModified translated = *modified;
      const auto it = routes_.find(modified->client_order_id);
      if (it != routes_.end()) {
        translated.client_order_id = it->second.client_id;
        it->second.acked = true;
      }
      route_response(modified->client_order_id, translated, false);
    }
  }
}

}  // namespace tsn::trading

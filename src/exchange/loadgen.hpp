// Deterministic sim-driven session-storm load generator.
//
// Drives N in-process (DirectClient) order-entry sessions against one
// Exchange with a seeded persona mix:
//
//   steady traders  — keep `target_open_orders` resting sells, rotating the
//                     oldest (cancel + fresh submit) on a fixed cadence
//   flappers        — drop their connection on a cadence and reconnect a
//                     few ticks later: resume → replay → resubmit
//   bursty algos    — quiet, then a burst of rotations in one tick
//
// Everything runs off one master tick with per-session phase buckets, so a
// tick touches only the sessions due this tick — O(due), not O(N). All
// randomness comes from one seeded sim::Rng consumed at construction
// (persona assignment, phases, price offsets); the tick path draws nothing,
// so two runs with the same seed are byte-identical.
//
// storm(count) kills the first `count` ready sessions in one sim instant —
// the reconnect-storm drill. Victims re-login after `down_ticks`, replay
// the journal tail they missed, re-rest their cancel-on-disconnect'ed
// orders with fresh ids and resubmit unacked ones with the original ids
// (the exchange's dedupe makes that idempotent). Recovery completes when
// every victim is ready again with nothing outstanding.
//
// Protocol note: the generator issues only non-marketable SELL orders, so
// its own population never self-crosses; fills come from counter-flow a
// drill injects. It assumes no fills arrive during a session's replay
// window (true under that setup), which keeps per-session state small
// enough — no reorder buffer — to hold 10^5..10^6 sessions.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "exchange/exchange.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/metrics.hpp"

namespace tsn::exchange {

enum class Persona : std::uint8_t { kSteady, kFlapper, kBursty };

struct LoadGenConfig {
  std::uint32_t sessions = 1'000;
  // Persona mix weights (normalized internally).
  double steady_weight = 0.7;
  double flapper_weight = 0.2;
  double bursty_weight = 0.1;
  std::uint64_t seed = 1;
  sim::Duration tick = sim::micros(std::int64_t{100});
  std::uint32_t logins_per_tick = 2'000;     // admission ramp rate
  std::uint32_t steady_interval_ticks = 64;  // steady rotation cadence
  std::uint32_t flap_interval_ticks = 512;   // flapper drop cadence
  std::uint32_t down_ticks = 8;              // reconnect delay after any drop
  std::uint32_t burst_interval_ticks = 256;
  std::uint32_t burst_size = 6;           // rotations per burst
  std::uint32_t target_open_orders = 4;   // resting sells per session (<= 8)
  proto::Quantity quantity = 100;
  std::uint32_t session_id_base = 1'000'000;
};

struct LoadGenStats {
  std::uint64_t logins_sent = 0;
  std::uint64_t logins_accepted = 0;
  std::uint64_t login_rejects = 0;
  std::uint64_t orders_sent = 0;
  std::uint64_t orders_acked = 0;
  std::uint64_t order_rejects = 0;
  std::uint64_t duplicate_rejects = 0;  // idempotent-resubmission rejections
  std::uint64_t cancels_sent = 0;
  std::uint64_t cancels_acked = 0;
  std::uint64_t cancel_rejects = 0;
  std::uint64_t cod_cancels_seen = 0;  // unsolicited (cancel-on-disconnect)
  std::uint64_t resubmitted_orders = 0;
  std::uint64_t cod_resubmitted = 0;
  std::uint64_t fills = 0;
  std::uint64_t quantity_filled = 0;
  std::uint64_t replays_requested = 0;
  std::uint64_t sequence_resets = 0;
  std::uint64_t heartbeats_seen = 0;
  std::uint64_t heartbeats_answered = 0;
  std::uint64_t drops = 0;               // client-initiated (flap or storm)
  std::uint64_t closed_by_exchange = 0;  // timeout kill / takeover
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_received = 0;
};

class LoadGen final : public DirectClient {
 public:
  LoadGen(sim::Scheduler& engine, Exchange& exchange, LoadGenConfig config);

  // Begins the admission ramp and the master tick. Idempotent.
  void start();
  // Stops ticking after the current tick (sessions stay logged in).
  void stop() noexcept { running_ = false; }

  // Drops the first `count` ready sessions at the current instant (call
  // from outside exchange callbacks, e.g. a scheduled fault event).
  // Returns the number actually dropped.
  std::uint32_t storm(std::uint32_t count);

  [[nodiscard]] bool all_admitted() const noexcept {
    return admitted_count_ == config_.sessions;
  }
  [[nodiscard]] sim::Time admitted_at() const noexcept { return admitted_at_; }
  [[nodiscard]] bool storm_recovered() const noexcept {
    return storm_started_ && storm_outstanding_ == 0;
  }
  [[nodiscard]] sim::Duration storm_recovery_duration() const noexcept {
    return storm_recovered_at_ - storm_started_at_;
  }
  [[nodiscard]] std::uint32_t ready_sessions() const noexcept { return ready_count_; }

  [[nodiscard]] const LoadGenStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::int64_t position(std::uint32_t session) const noexcept {
    return sessions_[session].position;
  }
  [[nodiscard]] std::uint32_t open_orders(std::uint32_t session) const noexcept {
    return sessions_[session].open_count;
  }
  [[nodiscard]] std::int64_t total_position() const noexcept;
  // FNV-1a digest over every session's externally visible end state plus
  // the stats block — the two-run determinism probe.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

  void register_metrics(telemetry::Registry& registry, const std::string& prefix) const;

  // DirectClient
  void on_direct_bytes(std::uint32_t conn, std::span<const std::byte> bytes) override;
  void on_direct_closed(std::uint32_t conn) override;

 private:
  static constexpr std::uint32_t kNoConn = 0xffffffffu;
  static constexpr std::uint32_t kNoSession = 0xffffffffu;
  static constexpr std::size_t kMaxOpen = 8;

  enum State : std::uint8_t { kOffline, kLoggingIn, kReplaying, kReady, kDown };

  struct OpenOrder {
    proto::OrderId client_id = 0;
    proto::Price price = 0;
    proto::Quantity quantity = 0;
    bool cancel_requested = false;
  };

  struct Sess {
    std::uint32_t conn = kNoConn;
    Persona persona = Persona::kSteady;
    State state = kOffline;
    bool ever_ready = false;
    bool storm_victim = false;
    std::uint32_t next_client_seq = 1;
    std::uint32_t last_seen_seq = 0;
    std::uint32_t price_salt = 0;  // seeded per-session price offset
    std::int64_t position = 0;
    proto::Symbol symbol;
    proto::Price ref_price = 0;
    std::array<OpenOrder, kMaxOpen> open{};
    std::uint8_t open_count = 0;
    std::array<OpenOrder, kMaxOpen> unacked{};
    std::uint8_t unacked_count = 0;
    std::array<OpenOrder, kMaxOpen> cod_resub{};
    std::uint8_t cod_count = 0;
  };

  void tick();
  void begin_login(std::uint32_t session);
  void drop(std::uint32_t session);
  void rotate(std::uint32_t session);
  void submit(std::uint32_t session);
  void cancel_oldest(std::uint32_t session);
  void resubmit_after_reset(std::uint32_t session);
  void maybe_storm_recovered(std::uint32_t session);
  void handle_message(std::uint32_t session, const proto::boe::Decoded& decoded);
  [[nodiscard]] proto::OrderId fresh_client_id(std::uint32_t session) noexcept;
  [[nodiscard]] proto::Price next_price(std::uint32_t session) noexcept;
  [[nodiscard]] std::uint64_t token_of(std::uint32_t session) const noexcept;
  void send(std::uint32_t session, const proto::boe::Message& message);

  sim::Scheduler& engine_;
  Exchange& exchange_;
  LoadGenConfig config_;

  std::vector<Sess> sessions_;
  std::vector<std::uint32_t> conn_to_session_;  // exchange conn id -> session
  // Phase buckets: bucket[t % interval] lists the sessions due at tick t.
  std::vector<std::vector<std::uint32_t>> steady_buckets_;
  std::vector<std::vector<std::uint32_t>> flap_buckets_;
  std::vector<std::vector<std::uint32_t>> burst_buckets_;
  // FIFO of (session, wake tick): drops push, the tick head pops.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> relogin_queue_;
  std::size_t relogin_head_ = 0;

  bool running_ = false;
  bool started_ = false;
  std::uint32_t tick_index_ = 0;
  std::uint32_t login_cursor_ = 0;
  std::uint32_t admitted_count_ = 0;
  std::uint32_t ready_count_ = 0;
  sim::Time admitted_at_;

  bool storm_started_ = false;
  std::uint32_t storm_outstanding_ = 0;
  sim::Time storm_started_at_;
  sim::Time storm_recovered_at_;

  LoadGenStats stats_;
};

}  // namespace tsn::exchange

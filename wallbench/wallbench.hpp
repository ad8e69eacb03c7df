// Wall-clock benchmark of the trading-network simulator.
//
// Four seeded workloads drive the public APIs of deploy, exchange and sim.
// An untraced iteration yields the end-to-end figures of one run of a
// workload; a traced iteration additionally wraps the benchmark's calls into
// each module in spans, reads the modules' public counters, and times
// isolated replays of the workload's own inputs through single layers.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace wallbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// In-memory span log, written once when the run ends. A span names one call
// (or phase of calls) the benchmark makes into the simulator; `parent` is
// the span that was open when it started (-1 at the top).
class Tracer {
 public:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  explicit Tracer(std::uint64_t run_id) : run_id_(run_id), origin_(Clock::now()) {}

  int open(std::string name);
  void close(int index);
  // Adds a span recorded elsewhere (by an iteration's process) as it is.
  void append(Record record) { spans_.push_back(std::move(record)); }
  [[nodiscard]] const std::vector<Record>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::uint64_t run_id_;
  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<int> stack_;
};

// Times one phase; records a span when a tracer is attached. The elapsed
// wall time is available either way, so traced and untraced iterations
// measure phases with the same code.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->open(name) : -1), start_(Clock::now()) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { stop(); }

  // Ends the span (idempotent) and returns its wall seconds.
  double stop() {
    if (!stopped_) {
      elapsed_ = seconds_between(start_, Clock::now());
      if (tracer_ != nullptr) tracer_->close(index_);
      stopped_ = true;
    }
    return elapsed_;
  }

 private:
  Tracer* tracer_;
  int index_;
  Clock::time_point start_;
  double elapsed_ = 0.0;
  bool stopped_ = false;
};

struct Options {
  std::uint64_t seed = 1;
  // Self-test problem size instead of the measured one: small enough to
  // run every workload in seconds.
  bool tiny = false;
  Tracer* tracer = nullptr;  // non-null: traced iteration
};

// One iteration of one workload.
struct Outcome {
  double setup_s = 0.0;  // build + start
  double run_s = 0.0;    // the timed phase
  double total_s = 0.0;  // setup start .. results exported
  double peak_rss_mb = 0.0;  // of the iteration's own process
  // Workload-specific end-to-end metrics: wall rates as (work done, wall
  // seconds) so a run reports total work over total time, and sim.* values.
  struct Rate {
    double work = 0.0;
    double seconds = 0.0;
  };
  std::map<std::string, Rate> rates;
  std::map<std::string, double> sim;
  // Deterministic outputs that every iteration with the same seed must
  // reproduce exactly (sim.* values, digests, report counters).
  // Values are kept as exact decimal text (digests are 64-bit).
  std::map<std::string, std::string> pins;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks
  // Per-layer metrics (traced iterations only).
  std::map<std::string, double> layer;

  void pin(const std::string& name, std::uint64_t value) { pins[name] = std::to_string(value); }
  void pin(const std::string& name, double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    pins[name] = buf;
  }

  void rate(const std::string& name, std::uint64_t work, double seconds) {
    rates[name] = Rate{static_cast<double>(work), seconds};
  }

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

Outcome run_leafspine_burst(const Options& options);
Outcome run_l1s_burst(const Options& options);
Outcome run_session_storm(const Options& options);
Outcome run_sharded_market(const Options& options);

// Sharded market only: the golden-mode (single-threaded reference) digest
// for a seed, which every windowed iteration must reproduce.
std::uint64_t sharded_golden_digest(const Options& options);

}  // namespace wallbench

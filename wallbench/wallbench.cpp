// Command line:
//   wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--spans <path>]
//
// Repeats whole iterations of one workload, each in a process of its own,
// until --seconds of wall time have been spent, checks that every iteration
// with the seed reproduced the same deterministic outputs, and prints one
// JSON object as the last line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports every end-to-end metric;
// --trace 1 alternates untraced and traced iterations and reports the
// per-layer metrics, writing the traced iterations' spans to --spans.
// Exit status is 0 only when every correctness check passed.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/json.hpp"
#include "wallbench.hpp"

namespace wallbench {

int Tracer::open(std::string name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Record{std::move(name), now_ns(), 0, parent});
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

std::string Tracer::to_json() const {
  tsn::telemetry::JsonWriter w;
  w.begin_object();
  w.field("schema", "wallbench-spans-v1");
  w.field("run_id", run_id_);
  w.key("spans");
  w.begin_array();
  for (const auto& s : spans_) {
    w.begin_object();
    w.field("name", s.name);
    w.field("start_ns", s.start_ns);
    w.field("end_ns", s.end_ns);
    w.field("parent", s.parent);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, in BENCHMARK.json order. Every workload produces all
// of them.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"total_s", "s"},
    {"feed_msgs_per_s", "msgs/s"},
    {"peak_rss_mb", "MB"},
};

// Per-layer metrics, in BENCHMARK.json order. A metric a workload does not
// exercise reads 0 (see LAYERS.md for which apply where).
constexpr MetricDef kPerLayer[] = {
    {"acked_orders_per_s", "orders/s"},
    {"admitted_sessions_per_s", "sessions/s"},
    {"storm_recovered_sessions_per_s", "sessions/s"},
    {"sim.feed_path_p50_ns", "ns"},
    {"sim.feed_path_p99_ns", "ns"},
    {"sim.order_rtt_p99_ns", "ns"},
    {"sim.storm_recovery_ms", "ms"},
    {"sim.events", "count"},
    {"sim.events_per_feed_msg", "ratio"},
    {"sim.ns_per_event", "ns"},
    {"sim.pending_peak", "count"},
    {"sim.queue_ns_per_event", "ns"},
    {"sim.feed_path_samples", "count"},
    {"shard.golden_s", "s"},
    {"shard.windowed_1w_s", "s"},
    {"shard.windowed_4w_s", "s"},
    {"shard.sync_overhead", "ratio"},
    {"shard.speedup_4w", "ratio"},
    {"shard.balance", "ratio"},
    {"shard.lookahead_ns", "ns"},
    {"shard.cross_datagrams", "count"},
    {"net.frames_delivered", "count"},
    {"net.bytes_delivered", "bytes"},
    {"net.frames_dropped", "count"},
    {"net.frames_per_feed_msg", "ratio"},
    {"net.decode_frame_ns", "ns"},
    {"l2.unicast_forwarded", "count"},
    {"l2.mcast_hw_forwarded", "count"},
    {"l2.mcast_sw_forwarded", "count"},
    {"l2.replications", "count"},
    {"l2.igmp_processed", "count"},
    {"l2.sw_path_share", "ratio"},
    {"l1s.frames_forwarded", "count"},
    {"l1s.merged_frames", "count"},
    {"proto.msgs_per_datagram", "ratio"},
    {"proto.pitch_decode_ns_per_msg", "ns"},
    {"proto.norm_decode_ns_per_update", "ns"},
    {"trading.norm_messages_in", "count"},
    {"trading.norm_updates_out", "count"},
    {"trading.updates_received", "count"},
    {"trading.orders_sent", "count"},
    {"trading.risk_rejects", "count"},
    {"trading.sequence_gaps", "count"},
    {"book.replay_ns_per_msg", "ns"},
    {"book.resting_orders_end", "count"},
    {"exchange.orders_received", "count"},
    {"exchange.orders_accepted", "count"},
    {"exchange.fills", "count"},
    {"exchange.feed_msgs", "count"},
    {"exchange.build_ms", "ms"},
    {"exchange.apply_ns_per_input", "ns"},
    {"session_store.sessions_created", "count"},
    {"session_store.sessions_destroyed", "count"},
    {"session_store.orders_registered", "count"},
    {"session_store.journal_appends", "count"},
    {"session_store.journal_flushes", "count"},
    {"session_store.journal_bytes", "bytes"},
    {"session_store.find_ns", "ns"},
    {"loadgen.logins_sent", "count"},
    {"loadgen.orders_sent", "count"},
    {"loadgen.orders_acked", "count"},
    {"loadgen.cod_cancels_seen", "count"},
    {"loadgen.replays_requested", "count"},
    {"telemetry.samples_held", "count"},
    {"telemetry.report_ms", "ms"},
    {"telemetry.export_ms", "ms"},
    {"deploy.build_ms", "ms"},
    {"deploy.start_ms", "ms"},
    {"trace.overhead_share", "ratio"},
};

struct Workload {
  const char* name;
  Outcome (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"leafspine_burst", run_leafspine_burst},
    {"l1s_burst", run_l1s_burst},
    {"session_storm", run_session_storm},
    {"sharded_market", run_sharded_market},
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr, "wallbench: %s\n", message);
  std::fprintf(stderr,
               "usage: wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--tiny] [--spans <path>]\nworkloads:");
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// An iteration's Outcome and the spans it recorded (from `first_span` on) as
// lines of "<kind> <fields>", closed by "end". Names hold no spaces; error
// text runs to the end of its line.
std::string encode(const Outcome& o, const Tracer& tracer, std::size_t first_span) {
  std::ostringstream out;
  out.precision(17);
  out << "times " << o.setup_s << ' ' << o.run_s << ' ' << o.total_s << '\n';
  out << "counts " << o.attempted << ' ' << o.failed << '\n';
  for (const auto& [name, r] : o.rates) {
    out << "rate " << name << ' ' << r.work << ' ' << r.seconds << '\n';
  }
  for (const auto& [name, v] : o.sim) out << "sim " << name << ' ' << v << '\n';
  for (const auto& [name, v] : o.layer) out << "layer " << name << ' ' << v << '\n';
  for (const auto& [name, v] : o.pins) out << "pin " << name << ' ' << v << '\n';
  for (const auto& e : o.errors) out << "error " << e << '\n';
  const auto& spans = tracer.spans();
  for (std::size_t i = first_span; i < spans.size(); ++i) {
    const auto& r = spans[i];
    out << "span " << r.name << ' ' << r.start_ns << ' ' << r.end_ns << ' ' << r.parent << '\n';
  }
  out << "end\n";
  return out.str();
}

// The inverse of encode(); false when the text is cut short or malformed.
// The spans are appended to `tracer` only when the whole text decodes.
bool decode(const std::string& text, Outcome& o, Tracer& tracer) {
  std::istringstream in{text};
  std::vector<Tracer::Record> spans;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields{line};
    std::string kind;
    std::string name;
    const auto number = [&fields] {
      std::string token;
      fields >> token;
      return std::strtod(token.c_str(), nullptr);  // also reads inf and nan
    };
    const auto count = [&fields] {
      std::uint64_t v = 0;
      fields >> v;
      return v;
    };
    fields >> kind;
    if (kind == "end") {
      for (auto& r : spans) tracer.append(std::move(r));
      return true;
    }
    if (kind == "times") {
      o.setup_s = number();
      o.run_s = number();
      o.total_s = number();
    } else if (kind == "counts") {
      o.attempted = count();
      o.failed = count();
    } else if (kind == "rate") {
      fields >> name;
      const double work = number();
      o.rates[name] = Outcome::Rate{work, number()};
    } else if (kind == "sim") {
      fields >> name;
      o.sim[name] = number();
    } else if (kind == "layer") {
      fields >> name;
      o.layer[name] = number();
    } else if (kind == "pin") {
      fields >> name;
      fields >> o.pins[name];
    } else if (kind == "error") {
      o.errors.push_back(line.substr(kind.size() + 1));
    } else if (kind == "span") {
      Tracer::Record r;
      fields >> r.name >> r.start_ns >> r.end_ns >> r.parent;
      spans.push_back(std::move(r));
    } else {
      return false;
    }
    if (fields.fail()) return false;
  }
  return false;  // no "end": the process stopped part-way
}

// Runs one iteration in a child process. Every iteration then starts from
// the same small, fresh heap and pays the page faults and allocator growth
// that a real run of the simulator pays, however many iterations ran before
// it. The child sends its Outcome and its spans back through a pipe; its
// peak resident memory comes from wait4(). Returns false, with nothing
// filled in, when the child did not end normally.
bool run_isolated(const Workload& workload, const Options& options, Tracer& tracer,
                  Outcome& out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Dies with the parent, so that stopping the program stops its iteration.
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent) _exit(4);
    close(fds[0]);
    const std::size_t first_span = tracer.size();
    const std::string text = encode(workload.run(options), tracer, first_span);
    std::size_t written = 0;
    while (written < text.size()) {
      const ssize_t n = write(fds[1], text.data() + written, text.size() - written);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(3);
      written += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buffer[1 << 16];
  while (true) {
    const ssize_t n = read(fds[0], buffer, sizeof buffer);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buffer, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) return false;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return false;
  Outcome decoded;
  if (!decode(text, decoded, tracer)) return false;
  decoded.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
  out = std::move(decoded);
  return true;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) {
  using namespace wallbench;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  bool tiny = false;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      workload_name = next();
    } else if (arg == "--seed") {
      seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(next().c_str());
    } else if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--spans") {
      spans_path = next();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown or missing --workload");
  if (seconds <= 0.0) usage("--seconds must be positive");
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");

  Options options;
  options.seed = seed;
  options.tiny = tiny;
  const std::uint64_t run_id =
      std::hash<std::string>{}(workload_name + "/" + std::to_string(seed)) ^
      static_cast<std::uint64_t>(Clock::now().time_since_epoch().count());
  Tracer tracer{run_id};

  std::vector<Outcome> untraced;
  std::vector<Outcome> traced;
  std::vector<std::string> errors;
  const auto started = Clock::now();
  constexpr std::size_t kMinUntraced = 3;
  constexpr std::size_t kMinTraced = 2;
  while (true) {
    const double elapsed = seconds_between(started, Clock::now());
    const bool enough = trace == 0 ? untraced.size() >= kMinUntraced
                                   : untraced.size() >= kMinTraced && traced.size() >= kMinTraced;
    if (enough && elapsed >= seconds) break;
    // A traced run alternates untraced and traced iterations so that both
    // kinds see the same machine state.
    const bool traced_turn = trace == 1 && traced.size() < untraced.size();
    Options iteration = options;
    iteration.tracer = traced_turn ? &tracer : nullptr;
    Outcome outcome;
    if (!run_isolated(*workload, iteration, tracer, outcome)) {
      errors.push_back("iteration " + std::to_string(untraced.size() + traced.size()) +
                       " did not end normally");
      break;
    }
    std::fprintf(stderr, "iteration %zu%s: setup %.6f s, run %.6f s, total %.6f s\n",
                 untraced.size() + traced.size(), traced_turn ? " (traced)" : "",
                 outcome.setup_s, outcome.run_s, outcome.total_s);
    (traced_turn ? traced : untraced).push_back(std::move(outcome));
  }

  // --- correctness: checks, and identical deterministic outputs ----------
  // An iteration that did not end normally is one failed operation.
  std::uint64_t attempted = errors.size();
  std::uint64_t failed = errors.size();
  const Outcome reference = untraced.empty() ? Outcome{} : untraced.front();
  for (const auto* group : {&untraced, &traced}) {
    for (const Outcome& o : *group) {
      for (const auto& e : o.errors) errors.push_back(e);
      if (o.pins != reference.pins) {
        errors.push_back("an iteration did not reproduce the deterministic outputs of the first");
        ++failed;
      }
      attempted += o.attempted;
      failed += o.failed;
    }
  }
  if (workload_name == "sharded_market") {
    const std::uint64_t golden = sharded_golden_digest(options);
    const auto digest = reference.pins.find("shard.digest");
    if (digest == reference.pins.end() || std::to_string(golden) != digest->second) {
      errors.push_back("windowed digest differs from the golden-mode digest");
      ++failed;
    }
  }

  // --- metrics ------------------------------------------------------------
  struct Reported {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Reported> metrics;
  // A rate is the run's total work over its total timed wall seconds in the
  // untraced iterations, which weighs every iteration by its length instead
  // of jumping between the fast and slow phases of a shared machine.
  const auto pooled_rate = [&untraced](const std::string& name) {
    double work = 0.0;
    double seconds = 0.0;
    for (const Outcome& o : untraced) {
      if (const auto it = o.rates.find(name); it != o.rates.end()) {
        work += it->second.work;
        seconds += it->second.seconds;
      }
    }
    return seconds > 0.0 ? work / seconds : 0.0;
  };
  if (trace == 0) {
    // setup_s and peak_rss_mb are medians and total_s the mean iteration.
    for (const auto& def : kEndToEnd) {
      const std::string name = def.name;
      std::vector<double> values;
      double value = 0.0;
      if (name == "setup_s") {
        for (const Outcome& o : untraced) values.push_back(o.setup_s);
        value = median(values);
      } else if (name == "total_s") {
        for (const Outcome& o : untraced) values.push_back(o.total_s);
        value = mean(values);
      } else if (name == "peak_rss_mb") {
        for (const Outcome& o : untraced) values.push_back(o.peak_rss_mb);
        value = median(values);
      } else {
        value = pooled_rate(name);
      }
      if (!(value > 0.0)) errors.push_back("end-to-end metric " + name + " is not positive");
      metrics.push_back({name, value, def.unit});
    }
  } else {
    // Wall rates as in an untraced run and sim.* values as they repeat;
    // everything else is the median over the traced iterations (counts
    // repeat exactly, so their median is the count). A metric the workload
    // does not exercise reads 0.
    for (const auto& def : kPerLayer) {
      const std::string name = def.name;
      double value = 0.0;
      if (name == "trace.overhead_share") {
        std::vector<double> u;
        std::vector<double> t;
        for (const Outcome& o : untraced) u.push_back(o.run_s);
        for (const Outcome& o : traced) t.push_back(o.run_s);
        if (!u.empty() && !t.empty()) value = median(t) / median(u) - 1.0;
      } else if (reference.rates.count(name) != 0) {
        value = pooled_rate(name);
      } else if (reference.sim.count(name) != 0) {
        value = reference.sim.at(name);
      } else {
        std::vector<double> values;
        for (const Outcome& o : traced) {
          if (const auto it = o.layer.find(name); it != o.layer.end()) values.push_back(it->second);
        }
        value = median(values);
      }
      metrics.push_back({name, value, def.unit});
    }
    for (const Outcome& o : traced) {
      for (const auto& entry : o.layer) {
        const bool declared = std::any_of(std::begin(kPerLayer), std::end(kPerLayer),
                                          [&entry](const MetricDef& d) { return entry.first == d.name; });
        if (!declared) errors.push_back("workload emitted undeclared per-layer metric " + entry.first);
      }
    }
    if (!spans_path.empty() &&
        !tsn::telemetry::write_text_file(spans_path, tracer.to_json())) {
      errors.push_back("could not write the span file " + spans_path);
    }
  }

  // --- report -------------------------------------------------------------
  std::printf("wallbench %s seed=%" PRIu64 " trace=%d%s: %zu untraced + %zu traced iterations"
              " in %.2f s\n",
              workload_name.c_str(), seed, trace, tiny ? " (tiny)" : "", untraced.size(),
              traced.size(), seconds_between(started, Clock::now()));
  for (const auto& m : metrics) std::printf("  %-34s %18.6g %s\n", m.name.c_str(), m.value, m.unit);
  tsn::telemetry::JsonWriter pins;
  pins.begin_object();
  for (const auto& [name, value] : reference.pins) {
    pins.key(name);
    pins.value_raw(value);
  }
  pins.end_object();
  std::fprintf(stderr, "PINS %s\n", pins.str().c_str());
  for (const auto& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());

  const bool correct = errors.empty();
  tsn::telemetry::JsonWriter result;
  result.begin_object();
  result.field("correct", correct);
  result.field("attempted", attempted);
  result.field("failed", failed);
  result.key("metrics");
  result.begin_object();
  for (const auto& m : metrics) {
    result.key(m.name);
    result.begin_object();
    result.key("value");
    result.value_raw(format_number(m.value));  // every digit, not the writer's %.9g
    result.field("unit", m.unit);
    result.end_object();
  }
  result.end_object();
  result.end_object();
  const std::string line = result.take();
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

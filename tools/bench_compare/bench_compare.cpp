// bench_compare — throughput regression gate over tsn-bench-v1 artifacts.
//
// Usage:
//   bench_compare <baseline.json> <current.json> [--max-regression <pct>]
//   bench_compare --self-test
//
// Compares the metric rows of two BENCH_*.json files. Only throughput rows
// (unit ending in "/s", where higher is better) are gated: the tool fails
// when a current value drops more than --max-regression percent (default 25)
// below its baseline, or when a baselined throughput row is missing from the
// current report. Time-per-op rows ("ns") are informational — they are noisy
// across machines and already bounded by the bench's own shape checks — so
// machine-to-machine variance does not flap CI; the committed baselines are
// scaled conservatively for the same reason.
//
// Reports are read with the tools' shared JSON reader (tools/json_mini).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "json_mini.hpp"

namespace {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Extracts the rows of the top-level "metrics" array. Returns nullopt on
// malformed input.
std::optional<std::vector<Metric>> read_metrics(std::string_view text) {
  using tsn::json::JsonValue;
  const auto doc = tsn::json::parse_json(text);
  if (!doc) return std::nullopt;
  const JsonValue* rows = doc->get("metrics");
  if (rows == nullptr || !rows->is_array()) return std::nullopt;
  std::vector<Metric> out;
  for (const JsonValue& row : *rows->array) {
    if (!row.is_object()) return std::nullopt;
    Metric m;
    const JsonValue* name = row.get("name");
    const JsonValue* value = row.get("value");
    const JsonValue* unit = row.get("unit");
    if (name != nullptr && name->is_string()) m.name = name->string;
    if (value != nullptr && value->is_number()) m.value = value->number;
    if (unit != nullptr && unit->is_string()) m.unit = unit->string;
    out.push_back(std::move(m));
  }
  return out;
}

bool is_throughput(const Metric& m) {
  return m.unit.size() >= 2 && m.unit.compare(m.unit.size() - 2, 2, "/s") == 0;
}

const Metric* find(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// Returns the number of failures, printing one line per gated metric.
int compare(const std::vector<Metric>& baseline, const std::vector<Metric>& current,
            double max_regression_pct) {
  int failures = 0;
  int gated = 0;
  for (const Metric& base : baseline) {
    if (!is_throughput(base) || base.value <= 0.0) continue;
    ++gated;
    const Metric* cur = find(current, base.name);
    if (cur == nullptr) {
      std::fprintf(stderr, "FAIL %s: missing from current report\n", base.name.c_str());
      ++failures;
      continue;
    }
    const double floor = base.value * (1.0 - max_regression_pct / 100.0);
    const double change_pct = (cur->value / base.value - 1.0) * 100.0;
    if (cur->value < floor) {
      std::fprintf(stderr, "FAIL %s: %.3g %s vs baseline %.3g (%+.1f%%, floor -%g%%)\n",
                   base.name.c_str(), cur->value, cur->unit.c_str(), base.value, change_pct,
                   max_regression_pct);
      ++failures;
    } else {
      std::fprintf(stdout, "  ok %s: %.3g %s vs baseline %.3g (%+.1f%%)\n", base.name.c_str(),
                   cur->value, cur->unit.c_str(), base.value, change_pct);
    }
  }
  if (gated == 0) {
    std::fprintf(stderr, "FAIL baseline has no throughput (\"/s\") metrics to gate\n");
    ++failures;
  }
  return failures;
}

std::optional<std::string> read_file(const char* path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int self_test() {
  const std::string baseline = R"({"schema":"tsn-bench-v1","bench":"x","metrics":[)"
                               R"({"name":"scheduler.events_per_s","value":1000000,"unit":"events/s"},)"
                               R"({"name":"packet_pool.packets_per_s","value":2e6,"unit":"packets/s"},)"
                               R"({"name":"BM_EngineScheduleFire","value":100.5,"unit":"ns"}],)"
                               R"("checks":[{"name":"c","pass":true,"detail":""}],"passed":true})";
  int failed = 0;
  auto expect = [&failed](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failed;
    }
  };

  auto base = read_metrics(baseline);
  expect(base.has_value() && base->size() == 3, "parse baseline metrics");
  if (base) {
    expect((*base)[0].name == "scheduler.events_per_s" && (*base)[0].value == 1'000'000.0,
           "first metric fields");
    expect((*base)[1].value == 2e6 && is_throughput((*base)[1]), "scientific value + /s unit");
    expect(!is_throughput((*base)[2]), "ns rows are not gated");
  }

  expect(!read_metrics(R"({"metrics":[{"name":"a",]})").has_value(), "malformed report rejected");

  // Identical report: passes.
  expect(base && compare(*base, *base, 25.0) == 0, "identical reports pass");

  // 20% drop passes the 25% gate; 30% drop fails it.
  auto drop = [&](double factor) {
    std::vector<Metric> cur = *base;
    cur[0].value *= factor;
    cur[1].value *= factor;
    return cur;
  };
  expect(base && compare(*base, drop(0.80), 25.0) == 0, "20% drop within 25% gate");
  expect(base && compare(*base, drop(0.70), 25.0) == 2, "30% drop fails both rows");
  expect(base && compare(*base, drop(0.80), 10.0) == 2, "--max-regression tightens the gate");

  // Missing throughput row fails.
  if (base) {
    std::vector<Metric> cur{(*base)[0], (*base)[2]};
    expect(compare(*base, cur, 25.0) == 1, "missing throughput row fails");
  }

  // Baseline with nothing to gate fails loudly rather than vacuously passing.
  std::vector<Metric> ns_only{{"a", 1.0, "ns"}};
  expect(compare(ns_only, ns_only, 25.0) == 1, "no gated metrics is a failure");

  std::fprintf(failed == 0 ? stdout : stderr, "bench_compare self-test: %s\n",
               failed == 0 ? "PASS" : "FAIL");
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* current_path = nullptr;
  double max_regression_pct = 25.0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (arg == "--self-test") return self_test();
    if (arg == "--max-regression") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--max-regression needs a percent value\n");
        return 2;
      }
      max_regression_pct = std::strtod(argv[++i], nullptr);
      continue;
    }
    if (baseline_path == nullptr) {
      baseline_path = argv[i];
    } else if (current_path == nullptr) {
      current_path = argv[i];
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (baseline_path == nullptr || current_path == nullptr) {
    std::fprintf(stderr,
                 "usage: bench_compare <baseline.json> <current.json> "
                 "[--max-regression <pct>] | --self-test\n");
    return 2;
  }

  const auto baseline_text = read_file(baseline_path);
  if (!baseline_text) {
    std::fprintf(stderr, "cannot read baseline %s\n", baseline_path);
    return 2;
  }
  const auto current_text = read_file(current_path);
  if (!current_text) {
    std::fprintf(stderr, "cannot read current report %s\n", current_path);
    return 2;
  }
  const auto baseline = read_metrics(*baseline_text);
  if (!baseline) {
    std::fprintf(stderr, "malformed baseline %s\n", baseline_path);
    return 2;
  }
  const auto current = read_metrics(*current_text);
  if (!current) {
    std::fprintf(stderr, "malformed current report %s\n", current_path);
    return 2;
  }

  std::fprintf(stdout, "bench_compare: %s vs %s (max regression %g%%)\n", current_path,
               baseline_path, max_regression_pct);
  const int failures = compare(*baseline, *current, max_regression_pct);
  if (failures != 0) {
    std::fprintf(stderr, "bench_compare: %d throughput regression(s)\n", failures);
    return 1;
  }
  std::fprintf(stdout, "bench_compare: all throughput metrics within budget\n");
  return 0;
}

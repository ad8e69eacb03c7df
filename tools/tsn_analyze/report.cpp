#include "report.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "json_mini.hpp"
#include "telemetry/json.hpp"

namespace tsn::analyze {

using json::JsonValue;
using json::parse_json;

const std::vector<std::string>& all_rules() {
  static const std::vector<std::string> kRules = {
      // wire safety
      "unchecked-reader", "raw-memcpy", "raw-cast", "unchecked-length-index",
      // determinism
      "wall-clock", "unseeded-random", "unordered-iter", "pointer-identity",
      // hot path
      "hotpath-alloc",
      // layering
      "include-missing", "include-cycle", "layer-violation", "unknown-module"};
  return kRules;
}

namespace {

struct RuleCounts {
  int active = 0;
  int allowed = 0;
  int baselined = 0;
};

std::map<std::string, RuleCounts> tally(const RunReport& report) {
  std::map<std::string, RuleCounts> counts;
  for (const auto& rule : all_rules()) counts[rule];  // stable zero rows
  for (const auto& f : report.active) ++counts[f.rule].active;
  for (const auto& [rule, n] : report.sink.suppressed) counts[rule].allowed += n;
  for (const auto& entry : report.baseline.entries) {
    counts[entry.rule].baselined += entry.matched;
  }
  return counts;
}

}  // namespace

std::size_t print_summary(const RunReport& report) {
  for (const auto& f : report.active) {
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(), f.message.c_str());
  }
  std::printf("\n%-24s %9s %9s %10s\n", "rule", "findings", "allowed", "baselined");
  for (const auto& [rule, c] : tally(report)) {
    std::printf("%-24s %9d %9d %10d\n", rule.c_str(), c.active, c.allowed, c.baselined);
  }
  for (const auto& entry : report.baseline.entries) {
    if (entry.matched < entry.count) {
      std::printf("note: stale baseline entry %s [%s]: admits %d, matched %d — shrink it\n",
                  entry.file.c_str(), entry.rule.c_str(), entry.count, entry.matched);
    }
  }
  std::printf("tsn_analyze: scanned %zu files, %zu finding(s)\n", report.files_scanned,
              report.active.size());
  return report.active.size();
}

std::string findings_to_json(const RunReport& report) {
  telemetry::JsonWriter w;
  w.begin_object();
  w.field("schema", std::string_view{kFindingsSchema});
  w.field("root", report.root);
  w.field("files_scanned", static_cast<std::uint64_t>(report.files_scanned));
  w.key("findings");
  w.begin_array();
  for (const auto& f : report.active) {
    w.begin_object();
    w.field("file", f.file);
    w.field("line", static_cast<std::int64_t>(f.line));
    w.field("rule", f.rule);
    w.field("message", f.message);
    w.end_object();
  }
  w.end_array();
  w.key("summary");
  w.begin_array();
  for (const auto& [rule, c] : tally(report)) {
    w.begin_object();
    w.field("rule", rule);
    w.field("findings", static_cast<std::int64_t>(c.active));
    w.field("allowed", static_cast<std::int64_t>(c.allowed));
    w.field("baselined", static_cast<std::int64_t>(c.baselined));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::string out = w.str();
  out.push_back('\n');
  return out;
}

bool validate_findings_json(const std::string& text, std::string* error) {
  std::string parse_error;
  const auto doc = parse_json(text, &parse_error);
  if (!doc) {
    if (error != nullptr) *error = "not valid JSON: " + parse_error;
    return false;
  }
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  const JsonValue* schema = doc->get("schema");
  if (schema == nullptr || !schema->is_string() || schema->string != kFindingsSchema) {
    return fail("missing or wrong 'schema' (want tsn-analyze-findings-v1)");
  }
  if (const JsonValue* v = doc->get("root"); v == nullptr || !v->is_string()) {
    return fail("missing string 'root'");
  }
  if (const JsonValue* v = doc->get("files_scanned"); v == nullptr || !v->is_number()) {
    return fail("missing numeric 'files_scanned'");
  }
  const JsonValue* findings = doc->get("findings");
  if (findings == nullptr || !findings->is_array()) return fail("missing 'findings' array");
  for (const JsonValue& f : *findings->array) {
    if (f.get("file") == nullptr || !f.get("file")->is_string() || f.get("line") == nullptr ||
        !f.get("line")->is_number() || f.get("rule") == nullptr ||
        !f.get("rule")->is_string() || f.get("message") == nullptr ||
        !f.get("message")->is_string()) {
      return fail("finding entries need file/line/rule/message");
    }
  }
  const JsonValue* summary = doc->get("summary");
  if (summary == nullptr || !summary->is_array()) return fail("missing 'summary' array");
  std::set<std::string> seen;
  for (const JsonValue& row : *summary->array) {
    const JsonValue* rule = row.get("rule");
    if (rule == nullptr || !rule->is_string() || row.get("findings") == nullptr ||
        !row.get("findings")->is_number()) {
      return fail("summary rows need rule/findings");
    }
    seen.insert(rule->string);
  }
  for (const auto& rule : all_rules()) {
    if (seen.count(rule) == 0) return fail("summary is missing rule row '" + rule + "'");
  }
  return true;
}

}  // namespace tsn::analyze

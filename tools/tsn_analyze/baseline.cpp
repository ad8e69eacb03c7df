#include "baseline.hpp"

#include <fstream>
#include <sstream>

#include "json_mini.hpp"

namespace tsn::analyze {

using json::JsonValue;
using json::parse_json;

std::optional<Baseline> load_baseline(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open baseline file: " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string parse_error;
  const auto doc = parse_json(buf.str(), &parse_error);
  if (!doc) {
    if (error != nullptr) *error = "baseline parse error: " + parse_error;
    return std::nullopt;
  }
  const JsonValue* schema = doc->get("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != "tsn-analyze-baseline-v1") {
    if (error != nullptr) *error = "baseline schema must be tsn-analyze-baseline-v1";
    return std::nullopt;
  }
  const JsonValue* entries = doc->get("entries");
  if (entries == nullptr || !entries->is_array()) {
    if (error != nullptr) *error = "baseline must have an 'entries' array";
    return std::nullopt;
  }
  Baseline out;
  for (const JsonValue& item : *entries->array) {
    const JsonValue* file = item.get("file");
    const JsonValue* rule = item.get("rule");
    if (file == nullptr || !file->is_string() || rule == nullptr || !rule->is_string()) {
      if (error != nullptr) *error = "baseline entries need string 'file' and 'rule'";
      return std::nullopt;
    }
    BaselineEntry entry;
    entry.file = file->string;
    entry.rule = rule->string;
    if (const JsonValue* count = item.get("count"); count != nullptr && count->is_number()) {
      entry.count = static_cast<int>(count->number);
    }
    out.entries.push_back(std::move(entry));
  }
  return out;
}

std::vector<Finding> apply_baseline(std::vector<Finding> findings, Baseline& baseline,
                                    const std::string& display_prefix) {
  const std::string prefix = display_prefix.empty() ? "" : display_prefix + "/";
  std::vector<Finding> active;
  for (auto& finding : findings) {
    std::string rel = finding.file;
    if (!prefix.empty() && rel.compare(0, prefix.size(), prefix) == 0) {
      rel = rel.substr(prefix.size());
    }
    bool absorbed = false;
    for (auto& entry : baseline.entries) {
      if (entry.rule == finding.rule && entry.file == rel && entry.matched < entry.count) {
        ++entry.matched;
        absorbed = true;
        break;
      }
    }
    if (!absorbed) active.push_back(std::move(finding));
  }
  return active;
}

}  // namespace tsn::analyze

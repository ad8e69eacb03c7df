// A tiny recursive-descent JSON reader: the one JSON reader of the tools.
// tsn_analyze loads its baseline and validates its findings schema with it,
// and bench_compare reads the metric rows of tsn-bench reports. Covers the
// full JSON grammar minus floating point exotica (numbers parse as doubles
// via strtod), with no third-party dependency.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tsn::json {

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::shared_ptr<JsonArray> array;    // shared_ptr: JsonValue stays copyable
  std::shared_ptr<JsonObject> object;

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }

  // Object member access; returns nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* get(const std::string& key) const {
    if (!is_object()) return nullptr;
    const auto it = object->find(key);
    return it == object->end() ? nullptr : &it->second;
  }
};

// Parses `text`; returns nullopt (and sets `error`, when given) on malformed
// input or trailing garbage.
std::optional<JsonValue> parse_json(std::string_view text, std::string* error = nullptr);

}  // namespace tsn::json

#include "json_mini.hpp"

#include <cctype>
#include <cstdlib>

namespace tsn::json {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run(std::string* error) {
    auto v = parse_value();
    skip_ws();
    if (!v || pos_ != text_.size()) {
      if (error != nullptr) {
        *error = !v ? err_ : "trailing characters after JSON value";
      }
      return std::nullopt;
    }
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<JsonValue> fail(const char* why) {
    err_ = why;
    return std::nullopt;
  }

  std::optional<JsonValue> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return parse_string_value();
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') return parse_null();
    return parse_number();
  }

  std::optional<std::string> parse_string_raw() {
    if (!consume('"')) {
      err_ = "expected string";
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u':
            // Findings/baseline content is ASCII; skip the 4 hex digits and
            // substitute '?' rather than decoding surrogate pairs.
            pos_ = pos_ + 4 <= text_.size() ? pos_ + 4 : text_.size();
            out.push_back('?');
            break;
          default: out.push_back(esc); break;
        }
      } else {
        out.push_back(c);
      }
    }
    err_ = "unterminated string";
    return std::nullopt;
  }

  std::optional<JsonValue> parse_string_value() {
    auto s = parse_string_raw();
    if (!s) return std::nullopt;
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    v.string = std::move(*s);
    return v;
  }

  std::optional<JsonValue> parse_bool() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
      return v;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
      return v;
    }
    return fail("expected true/false");
  }

  std::optional<JsonValue> parse_null() {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue{};
    }
    return fail("expected null");
  }

  std::optional<JsonValue> parse_number() {
    const char* begin = text_.data() + pos_;
    char* end = nullptr;
    const double d = std::strtod(begin, &end);
    if (end == begin) return fail("expected a JSON value");
    pos_ += static_cast<std::size_t>(end - begin);
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = d;
    return v;
  }

  std::optional<JsonValue> parse_array() {
    consume('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    v.array = std::make_shared<JsonArray>();
    skip_ws();
    if (consume(']')) return v;
    while (true) {
      auto item = parse_value();
      if (!item) return std::nullopt;
      v.array->push_back(std::move(*item));
      if (consume(']')) return v;
      if (!consume(',')) return fail("expected ',' or ']' in array");
    }
  }

  std::optional<JsonValue> parse_object() {
    consume('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    v.object = std::make_shared<JsonObject>();
    skip_ws();
    if (consume('}')) return v;
    while (true) {
      skip_ws();
      auto key = parse_string_raw();
      if (!key) return std::nullopt;
      if (!consume(':')) return fail("expected ':' after object key");
      auto item = parse_value();
      if (!item) return std::nullopt;
      (*v.object)[std::move(*key)] = std::move(*item);
      if (consume('}')) return v;
      if (!consume(',')) return fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string err_;
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  return Parser{text}.run(error);
}

}  // namespace tsn::json

#include "runner/json.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "core/contracts.hpp"

namespace swl::runner {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x", c);
          out += buf.data();
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no NaN/Inf
    return;
  }
  std::array<char, 32> buf{};
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), d);
  SWL_ASSERT(ec == std::errc{}, "double formatting failed");
  out.append(buf.data(), end);
}

void append_newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
}

}  // namespace

Json& Json::set(std::string key, Json value) {
  SWL_REQUIRE(is_object(), "set() needs a JSON object");
  std::get<Object>(value_).emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  SWL_REQUIRE(is_array(), "push() needs a JSON array");
  std::get<Array>(value_).push_back(std::move(value));
  return *this;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  std::visit(
      [&](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::nullptr_t>) {
          out += "null";
        } else if constexpr (std::is_same_v<T, bool>) {
          out += v ? "true" : "false";
        } else if constexpr (std::is_same_v<T, double>) {
          append_double(out, v);
        } else if constexpr (std::is_same_v<T, std::int64_t> ||
                             std::is_same_v<T, std::uint64_t>) {
          out += std::to_string(v);
        } else if constexpr (std::is_same_v<T, std::string>) {
          append_escaped(out, v);
        } else if constexpr (std::is_same_v<T, Array>) {
          if (v.empty()) {
            out += "[]";
            return;
          }
          out += '[';
          for (std::size_t i = 0; i < v.size(); ++i) {
            if (i != 0) out += ',';
            append_newline_indent(out, indent, depth + 1);
            v[i].dump_to(out, indent, depth + 1);
          }
          append_newline_indent(out, indent, depth);
          out += ']';
        } else if constexpr (std::is_same_v<T, Object>) {
          if (v.empty()) {
            out += "{}";
            return;
          }
          out += '{';
          for (std::size_t i = 0; i < v.size(); ++i) {
            if (i != 0) out += ',';
            append_newline_indent(out, indent, depth + 1);
            append_escaped(out, v[i].first);
            out += indent > 0 ? ": " : ":";
            v[i].second.dump_to(out, indent, depth + 1);
          }
          append_newline_indent(out, indent, depth);
          out += '}';
        }
      },
      value_);
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

const Json* Json::find(std::string_view key) const noexcept {
  const auto* obj = std::get_if<Object>(&value_);
  if (obj == nullptr) return nullptr;
  for (const auto& [k, v] : *obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json* Json::find(std::string_view key) noexcept {
  auto* obj = std::get_if<Object>(&value_);
  if (obj == nullptr) return nullptr;
  for (auto& [k, v] : *obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::size_t Json::size() const noexcept {
  const auto* arr = std::get_if<Array>(&value_);
  return arr == nullptr ? 0 : arr->size();
}

const Json* Json::at(std::size_t i) const noexcept {
  const auto* arr = std::get_if<Array>(&value_);
  return arr != nullptr && i < arr->size() ? &(*arr)[i] : nullptr;
}

std::optional<double> Json::number() const noexcept {
  if (const auto* d = std::get_if<double>(&value_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&value_)) return static_cast<double>(*i);
  if (const auto* u = std::get_if<std::uint64_t>(&value_)) return static_cast<double>(*u);
  return std::nullopt;
}

const std::string* Json::string() const noexcept { return std::get_if<std::string>(&value_); }

std::optional<bool> Json::boolean() const noexcept {
  if (const auto* b = std::get_if<bool>(&value_)) return *b;
  return std::nullopt;
}

namespace {

// Recursive-descent parser over a string_view. Errors unwind as nullopt at
// every level; `pos` always sits on the first unconsumed character.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> document() {
    auto v = value(0);
    if (!v.has_value()) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  std::optional<Json> value(int depth) {
    if (depth > kMaxDepth) return std::nullopt;
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case '{':
        return object(depth);
      case '[':
        return array(depth);
      case '"': {
        auto s = string_body();
        if (!s.has_value()) return std::nullopt;
        return Json(std::move(*s));
      }
      case 't':
        return consume_literal("true") ? std::optional<Json>(Json(true)) : std::nullopt;
      case 'f':
        return consume_literal("false") ? std::optional<Json>(Json(false)) : std::nullopt;
      case 'n':
        return consume_literal("null") ? std::optional<Json>(Json()) : std::nullopt;
      default:
        return number_body();
    }
  }

  std::optional<Json> object(int depth) {
    ++pos_;  // '{'
    Json obj = Json::object();
    skip_ws();
    if (consume('}')) return obj;
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') return std::nullopt;
      auto key = string_body();
      if (!key.has_value()) return std::nullopt;
      skip_ws();
      if (!consume(':')) return std::nullopt;
      auto v = value(depth + 1);
      if (!v.has_value()) return std::nullopt;
      obj.set(std::move(*key), std::move(*v));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return obj;
      return std::nullopt;
    }
  }

  std::optional<Json> array(int depth) {
    ++pos_;  // '['
    Json arr = Json::array();
    skip_ws();
    if (consume(']')) return arr;
    while (true) {
      auto v = value(depth + 1);
      if (!v.has_value()) return std::nullopt;
      arr.push(std::move(*v));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return arr;
      return std::nullopt;
    }
  }

  std::optional<std::string> string_body() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;  // bare control char
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out += esc;
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          const auto cp = hex4();
          if (!cp.has_value()) return std::nullopt;
          append_utf8(out, *cp);
          break;
        }
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<std::uint32_t> hex4() {
    if (pos_ + 4 > text_.size()) return std::nullopt;
    std::uint32_t cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') {
        cp |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        cp |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        cp |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return std::nullopt;
      }
    }
    return cp;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    // BMP only — the emitter never writes surrogate pairs (it only escapes
    // control characters), so lone surrogates pass through as-is.
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  // Full RFC 8259 number grammar: -? int frac? exp?. from_chars alone is
  // laxer than JSON (it accepts "01" and "1."), so validate before parsing.
  static bool number_grammar_ok(std::string_view t) {
    std::size_t i = 0;
    const auto digits = [&t, &i] {
      std::size_t n = 0;
      while (i < t.size() && t[i] >= '0' && t[i] <= '9') {
        ++i;
        ++n;
      }
      return n;
    };
    if (i < t.size() && t[i] == '-') ++i;
    if (i >= t.size()) return false;
    if (t[i] == '0') {
      ++i;  // no leading zeros
    } else if (t[i] >= '1' && t[i] <= '9') {
      digits();
    } else {
      return false;
    }
    if (i < t.size() && t[i] == '.') {
      ++i;
      if (digits() == 0) return false;
    }
    if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
      ++i;
      if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
      if (digits() == 0) return false;
    }
    return i == t.size();
  }

  std::optional<Json> number_body() {
    const std::size_t start = pos_;
    const bool negative = consume('-');
    bool fractional = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        fractional = true;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (!number_grammar_ok(token)) return std::nullopt;
    const char* first = token.data();
    const char* last = token.data() + token.size();
    if (!fractional) {
      // Integer literal: preserve full 64-bit precision where possible.
      if (negative) {
        std::int64_t i = 0;
        if (auto [p, ec] = std::from_chars(first, last, i); ec == std::errc{} && p == last) {
          return Json(i);
        }
      } else {
        std::uint64_t u = 0;
        if (auto [p, ec] = std::from_chars(first, last, u); ec == std::errc{} && p == last) {
          return Json(u);
        }
      }
      // fall through: out-of-range integers degrade to double
    }
    double d = 0.0;
    if (auto [p, ec] = std::from_chars(first, last, d); ec == std::errc{} && p == last) {
      return Json(d);
    }
    return std::nullopt;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text) { return Parser(text).document(); }

}  // namespace swl::runner

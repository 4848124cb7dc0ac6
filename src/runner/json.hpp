// Minimal JSON document builder + parser for machine-readable bench output.
//
// The benches emit their sweep results and wall-clock timing as JSON
// (`--json FILE`) so the perf trajectory can be tracked across PRs without
// scraping the human-readable tables; the perf-regression comparator reads
// those files back through parse(). Objects keep insertion order so emitted
// files diff cleanly.
#ifndef SWL_RUNNER_JSON_HPP
#define SWL_RUNNER_JSON_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace swl::runner {

class Json {
 public:
  /// null
  Json() = default;
  Json(bool b) : value_(b) {}                       // NOLINT(google-explicit-constructor)
  Json(double d) : value_(d) {}                     // NOLINT(google-explicit-constructor)
  Json(std::int64_t i) : value_(i) {}               // NOLINT(google-explicit-constructor)
  Json(std::uint64_t u) : value_(u) {}              // NOLINT(google-explicit-constructor)
  Json(int i) : value_(std::int64_t{i}) {}          // NOLINT(google-explicit-constructor)
  Json(unsigned u) : value_(std::uint64_t{u}) {}    // NOLINT(google-explicit-constructor)
  Json(std::string s) : value_(std::move(s)) {}     // NOLINT(google-explicit-constructor)
  Json(std::string_view s) : value_(std::string(s)) {}  // NOLINT(google-explicit-constructor)
  Json(const char* s) : value_(std::string(s)) {}   // NOLINT(google-explicit-constructor)

  [[nodiscard]] static Json object() {
    Json j;
    j.value_ = Object{};
    return j;
  }
  [[nodiscard]] static Json array() {
    Json j;
    j.value_ = Array{};
    return j;
  }

  /// Object member insertion (keeps insertion order; duplicate keys are the
  /// caller's bug and are emitted verbatim). Requires an object.
  Json& set(std::string key, Json value);

  /// Array append. Requires an array.
  Json& push(Json value);

  [[nodiscard]] bool is_object() const noexcept { return std::holds_alternative<Object>(value_); }
  [[nodiscard]] bool is_array() const noexcept { return std::holds_alternative<Array>(value_); }

  /// Serializes the document. indent <= 0 renders compact one-line JSON;
  /// positive indents pretty-print with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 2) const;

  // -- parsing and read access ------------------------------------------

  /// Parses a complete JSON document (trailing garbage rejected). Integer
  /// literals come back as int64 (negative) / uint64, everything with a
  /// fraction or exponent as double — mirroring what dump() emits.
  /// std::nullopt on malformed input.
  [[nodiscard]] static std::optional<Json> parse(std::string_view text);

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;
  /// Mutable lookup, for rewriting a member's value in place.
  [[nodiscard]] Json* find(std::string_view key) noexcept;
  /// Array element count; 0 for non-arrays.
  [[nodiscard]] std::size_t size() const noexcept;
  /// Array element access; nullptr out of range or not an array.
  [[nodiscard]] const Json* at(std::size_t i) const noexcept;
  /// Any numeric alternative widened to double; nullopt for non-numbers.
  [[nodiscard]] std::optional<double> number() const noexcept;
  [[nodiscard]] const std::string* string() const noexcept;
  [[nodiscard]] std::optional<bool> boolean() const noexcept;

 private:
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;
  using Value =
      std::variant<std::nullptr_t, bool, double, std::int64_t, std::uint64_t, std::string,
                   Array, Object>;

  void dump_to(std::string& out, int indent, int depth) const;

  Value value_ = nullptr;
};

}  // namespace swl::runner

#endif  // SWL_RUNNER_JSON_HPP

// Small string helpers shared by CSV parsing and report printing.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace ferro::util {

/// Split `text` on `delim`, keeping empty fields ("a,,b" -> {"a","","b"}).
[[nodiscard]] std::vector<std::string> split(std::string_view text, char delim);

/// Strip leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

/// True if `text` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);

/// Render a double with `precision` significant digits (for report tables).
[[nodiscard]] std::string format_double(double value, int precision = 6);

/// Render a double in engineering style with a unit suffix, e.g. "4.000 kA/m".
[[nodiscard]] std::string format_engineering(double value, std::string_view unit,
                                             int precision = 3);

/// Parses the whole of `text` as a number of type T, strictly: the token
/// must be consumed completely ("12x", " 12" and "" fail), the value must
/// fit T, floating-point values must be finite, and unsigned types accept
/// no sign at all (so "-1" cannot wrap). Returns nullopt on any failure.
template <class T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  if (text.empty()) return std::nullopt;
  if (std::is_unsigned_v<T> && (text.front() == '-' || text.front() == '+')) {
    return std::nullopt;
  }
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

}  // namespace ferro::util

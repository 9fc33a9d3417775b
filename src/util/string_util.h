// Small string helpers shared by parsing and reporting code.
#pragma once

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace ems {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Formats a double with `precision` digits after the decimal point.
std::string FormatDouble(double value, int precision);

/// Escapes XML special characters (&, <, >, ", ').
std::string XmlEscape(std::string_view s);

/// Parses all of `s` as a T (an integer or floating-point type); false
/// on empty input, whitespace, a sign '+', trailing characters ("0.8x"),
/// a value outside T, inf or nan.
template <typename T>
bool ParseNumber(std::string_view s, T* out) {
  T value{};
  const char* end = s.data() + s.size();
  const std::from_chars_result parsed = std::from_chars(s.data(), end, value);
  if (parsed.ec != std::errc() || parsed.ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

}  // namespace ems

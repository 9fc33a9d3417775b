#include "util/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <thread>

#include "util/string_util.h"

namespace ems {

namespace option_internal {

// A row's value as text: the choice name, or the shortest decimal that
// reads back as the same double (the match options fingerprint hashes
// this text).
std::string ValueText(OptionType type, std::string_view choices,
                      double value) {
  if (type == OptionType::kChoice) {
    const std::vector<std::string> names = Split(choices, '|');
    const auto i = static_cast<size_t>(value);
    return i < names.size() ? names[i] : "?";
  }
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

// "in [0, 1]", "in (0, 1)", ">= 1", "> 0", or empty when unbounded.
std::string RangeText(double min, double max, bool min_open, bool max_open) {
  if (!std::isfinite(min)) return "";
  const std::string lo = ValueText(OptionType::kNumber, {}, min);
  if (!std::isfinite(max)) return (min_open ? "> " : ">= ") + lo;
  return std::string("in ") + (min_open ? "(" : "[") + lo + ", " +
         ValueText(OptionType::kNumber, {}, max) + (max_open ? ")" : "]");
}

Status WrongType(std::string_view key, OptionType type,
                 std::string_view choices) {
  static const char* const kExpected[] = {"one of ", "a number", "an integer",
                                          "true or false", "text"};
  std::string expected = kExpected[static_cast<int>(type)];
  if (type == OptionType::kChoice) expected += choices;
  return Status::InvalidArgument(std::string(key) + " must be " + expected);
}

bool ParseValue(OptionType type, std::string_view choices,
                std::string_view text, double* out) {
  if (type == OptionType::kChoice) {
    const std::vector<std::string> names = Split(choices, '|');
    const auto it = std::find(names.begin(), names.end(), text);
    *out = static_cast<double>(it - names.begin());
    return it != names.end();
  }
  if (type == OptionType::kNumber) return ParseNumber(text, out);
  long long integer = 0;
  constexpr long long kMax = 1LL << 53;  // exact as double
  if (!ParseNumber(text, &integer) || integer > kMax || integer < -kMax) {
    return false;
  }
  *out = static_cast<double>(integer);
  return true;
}

std::string UsageLine(std::string_view key, OptionType type,
                      std::string_view choices, std::string_view doc,
                      const std::string& range, const std::string& fallback) {
  constexpr size_t kDocColumn = 30;
  std::string line = "  --" + std::string(key);
  std::replace(line.begin(), line.end(), '_', '-');
  if (type == OptionType::kChoice || type == OptionType::kText) {
    line.append("=").append(choices);
  } else if (type != OptionType::kFlag) {
    line += type == OptionType::kInteger ? "=N" : "=F";
  }
  line += line.size() < kDocColumn ? std::string(kDocColumn - line.size(), ' ')
                                   : "\n" + std::string(kDocColumn, ' ');
  line += doc;
  if (!range.empty()) line += ", " + range;
  if (!fallback.empty()) line += " (default " + fallback + ")";
  return line + "\n";
}

}  // namespace option_internal

int UsageError(const Status& error, const std::string& usage) {
  std::fprintf(stderr, "error: %s\n%s", error.message().c_str(),
               usage.c_str());
  return 2;
}

int DefaultThreads() {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return n > 0 ? n : 1;
}

}  // namespace ems

#include "util/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <thread>

#include "util/string_util.h"

namespace ems {

namespace option_internal {

namespace {

std::string NumberText(double value) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

// "in [0, 1]", "in (0, 1)", ">= 1", "> 0", or empty when unbounded.
std::string RangeText(const Row& row) {
  if (!std::isfinite(row.min)) return "";
  const std::string lo = NumberText(row.min);
  if (!std::isfinite(row.max)) return (row.min_open ? "> " : ">= ") + lo;
  return std::string("in ") + (row.min_open ? "(" : "[") + lo + ", " +
         NumberText(row.max) + (row.max_open ? ")" : "]");
}

}  // namespace

std::string ValueText(const Row& row, double value) {
  if (row.type != OptionType::kChoice) return NumberText(value);
  const std::vector<std::string> names = Split(row.choices, '|');
  const auto i = static_cast<size_t>(value);
  return i < names.size() ? names[i] : "?";
}

Status CheckRange(const Row& row, double value) {
  if ((row.min_open ? value <= row.min : value < row.min) ||
      (row.max_open ? value >= row.max : value > row.max)) {
    return Status::InvalidArgument(std::string(row.key) + " must be " +
                                   RangeText(row));
  }
  return Status::OK();
}

Status WrongType(const Row& row) {
  static const char* const kExpected[] = {"one of ", "a number", "an integer",
                                          "true or false", "text"};
  std::string expected = kExpected[static_cast<int>(row.type)];
  if (row.type == OptionType::kChoice) expected += row.choices;
  return Status::InvalidArgument(std::string(row.key) + " must be " +
                                 expected);
}

Status ParseValue(const Row& row, std::string_view text, double* out) {
  if (row.type == OptionType::kFlag) {
    *out = 1;
    if (text.empty()) return Status::OK();
    return Status::InvalidArgument(std::string(row.key) + " takes no value");
  }
  bool ok;
  if (row.type == OptionType::kChoice) {
    const std::vector<std::string> names = Split(row.choices, '|');
    const auto it = std::find(names.begin(), names.end(), text);
    *out = static_cast<double>(it - names.begin());
    ok = it != names.end();
  } else if (row.type == OptionType::kNumber) {
    ok = ParseNumber(text, out);
  } else {
    long long integer = 0;
    constexpr long long kMax = 1LL << 53;  // exact as double
    ok = ParseNumber(text, &integer) && integer <= kMax && integer >= -kMax;
    *out = static_cast<double>(integer);
  }
  return ok ? Status::OK() : WrongType(row);
}

std::string UsageLine(const Row& row) {
  constexpr size_t kDocColumn = 30;
  std::string line = "  --" + std::string(row.key);
  std::replace(line.begin(), line.end(), '_', '-');
  if (row.type == OptionType::kChoice || row.type == OptionType::kText) {
    line.append("=").append(row.choices);
  } else if (row.type != OptionType::kFlag) {
    line += row.type == OptionType::kInteger ? "=N" : "=F";
  }
  line += line.size() < kDocColumn ? std::string(kDocColumn - line.size(), ' ')
                                   : "\n" + std::string(kDocColumn, ' ');
  line += row.doc;
  const std::string range = RangeText(row);
  if (!range.empty()) line += ", " + range;
  if (row.type != OptionType::kFlag && row.type != OptionType::kText) {
    line += " (default " + ValueText(row, row.fallback) + ")";
  }
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

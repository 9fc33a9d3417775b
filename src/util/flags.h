// Options as tables of rows: each row is one knob (key, type, default,
// range, doc string) bound to the field of the struct it sets. Every
// binary's argv, the benches' environment and the wire's match options
// (serve/match_options_schema.h) are read through such tables, and the
// usage text is generated from them. On the command line a row is
// "--key=value" with '_' written '-', or a bare "--key" for a flag.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace ems {

enum class OptionType {
  kChoice,   // one of `choices`; the value is the choice's index
  kNumber,   // a finite double
  kInteger,  // an integral value that fits the row's field
  kFlag,     // on/off; the value is 0 or 1
  kText,     // any text (a path, an endpoint)
};

/// One row of an option table; `Target` is the struct the row sets.
template <typename Target>
struct OptionSpec {
  std::string_view key = {};
  OptionType type = OptionType::kNumber;
  double fallback = 0.0;

  /// Accepted range; a bound is inclusive unless its *_open flag is set.
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool min_open = false;
  bool max_open = false;

  /// kChoice: the names, '|'-separated, in the order of the enum the
  /// row sets. kText: the value's placeholder in the usage text.
  std::string_view choices = {};
  std::string_view doc = {};

  /// The field as a double (enums by ordinal, flags as 0/1) and its
  /// setter, which returns false when the field cannot hold the value. A
  /// string field reads as 0 and takes `text`: a kText row's text or a
  /// kChoice row's name.
  double (*get)(const Target&) = nullptr;
  bool (*set)(Target*, double value, std::string_view text) = nullptr;
};

namespace option_internal {

template <typename T>
double Get(const T& field) {
  if constexpr (std::is_same_v<T, std::string>) return 0.0;
  else if constexpr (std::is_enum_v<T>) return static_cast<int>(field);
  else return static_cast<double>(field);
}

template <typename T>
bool Set(double value, std::string_view text, T* field) {
  if constexpr (std::is_same_v<T, std::string>) {
    field->assign(text);
  } else if constexpr (std::is_enum_v<T>) {
    *field = static_cast<T>(static_cast<int>(value));
  } else {
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
      constexpr double kExact = 9007199254740992.0;  // 2^53: exact as double
      if (value < std::max<double>(std::numeric_limits<T>::lowest(), -kExact) ||
          value > std::min<double>(std::numeric_limits<T>::max(), kExact)) {
        return false;
      }
    }
    *field = static_cast<T>(value);
  }
  return true;
}

// A row without its target: what parsing, checks and usage text read.
struct Row {
  template <typename Target>
  Row(const OptionSpec<Target>& s)  // implicit: helpers take any row
      : key(s.key), type(s.type), fallback(s.fallback), min(s.min),
        max(s.max), min_open(s.min_open), max_open(s.max_open),
        choices(s.choices), doc(s.doc) {}
  std::string_view key;
  OptionType type;
  double fallback, min, max;
  bool min_open, max_open;
  std::string_view choices, doc;
};

// The choice name of a kChoice row's value, else the shortest decimal
// that reads back as the same double (the match options fingerprint
// hashes this text).
std::string ValueText(const Row& row, double value);
// "KEY must be <range>" when `value` is outside the row's range.
Status CheckRange(const Row& row, double value);
Status WrongType(const Row& row);
// A choice's index, a number consumed in full ("0.8x", " 1", "" and, for
// an integer, "1e3" fail), or 1 for a flag, which takes no text.
Status ParseValue(const Row& row, std::string_view text, double* out);
// "  --key=VALUE  doc, range (default X)\n"
std::string UsageLine(const Row& row);

}  // namespace option_internal

/// The get/set pair of a row stored in `Target::field`.
#define EMS_OPTION_FIELD(Target, field)                                    \
  .get = [](const Target& t) { return ::ems::option_internal::Get(t.field); }, \
  .set = [](Target* t, double v, std::string_view s) {                     \
    return ::ems::option_internal::Set(v, s, &t->field);                   \
  }

/// \brief A Target built from one option table, validating each value.
///
/// Starts with every row at its default. A value of the wrong type, a
/// non-integer where an integer is expected, an unknown choice and a
/// value out of range are InvalidArgument and leave the target as it was.
template <typename Target>
class OptionParser {
 public:
  using Spec = OptionSpec<Target>;

  explicit OptionParser(std::span<const Spec> rows) : rows_(rows) {
    for (const Spec& spec : rows_) {
      if (spec.type != OptionType::kText) Store(spec, spec.fallback);
    }
  }

  std::span<const Spec> rows() const { return rows_; }
  const Target& target() const { return target_; }

  /// Whether the row named `key` was set explicitly.
  bool Given(std::string_view key) const {
    return std::find(given_.begin(), given_.end(), key) != given_.end();
  }

  /// A row's value as a number: a choice index, a flag as 0/1.
  Status Set(const Spec& spec, double value) {
    EMS_RETURN_NOT_OK(option_internal::CheckRange(spec, value));
    if (!Store(spec, value)) return option_internal::WrongType(spec);
    given_.push_back(spec.key);
    return Status::OK();
  }

  /// A row's value as text: a choice name, a number consumed in full,
  /// any text for a text row. Flags take no text.
  Status SetText(const Spec& spec, std::string_view text) {
    if (spec.type != OptionType::kText) {
      double value;
      EMS_RETURN_NOT_OK(option_internal::ParseValue(spec, text, &value));
      return Set(spec, value);
    }
    spec.set(&target_, 0, text);
    given_.push_back(spec.key);
    return Status::OK();
  }

  /// Sets the row of a command-line "--key[=value]" into `status`;
  /// false when the table has no row for `key`.
  bool SetArg(std::string_view key, std::string_view arg,
              const std::string_view* value, Status* status) {
    const auto spec = std::find_if(rows_.begin(), rows_.end(),
                                   [&](const Spec& s) { return s.key == key; });
    if (spec == rows_.end()) return false;
    const bool flag = spec->type == OptionType::kFlag;
    *status = flag == (value != nullptr)
                  ? Status::InvalidArgument(
                        std::string(arg.substr(0, arg.find('='))) +
                        (flag ? " takes no value" : " needs a value"))
                  : SetText(*spec, value != nullptr ? *value : "");
    return true;
  }

 private:
  // A kChoice row's string field takes the choice's name; a kText row's
  // field keeps its own default until set.
  bool Store(const Spec& spec, double value) {
    return spec.set(&target_, value,
                    spec.type == OptionType::kChoice
                        ? option_internal::ValueText(spec, value)
                        : std::string());
  }

  std::span<const Spec> rows_;
  Target target_{};
  std::vector<std::string_view> given_;
};

/// The table as usage text: one "  --flag=VALUE  doc" line per row.
template <typename Target>
std::string OptionsUsage(std::span<const OptionSpec<Target>> rows) {
  std::string out;
  for (const OptionSpec<Target>& spec : rows) {
    out += option_internal::UsageLine(spec);
  }
  return out;
}

/// \brief Parses argv[1..] through one or more tables, first match wins.
///
/// Each "--key[=value]" goes to the first table with a row for the key;
/// an option no table knows is InvalidArgument. Other arguments are
/// collected in `positional`, or rejected when it is null.
template <typename... Targets>
Status ParseArgs(int argc, char** argv, std::vector<std::string>* positional,
                 OptionParser<Targets>&... tables) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, 2) != "--") {
      if (positional == nullptr) {
        return Status::InvalidArgument("unexpected argument '" +
                                       std::string(arg) + "'");
      }
      positional->emplace_back(arg);
      continue;
    }
    const size_t eq = std::min(arg.find('='), arg.size());
    std::string key(arg.substr(2, eq - 2));
    std::replace(key.begin(), key.end(), '-', '_');
    const std::string_view value = arg.substr(std::min(eq + 1, arg.size()));
    const std::string_view* given = eq < arg.size() ? &value : nullptr;
    Status status =
        Status::InvalidArgument("unknown option '" + std::string(arg) + "'");
    (tables.SetArg(key, arg, given, &status) || ...);
    EMS_RETURN_NOT_OK(status);
  }
  return Status::OK();
}

/// Sets every row whose key names a variable in the environment.
template <typename Target>
Status ParseEnv(OptionParser<Target>& table) {
  for (const OptionSpec<Target>& spec : table.rows()) {
    if (const char* value = std::getenv(std::string(spec.key).c_str())) {
      EMS_RETURN_NOT_OK(table.SetText(spec, value));
    }
  }
  return Status::OK();
}

/// Reports a usage error on stderr — "error: <message>", then `usage` —
/// and returns 2, the exit status of a usage error.
int UsageError(const Status& error, const std::string& usage);

/// UsageError with "usage: <argv0> <synopsis>" and every table's rows.
template <typename... Targets>
int UsageError(const Status& error, const char* argv0,
               std::string_view synopsis,
               const OptionParser<Targets>&... tables) {
  std::string usage = "usage: " + std::string(argv0) + " ";
  usage.append(synopsis).append("\n");
  ((usage += OptionsUsage(tables.rows())), ...);
  return UsageError(error, usage);
}

/// The hardware concurrency, at least 1.
int DefaultThreads();

/// The --threads row every binary shares: worker threads, 0 = serial,
/// default the hardware concurrency. `Target` has an int `threads`.
template <typename Target>
OptionSpec<Target> ThreadsOption() {
  return {.key = "threads", .type = OptionType::kInteger,
          .fallback = static_cast<double>(DefaultThreads()), .min = 0,
          .doc = "worker threads, 0 = serial",
          EMS_OPTION_FIELD(Target, threads)};
}

}  // namespace ems

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
  /// setter, which returns false when the field cannot hold the value.
  /// A string field reads as 0 and takes the text of a kText row or the
  /// name of a kChoice row from set_text.
  double (*get)(const Target&) = nullptr;
  bool (*set)(Target*, double) = nullptr;
  void (*set_text)(Target*, std::string_view) = nullptr;
};

namespace option_internal {

template <typename T>
double Get(const T& field) {
  if constexpr (std::is_same_v<T, std::string>) return 0.0;
  else if constexpr (std::is_enum_v<T>) return static_cast<int>(field);
  else return static_cast<double>(field);
}

template <typename T>
bool Set(double value, T* field) {
  if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    constexpr double kExact = 9007199254740992.0;  // 2^53: exact as double
    if (value < std::max<double>(std::numeric_limits<T>::lowest(), -kExact) ||
        value > std::min<double>(std::numeric_limits<T>::max(), kExact)) {
      return false;
    }
  }
  if constexpr (std::is_enum_v<T>) {
    *field = static_cast<T>(static_cast<int>(value));
  } else if constexpr (!std::is_same_v<T, std::string>) {
    *field = static_cast<T>(value);
  }
  return true;
}

template <typename T>
void SetText(std::string_view text, T* field) {
  if constexpr (std::is_same_v<T, std::string>) field->assign(text);
}

// The pieces of a row that do not depend on its target.
std::string ValueText(OptionType type, std::string_view choices, double value);
std::string RangeText(double min, double max, bool min_open, bool max_open);
Status WrongType(std::string_view key, OptionType type,
                 std::string_view choices);
// A choice's index or a number consumed in full ("0.8x", " 1", "" and,
// for an integer, "1e3" fail).
bool ParseValue(OptionType type, std::string_view choices,
                std::string_view text, double* out);
std::string UsageLine(std::string_view key, OptionType type,
                      std::string_view choices, std::string_view doc,
                      const std::string& range, const std::string& fallback);

}  // namespace option_internal

/// The get/set/set_text triple of a row stored in `Target::field`.
#define EMS_OPTION_FIELD(Target, field)                                    \
  .get = [](const Target& t) { return ::ems::option_internal::Get(t.field); }, \
  .set = [](Target* t, double v) {                                         \
    return ::ems::option_internal::Set(v, &t->field);                      \
  },                                                                       \
  .set_text = [](Target* t, std::string_view s) {                          \
    ::ems::option_internal::SetText(s, &t->field);                         \
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
      spec.set(&target_, spec.fallback);
      if (spec.type != OptionType::kChoice) continue;
      spec.set_text(&target_, option_internal::ValueText(
                                  spec.type, spec.choices, spec.fallback));
    }
  }

  std::span<const Spec> rows() const { return rows_; }
  const Target& target() const { return target_; }

  /// The row for `key`, or null when the table has none.
  const Spec* Find(std::string_view key) const {
    for (const Spec& spec : rows_) {
      if (spec.key == key) return &spec;
    }
    return nullptr;
  }

  /// Whether the row named `key` was set explicitly.
  bool Given(std::string_view key) const {
    return std::find(given_.begin(), given_.end(), key) != given_.end();
  }

  /// A row's value as a number: a choice index, a flag as 0/1.
  Status Set(const Spec& spec, double value) {
    if ((spec.min_open ? value <= spec.min : value < spec.min) ||
        (spec.max_open ? value >= spec.max : value > spec.max)) {
      return Status::InvalidArgument(
          std::string(spec.key) + " must be " +
          option_internal::RangeText(spec.min, spec.max, spec.min_open,
                                     spec.max_open));
    }
    if (!spec.set(&target_, value)) {
      return option_internal::WrongType(spec.key, spec.type, spec.choices);
    }
    given_.push_back(spec.key);
    return Status::OK();
  }

  /// A row's value as text: a choice name, a number consumed in full,
  /// any text for a text row. Flags take no text.
  Status SetText(const Spec& spec, std::string_view text) {
    if (spec.type == OptionType::kText) {
      spec.set_text(&target_, text);
      given_.push_back(spec.key);
      return Status::OK();
    }
    if (spec.type == OptionType::kFlag && !text.empty()) {
      return Status::InvalidArgument(std::string(spec.key) +
                                     " takes no value");
    }
    double value = 1;  // a flag's
    if (spec.type != OptionType::kFlag &&
        !option_internal::ParseValue(spec.type, spec.choices, text, &value)) {
      return option_internal::WrongType(spec.key, spec.type, spec.choices);
    }
    EMS_RETURN_NOT_OK(Set(spec, value));
    if (spec.type == OptionType::kChoice) spec.set_text(&target_, text);
    return Status::OK();
  }

  /// Sets the row of a command-line "--key[=value]" into `status`;
  /// false when the table has no row for `key`.
  bool SetArg(std::string_view key, std::string_view arg,
              const std::string_view* value, Status* status) {
    const Spec* spec = Find(key);
    if (spec == nullptr) return false;
    const bool flag = spec->type == OptionType::kFlag;
    *status = flag == (value != nullptr)
                  ? Status::InvalidArgument(
                        std::string(arg.substr(0, arg.find('='))) +
                        (flag ? " takes no value" : " needs a value"))
                  : SetText(*spec, value != nullptr ? *value : "");
    return true;
  }

 private:
  std::span<const Spec> rows_;
  Target target_{};
  std::vector<std::string_view> given_;
};

/// The table as usage text: one "  --flag=VALUE  doc" line per row.
template <typename Target>
std::string OptionsUsage(std::span<const OptionSpec<Target>> rows) {
  std::string out;
  for (const OptionSpec<Target>& spec : rows) {
    const bool shows_default =
        spec.type != OptionType::kFlag && spec.type != OptionType::kText;
    out += option_internal::UsageLine(
        spec.key, spec.type, spec.choices, spec.doc,
        option_internal::RangeText(spec.min, spec.max, spec.min_open,
                                   spec.max_open),
        shows_default ? option_internal::ValueText(spec.type, spec.choices,
                                                   spec.fallback)
                      : "");
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

// The match options, as one table shared by every surface. Each row is
// one knob of the pipeline — α and c of formula (1), the I exact
// iterations of EMS+es (Section 3.5), Algorithm 2's δ, the selection
// strategy, the EM posterior knobs — with its wire key, type, default,
// range and doc string. The table drives the wire parser for match,
// append and top-k lines, ems_match's flags (the wire key with '_'
// replaced by '-') and usage text, and the option fingerprint, so the CLI
// and the wire cannot interpret one configuration differently.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>

#include "core/matcher.h"
#include "util/status.h"

namespace ems {

class JsonValue;

namespace serve {

enum class OptionType {
  kChoice,   // one of `choices`; the value is the choice's index
  kNumber,   // a finite double
  kInteger,  // an integral value that fits an int
  kFlag,     // on/off; the value is 0 or 1
};

/// One row of the schema.
struct MatchOptionSpec {
  std::string_view key = {};
  OptionType type = OptionType::kNumber;
  double fallback = 0.0;

  /// Accepted range; a bound is inclusive unless its *_open flag is set.
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool min_open = false;
  bool max_open = false;

  /// kChoice: the names, '|'-separated, in the order of the enum the
  /// row sets.
  std::string_view choices = {};
  std::string_view doc = {};

  double (*get)(const MatchOptions&) = nullptr;
  void (*set)(MatchOptions*, double) = nullptr;
};

/// Every row, in table order (which is also the fingerprint order).
std::span<const MatchOptionSpec> MatchOptionSchema();

/// The row for a wire key, or null when the key is not an option.
const MatchOptionSpec* FindMatchOption(std::string_view key);

/// MatchOptions with every row at its default.
MatchOptions DefaultMatchOptions();

/// \brief Builds MatchOptions from keyed values, validating each one.
///
/// A value of the wrong type, a non-integer where an integer is expected,
/// an unknown choice and a value out of range are InvalidArgument.
/// Finish applies the one cross-option rule: labels=none forces α = 1,
/// and an explicit α other than 1 with it is rejected.
class MatchOptionsParser {
 public:
  /// A wire value: its JSON type must be the row's.
  Status SetJson(const MatchOptionSpec& spec, const JsonValue& value);

  /// A CLI value: a choice name, or a number consumed in full. Flags
  /// take no text.
  Status SetText(const MatchOptionSpec& spec, std::string_view text);

  Result<MatchOptions> Finish() const;

 private:
  Status Set(const MatchOptionSpec& spec, double value);

  MatchOptions options_ = DefaultMatchOptions();
  bool alpha_set_ = false;
};

/// Fingerprint of every row's value in `options`, in table order.
uint64_t MatchOptionsFingerprint(const MatchOptions& options);

/// The schema as CLI usage text: one "  --flag=VALUE  doc" line per row.
std::string MatchOptionsUsage();

}  // namespace serve
}  // namespace ems

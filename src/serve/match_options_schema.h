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
#include <span>
#include <string>
#include <string_view>

#include "core/matcher.h"
#include "util/flags.h"
#include "util/status.h"

namespace ems {

class JsonValue;

namespace serve {

/// One row of the schema.
using MatchOptionSpec = OptionSpec<MatchOptions>;

/// Every row, in table order (which is also the fingerprint order).
std::span<const MatchOptionSpec> MatchOptionSchema();

/// The row for a wire key, or null when the key is not an option.
const MatchOptionSpec* FindMatchOption(std::string_view key);

/// MatchOptions with every row at its default.
MatchOptions DefaultMatchOptions();

/// \brief Builds MatchOptions from keyed values, validating each one
/// through the shared rows (SetText takes a CLI value).
///
/// Finish applies the one cross-option rule: labels=none forces α = 1,
/// and an explicit α other than 1 with it is rejected.
class MatchOptionsParser : public OptionParser<MatchOptions> {
 public:
  MatchOptionsParser() : OptionParser(MatchOptionSchema()) {}

  /// A wire value: its JSON type must be the row's.
  Status SetJson(const MatchOptionSpec& spec, const JsonValue& value);

  Result<MatchOptions> Finish() const;
};

/// Fingerprint of every row's value in `options`, in table order.
uint64_t MatchOptionsFingerprint(const MatchOptions& options);

/// The schema as CLI usage text: one "  --flag=VALUE  doc" line per row.
std::string MatchOptionsUsage();

}  // namespace serve
}  // namespace ems

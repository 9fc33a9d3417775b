#include "serve/match_options_schema.h"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <type_traits>
#include <vector>

#include "store/hashing.h"
#include "util/json_parser.h"
#include "util/string_util.h"

namespace ems {
namespace serve {

namespace {

// The schema's double view of a MatchOptions field: enums by ordinal,
// flags as 0/1.
template <typename T>
double ToValue(T field) {
  if constexpr (std::is_enum_v<T>) return static_cast<int>(field);
  return static_cast<double>(field);
}

template <typename T>
void FromValue(double value, T* field) {
  if constexpr (std::is_enum_v<T>) {
    *field = static_cast<T>(static_cast<int>(value));
  } else {
    *field = static_cast<T>(value);
  }
}

// The get/set pair of a row stored in MatchOptions::`field`.
#define EMS_OPTION_FIELD(field)                                      \
  .get = [](const MatchOptions& o) { return ToValue(o.field); },     \
  .set = [](MatchOptions* o, double v) { FromValue(v, &o->field); }

const MatchOptionSpec kSchema[] = {
    {.key = "labels", .type = OptionType::kChoice, .fallback = 1,
     .choices = "none|qgram|levenshtein|tokens|jaro",
     .doc = "label similarity beside structure (none: opaque names)",
     EMS_OPTION_FIELD(label_measure)},
    {.key = "alpha", .fallback = 0.5, .min = 0, .max = 1,
     .doc = "structural weight of formula (1), forced to 1 by labels=none",
     EMS_OPTION_FIELD(ems.alpha)},
    {.key = "c", .fallback = 0.8, .min = 0, .max = 1, .min_open = true,
     .max_open = true, .doc = "propagation decay of formula (1)",
     EMS_OPTION_FIELD(ems.c)},
    {.key = "engine", .type = OptionType::kChoice, .choices = "exact|estimated",
     .doc = "EMS to convergence, or EMS+es extrapolation (Section 3.5)",
     EMS_OPTION_FIELD(engine)},
    {.key = "iterations", .type = OptionType::kInteger, .fallback = 5,
     .min = 1, .doc = "exact iterations before extrapolation (EMS+es)",
     EMS_OPTION_FIELD(estimation_iterations)},
    {.key = "composites", .type = OptionType::kFlag,
     .doc = "m:n composite matching (Algorithm 2)",
     EMS_OPTION_FIELD(match_composites)},
    {.key = "delta", .fallback = 0.005, .min = 0, .max = 1,
     .doc = "composite acceptance threshold of Algorithm 2",
     EMS_OPTION_FIELD(composite.delta)},
    {.key = "selection", .type = OptionType::kChoice,
     .choices = "hungarian|greedy|mutual",
     .doc = "correspondence selection strategy (Section 6)",
     EMS_OPTION_FIELD(selection)},
    {.key = "min_similarity", .fallback = 0.05, .min = 0, .max = 1,
     .doc = "smallest similarity reported as a correspondence",
     EMS_OPTION_FIELD(min_match_similarity)},
    {.key = "min_edge_frequency", .fallback = 0, .min = 0, .max = 1,
     .doc = "dependency-graph edge filter (Figure 7)",
     EMS_OPTION_FIELD(min_edge_frequency)},
    {.key = "prob", .type = OptionType::kFlag,
     .doc = "EM posterior selection with per-pair confidences",
     EMS_OPTION_FIELD(prob.enabled)},
    {.key = "prob_temp", .fallback = 0.05, .min = 0, .min_open = true,
     .doc = "softmax temperature of the posterior",
     EMS_OPTION_FIELD(prob.temperature)},
    {.key = "prob_tol", .fallback = 1e-6, .min = 0, .min_open = true,
     .doc = "EM convergence tolerance", EMS_OPTION_FIELD(prob.rtole)},
    {.key = "prob_iters", .type = OptionType::kInteger, .fallback = 50,
     .min = 1, .doc = "EM iteration cap",
     EMS_OPTION_FIELD(prob.max_iterations)},
    {.key = "prob_min_confidence", .fallback = 0.02, .min = 0, .max = 1,
     .doc = "drop MAP pairs whose posterior is below this",
     EMS_OPTION_FIELD(prob.min_confidence)},
};

#undef EMS_OPTION_FIELD

// A row's value as text: the choice name, or the shortest decimal that
// reads back as the same double (the fingerprint hashes this text).
std::string ValueText(const MatchOptionSpec& spec, double value) {
  if (spec.type == OptionType::kChoice) {
    const std::vector<std::string> names = Split(spec.choices, '|');
    const auto i = static_cast<size_t>(value);
    return i < names.size() ? names[i] : "?";
  }
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

// "in [0, 1]", "in (0, 1)", ">= 1", "> 0", or empty when unbounded.
std::string RangeText(const MatchOptionSpec& spec) {
  if (!std::isfinite(spec.min)) return "";
  const std::string min = ValueText(spec, spec.min);
  if (!std::isfinite(spec.max)) return (spec.min_open ? "> " : ">= ") + min;
  return std::string("in ") + (spec.min_open ? "(" : "[") + min + ", " +
         ValueText(spec, spec.max) + (spec.max_open ? ")" : "]");
}

Status WrongType(const MatchOptionSpec& spec) {
  static const char* const kExpected[] = {"one of ", "a number",
                                          "an integer", "true or false"};
  std::string expected = kExpected[static_cast<int>(spec.type)];
  if (spec.type == OptionType::kChoice) expected += spec.choices;
  return Status::InvalidArgument(std::string(spec.key) + " must be " +
                                 expected);
}

}  // namespace

std::span<const MatchOptionSpec> MatchOptionSchema() { return kSchema; }

const MatchOptionSpec* FindMatchOption(std::string_view key) {
  for (const MatchOptionSpec& spec : kSchema) {
    if (spec.key == key) return &spec;
  }
  return nullptr;
}

MatchOptions DefaultMatchOptions() {
  MatchOptions options;
  for (const MatchOptionSpec& spec : kSchema) spec.set(&options, spec.fallback);
  return options;
}

Status MatchOptionsParser::Set(const MatchOptionSpec& spec, double value) {
  const bool below = spec.min_open ? value <= spec.min : value < spec.min;
  const bool above = spec.max_open ? value >= spec.max : value > spec.max;
  if (below || above) {
    return Status::InvalidArgument(std::string(spec.key) + " must be " +
                                   RangeText(spec));
  }
  spec.set(&options_, value);
  if (spec.key == "alpha") alpha_set_ = true;
  return Status::OK();
}

Status MatchOptionsParser::SetJson(const MatchOptionSpec& spec,
                                   const JsonValue& value) {
  switch (spec.type) {
    case OptionType::kChoice:
      if (value.is_string()) return SetText(spec, value.string_value());
      break;
    case OptionType::kNumber:
      if (value.is_number()) return Set(spec, value.number_value());
      break;
    case OptionType::kInteger: {
      const double v = value.number_value();
      if (value.is_number() && std::floor(v) == v && v >= INT_MIN &&
          v <= INT_MAX) {
        return Set(spec, v);
      }
      break;
    }
    case OptionType::kFlag:
      if (value.is_bool()) return Set(spec, value.bool_value() ? 1 : 0);
      break;
  }
  return WrongType(spec);
}

Status MatchOptionsParser::SetText(const MatchOptionSpec& spec,
                                   std::string_view text) {
  switch (spec.type) {
    case OptionType::kChoice: {
      const std::vector<std::string> names = Split(spec.choices, '|');
      for (size_t i = 0; i < names.size(); ++i) {
        if (names[i] == text) return Set(spec, static_cast<double>(i));
      }
      break;
    }
    case OptionType::kNumber: {
      double number = 0.0;
      if (ParseNumber(text, &number)) return Set(spec, number);
      break;
    }
    case OptionType::kInteger: {
      int integer = 0;
      if (ParseNumber(text, &integer)) return Set(spec, integer);
      break;
    }
    case OptionType::kFlag:
      if (text.empty()) return Set(spec, 1);
      return Status::InvalidArgument(std::string(spec.key) +
                                     " takes no value");
  }
  return WrongType(spec);
}

Result<MatchOptions> MatchOptionsParser::Finish() const {
  MatchOptions options = options_;
  if (options.label_measure == LabelMeasure::kNone) {
    if (alpha_set_ && options.ems.alpha != 1.0) {
      return Status::InvalidArgument(
          "alpha must be 1 with labels=none (structure only)");
    }
    options.ems.alpha = 1.0;
  }
  return options;
}

uint64_t MatchOptionsFingerprint(const MatchOptions& options) {
  store::FingerprintBuilder fp;
  for (const MatchOptionSpec& spec : kSchema) {
    fp.Add(spec.key, ValueText(spec, spec.get(options)));
  }
  return fp.Finish();
}

std::string MatchOptionsUsage() {
  constexpr size_t kDocColumn = 30;
  std::string out;
  for (const MatchOptionSpec& spec : kSchema) {
    std::string line = "  --" + std::string(spec.key);
    std::replace(line.begin(), line.end(), '_', '-');
    if (spec.type == OptionType::kChoice) {
      line.append("=").append(spec.choices);
    } else if (spec.type != OptionType::kFlag) {
      line += spec.type == OptionType::kInteger ? "=N" : "=F";
    }
    line += line.size() < kDocColumn
                ? std::string(kDocColumn - line.size(), ' ')
                : "\n" + std::string(kDocColumn, ' ');
    line += spec.doc;
    const std::string range = RangeText(spec);
    if (!range.empty()) line += ", " + range;
    if (spec.type != OptionType::kFlag) {
      line += " (default " + ValueText(spec, spec.fallback) + ")";
    }
    out += line + "\n";
  }
  return out;
}

}  // namespace serve
}  // namespace ems

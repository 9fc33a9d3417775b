#include "serve/match_options_schema.h"

#include <climits>
#include <cmath>

#include "store/hashing.h"
#include "util/json_parser.h"

namespace ems {
namespace serve {

namespace {

#define EMS_OPTION(field) EMS_OPTION_FIELD(MatchOptions, field)

constexpr MatchOptionSpec kSchema[] = {
    {.key = "labels", .type = OptionType::kChoice, .fallback = 1,
     .choices = "none|qgram|levenshtein|tokens|jaro",
     .doc = "label similarity beside structure (none: opaque names)",
     EMS_OPTION(label_measure)},
    {.key = "alpha", .fallback = 0.5, .min = 0, .max = 1,
     .doc = "structural weight of formula (1), forced to 1 by labels=none",
     EMS_OPTION(ems.alpha)},
    {.key = "c", .fallback = 0.8, .min = 0, .max = 1, .min_open = true,
     .max_open = true, .doc = "propagation decay of formula (1)",
     EMS_OPTION(ems.c)},
    {.key = "engine", .type = OptionType::kChoice, .choices = "exact|estimated",
     .doc = "EMS to convergence, or EMS+es extrapolation (Section 3.5)",
     EMS_OPTION(engine)},
    {.key = "iterations", .type = OptionType::kInteger, .fallback = 5,
     .min = 1, .doc = "exact iterations before extrapolation (EMS+es)",
     EMS_OPTION(estimation_iterations)},
    {.key = "composites", .type = OptionType::kFlag,
     .doc = "m:n composite matching (Algorithm 2)",
     EMS_OPTION(match_composites)},
    {.key = "delta", .fallback = 0.005, .min = 0, .max = 1,
     .doc = "composite acceptance threshold of Algorithm 2",
     EMS_OPTION(composite.delta)},
    {.key = "selection", .type = OptionType::kChoice,
     .choices = "hungarian|greedy|mutual",
     .doc = "correspondence selection strategy (Section 6)",
     EMS_OPTION(selection)},
    {.key = "min_similarity", .fallback = 0.05, .min = 0, .max = 1,
     .doc = "smallest similarity reported as a correspondence",
     EMS_OPTION(min_match_similarity)},
    {.key = "min_edge_frequency", .fallback = 0, .min = 0, .max = 1,
     .doc = "dependency-graph edge filter (Figure 7)",
     EMS_OPTION(min_edge_frequency)},
    {.key = "prob", .type = OptionType::kFlag,
     .doc = "EM posterior selection with per-pair confidences",
     EMS_OPTION(prob.enabled)},
    {.key = "prob_temp", .fallback = 0.05, .min = 0, .min_open = true,
     .doc = "softmax temperature of the posterior",
     EMS_OPTION(prob.temperature)},
    {.key = "prob_tol", .fallback = 1e-6, .min = 0, .min_open = true,
     .doc = "EM convergence tolerance", EMS_OPTION(prob.rtole)},
    {.key = "prob_iters", .type = OptionType::kInteger, .fallback = 50,
     .min = 1, .doc = "EM iteration cap",
     EMS_OPTION(prob.max_iterations)},
    {.key = "prob_min_confidence", .fallback = 0.02, .min = 0, .max = 1,
     .doc = "drop MAP pairs whose posterior is below this",
     EMS_OPTION(prob.min_confidence)},
};

#undef EMS_OPTION

}  // namespace

std::span<const MatchOptionSpec> MatchOptionSchema() { return kSchema; }

const MatchOptionSpec* FindMatchOption(std::string_view key) {
  for (const MatchOptionSpec& spec : kSchema) {
    if (spec.key == key) return &spec;
  }
  return nullptr;
}

MatchOptions DefaultMatchOptions() { return MatchOptionsParser().target(); }

Status MatchOptionsParser::SetJson(const MatchOptionSpec& spec,
                                   const JsonValue& value) {
  switch (spec.type) {
    case OptionType::kChoice:
    case OptionType::kText:
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
  return option_internal::WrongType(spec);
}

Result<MatchOptions> MatchOptionsParser::Finish() const {
  MatchOptions options = target();
  if (options.label_measure == LabelMeasure::kNone) {
    if (Given("alpha") && options.ems.alpha != 1.0) {
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
    fp.Add(spec.key, option_internal::ValueText(spec, spec.get(options)));
  }
  return fp.Finish();
}

std::string MatchOptionsUsage() { return OptionsUsage(MatchOptionSchema()); }

}  // namespace serve
}  // namespace ems

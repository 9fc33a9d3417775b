// EM ablation: MAP selection from calibrated posteriors (src/prob/)
// vs Algorithm 2's hard Hungarian selection, on the Figure 9
// dislocation instances (100-event pairs, first m events of every
// trace removed from one side). Both methods share the same converged
// EMS similarity surface; the ablation isolates what the EM posterior
// layer buys — low-confidence (dislocated, ambiguous) rows get diffuse
// posteriors and are filtered out, trading a little recall for
// precision where the hard assignment guesses.
//
// Exits nonzero if EM-MAP falls below the Algorithm 2 baseline on any
// dislocation rung: this binary doubles as the acceptance check wired
// into CI's perf smoke.
#include "bench_common.h"

using namespace ems;
using namespace ems::bench;

namespace {

// The MatchOptions RunEms (eval/harness.cc) builds for Method::kEms in
// the opaque scenario, so the baseline group and the EM-MAP group run
// the exact same fixpoint and differ only in selection.
MatchOptions BaseMatchOptions(const HarnessOptions& options) {
  MatchOptions match_opts;
  match_opts.min_edge_frequency = options.min_edge_frequency;
  match_opts.ems = options.ems;
  match_opts.ems.alpha = 1.0;
  match_opts.engine = SimilarityEngine::kExact;
  match_opts.label_measure = LabelMeasure::kNone;
  match_opts.min_match_similarity = options.min_match_similarity;
  return match_opts;
}

struct EmGroupExtra {
  double mean_iterations = 0.0;
  double converged_fraction = 0.0;
  double mean_entropy = 0.0;
};

GroupResult RunEmMapGroup(const std::vector<const LogPair*>& pairs,
                          const HarnessOptions& options,
                          const std::string& group_name,
                          EmGroupExtra* extra) {
  GroupResult group;
  QualityAccumulator acc;
  double total_ms = 0.0;
  double iter_sum = 0.0;
  double entropy_sum = 0.0;
  int converged = 0;
  int finished = 0;

  MatchOptions match_opts = BaseMatchOptions(options);
  match_opts.prob.enabled = true;
  Matcher matcher(match_opts);
  for (const LogPair* pair : pairs) {
    Timer timer;
    Result<MatchResult> result = matcher.Match(pair->log1, pair->log2);
    total_ms += timer.ElapsedMillis();
    if (!result.ok()) {
      ++group.dnf;
      continue;
    }
    acc.Add(Evaluate(pair->truth, result->correspondences));
    group.formula_evaluations += result->ems_stats.formula_evaluations;
    if (result->soft.has_value()) {
      iter_sum += result->soft->stats.iterations;
      entropy_sum += result->soft->stats.mean_entropy;
      if (result->soft->stats.converged) ++converged;
    }
    ++finished;
  }
  group.quality = acc.Mean();
  group.pairs = static_cast<int>(pairs.size());
  group.mean_millis =
      pairs.empty() ? 0.0 : total_ms / static_cast<double>(pairs.size());
  if (extra != nullptr && finished > 0) {
    extra->mean_iterations = iter_sum / finished;
    extra->converged_fraction = static_cast<double>(converged) / finished;
    extra->mean_entropy = entropy_sum / finished;
  }
  BenchJsonRecorder::Instance().AddGroup(group_name, group);
  return group;
}

}  // namespace

int main(int argc, char** argv) {
  Init(argc, argv);
  PrintHeader("em",
              "EM-MAP soft selection vs Algorithm 2 on dislocated pairs");
  const int pairs_per_m = BenchPairsPerSize();

  HarnessOptions options;

  bool em_at_least_as_good = true;
  bool em_strictly_better_once = false;
  TextTable table({"m", "Alg2 F", "Alg2 P", "Alg2 R", "EM-MAP F", "EM-MAP P",
                   "EM-MAP R", "iters", "conv", "entropy"});
  for (int m = 0; m <= 8; m += 2) {
    std::vector<LogPair> storage;
    for (int i = 0; i < pairs_per_m; ++i) {
      storage.push_back(
          MakeDislocationPair(100, m, 9100 + static_cast<uint64_t>(i)));
    }
    std::vector<const LogPair*> pairs = Pointers(storage);

    GroupResult baseline = RunGroup(Method::kEms, pairs, options);
    EmGroupExtra extra;
    GroupResult em = RunEmMapGroup(
        pairs, options, "EM-MAP_m" + std::to_string(m), &extra);

    if (em.quality.f_measure + 1e-9 < baseline.quality.f_measure) {
      em_at_least_as_good = false;
    }
    if (em.quality.f_measure > baseline.quality.f_measure + 1e-9) {
      em_strictly_better_once = true;
    }
    table.AddRow({std::to_string(m), FCell(baseline),
                  Cell(baseline.quality.precision),
                  Cell(baseline.quality.recall), FCell(em),
                  Cell(em.quality.precision), Cell(em.quality.recall),
                  Cell(extra.mean_iterations), Cell(extra.converged_fraction),
                  Cell(extra.mean_entropy)});
  }
  std::printf("%s", table.ToString().c_str());

  if (!em_at_least_as_good) {
    std::fprintf(stderr,
                 "FAIL: EM-MAP F-measure fell below the Algorithm 2 "
                 "baseline on at least one dislocation rung\n");
    return 1;
  }
  if (!em_strictly_better_once) {
    std::fprintf(stderr,
                 "FAIL: EM-MAP never strictly beat the Algorithm 2 "
                 "baseline across the dislocation sweep\n");
    return 1;
  }
  std::printf("OK: EM-MAP >= Algorithm 2 on every rung, strictly better on "
              "at least one\n");
  return 0;
}

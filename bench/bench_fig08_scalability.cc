// Figure 8: scalability on synthetic specifications with 10..100 events
// (BeehiveZ-substitute generator, 2 play-outs per specification, truth =
// name identity). OPQ's factorial search cannot finish beyond ~30 events
// — reproduced via its expansion budget.
#include "bench_common.h"

using namespace ems;
using namespace ems::bench;

int main(int argc, char** argv) {
  Init(argc, argv);
  PrintHeader("Figure 8", "scalability over the number of events");
  const int pairs_per_size = BenchPairsPerSize();
  std::printf("(%d specification pairs per size; paper uses 20 — set "
              "EMS_BENCH_PAIRS_PER_SIZE=20 for the full protocol)\n\n",
              pairs_per_size);

  HarnessOptions options;
  options.opq_max_expansions = 200'000;

  TextTable f_table({"events", "EMS", "EMS+es", "GED", "OPQ", "BHV"});
  TextTable t_table({"events", "EMS", "EMS+es", "GED", "OPQ", "BHV"});
  for (int size = 10; size <= 100; size += 10) {
    std::vector<LogPair> storage =
        MakeScalabilityPairs(size, pairs_per_size, 4200 + size);
    std::vector<const LogPair*> pairs = Pointers(storage);
    std::vector<std::string> f_row = {std::to_string(size)};
    std::vector<std::string> t_row = {std::to_string(size)};
    for (Method m : {Method::kEms, Method::kEmsEstimated, Method::kGed,
                     Method::kOpq, Method::kBhv}) {
      if (m == Method::kOpq && size > 30) {
        // The paper reports OPQ unable to finish beyond 30 events; skip
        // the hopeless sizes instead of spinning the budget.
        f_row.push_back("DNF");
        t_row.push_back("-");
        continue;
      }
      GroupResult r = RunGroup(m, pairs, options);
      f_row.push_back(FCell(r));
      t_row.push_back(r.dnf == r.pairs ? "-" : MillisCell(r.mean_millis));
    }
    f_table.AddRow(f_row);
    t_table.AddRow(t_row);
  }
  std::printf("(a) accuracy\n%s\n", f_table.ToString().c_str());
  std::printf("(b) mean time per log pair\n%s", t_table.ToString().c_str());
  return 0;
}

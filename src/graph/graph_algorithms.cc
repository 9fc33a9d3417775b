#include "graph/graph_algorithms.h"

namespace ems {

std::vector<std::vector<double>> FrequencyMatrix(const DependencyGraph& g,
                                                 bool include_artificial) {
  const NodeId start = (g.has_artificial() && !include_artificial) ? 1 : 0;
  const size_t n = g.NumNodes() - static_cast<size_t>(start);
  std::vector<std::vector<double>> m(n, std::vector<double>(n, 0.0));
  for (NodeId v = start; v < static_cast<NodeId>(g.NumNodes()); ++v) {
    const auto& succ = g.Successors(v);
    const auto& freq = g.SuccessorFrequencies(v);
    for (size_t i = 0; i < succ.size(); ++i) {
      if (!include_artificial && g.IsArtificial(succ[i])) continue;
      m[static_cast<size_t>(v - start)][static_cast<size_t>(succ[i] - start)] =
          freq[i];
    }
  }
  return m;
}

}  // namespace ems

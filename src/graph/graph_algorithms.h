// Dense frequency-matrix extraction from a dependency graph; the OPQ
// baseline operates on these matrices.
#pragma once

#include <vector>

#include "graph/dependency_graph.h"

namespace ems {

/// Dense |V|x|V| matrix of edge frequencies f(a, b); entry [a][b] is 0 when
/// the edge is absent. Row/column order follows node ids. By default the
/// artificial node is excluded (OPQ and GED operate on the raw Definition-1
/// graph); pass include_artificial to keep it as row/column 0.
std::vector<std::vector<double>> FrequencyMatrix(const DependencyGraph& g,
                                                 bool include_artificial = false);

}  // namespace ems

// Graphviz export: dependency graphs and matching results as DOT, for
// debugging and documentation. `dot -Tsvg` renders the output directly.
#pragma once

#include <iosfwd>
#include <string>

#include "core/matcher.h"
#include "graph/dependency_graph.h"

namespace ems {

/// Options for DOT rendering.
struct DotOptions {
  /// Include the artificial event v^X and its edges.
  bool show_artificial = false;

  /// Label edges with their normalized frequencies.
  bool edge_frequencies = true;

  /// Graph name (DOT identifier).
  std::string name = "dependency_graph";
};

/// Writes a match result as a two-cluster DOT digraph: both dependency
/// graphs side by side with dashed cross-edges for every correspondence,
/// labeled by similarity.
Status WriteMatchDot(const MatchResult& result, std::ostream& out,
                     const DotOptions& options = {});

/// Renders one dependency graph as a DOT digraph.
std::string ToDot(const DependencyGraph& g, const DotOptions& options = {});

}  // namespace ems

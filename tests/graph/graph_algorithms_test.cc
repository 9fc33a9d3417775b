#include "graph/graph_algorithms.h"

#include <gtest/gtest.h>

#include "paper_example.h"

namespace ems {
namespace {

TEST(FrequencyMatrixTest, ExcludesArtificialByDefault) {
  DependencyGraph g = testing::BuildPaperGraph2();
  auto m = FrequencyMatrix(g);
  ASSERT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m[testing::N1][testing::N2], 0.4);
  EXPECT_DOUBLE_EQ(m[testing::N4][testing::N5], 1.0);
  EXPECT_DOUBLE_EQ(m[testing::N5][testing::N4], 0.0);
}

TEST(FrequencyMatrixTest, IncludesArtificialOnRequest) {
  DependencyGraph g = testing::BuildPaperGraph2();
  auto m = FrequencyMatrix(g, /*include_artificial=*/true);
  ASSERT_EQ(m.size(), 7u);
  EXPECT_DOUBLE_EQ(m[0][1 + testing::N1], 1.0);  // f(v^X, 1) = f(1)
}

}  // namespace
}  // namespace ems

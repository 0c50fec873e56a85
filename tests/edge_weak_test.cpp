#include <gtest/gtest.h>

#include "algo/edge_color.hpp"
#include "algo/weak_color.hpp"
#include "graph/builders.hpp"
#include "graph/line_graph.hpp"
#include "lcl/checker.hpp"
#include "lcl/problems/edge_coloring.hpp"
#include "lcl/problems/weak_coloring.hpp"
#include "local/ids.hpp"
#include "support/check.hpp"

namespace padlock {
namespace {

// ---- line graph -------------------------------------------------------------

TEST(LineGraph, TriangleIsTriangle) {
  GraphBuilder b;
  b.add_nodes(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  const Graph g = std::move(b).build();
  const LineGraph lg = line_graph(g);
  EXPECT_EQ(lg.graph.num_nodes(), 3u);
  EXPECT_EQ(lg.graph.num_edges(), 3u);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(lg.graph.degree(v), 2);
}

TEST(LineGraph, StarBecomesClique) {
  GraphBuilder b;
  b.add_nodes(5);
  for (NodeId leaf = 1; leaf < 5; ++leaf) b.add_edge(0, leaf);
  const Graph g = std::move(b).build();
  const LineGraph lg = line_graph(g);
  EXPECT_EQ(lg.graph.num_nodes(), 4u);
  EXPECT_EQ(lg.graph.num_edges(), 6u);  // K4
  for (EdgeId le = 0; le < lg.graph.num_edges(); ++le) {
    EXPECT_EQ(lg.shared_endpoint[le], 0u);
  }
}

TEST(LineGraph, ParallelEdgesYieldParallelLineEdges) {
  GraphBuilder b;
  b.add_nodes(2);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  const Graph g = std::move(b).build();
  const LineGraph lg = line_graph(g);
  EXPECT_EQ(lg.graph.num_nodes(), 2u);
  EXPECT_EQ(lg.graph.num_edges(), 2u);  // one per shared endpoint
}

TEST(LineGraph, PathShrinksByOne) {
  const Graph g = build::path(7);
  const LineGraph lg = line_graph(g);
  EXPECT_EQ(lg.graph.num_nodes(), 6u);
  EXPECT_EQ(lg.graph.num_edges(), 5u);
}

TEST(LineGraph, DegreeBound) {
  const Graph g = build::random_regular_simple(60, 4, 17);
  const LineGraph lg = line_graph(g);
  EXPECT_LE(lg.graph.max_degree(), 2 * g.max_degree() - 2);
}

TEST(LineGraph, DerivedIdsDistinctAndPolynomial) {
  const Graph g = build::random_bounded_degree_simple(50, 5, 0.8, 3);
  const IdMap ids = sparse_ids(g, 7);
  const auto lids = line_graph_ids(g, ids);
  const std::uint64_t space = line_graph_id_space(
      static_cast<std::uint64_t>(g.num_nodes()) * g.num_nodes() *
          g.num_nodes(),
      g.max_degree());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_GE(lids[static_cast<NodeId>(e)], 1u);
    EXPECT_LE(lids[static_cast<NodeId>(e)], space);
    for (EdgeId f = e + 1; f < g.num_edges(); ++f) {
      EXPECT_NE(lids[static_cast<NodeId>(e)], lids[static_cast<NodeId>(f)]);
    }
  }
}

TEST(LineGraph, DerivedIdSpaceOverflowIsRejected) {
  // id_space·(Δ+1) + Δ + 1 used to wrap: sparse_id_space(2^21) = 2^63 at
  // Δ = 3 gave 4, and sparse_id_space(2^22) saturates at 2^64 - 1.
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  EXPECT_THROW(line_graph_id_space(sparse_id_space(1u << 21), 3),
               ContractViolation);
  EXPECT_THROW(line_graph_id_space(sparse_id_space(1u << 22), 3),
               ContractViolation);
  // The largest id space whose derived space fits at Δ = 3: 4·(2^62 - 2) + 4.
  const std::uint64_t largest = (std::uint64_t{1} << 62) - 2;
  EXPECT_EQ(line_graph_id_space(largest, 3), kMax - 3);
  EXPECT_THROW(line_graph_id_space(largest + 1, 3), ContractViolation);
  EXPECT_EQ(line_graph_id_space(sparse_id_space(1u << 20), 3),
            sparse_id_space(1u << 20) * 4 + 4);

  // One edge (Δ = 1, stride 2): the smaller id times 2, plus port + 1.
  GraphBuilder b;
  b.add_nodes(2);
  b.add_edge(0, 1);
  const Graph g = std::move(b).build();
  const std::uint64_t half = std::uint64_t{1} << 63;
  IdMap ids(g, 0);
  ids[0] = half;
  ids[1] = half - 1;
  EXPECT_EQ(line_graph_ids(g, ids)[0], kMax);
  ids[1] = half + 1;
  EXPECT_THROW(line_graph_ids(g, ids), ContractViolation);
  // The pair rejects the run instead of coloring on a wrapped palette.
  ids[0] = 1;
  ids[1] = 2;
  EXPECT_THROW(edge_color_log_star(g, ids, sparse_id_space(1u << 21)),
               ContractViolation);
}

// ---- edge coloring -----------------------------------------------------------

struct EcCase {
  const char* name;
  Graph (*make)(std::size_t, std::uint64_t);
  std::size_t n;
};

Graph ec_cycle(std::size_t n, std::uint64_t) { return build::cycle(n); }
Graph ec_path(std::size_t n, std::uint64_t) { return build::path(n); }
Graph ec_cubic(std::size_t n, std::uint64_t s) {
  return build::random_regular_simple(n, 3, s);
}
Graph ec_deg5(std::size_t n, std::uint64_t s) {
  return build::random_bounded_degree_simple(n, 5, 0.7, s);
}
Graph ec_torus(std::size_t n, std::uint64_t) {
  return build::torus(std::max<std::size_t>(3, n / 8), 8);
}

class EdgeColorTest : public ::testing::TestWithParam<EcCase> {};

TEST_P(EdgeColorTest, ProperWithTwoDeltaMinusOneColors) {
  const auto& c = GetParam();
  const Graph g = c.make(c.n, 19);
  for (const std::uint64_t seed : {1ull, 2ull}) {
    const IdMap ids = shuffled_ids(g, seed);
    const auto res = edge_color_log_star(g, ids, g.num_nodes());
    EXPECT_TRUE(
        is_proper_edge_coloring(g, res.colors, 2 * g.max_degree() - 1))
        << c.name;
    EXPECT_GT(res.rounds, 0) << c.name;
  }
}

TEST_P(EdgeColorTest, NeLclCheckerAgrees) {
  const auto& c = GetParam();
  const Graph g = c.make(c.n, 20);
  const IdMap ids = shuffled_ids(g, 3);
  const auto res = edge_color_log_star(g, ids, g.num_nodes());
  const EdgeColoring lcl(2 * g.max_degree() - 1);
  const NeLabeling input(g);
  EXPECT_TRUE(
      check_ne_lcl(g, lcl, input, edge_colors_to_labeling(g, res.colors)).ok)
      << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, EdgeColorTest,
    ::testing::Values(EcCase{"cycle", ec_cycle, 48},
                      EcCase{"path", ec_path, 33},
                      EcCase{"cubic", ec_cubic, 64},
                      EcCase{"deg5", ec_deg5, 60},
                      EcCase{"torus", ec_torus, 48}),
    [](const auto& info) { return info.param.name; });

TEST(EdgeColoring, CheckerRejectsConflict) {
  const Graph g = build::path(3);  // edges 0-1, 1-2 share node 1
  EdgeMap<int> colors(g, 1);
  EXPECT_FALSE(is_proper_edge_coloring(g, colors, 3));
  colors[1] = 2;
  EXPECT_TRUE(is_proper_edge_coloring(g, colors, 3));
  colors[1] = 9;
  EXPECT_FALSE(is_proper_edge_coloring(g, colors, 3));  // out of range
}

TEST(EdgeColoring, SelfLoopUnsatisfiable) {
  GraphBuilder b;
  b.add_node();
  b.add_edge(0, 0);
  const Graph g = std::move(b).build();
  EdgeMap<int> colors(g, 1);
  EXPECT_FALSE(is_proper_edge_coloring(g, colors, 5));
}

TEST(EdgeColoring, EmptyAndEdgelessGraphs) {
  {
    const Graph g = GraphBuilder().build();
    const auto res = edge_color_log_star(g, IdMap(g, 0), 1);
    EXPECT_EQ(res.rounds, 0);
  }
  {
    GraphBuilder b;
    b.add_nodes(4);
    const Graph g = std::move(b).build();
    const auto res = edge_color_log_star(g, sequential_ids(g), 4);
    EXPECT_EQ(res.rounds, 0);
    EXPECT_TRUE(is_proper_edge_coloring(g, res.colors, 1));
  }
}

// ---- weak 2-coloring ----------------------------------------------------------

class WeakColorTest : public ::testing::TestWithParam<EcCase> {};

TEST_P(WeakColorTest, ProducesWeak2Coloring) {
  const auto& c = GetParam();
  const Graph g = c.make(c.n, 29);
  for (const std::uint64_t seed : {4ull, 5ull, 6ull}) {
    const IdMap ids = shuffled_ids(g, seed);
    const auto res = weak_2color(g, ids, g.num_nodes());
    EXPECT_TRUE(is_weak_2coloring(g, res.colors))
        << c.name << " seed=" << seed << " sinks=" << res.sinks
        << " repaired=" << res.repaired;
  }
}

TEST_P(WeakColorTest, NeLclCheckerAgrees) {
  const auto& c = GetParam();
  const Graph g = c.make(c.n, 30);
  const IdMap ids = shuffled_ids(g, 7);
  const auto res = weak_2color(g, ids, g.num_nodes());
  const WeakColoring lcl;
  const NeLabeling input(g);
  EXPECT_TRUE(check_ne_lcl(g, lcl, input,
                           weak_coloring_to_labeling(g, res.colors))
                  .ok)
      << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, WeakColorTest,
    ::testing::Values(EcCase{"cycle", ec_cycle, 48},
                      EcCase{"path", ec_path, 33},
                      EcCase{"cubic", ec_cubic, 64},
                      EcCase{"deg5", ec_deg5, 60},
                      EcCase{"torus", ec_torus, 48}),
    [](const auto& info) { return info.param.name; });

TEST(WeakColoring, OddCycleNeedsNoRepairButStaysValid) {
  const Graph g = build::cycle(9);
  const auto res = weak_2color(g, sequential_ids(g), 9);
  EXPECT_TRUE(is_weak_2coloring(g, res.colors));
}

TEST(WeakColoring, ValidatorRejectsMonochromaticEdgeComponent) {
  const Graph g = build::path(2);
  NodeMap<int> colors(g, 1);
  EXPECT_FALSE(is_weak_2coloring(g, colors));
  colors[1] = 2;
  EXPECT_TRUE(is_weak_2coloring(g, colors));
}

TEST(WeakColoring, IsolatedNodesExempt) {
  GraphBuilder b;
  b.add_nodes(3);
  b.add_edge(1, 2);
  const Graph g = std::move(b).build();
  NodeMap<int> colors(g, 1);
  colors[2] = 2;
  EXPECT_TRUE(is_weak_2coloring(g, colors));
}

TEST(WeakColoring, LoopOnlyNodesExemptInChecker) {
  GraphBuilder b;
  b.add_nodes(2);
  b.add_edge(0, 0);  // loop-only node
  const Graph g = std::move(b).build();
  NodeMap<int> colors(g, 1);
  EXPECT_TRUE(is_weak_2coloring(g, colors));
  // And the ne-LCL accepts the all-loops exemption.
  const WeakColoring lcl;
  const NeLabeling input(g);
  EXPECT_TRUE(check_ne_lcl(g, lcl, input,
                           weak_coloring_to_labeling(g, colors))
                  .ok);
}

TEST(WeakColoring, NeCheckerRejectsFalseWitnessClaims) {
  const Graph g = build::path(2);
  NodeMap<int> colors(g, 1);
  colors[1] = 2;
  NeLabeling out = weak_coloring_to_labeling(g, colors);
  // Lie about the far color on one half: C_E must reject.
  out.half[HalfEdge{0, 0}] = 1;  // claims far end (node 1, color 2) is 1
  const WeakColoring lcl;
  const NeLabeling input(g);
  EXPECT_FALSE(check_ne_lcl(g, lcl, input, out).ok);
}

TEST(WeakColoring, StressRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const Graph g =
        build::random_bounded_degree_simple(40 + seed, 4, 0.5 + 0.01 * seed, seed);
    const IdMap ids = shuffled_ids(g, seed * 31);
    const auto res = weak_2color(g, ids, g.num_nodes());
    EXPECT_TRUE(is_weak_2coloring(g, res.colors)) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace padlock

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/labels.hpp"
#include "support/rng.hpp"

namespace padlock {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g = GraphBuilder().build();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0);
}

TEST(Graph, SingleEdge) {
  GraphBuilder b;
  const NodeId u = b.add_node();
  const NodeId v = b.add_node();
  const EdgeId e = b.add_edge(u, v);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(u), 1);
  EXPECT_EQ(g.degree(v), 1);
  EXPECT_EQ(g.endpoint(e, 0), u);
  EXPECT_EQ(g.endpoint(e, 1), v);
  EXPECT_EQ(g.neighbor(u, 0), v);
  EXPECT_EQ(g.neighbor(v, 0), u);
  EXPECT_FALSE(g.is_self_loop(e));
}

TEST(Graph, PortOrderFollowsInsertion) {
  GraphBuilder b;
  b.add_nodes(4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.degree(0), 3);
  EXPECT_EQ(g.neighbor(0, 0), 1u);
  EXPECT_EQ(g.neighbor(0, 1), 2u);
  EXPECT_EQ(g.neighbor(0, 2), 3u);
}

TEST(Graph, SelfLoopUsesTwoPorts) {
  GraphBuilder b;
  const NodeId v = b.add_node();
  const EdgeId e = b.add_edge(v, v);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.degree(v), 2);
  EXPECT_TRUE(g.is_self_loop(e));
  EXPECT_EQ(g.neighbor(v, 0), v);
  EXPECT_EQ(g.neighbor(v, 1), v);
  EXPECT_EQ(g.port_of(HalfEdge{e, 0}), 0);
  EXPECT_EQ(g.port_of(HalfEdge{e, 1}), 1);
}

TEST(Graph, ParallelEdgesDistinct) {
  GraphBuilder b;
  b.add_nodes(2);
  const EdgeId e1 = b.add_edge(0, 1);
  const EdgeId e2 = b.add_edge(0, 1);
  Graph g = std::move(b).build();
  EXPECT_NE(e1, e2);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.incidence(0, 0).edge, e1);
  EXPECT_EQ(g.incidence(0, 1).edge, e2);
}

TEST(Graph, PortOfRoundTrips) {
  GraphBuilder b;
  b.add_nodes(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  Graph g = std::move(b).build();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (int p = 0; p < g.degree(v); ++p) {
      const HalfEdge h = g.incidence(v, p);
      EXPECT_EQ(g.node_at(h), v);
      EXPECT_EQ(g.port_of(h), p);
    }
  }
}

TEST(Graph, OppositeHalf) {
  const HalfEdge h{5, 0};
  EXPECT_EQ(Graph::opposite(h).side, 1);
  EXPECT_EQ(Graph::opposite(h).edge, 5u);
  EXPECT_EQ(Graph::opposite(Graph::opposite(h)), h);
}

TEST(Graph, MaxDegree) {
  GraphBuilder b;
  b.add_nodes(5);
  for (NodeId v = 1; v < 5; ++v) b.add_edge(0, v);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.max_degree(), 4);
}

TEST(Graph, IncidentListsAllHalfEdges) {
  GraphBuilder b;
  b.add_nodes(2);
  b.add_edge(0, 1);
  b.add_edge(0, 0);
  Graph g = std::move(b).build();
  const PortRange inc = g.incident(0);
  EXPECT_EQ(inc.size(), 3u);
  EXPECT_FALSE(inc.empty());
  // The view is the CSR slab itself, in port order: iteration, indexing,
  // and incidence() must agree.
  int port = 0;
  for (const HalfEdge h : inc) {
    EXPECT_EQ(h, g.incidence(0, port));
    EXPECT_EQ(h, inc[static_cast<std::size_t>(port)]);
    ++port;
  }
  EXPECT_EQ(port, g.degree(0));
  EXPECT_TRUE(g.incident(1).size() == 1 && g.incident(1)[0].side == 1);
}

// ---- CSR identity against a per-node-vector reference builder -------------

// The port-order contract written the obvious way: one port vector per
// node, appended in edge-insertion order. The oracle for GraphBuilder's
// counting-sort assembly.
struct ReferenceCsr {
  std::vector<std::vector<HalfEdge>> node_ports;
  std::vector<std::pair<NodeId, NodeId>> endpoints;

  explicit ReferenceCsr(std::size_t n) : node_ports(n) {}
  void add_edge(NodeId u, NodeId v) {
    const auto e = static_cast<EdgeId>(endpoints.size());
    endpoints.emplace_back(u, v);
    node_ports[u].push_back(HalfEdge{e, 0});
    node_ports[v].push_back(HalfEdge{e, 1});
  }
  [[nodiscard]] int port_of(HalfEdge h) const {
    const auto [u, v] = endpoints[h.edge];
    const auto& ports = node_ports[h.side == 0 ? u : v];
    for (std::size_t p = 0; p < ports.size(); ++p)
      if (ports[p] == h) return static_cast<int>(p);
    return -1;
  }
};

// Builds the same edge list through GraphBuilder and the reference, then
// checks ports, side_port (port_of) and peer_port slot by slot.
void expect_csr_matches_reference(
    std::size_t n, const std::vector<std::pair<NodeId, NodeId>>& edges) {
  GraphBuilder b;
  b.add_nodes(n);
  ReferenceCsr ref(n);
  for (const auto& [u, v] : edges) {
    b.add_edge(u, v);
    ref.add_edge(u, v);
  }
  const Graph g = std::move(b).build();
  ASSERT_EQ(g.num_nodes(), n);
  ASSERT_EQ(g.num_edges(), edges.size());
  int max_degree = 0;
  std::size_t slot = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto& want = ref.node_ports[v];
    max_degree = std::max(max_degree, static_cast<int>(want.size()));
    ASSERT_EQ(g.port_offset(v), slot) << "node " << v;
    ASSERT_EQ(g.incident(v).size(), want.size()) << "node " << v;
    for (std::size_t p = 0; p < want.size(); ++p, ++slot) {
      const HalfEdge h = want[p];
      EXPECT_EQ(g.incident(v)[p], h) << "node " << v << " port " << p;
      const HalfEdge o = Graph::opposite(h);
      const auto [a, c] = ref.endpoints[o.edge];
      const std::size_t peer =
          g.port_offset(o.side == 0 ? a : c) +
          static_cast<std::size_t>(ref.port_of(o));
      EXPECT_EQ(g.peer_port()[slot], peer) << "slot " << slot;
    }
  }
  EXPECT_EQ(slot, 2 * edges.size());
  EXPECT_EQ(g.max_degree(), max_degree);
  for (EdgeId e = 0; e < edges.size(); ++e) {
    EXPECT_EQ(g.endpoints(e), edges[e]);
    EXPECT_EQ(g.port_of(HalfEdge{e, 0}), ref.port_of(HalfEdge{e, 0}));
    EXPECT_EQ(g.port_of(HalfEdge{e, 1}), ref.port_of(HalfEdge{e, 1}));
  }
}

TEST(GraphCsr, EmptyGraphMatchesReference) {
  expect_csr_matches_reference(0, {});
}

TEST(GraphCsr, IsolatedNodesMatchReference) {
  expect_csr_matches_reference(5, {});
  expect_csr_matches_reference(6, {{1, 4}});  // 0, 2, 3, 5 isolated
}

TEST(GraphCsr, SelfLoopsMatchReference) {
  expect_csr_matches_reference(3, {{0, 0}, {0, 1}, {1, 1}, {0, 0}, {2, 2}});
}

TEST(GraphCsr, ParallelEdgesMatchReference) {
  expect_csr_matches_reference(3, {{0, 1}, {1, 0}, {0, 1}, {1, 2}, {2, 1}});
}

TEST(GraphCsr, RandomMultigraphsMatchReference) {
  Rng rng(2024);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 1 + rng.below(40);
    const std::size_t m = rng.below(4 * n);
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (std::size_t i = 0; i < m; ++i) {
      // Small n and many edges: self-loops and parallel edges are common.
      edges.emplace_back(static_cast<NodeId>(rng.below(n)),
                         static_cast<NodeId>(rng.below(n)));
    }
    expect_csr_matches_reference(n, edges);
  }
}

TEST(Labels, NodeMapIndexing) {
  GraphBuilder b;
  b.add_nodes(3);
  Graph g = std::move(b).build();
  NodeMap<int> m(g, 7);
  EXPECT_EQ(m[2], 7);
  m[2] = 9;
  EXPECT_EQ(m[2], 9);
  EXPECT_EQ(m.size(), 3u);
}

TEST(Labels, HalfEdgeMapDistinguishesSides) {
  GraphBuilder b;
  b.add_nodes(2);
  const EdgeId e = b.add_edge(0, 1);
  Graph g = std::move(b).build();
  HalfEdgeMap<int> m(g, 0);
  (m[HalfEdge{e, 0}]) = 1;
  (m[HalfEdge{e, 1}]) = 2;
  EXPECT_EQ((m[HalfEdge{e, 0}]), 1);
  EXPECT_EQ((m[HalfEdge{e, 1}]), 2);
}

TEST(Labels, EqualityComparison) {
  GraphBuilder b;
  b.add_nodes(2);
  Graph g = std::move(b).build();
  NodeMap<int> a(g, 0), c(g, 0);
  EXPECT_EQ(a, c);
  c[0] = 1;
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace padlock

#include "graph/power_graph.hpp"

#include <vector>

#include "support/check.hpp"

namespace padlock {

PowerGraph power_graph(const Graph& g, int k) {
  PADLOCK_REQUIRE(k >= 1);
  const std::size_t n = g.num_nodes();
  GraphBuilder b(n);
  b.add_nodes(n);

  // Truncated BFS to depth k from every node; add each pair once (u < v).
  // `touched` doubles as the FIFO queue: it holds the visited nodes in
  // discovery order, and `head` walks it.
  std::vector<int> dist(n, -1);
  std::vector<NodeId> touched;
  for (NodeId u = 0; u < n; ++u) {
    dist[u] = 0;
    touched.assign(1, u);
    for (std::size_t head = 0; head < touched.size(); ++head) {
      const NodeId x = touched[head];
      if (dist[x] == k) continue;
      for (const HalfEdge h : g.incident(x)) {
        const NodeId y = g.node_across(h);
        if (dist[y] != -1) continue;
        dist[y] = dist[x] + 1;
        touched.push_back(y);
      }
    }
    for (const NodeId v : touched) {
      if (v > u) b.add_edge(u, v);
      dist[v] = -1;
    }
  }
  return PowerGraph{std::move(b).build(), k};
}

}  // namespace padlock

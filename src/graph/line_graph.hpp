// Line graph construction: L(G) has one node per edge of G, with an edge
// between two L(G)-nodes whenever the corresponding G-edges share an
// endpoint. Used to run node algorithms on edge problems (edge coloring =
// node coloring of the line graph; Δ(L(G)) <= 2Δ(G) - 2 for loop-free G).
//
// Parallel edges of G become distinct adjacent nodes of L(G). Self-loops
// are rejected: a self-loop is incident to itself, so edge problems on it
// have no sensible line-graph image (and no proper edge coloring exists).
#pragma once

#include "graph/graph.hpp"
#include "graph/labels.hpp"

namespace padlock {

struct LineGraph {
  Graph graph;  // node i of `graph` = edge i of the original graph
  /// For each L(G)-edge, the shared endpoint in G that induced it.
  EdgeMap<NodeId> shared_endpoint;
};

/// Builds L(G). Requires a loop-free G. Two G-edges sharing *both*
/// endpoints (parallel edges) induce a single L(G)-edge per shared
/// endpoint, i.e. a parallel pair in L(G) — kept, since the substrate
/// allows multigraphs.
LineGraph line_graph(const Graph& g);

/// Ids for L(G)-nodes derived from g's ids: edge e = {u,v} gets
/// min(id_u, id_v) * (Δ+1) + port of e at that endpoint + 1 — distinct,
/// and polynomial in the original id space. (Returns the NodeMap shape of
/// an IdMap; this header stays below local/ in the layering.) Throws
/// ContractViolation when a derived id does not fit 64 bits.
NodeMap<std::uint64_t> line_graph_ids(const Graph& g,
                                      const NodeMap<std::uint64_t>& ids);

/// The id space the derived ids live in (for Linial schedules):
/// id_space·(Δ+1) + Δ + 1. Throws ContractViolation when that does not fit
/// 64 bits (sparse_id_space(n) at Δ = 3 from n = 2^21 on).
std::uint64_t line_graph_id_space(std::uint64_t id_space, int max_degree);

}  // namespace padlock

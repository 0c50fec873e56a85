// Unique identifier assignments.
//
// In the LOCAL model nodes carry unique ids from {1, …, poly(n)} (§1 of the
// paper). Different assignment strategies matter: deterministic algorithms
// must work for *every* assignment, so tests exercise several.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "graph/labels.hpp"

namespace padlock {

using IdMap = NodeMap<std::uint64_t>;

/// ids 1..n in node order.
IdMap sequential_ids(const Graph& g);

/// A random permutation of 1..n.
IdMap shuffled_ids(const Graph& g, std::uint64_t seed);

/// n^3, saturating at 2^64 - 1 instead of wrapping (n^3 overflows 64 bits
/// from n = 2,642,246 on): the sparse id space of n nodes.
std::uint64_t sparse_id_space(std::uint64_t n);

/// n distinct ids sampled from {1..max(sparse_id_space(n), 8)} (sparse id
/// space, the general case).
IdMap sparse_ids(const Graph& g, std::uint64_t seed);

/// ids ordered adversarially along a BFS from node 0 (descending with
/// distance), which maximizes the pain for greedy symmetry breaking.
IdMap bfs_adversarial_ids(const Graph& g);

/// True iff there is one id per node and all ids are distinct and >= 1.
/// O(n) and hash-free: a bitmap over {1..max id} when max id <= 8n, else
/// an LSD radix sort of a copy (at most six passes) and a scan for equal
/// neighbours.
bool ids_valid(const Graph& g, const IdMap& ids);

}  // namespace padlock

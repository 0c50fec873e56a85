#include "local/ids.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <unordered_set>
#include <vector>

#include "graph/metrics.hpp"
#include "support/rng.hpp"

namespace padlock {

IdMap sequential_ids(const Graph& g) {
  IdMap ids(g, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) ids[v] = v + 1;
  return ids;
}

IdMap shuffled_ids(const Graph& g, std::uint64_t seed) {
  std::vector<std::uint64_t> pool(g.num_nodes());
  for (std::size_t i = 0; i < pool.size(); ++i) pool[i] = i + 1;
  Rng rng(seed);
  for (std::size_t i = pool.size(); i > 1; --i)
    std::swap(pool[i - 1], pool[rng.below(i)]);
  IdMap ids(g, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) ids[v] = pool[v];
  return ids;
}

std::uint64_t sparse_id_space(std::uint64_t n) {
  std::uint64_t square = 0;
  std::uint64_t cube = 0;
  if (__builtin_mul_overflow(n, n, &square) ||
      __builtin_mul_overflow(square, n, &cube)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return cube;
}

IdMap sparse_ids(const Graph& g, std::uint64_t seed) {
  const auto n = g.num_nodes();
  const std::uint64_t space =
      std::max<std::uint64_t>(sparse_id_space(n), 8);
  Rng rng(seed);
  std::unordered_set<std::uint64_t> used;
  IdMap ids(g, 0);
  for (NodeId v = 0; v < n; ++v) {
    std::uint64_t id = 0;
    do {
      id = 1 + rng.below(space);
    } while (!used.insert(id).second);
    ids[v] = id;
  }
  return ids;
}

IdMap bfs_adversarial_ids(const Graph& g) {
  IdMap ids(g, 0);
  if (g.num_nodes() == 0) return ids;
  const auto dist = bfs_distances(g, NodeId{0});
  std::vector<NodeId> order(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return dist[a] < dist[b];
  });
  // Nearest nodes get the largest ids.
  std::uint64_t next = g.num_nodes();
  for (NodeId v : order) ids[v] = next--;
  return ids;
}

namespace {

/// Sorts `keys` ascending by LSD radix sort on 11-bit digits, running only
/// the passes that `max_key`'s bit length needs (at most six).
void radix_sort(std::vector<std::uint64_t>& keys, std::uint64_t max_key) {
  constexpr int kBits = 11;
  constexpr std::uint64_t kMask = (std::uint64_t{1} << kBits) - 1;
  std::vector<std::uint64_t> tmp(keys.size());
  for (int shift = 0; shift < 64 && (max_key >> shift) != 0; shift += kBits) {
    std::array<std::size_t, kMask + 2> start{};
    for (const std::uint64_t k : keys) ++start[((k >> shift) & kMask) + 1];
    for (std::size_t b = 0; b <= kMask; ++b) start[b + 1] += start[b];
    for (const std::uint64_t k : keys) tmp[start[(k >> shift) & kMask]++] = k;
    keys.swap(tmp);
  }
}

}  // namespace

bool ids_valid(const Graph& g, const IdMap& ids) {
  const std::size_t n = g.num_nodes();
  if (ids.size() != n) return false;
  std::uint64_t max_id = 0;
  for (const std::uint64_t id : ids) {
    if (id < 1) return false;
    max_id = std::max(max_id, id);
  }
  if (max_id <= 8 * static_cast<std::uint64_t>(n)) {
    // Dense id space: one bit per possible id.
    std::vector<std::uint64_t> seen(max_id / 64 + 1, 0);
    for (const std::uint64_t id : ids) {
      const std::uint64_t bit = std::uint64_t{1} << (id % 64);
      std::uint64_t& word = seen[id / 64];
      if ((word & bit) != 0) return false;
      word |= bit;
    }
    return true;
  }
  // Sparse id space: a sorted copy holds any duplicate next to its twin.
  std::vector<std::uint64_t> sorted(ids.begin(), ids.end());
  radix_sort(sorted, max_id);
  return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
}

}  // namespace padlock

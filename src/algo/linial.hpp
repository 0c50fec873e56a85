// Linial's color reduction — O(log* n) rounds to an O(Δ² log Δ)-coloring
// on general bounded-degree graphs (Linial 1992), followed by the standard
// schedule-by-class reduction to Δ+1 colors.
//
// One Linial step: colors in {0..K-1} are encoded as degree-k polynomials
// over a prime field F_q (K <= q^{k+1}); after exchanging colors with its
// neighbors, a node picks an evaluation point x where its polynomial
// differs from every neighbor's polynomial — possible whenever q > k·Δ,
// because two distinct degree-k polynomials agree on at most k points.
// The new color (x, p(x)) lives in a palette of q² values; iterating
// shrinks K roughly logarithmically per round until the fixpoint
// O(Δ² log² Δ) is reached, after which greedy class scheduling finishes.
//
// This is the general-graph Θ(log* n) landscape point of Figure 1 (cycles
// use Cole–Vishkin instead).
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "graph/labels.hpp"
#include "local/ids.hpp"

namespace padlock {

struct LinialResult {
  NodeMap<int> colors;   // 1..Δ+1
  int linial_rounds = 0;     // polynomial reduction rounds
  int reduction_rounds = 0;  // final class-scheduling rounds
  [[nodiscard]] int total_rounds() const {
    return linial_rounds + reduction_rounds;
  }
};

/// Parameters of one reduction step from K colors at maximum degree Δ:
/// polynomial degree k (<= 12) and prime field size q, with q^{k+1} >= K and
/// q > k·Δ.
struct LinialStep {
  std::uint64_t q = 0;
  int k = 0;
};
LinialStep linial_step_params(std::uint64_t K, int max_degree);

/// Size of the palette one Linial step produces from K colors at maximum
/// degree Δ (q², for the smallest suitable prime q).
std::uint64_t linial_step_palette(std::uint64_t K, int max_degree);

/// (Δ+1)-colors g: Linial reduction from the id space, then greedy class
/// scheduling. Requires a loop-free graph; parallel edges are fine.
LinialResult linial_color(const Graph& g, const IdMap& ids,
                          std::uint64_t id_space);

class AlgorithmRegistry;

/// Registers coloring/linial behind the unified runner API (core/runner.hpp).
void register_linial_algos(AlgorithmRegistry& registry);

}  // namespace padlock

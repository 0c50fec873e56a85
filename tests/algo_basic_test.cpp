#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "algo/cole_vishkin.hpp"
#include "algo/color_reduce.hpp"
#include "algo/decomposition.hpp"
#include "algo/linial.hpp"
#include "algo/luby_mis.hpp"
#include "algo/matching.hpp"
#include "graph/builders.hpp"
#include "lcl/problems/coloring.hpp"
#include "lcl/problems/matching.hpp"
#include "lcl/problems/mis.hpp"
#include "local/engine_substrate.hpp"
#include "local/message_engine.hpp"
#include "support/divider.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace padlock {
namespace {

// ---- Cole–Vishkin ----------------------------------------------------------

class ColeVishkinTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ColeVishkinTest, ProducesProper3Coloring) {
  const std::size_t n = GetParam();
  Graph g = build::cycle(n);
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto ids = shuffled_ids(g, seed);
    const auto res = cole_vishkin_3color(g, ids, cycle_successor_ports(g), n);
    EXPECT_TRUE(is_proper_coloring(g, res.colors, 3)) << "n=" << n;
  }
}

TEST_P(ColeVishkinTest, SparseIdsAlsoWork) {
  const std::size_t n = GetParam();
  Graph g = build::cycle(n);
  const auto ids = sparse_ids(g, 9);
  const auto res =
      cole_vishkin_3color(g, ids, cycle_successor_ports(g), n * n * n);
  EXPECT_TRUE(is_proper_coloring(g, res.colors, 3));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ColeVishkinTest,
                         ::testing::Values(3, 4, 5, 8, 16, 33, 100, 1024));

TEST(ColeVishkin, RoundsAreLogStarLike) {
  // iterations(2^64-ish) is small and monotone-ish in id space.
  EXPECT_LE(cole_vishkin_iterations(1ull << 62), 6);
  EXPECT_GE(cole_vishkin_iterations(1ull << 62), 3);
  EXPECT_LE(cole_vishkin_iterations(100), 4);
  // Total rounds = iterations + 3 shift rounds.
  Graph g = build::cycle(64);
  const auto res =
      cole_vishkin_3color(g, sequential_ids(g), cycle_successor_ports(g), 64);
  EXPECT_EQ(res.rounds, cole_vishkin_iterations(64) + 3);
}

TEST(ColeVishkin, AdversarialIdsStillWork) {
  Graph g = build::cycle(128);
  const auto res = cole_vishkin_3color(g, bfs_adversarial_ids(g),
                                       cycle_successor_ports(g), 128);
  EXPECT_TRUE(is_proper_coloring(g, res.colors, 3));
}

// ---- Color reduction ---------------------------------------------------------

TEST(ColorReduce, CycleSixToThree) {
  Graph g = build::cycle(12);
  NodeMap<int> six(g, 0);
  for (NodeId v = 0; v < 12; ++v) six[v] = 1 + static_cast<int>(v % 6);
  ASSERT_TRUE(is_proper_coloring(g, six, 6));
  const auto res = reduce_to_degree_plus_one(g, six, 6);
  EXPECT_TRUE(is_proper_coloring(g, res.colors, 3));
  EXPECT_EQ(res.rounds, 6);
}

TEST(ColorReduce, TorusToFivePlusOne) {
  Graph g = build::torus(6, 8);
  int k = 0;
  const auto d2 = greedy_distance2_coloring(g, &k);
  ASSERT_TRUE(is_distance2_coloring(g, d2));
  const auto res = reduce_to_degree_plus_one(g, d2, k);
  EXPECT_TRUE(is_proper_coloring(g, res.colors, g.max_degree() + 1));
}

TEST(ColorReduce, Distance2ColoringBounds) {
  for (std::uint64_t seed : {1ull, 2ull}) {
    Graph g = build::random_regular_simple(60, 3, seed);
    int k = 0;
    const auto colors = greedy_distance2_coloring(g, &k);
    EXPECT_TRUE(is_distance2_coloring(g, colors));
    EXPECT_LE(k, 3 * 3 + 1);
  }
}

TEST(ColorReduce, Distance2RejectsTooClose) {
  Graph g = build::path(3);
  NodeMap<int> colors(g, 0);
  colors[0] = 1;
  colors[1] = 2;
  colors[2] = 1;  // distance 2 from node 0
  EXPECT_FALSE(is_distance2_coloring(g, colors));
}

// Greedy class-order reference of reduce_to_degree_plus_one: class c
// recolors in round c, each node to the smallest color no neighbor holds
// yet; the engine stops once the largest present class has acted.
ColorReduceResult reference_class_greedy(const Graph& g,
                                         const NodeMap<int>& colors,
                                         int num_colors) {
  ColorReduceResult ref{NodeMap<int>(g, 0), 0};
  for (int c = 1; c <= num_colors; ++c) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (colors[v] != c) continue;
      std::set<int> taken;
      for (int p = 0; p < g.degree(v); ++p)
        taken.insert(ref.colors[g.neighbor(v, p)]);
      int cand = 1;
      while (taken.contains(cand)) ++cand;
      ref.colors[v] = cand;
      ref.rounds = c;
    }
  }
  return ref;
}

Graph complete_graph(std::size_t n) {
  GraphBuilder b;
  b.add_nodes(n);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) b.add_edge(u, v);
  return std::move(b).build();
}

Graph dense_random_graph(std::size_t n, double p, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b;
  b.add_nodes(n);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v)
      if (rng.chance(p)) b.add_edge(u, v);
  return std::move(b).build();
}

/// A proper coloring with its classes scattered over 1..3·(#classes):
/// greedy in node order, then an injective random relabel, so the
/// reduction sees gaps and a class order unrelated to node order.
NodeMap<int> scattered_coloring(const Graph& g, std::uint64_t seed,
                                int* num_colors) {
  NodeMap<int> greedy(g, 0);
  int classes = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::set<int> taken;
    for (int p = 0; p < g.degree(v); ++p)
      taken.insert(greedy[g.neighbor(v, p)]);
    int cand = 1;
    while (taken.contains(cand)) ++cand;
    greedy[v] = cand;
    classes = std::max(classes, cand);
  }
  std::vector<int> label(3 * static_cast<std::size_t>(classes));
  std::iota(label.begin(), label.end(), 1);
  Rng rng(seed);
  std::shuffle(label.begin(), label.end(), rng);
  NodeMap<int> out(g, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    out[v] = label[static_cast<std::size_t>(greedy[v]) - 1];
  *num_colors = 3 * classes;
  return out;
}

TEST(ColorReduce, MatchesGreedyClassOrderReference) {
  // Δ + 2 bits per node's seen-color mask: K_63 fills one word exactly,
  // K_64 and G(200, 0.45) span two, K_140, the 130-leaf star and
  // G(400, 0.4) span three. The 4096-node cubic graph and G(3200, 0.045)
  // are large enough for the pooled phases at 4 threads.
  struct Instance {
    std::string label;
    Graph g;
  };
  std::vector<Instance> instances;
  instances.push_back({"K63", complete_graph(63)});
  instances.push_back({"K64", complete_graph(64)});
  instances.push_back({"K140", complete_graph(140)});
  {
    GraphBuilder b;
    b.add_nodes(131);
    for (NodeId leaf = 1; leaf <= 130; ++leaf) b.add_edge(0, leaf);
    instances.push_back({"star130", std::move(b).build()});
  }
  instances.push_back({"gnp200", dense_random_graph(200, 0.45, 5)});
  instances.push_back({"gnp400", dense_random_graph(400, 0.4, 6)});
  instances.push_back({"gnp3200", dense_random_graph(3200, 0.045, 7)});
  instances.push_back({"cubic4096", build::random_regular_simple(4096, 3, 8)});
  EXPECT_EQ(instances[0].g.max_degree() + 2, 64);
  EXPECT_GT(instances[5].g.max_degree() + 2, 128);
  EXPECT_GT(instances[6].g.max_degree() + 2, 128);

  const ExecContext saved = exec_context();
  for (const Instance& inst : instances) {
    int num_colors = 0;
    const NodeMap<int> input = scattered_coloring(inst.g, 11, &num_colors);
    const ColorReduceResult want =
        reference_class_greedy(inst.g, input, num_colors);
    const auto check = [&](const std::string& route) {
      SCOPED_TRACE(inst.label + " " + route);
      MessageEngineStats stats;
      const ColorReduceResult got =
          reduce_to_degree_plus_one(inst.g, input, num_colors, &stats);
      EXPECT_TRUE(got.colors == want.colors);
      EXPECT_EQ(got.rounds, want.rounds);
      return stats;
    };
    for (const int threads : {1, 4}) {
      exec_context().threads = threads;
      const std::string t = " threads=" + std::to_string(threads);
      {
        ScopedEngineShards shards(1);
        const MessageEngineStats stats = check("v3 inline" + t);
        if (threads == 4 && inst.g.num_nodes() >= 3200) {
          EXPECT_GT(stats.pooled_phases, 0);
        }
      }
      {
        ScopedEngineShards shards(7);
        ScopedSubstrate pinned(SubstrateKind::kPinned);
        check("v3 pinned x7" + t);
      }
      {
        ScopedEngineVersion v2(MessageEngineVersion::kV2);
        check("v2" + t);
      }
    }
  }
  exec_context() = saved;
}

// ---- Linial color reduction -----------------------------------------------------

class LinialTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LinialTest, ProperDeltaPlusOneColoring) {
  const std::size_t n = GetParam();
  for (std::uint64_t seed : {1ull, 2ull}) {
    Graph g = build::random_regular_simple(n, 3, seed);
    const auto ids = shuffled_ids(g, seed);
    const auto res = linial_color(g, ids, n);
    EXPECT_TRUE(is_proper_coloring(g, res.colors, g.max_degree() + 1));
    // Tiny id spaces start below the fixpoint palette and need no
    // polynomial rounds at all.
    if (n >= 64) {
      EXPECT_GT(res.linial_rounds, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LinialTest,
                         ::testing::Values(16, 64, 256, 1024));

TEST(Linial, SparseIdSpaceStillLogStar) {
  Graph g = build::random_regular_simple(256, 3, 3);
  const auto ids = sparse_ids(g, 3);
  const auto res = linial_color(g, ids, 256ull * 256 * 256);
  EXPECT_TRUE(is_proper_coloring(g, res.colors, 4));
  // log*-flavored: a cubed id space costs only a few extra rounds.
  EXPECT_LE(res.linial_rounds, 8);
}

TEST(Linial, WorksOnIrregularAndParallelEdges) {
  GraphBuilder b;
  b.add_nodes(6);
  b.add_edge(0, 1);
  b.add_edge(0, 1);  // parallel
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(5, 0);
  b.add_edge(2, 5);
  Graph g = std::move(b).build();
  const auto res = linial_color(g, sequential_ids(g), 6);
  EXPECT_TRUE(is_proper_coloring(g, res.colors, g.max_degree() + 1));
}

TEST(Linial, StepPaletteShrinksLargeSpaces) {
  EXPECT_LT(linial_step_palette(1ull << 40, 3), 1ull << 20);
  EXPECT_LT(linial_step_palette(10000, 3), 2000u);
  // Fixpoint: tiny palettes stop shrinking.
  const auto fp = linial_step_palette(49, 3);
  EXPECT_GE(fp, 49u);
}

// Reference parameter search: walk the primes up from k·Δ + 1, where
// linial_step_params starts at ceil(K^{1/(k+1)}). Feasible for moderate K
// only.
LinialStep reference_step_params(std::uint64_t K, int max_degree) {
  auto is_prime = [](std::uint64_t x) {
    if (x < 2) return false;
    for (std::uint64_t d = 2; d * d <= x; ++d)
      if (x % d == 0) return false;
    return true;
  };
  auto next_prime = [&](std::uint64_t x) {
    while (!is_prime(x)) ++x;
    return x;
  };
  LinialStep best;
  for (int k = 1; k <= 12; ++k) {
    std::uint64_t q = next_prime(static_cast<std::uint64_t>(k) *
                                     static_cast<std::uint64_t>(max_degree) +
                                 1);
    auto pow_ge = [&](std::uint64_t base) {
      std::uint64_t p = 1;
      for (int i = 0; i <= k; ++i) {
        if (p >= K) return true;
        if (base != 0 && p > K / base + 1) return true;
        p *= base;
      }
      return p >= K;
    };
    while (!pow_ge(q)) q = next_prime(q + 1);
    if (best.q == 0 || q * q < best.q * best.q) best = {q, k};
  }
  return best;
}

TEST(Linial, StepParamsMatchPrimeWalkFromKDelta) {
  std::vector<std::uint64_t> spaces;
  for (std::uint64_t K = 1; K <= 300; ++K) spaces.push_back(K);
  for (int i = 9; i <= 28; ++i) {
    spaces.push_back((std::uint64_t{1} << i) - 1);
    spaces.push_back(std::uint64_t{1} << i);
    spaces.push_back((std::uint64_t{1} << i) + 1);
  }
  for (const std::uint64_t K : spaces) {
    for (int delta = 1; delta <= 64; delta += (K > 300 ? 9 : 1)) {
      const LinialStep got = linial_step_params(K, delta);
      const LinialStep want = reference_step_params(K, delta);
      EXPECT_EQ(got.q, want.q) << "K=" << K << " delta=" << delta;
      EXPECT_EQ(got.k, want.k) << "K=" << K << " delta=" << delta;
    }
  }
}

TEST(Linial, ScheduleFromFullSpaceCarriesItsColors) {
  // From K = 2^64 - 1 the k = 1 field is q = 2^32 + 15, whose q² wraps
  // to about 1.3e11; from Δ ≈ 1.2e5 on, every k >= 2 field has a larger
  // q², so the wrapped k = 1 step would win. Every step's palette q² must
  // fit 64 bits, and q^{k+1} must cover the K colors the previous step
  // feeds in.
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  std::vector<int> degrees;
  for (int delta = 1; delta <= 64; ++delta) degrees.push_back(delta);
  degrees.insert(degrees.end(), {30000, 120000, 1 << 20});
  for (const int delta : degrees) {
    std::uint64_t K = kMax;
    for (int step = 0; step < 8 && linial_step_palette(K, delta) < K;
         ++step) {
      const LinialStep sp = linial_step_params(K, delta);
      std::uint64_t palette = 0;
      ASSERT_FALSE(__builtin_mul_overflow(sp.q, sp.q, &palette))
          << "K=" << K << " delta=" << delta << " q=" << sp.q;
      EXPECT_GT(sp.q, static_cast<std::uint64_t>(sp.k) *
                          static_cast<std::uint64_t>(delta));
      std::uint64_t cover = 1;
      bool saturated = false;
      for (int i = 0; i <= sp.k && !saturated; ++i)
        saturated = __builtin_mul_overflow(cover, sp.q, &cover);
      EXPECT_TRUE(saturated || cover >= K)
          << "K=" << K << " delta=" << delta << " q=" << sp.q;
      K = palette;
    }
  }
}

TEST(Linial, FullIdSpaceNearTopIsProper) {
  // Ids spread over the top of the 64-bit range, on a graph with Δ >= 31.
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  constexpr std::uint64_t kStride = (std::uint64_t{1} << 32) + 15;
  for (std::uint64_t seed : {1ull, 2ull}) {
    Graph g = build::random_regular_simple(64, 32, seed);
    ASSERT_GE(g.max_degree(), 31);
    const auto order = shuffled_ids(g, seed);
    IdMap ids(g, 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      ids[v] = kMax - (order[v] - 1) * kStride;
    const auto res = linial_color(g, ids, kMax);
    EXPECT_TRUE(is_proper_coloring(g, res.colors, g.max_degree() + 1));
  }
}

// Serial reference of linial_color: every step expands each polynomial
// in full with `/` and `%` and evaluates it term by term for every x, then
// the greedy class-order reduction finishes.
LinialResult reference_linial(const Graph& g, const IdMap& ids,
                              std::uint64_t id_space) {
  const int delta = std::max(1, g.max_degree());
  std::vector<std::uint64_t> color(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) color[v] = ids[v] - 1;
  std::uint64_t K = id_space;
  LinialResult ref;
  while (linial_step_palette(K, delta) < K) {
    const LinialStep sp = linial_step_params(K, delta);
    const std::uint64_t q = sp.q;
    const auto eval = [&](std::uint64_t c, std::uint64_t x) {
      std::uint64_t value = 0;
      std::uint64_t power = 1;  // x^i mod q
      for (int i = 0; i <= sp.k; ++i) {
        value = (value + (c % q) * power % q) % q;
        c /= q;
        power = power * x % q;
      }
      return value;
    };
    std::vector<std::uint64_t> next(color.size());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      std::uint64_t x = 0;
      for (;; ++x) {
        bool ok = true;
        for (int p = 0; p < g.degree(v) && ok; ++p) {
          const std::uint64_t theirs = color[g.neighbor(v, p)];
          ok = theirs == color[v] || eval(theirs, x) != eval(color[v], x);
        }
        if (ok) break;
      }
      EXPECT_LT(x, q);
      next[v] = x * q + eval(color[v], x);
    }
    color = std::move(next);
    K = q * q;
    ++ref.linial_rounds;
  }
  NodeMap<int> classes(g, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    classes[v] = static_cast<int>(color[v]) + 1;
  const ColorReduceResult reduced =
      reference_class_greedy(g, classes, static_cast<int>(K));
  ref.colors = reduced.colors;
  ref.reduction_rounds = reduced.rounds;
  return ref;
}

TEST(Linial, MatchesReferenceSimulation) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  constexpr std::uint64_t kStride = (std::uint64_t{1} << 32) + 15;
  struct Instance {
    std::string label;
    Graph g;
  };
  std::vector<Instance> instances;
  for (const int d : {1, 3, 9, 64}) {
    instances.push_back({"regular d=" + std::to_string(d),
                         build::family("regular", 160, d, 21)});
    // The multigraph family with its self-loops dropped: parallel edges
    // stay, and Linial needs a loop-free graph.
    const Graph multi = build::family("multigraph", 160, d, 22);
    GraphBuilder b;
    b.add_nodes(multi.num_nodes());
    for (EdgeId e = 0; e < multi.num_edges(); ++e) {
      const auto [u, v] = multi.endpoints(e);
      if (u != v) b.add_edge(u, v);
    }
    instances.push_back(
        {"multigraph d=" + std::to_string(d), std::move(b).build()});
  }
  instances.push_back({"torus", build::family("torus", 160, 4, 0)});

  for (const Instance& inst : instances) {
    const Graph& g = inst.g;
    const auto n = static_cast<std::uint64_t>(g.num_nodes());
    const IdMap dense = shuffled_ids(g, 3);
    IdMap top(g, 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      top[v] = kMax - (dense[v] - 1) * kStride;
    const std::vector<std::tuple<std::string, IdMap, std::uint64_t>> menu = {
        {"dense", dense, n},
        {"sparse", sparse_ids(g, 4), sparse_id_space(n)},
        {"top", top, kMax}};
    for (const auto& [ids_label, ids, space] : menu) {
      SCOPED_TRACE(inst.label + " ids=" + ids_label);
      const LinialResult got = linial_color(g, ids, space);
      const LinialResult want = reference_linial(g, ids, space);
      EXPECT_TRUE(got.colors == want.colors);
      EXPECT_EQ(got.linial_rounds, want.linial_rounds);
      EXPECT_EQ(got.reduction_rounds, want.reduction_rounds);
    }
  }
}

TEST(Linial, DividerMatchesHardwareDivisionOnEveryStepField) {
  // Every field size q the schedule of id space K at degree Δ visits, for
  // id spaces across 2..2^64-1 and Δ in 1..64.
  Rng rng(13);
  std::vector<std::uint64_t> spaces;
  for (std::uint64_t K = 2; K <= 100; ++K) spaces.push_back(K);
  for (int i = 7; i <= 63; ++i) {
    spaces.push_back((std::uint64_t{1} << i) - 1);
    spaces.push_back(std::uint64_t{1} << i);
    spaces.push_back((std::uint64_t{1} << i) + 1);
  }
  spaces.push_back(~std::uint64_t{0});
  for (int i = 0; i < 20; ++i) spaces.push_back(rng() | 2);
  std::set<std::uint64_t> fields;
  for (const std::uint64_t space : spaces) {
    for (int delta = 1; delta <= 64; ++delta) {
      std::uint64_t K = space;
      fields.insert(linial_step_params(K, delta).q);
      for (int step = 0; step < 8 && linial_step_palette(K, delta) < K;
           ++step) {
        const std::uint64_t q = linial_step_params(K, delta).q;
        fields.insert(q);
        K = q * q;
      }
    }
  }
  EXPECT_GT(fields.size(), 50u);
  // Plus divisors no schedule reaches: the extremes of the 64-bit range.
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  fields.insert({1, 2, 3, (std::uint64_t{1} << 32) + 15,
                 (std::uint64_t{1} << 61) - 1, kMax - 58, kMax});
  for (const std::uint64_t q : fields) {
    const Divider div(q);
    std::vector<std::uint64_t> nums = {0, q - 1, q, q + 1, 2 * q - 1,
                                       kMax, kMax - q, kMax - q + 1,
                                       (q - 1) * (q - 1)};
    for (int i = 0; i < 64; ++i) nums.push_back(rng());
    // Horner's operands acc·x + c stay below q^2 unless it wraps.
    const std::uint64_t square = q > 0xFFFFFFFFu ? kMax : q * q;
    for (int i = 0; i < 16; ++i) nums.push_back(rng.below(square));
    for (const std::uint64_t v : nums) {
      std::uint64_t rem = 0;
      ASSERT_EQ(div.divide(v, rem), v / q) << "q=" << q << " v=" << v;
      ASSERT_EQ(rem, v % q) << "q=" << q << " v=" << v;
      ASSERT_EQ(div.remainder(v), v % q);
    }
  }
}

// ---- Luby MIS -----------------------------------------------------------------

class LubyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LubyTest, ProducesValidMis) {
  const std::uint64_t seed = GetParam();
  for (std::size_t n : {10u, 50u, 200u}) {
    Graph g = build::random_regular_simple(n, 3, seed + n);
    const auto res = luby_mis(g, shuffled_ids(g, seed), seed);
    EXPECT_TRUE(is_mis(g, res.in_set)) << "n=" << n;
    EXPECT_GT(res.rounds, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LubyTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(Luby, WorksOnCyclesAndTori) {
  for (auto g : {build::cycle(17), build::torus(5, 7)}) {
    const auto res = luby_mis(g, sequential_ids(g), 42);
    EXPECT_TRUE(is_mis(g, res.in_set));
  }
}

TEST(Luby, RoundsGrowSlowly) {
  // O(log n) w.h.p.: a 4096-node instance should finish well under 30
  // engine rounds (each Luby iteration = 2 rounds).
  Graph g = build::random_regular_simple(4096, 3, 11);
  const auto res = luby_mis(g, shuffled_ids(g, 1), 7);
  EXPECT_TRUE(is_mis(g, res.in_set));
  EXPECT_LE(res.rounds, 40);
}

// ---- Matching ------------------------------------------------------------------

class MatchingTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatchingTest, RandomizedIsMaximal) {
  const std::uint64_t seed = GetParam();
  for (std::size_t n : {8u, 40u, 128u}) {
    Graph g = build::random_regular(n, 4, seed * 7 + n);  // with multigraph quirks
    const auto res = randomized_matching(g, shuffled_ids(g, seed), seed);
    EXPECT_TRUE(is_maximal_matching(g, res.in_match)) << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchingTest, ::testing::Values(1, 2, 3, 4));

TEST(Matching, FromColoringIsMaximal) {
  Graph g = build::cycle(30);
  NodeMap<int> colors(g, 0);
  for (NodeId v = 0; v < 30; ++v) colors[v] = 1 + static_cast<int>(v % 3);
  // fix the wrap-around: 29 and 0 both get distinct colors already (29%3=2)
  ASSERT_TRUE(is_proper_coloring(g, colors, 3));
  const auto res = matching_from_coloring(g, colors, 3);
  EXPECT_TRUE(is_maximal_matching(g, res.in_match));
}

TEST(Matching, FromColoringOnTorus) {
  Graph g = build::torus(4, 6);
  int k = 0;
  const auto d2 = greedy_distance2_coloring(g, &k);
  const auto res = matching_from_coloring(g, d2, k);
  EXPECT_TRUE(is_maximal_matching(g, res.in_match));
}

TEST(Matching, HandlesSelfLoopGraphs) {
  GraphBuilder b;
  b.add_nodes(3);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  Graph g = std::move(b).build();
  const auto res = randomized_matching(g, sequential_ids(g), 3);
  EXPECT_TRUE(is_maximal_matching(g, res.in_match));
}

// ---- Network decomposition -------------------------------------------------------

class DecompositionTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(DecompositionTest, ValidOnRandomRegular) {
  const auto [n, seed] = GetParam();
  Graph g = build::random_regular_simple(n, 3, seed);
  const auto d = network_decomposition(g, shuffled_ids(g, seed), seed);
  const int cap = 2 + static_cast<int>(std::bit_width(n - 1));
  EXPECT_TRUE(decomposition_valid(g, d, cap));
  EXPECT_GE(d.num_colors, 1);
  EXPECT_GT(d.rounds, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DecompositionTest,
    ::testing::Combine(::testing::Values(16, 64, 256),
                       ::testing::Values(1, 2, 3)));

TEST(Decomposition, ColorsStayLogarithmic) {
  Graph g = build::random_regular_simple(1024, 3, 5);
  const auto d = network_decomposition(g, shuffled_ids(g, 5), 5);
  // w.h.p. O(log n): generous bound 6*log2(n).
  EXPECT_LE(d.num_colors, 60);
}

TEST(Decomposition, HandlesDisconnectedAndIsolated) {
  GraphBuilder b;
  b.add_nodes(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  Graph g = std::move(b).build();
  const auto d = network_decomposition(g, sequential_ids(g), 1);
  EXPECT_TRUE(decomposition_valid(g, d, 10));
}

}  // namespace
}  // namespace padlock

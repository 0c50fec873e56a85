#include "algo/linial.hpp"

#include "core/registry.hpp"
#include "lcl/problems/coloring.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "algo/color_reduce.hpp"
#include "local/message_engine.hpp"
#include "support/check.hpp"
#include "support/divider.hpp"

namespace padlock {

namespace {

bool is_prime(std::uint64_t x) {
  if (x < 2) return false;
  for (std::uint64_t d = 2; d * d <= x; ++d)
    if (x % d == 0) return false;
  return true;
}

std::uint64_t next_prime(std::uint64_t x) {
  while (!is_prime(x)) ++x;
  return x;
}

/// Smallest r >= 1 with r^e >= K (exact, from a floating-point guess).
std::uint64_t ceil_root(std::uint64_t K, int e) {
  auto pow_lt_K = [&](std::uint64_t r) {
    std::uint64_t p = 1;
    for (int i = 0; i < e; ++i)
      if (__builtin_mul_overflow(p, r, &p)) return false;
    return p < K;
  };
  auto r = static_cast<std::uint64_t>(
      std::pow(static_cast<double>(K), 1.0 / static_cast<double>(e)));
  r = std::max<std::uint64_t>(r, 1);
  while (r > 1 && !pow_lt_K(r - 1)) --r;
  while (pow_lt_K(r)) ++r;
  return r;
}

}  // namespace

LinialStep linial_step_params(std::uint64_t K, int max_degree) {
  // Prefer the smallest k with a small field; k = 1 suffices once K is
  // small, larger K wants larger k so q stays near k·Δ.
  LinialStep best;
  for (int k = 1; k <= 12; ++k) {
    // Raise q until q^{k+1} >= K (q stays prime). No q below
    // ceil_root(K, k+1) can pass pow_ge, so the walk over primes starts
    // there; a sparse K (up to 2^64 - 1) would otherwise walk the
    // ~K^{1/2} / ln K primes below that bound at k = 1.
    std::uint64_t q = next_prime(std::max<std::uint64_t>(
        static_cast<std::uint64_t>(k) * static_cast<std::uint64_t>(max_degree) +
            1,
        ceil_root(K, k + 1)));
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
    // The step's palette is q²; a k whose q² overflows 64 bits (k = 1
    // for K near 2^64) cannot carry its colors. k = 2 fits for every K
    // below 2^64 while 2Δ + 1 < 2^31, since ceil(K^{1/3}) < 2^22.
    std::uint64_t palette = 0;
    if (__builtin_mul_overflow(q, q, &palette)) continue;
    if (best.q == 0 || palette < best.q * best.q) best = {q, k};
  }
  PADLOCK_ASSERT(best.q > 0);
  return best;
}

namespace {

/// linial_step_params caps k at 12, so coefficients fit a stack array.
constexpr int kMaxPolyDegree = 12;

/// One scheduled step: its parameters plus the divider reducing mod q.
struct ScheduledStep {
  int k = 0;
  Divider q;

  explicit ScheduledStep(const LinialStep& sp) : k(sp.k), q(sp.q) {}
};

/// Coefficients of color c as a base-q number (degree-k polynomial),
/// written to coeff[0..k].
void poly_of(std::uint64_t c, const ScheduledStep& st, std::uint64_t* coeff) {
  for (int i = 0; i <= st.k; ++i) c = st.q.divide(c, coeff[i]);
}

/// p(x) mod q by Horner's rule, reducing every step.
std::uint64_t eval_poly(const std::uint64_t* coeff, const ScheduledStep& st,
                        std::uint64_t x) {
  std::uint64_t acc = 0;
  for (int i = st.k; i >= 0; --i) acc = st.q.remainder(acc * x + coeff[i]);
  return acc;
}

/// Engine-v2 state machine of the iterated polynomial reduction: the step
/// schedule is a pure function of (id_space, Δ), so every node runs the
/// same precomputed round plan; each round exchanges current colors and
/// picks the smallest evaluation point separating mine from every
/// neighbor's polynomial.
struct LinialAlg {
  // The wire form is the identity: intermediate colors range over the full
  // id space, so the 8-byte word is already tight (MessageTraits default).
  using Message = std::uint64_t;  // current color
  static constexpr bool kUniformSend = true;  // broadcast each round

  const std::vector<ScheduledStep>& schedule;
  std::vector<std::uint64_t>& color;
  std::vector<std::uint8_t> left;  // per-node rounds remaining (log* n ≪ 255)

  LinialAlg(std::size_t n, const std::vector<ScheduledStep>& schedule_in,
            std::vector<std::uint64_t>& color_in)
      : schedule(schedule_in), color(color_in),
        left(n, static_cast<std::uint8_t>(schedule_in.size())) {}

  std::optional<Message> send(NodeId v, int /*port*/, int /*round*/) {
    return color[v];
  }

  template <class Inbox>
  void step(NodeId v, const Inbox& inbox, int round) {
    const ScheduledStep& st = schedule[static_cast<std::size_t>(round) - 1];
    const std::uint64_t q = st.q.divisor();
    // p(0) is the lowest base-q digit, c mod q: one remainder per color
    // decides whether x = 0 separates me from every neighbor, and then
    // the new color is (0, p(0)) with no polynomial expanded.
    const std::uint64_t mine_at_0 = st.q.remainder(color[v]);
    bool blocked_at_0 = false;
    for (int p = 0; p < inbox.size() && !blocked_at_0; ++p) {
      const auto m = inbox[p];
      // Equal colors on an edge cannot happen (proper invariant); the
      // guard keeps parallel-edge self-comparisons inert.
      if (!m || *m == color[v]) continue;
      blocked_at_0 = st.q.remainder(*m) == mine_at_0;
    }
    if (!blocked_at_0) {
      color[v] = mine_at_0;
      --left[v];
      return;
    }
    // Expand my polynomial and every neighbor's once per step, the
    // neighbors' into a flat buffer of stride k+1.
    std::array<std::uint64_t, kMaxPolyDegree + 1> mine;
    poly_of(color[v], st, mine.data());
    const auto stride = static_cast<std::size_t>(st.k) + 1;
    thread_local std::vector<std::uint64_t> theirs;
    if (theirs.size() < stride * static_cast<std::size_t>(inbox.size()))
      theirs.resize(stride * static_cast<std::size_t>(inbox.size()));
    std::size_t end = 0;
    for (int p = 0; p < inbox.size(); ++p) {
      const auto m = inbox[p];
      if (!m || *m == color[v]) continue;
      poly_of(*m, st, theirs.data() + end);
      end += stride;
    }
    // Pick the smallest evaluation point where my polynomial differs
    // from every neighbor's (x = 0 is blocked, see above); two distinct
    // degree-k polynomials agree on <= k points, so <= k·Δ < q points
    // are blocked in total.
    std::uint64_t chosen = q;  // sentinel
    std::uint64_t chosen_value = 0;
    for (std::uint64_t x = 1; x < q && chosen == q; ++x) {
      const std::uint64_t mine_at_x = eval_poly(mine.data(), st, x);
      bool ok = true;
      for (std::size_t t = 0; t < end && ok; t += stride)
        ok = eval_poly(theirs.data() + t, st, x) != mine_at_x;
      if (ok) {
        chosen = x;
        chosen_value = mine_at_x;
      }
    }
    PADLOCK_ASSERT(chosen < q);
    color[v] = chosen * q + chosen_value;
    --left[v];
  }

  bool done(NodeId v) const { return left[v] == 0; }
};

}  // namespace

std::uint64_t linial_step_palette(std::uint64_t K, int max_degree) {
  const LinialStep sp = linial_step_params(K, max_degree);
  return sp.q * sp.q;
}

LinialResult linial_color(const Graph& g, const IdMap& ids,
                          std::uint64_t id_space) {
  PADLOCK_REQUIRE(ids_valid(g, ids));
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    PADLOCK_REQUIRE(!g.is_self_loop(e));
  const int delta = std::max(1, g.max_degree());
  const auto n = g.num_nodes();

  std::vector<std::uint64_t> color(n);
  for (NodeId v = 0; v < n; ++v) {
    PADLOCK_REQUIRE(ids[v] >= 1 && ids[v] <= id_space);
    color[v] = ids[v] - 1;  // 0-based palette {0..id_space-1}
  }
  std::uint64_t K = id_space;

  LinialResult result;
  // Precompute the reduction schedule — a pure function of (id_space, Δ),
  // iterated while a step still shrinks the palette — then run it on the
  // message engine (one engine round per step, colors exchanged with
  // neighbors; the coloring stays proper throughout).
  std::vector<ScheduledStep> schedule;
  while (linial_step_palette(K, delta) < K) {
    const LinialStep sp = linial_step_params(K, delta);
    PADLOCK_ASSERT(sp.k <= kMaxPolyDegree);
    schedule.emplace_back(sp);
    K = sp.q * sp.q;
  }
  PADLOCK_ASSERT(schedule.size() <= 255);  // left is a byte counter
  LinialAlg alg(n, schedule, color);
  result.linial_rounds = run_message_rounds(
      g, alg, static_cast<std::int64_t>(schedule.size()) + 1);
  PADLOCK_ASSERT(result.linial_rounds ==
                 static_cast<int>(schedule.size()));

  // Final reduction: schedule the K classes greedily down to Δ+1.
  NodeMap<int> kcolors(g, 0);
  for (NodeId v = 0; v < n; ++v)
    kcolors[v] = static_cast<int>(color[v]) + 1;
  const auto reduced =
      reduce_to_degree_plus_one(g, kcolors, static_cast<int>(K));
  result.colors = reduced.colors;
  result.reduction_rounds = reduced.rounds;
  return result;
}


void register_linial_algos(AlgorithmRegistry& r) {
  r.register_algo({
      .name = "linial",
      .problem = "coloring",
      .determinism = Determinism::kDeterministic,
      .complexity = "Theta(log* n)",
      .requires_text = "loop-free graphs",
      .precondition = graph_loop_free,
      .solve =
          [](const RunContext& ctx) {
            const auto res = linial_color(ctx.graph, ctx.ids, ctx.id_space);
            AlgoResult out{
                .output = colors_to_labeling(ctx.graph, res.colors),
                .rounds = RoundReport::uniform(ctx.graph, res.total_rounds()),
                .stats = {}};
            out.stats.set("linial_rounds", res.linial_rounds);
            out.stats.set("reduction_rounds", res.reduction_rounds);
            return out;
          },
  });
}

}  // namespace padlock

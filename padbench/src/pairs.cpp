// pairs-2e14: one op is one checked run of one registered pair, timed as
// shuffled_ids -> ids_valid -> make_input -> solve -> check on a cached
// graph. A pass covers the ten linear-time pairs; passes alternate
// threads=1 and threads=2 (exec_context().threads, the default engine
// configuration otherwise), so host drift hits both alike.
#include <exception>

#include "common.hpp"
#include "core/registry.hpp"
#include "graph/builders.hpp"
#include "lcl/checker.hpp"
#include "local/ids.hpp"
#include "support/thread_pool.hpp"

namespace padbench {
namespace {

using namespace padlock;

struct PairCase {
  const char* problem;
  const char* algo;  // unique among the ten: the metric suffix
  bool det;
  bool on_cycle;     // cole-vishkin needs build::cycle's oriented ports
};

constexpr PairCase kPairs[] = {
    {"3-coloring", "cole-vishkin", true, true},
    {"coloring", "linial", true, false},
    {"dist2-coloring", "power-linial", true, false},
    {"edge-coloring", "line-graph-linial", true, false},
    {"matching", "color-greedy", true, false},
    {"ruling-set", "aglp-bit-split", true, false},
    {"weak-coloring", "pointer-parity", true, false},
    {"mis", "luby", false, false},
    {"matching", "propose-accept", false, false},
    {"sinkless-orientation", "propose-repair", false, false},
};

constexpr int kInstances = 2;

struct BoundPair {
  const PairCase* c;
  const ProblemSpec* problem;
  const AlgoSpec* algo;
  const Graph* g;
  std::uint64_t op_seed;  // ids and randomness, fixed for the run
};

struct PairOp {
  std::uint64_t total_ns = 0;
  std::string failure;  // empty = verified
  int rounds = 0;
  std::int64_t engine_bytes = 0;
};

PairOp run_pair(const BoundPair& b, Tracer& tr) {
  PairOp op;
  const Graph& g = *b.g;
  const std::uint64_t t0 = now_ns();
  IdMap ids;
  {
    Span s(tr, "ids.assign");
    ids = shuffled_ids(g, b.op_seed);
  }
  bool ids_ok = false;
  {
    Span s(tr, "ids.validate");
    ids_ok = ids_valid(g, ids);
  }
  NeLabeling input;
  {
    Span s(tr, "lcl.input");
    input = b.problem->make_input ? b.problem->make_input(g) : NeLabeling(g);
  }
  AlgoResult res;
  {
    Span s(tr, "solve");
    const RunContext ctx{.graph = g,
                         .ids = ids,
                         .id_space = g.num_nodes(),
                         .seed = b.op_seed,
                         .input = input};
    res = b.algo->solve(ctx);
  }
  CheckResult chk;
  {
    Span s(tr, "check");
    if (b.problem->check) {
      chk = b.problem->check(g, input, res.output, 16);
    } else {
      chk = check_ne_lcl(g, *b.problem->make_lcl(g), input, res.output, 16);
    }
  }
  op.total_ns = now_ns() - t0;
  op.rounds = res.rounds.rounds;
  op.engine_bytes = res.stats.get_or("engine_bytes_slab", 0) +
                    res.stats.get_or("engine_bytes_state", 0);
  if (!ids_ok) op.failure = "ids_valid rejected shuffled ids";
  if (!chk.ok)
    op.failure = "checker rejected the output (" +
                 std::to_string(chk.total_violations) + " violations)";
  return op;
}

}  // namespace

void run_pairs(const Options& opt, Report& rep) {
  const std::size_t n = opt.smoke ? std::size_t{1} << 10 : std::size_t{1} << 14;
  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();

  // The run's inputs: kInstances regular graphs (and one cycle) with their
  // own id and randomness seeds. Passes rotate over them, and a pair's cost
  // is the mean over instances of its fastest op, so one unlucky draw of
  // the seed moves the figure less.
  struct Inputs {
    std::vector<Graph> regular;
    Graph cycle;
  };
  SetupClock setup([&] {
    Inputs in;
    for (int k = 0; k < kInstances; ++k)
      in.regular.push_back(
          build::family("regular", n, 3, mix_seed(opt.seed, 1 + k)));
    in.cycle = build::family("cycle", n, 3, 0);
    return in;
  });
  const Inputs in = setup.run();

  // pairs[k][i]: pair i on instance k.
  std::vector<std::vector<BoundPair>> pairs(kInstances);
  for (int k = 0; k < kInstances; ++k) {
    std::uint64_t salt = 100 + 100 * static_cast<std::uint64_t>(k);
    for (const PairCase& c : kPairs) {
      BoundPair b{&c, &registry.problem(c.problem),
                  &registry.algo(c.problem, c.algo),
                  c.on_cycle ? &in.cycle : &in.regular[k],
                  mix_seed(opt.seed, ++salt)};
      if (b.algo->precondition && !b.algo->precondition(*b.g)) {
        rep.fatal(std::string("precondition of ") + c.algo +
                  " rejects its graph");
        return;
      }
      pairs[k].push_back(b);
    }
  }

  Tracer tr;
  Samples s;
  std::uint32_t op_id = 0;
  const auto one_op = [&](const BoundPair& b, int k) {
    tr.begin_op(++op_id);
    PairOp op;
    try {
      op = run_pair(b, tr);
    } catch (const std::exception& e) {
      op.failure = std::string("threw: ") + e.what();
    }
    const std::string algo = b.c->algo;
    if (op.failure.empty() &&
        (!rep.same_count("rounds." + algo, op.rounds, k) ||
         !rep.same_count("engine_bytes." + algo, op.engine_bytes, k))) {
      op.failure = "counts differ from the run's first op";
    }
    if (op.failure.empty()) {
      rep.op_ok();
    } else {
      rep.op_failed(algo + ": " + op.failure);
    }
    return op;
  };

  // Warm-up, untimed: one pass per instance at each thread count (pool
  // start-up, first touch of the graphs). It records every instance's
  // counts, so they do not depend on how far the timed passes get.
  for (const int threads : {1, 2}) {
    exec_context().threads = threads;
    for (int k = 0; k < kInstances; ++k) {
      for (const BoundPair& b : pairs[k]) one_op(b, k);
    }
  }

  // Passes alternate t1, t2; with tracing, pass pairs alternate untraced
  // and traced, so the overhead is measured under the same drift. Each
  // instance gets four consecutive passes (t1, t2, traced t1, traced t2).
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  bool done = false;
  for (int pass = 0; !done; ++pass) {
    const int threads = pass % 2 == 0 ? 1 : 2;
    const bool traced = opt.trace && (pass / 2) % 2 == 1;
    const int k = (pass / 4) % kInstances;
    const std::string tag = "#" + std::to_string(k);
    exec_context().threads = threads;
    tr.set_enabled(traced);
    double pass_total = 0;
    std::map<std::string, double> pass_layer;
    for (const BoundPair& b : pairs[k]) {
      if (now_ns() >= deadline) {
        done = true;
        break;
      }
      const PairOp op = one_op(b, k);
      if (!op.failure.empty()) continue;
      const std::string algo = b.c->algo;
      const double ms = to_ms(op.total_ns);
      const std::string mode = threads == 1 ? "t1." : "t2.";
      s.add((traced ? "traced." : "") + mode + algo + tag, ms);
      if (!traced) continue;
      const auto self = tr.op_self_ns();
      const auto self_ms = [&self](const char* name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : to_ms(it->second);
      };
      if (threads == 2) {
        s.add("solve_t2_ms." + algo + tag, self_ms("solve"));
        continue;
      }
      s.add("solve_ms." + algo + tag, self_ms("solve"));
      s.add("check_ms." + algo + tag, self_ms("check"));
      s.add("ids.assign_ms", self_ms("ids.assign"));
      s.add("ids.validate_ms", self_ms("ids.validate"));
      s.add("lcl.input_ms", self_ms("lcl.input"));
      pass_total += ms;
      pass_layer["ids"] += self_ms("ids.assign") + self_ms("ids.validate");
      pass_layer["input"] += self_ms("lcl.input");
      pass_layer["solve"] += self_ms("solve");
      pass_layer["check"] += self_ms("check");
    }
    if (!done && traced && threads == 1) {
      for (const auto& [layer, v] : pass_layer)
        s.add("share." + layer, v / pass_total);
    }
    s.add("host.ref_ms", host_ref_ms());
    setup.tick();
  }
  exec_context().threads = 1;
  rep.metric("setup_s", setup.median_s(), "s");

  // Sum over pairs of a per-pair figure; `which`: 0 all, 1 det, 2 rand.
  const auto sum_over = [&](const std::string& prefix, int which, bool best) {
    double sum = 0;
    for (const PairCase& c : kPairs) {
      if ((which == 1 && !c.det) || (which == 2 && c.det)) continue;
      double median_sum = 0;
      for (int k = 0; k < kInstances; ++k)
        median_sum += s.median_of(prefix + c.algo + "#" + std::to_string(k));
      sum += best ? s.pool_best(prefix + c.algo, kInstances)
                  : median_sum / kInstances;
    }
    return sum;
  };
  rep.metric("best_pass_ms", sum_over("t1.", 0, true), "ms");
  rep.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
  rep.metric("median_pass_ms", sum_over("t1.", 0, false), "ms");
  rep.metric("pairs.det_pass_ms", sum_over("t1.", 1, true), "ms");
  rep.metric("pairs.rand_pass_ms", sum_over("t1.", 2, true), "ms");
  rep.metric("pairs.pass_t2_ms", sum_over("t2.", 0, true), "ms");
  rep.metric("host.ref_ms", s.median_of("host.ref_ms"), "ms");
  rep.diag("ops_per_instance",
           std::to_string(s.of("t1.linial#0").size()));
  if (opt.trace) {
    for (const PairCase& c : kPairs) {
      const std::string algo = c.algo;
      for (const char* m : {"solve_ms.", "solve_t2_ms.", "check_ms."})
        rep.metric(m + algo, s.pool_best(m + algo, kInstances), "ms");
    }
    for (const char* m : {"ids.assign_ms", "ids.validate_ms", "lcl.input_ms"})
      rep.metric(m, s.best_of(m), "ms");
    for (const char* layer : {"ids", "input", "solve", "check"})
      rep.metric(std::string("share.") + layer,
                 s.median_of(std::string("share.") + layer), "frac");
    rep.metric("trace.overhead_frac",
               sum_over("traced.t1.", 0, true) / sum_over("t1.", 0, true) - 1.0,
               "frac");
  }
  finish_common(opt, rep, {&tr});
}

}  // namespace padbench

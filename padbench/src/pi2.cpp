// pi2-b128: one op is one checked Π₂ solve on a build_hierarchy(2, 128, …)
// instance: shuffled_ids -> solve_pi_prime (with a timed InnerSolver around
// the sinkless-orientation leaf) -> check_pi_prime. Ops alternate the
// deterministic and the randomized leaf.
#include <exception>

#include "algo/sinkless_det.hpp"
#include "algo/sinkless_rand.hpp"
#include "common.hpp"
#include "core/hierarchy.hpp"
#include "lcl/problems/sinkless_orientation.hpp"
#include "local/ids.hpp"

namespace padbench {
namespace {

using namespace padlock;

struct Pi2Op {
  std::uint64_t total_ns = 0;
  std::string failure;
  int rounds = 0;
  int inner_rounds = 0;
  int stretch = 0;
  std::int64_t virtual_nodes = 0;
};

Pi2Op run_pi2_once(const PaddedInstance& inst, std::size_t n, bool rand,
                   std::uint64_t op_seed, Tracer& tr) {
  Pi2Op op;
  bool leaf_sinkless = false;
  const InnerSolver inner = [&](const Graph& vg, const IdMap& vids,
                                const NeLabeling&,
                                std::size_t nk) -> InnerSolveResult {
    Span s(tr, "pi2.inner");
    InnerSolveResult r;
    Orientation tails(vg, 0);
    if (rand) {
      auto res = sinkless_orientation_rand(vg, vids, nk, op_seed);
      tails = std::move(res.tails);
      r.rounds = res.rounds;
    } else {
      auto res = sinkless_orientation_det(vg, vids, nk);
      tails = std::move(res.tails);
      r.rounds = res.report.rounds;
    }
    r.output = orientation_to_labeling(vg, tails);
    Span check(tr, "pi2.leaf_check");
    leaf_sinkless = is_sinkless(vg, tails);
    return r;
  };

  const std::uint64_t t0 = now_ns();
  IdMap ids;
  {
    Span s(tr, "ids.assign");
    ids = shuffled_ids(inst.graph, op_seed);
  }
  PiPrimeSolveResult res;
  {
    Span s(tr, "pi2.solve");
    res = solve_pi_prime(inst, inner, ids, n);
  }
  bool checked = false;
  {
    Span s(tr, "pi2.check");
    const SinklessOrientation pi;
    checked = check_pi_prime(inst, pi, res.output).ok;
  }
  op.total_ns = now_ns() - t0;
  op.rounds = res.report.rounds;
  op.inner_rounds = res.inner_rounds;
  op.stretch = res.stretch;
  op.virtual_nodes = static_cast<std::int64_t>(res.virtual_nodes);
  if (!leaf_sinkless) op.failure = "leaf orientation has a sink";
  if (!checked) op.failure = "check_pi_prime rejected the output";
  return op;
}

}  // namespace

void run_pi2(const Options& opt, Report& rep) {
  const std::size_t base = opt.smoke ? 16 : 128;
  // The build takes ~5 ms, so one short burst of host load moves a sparse
  // sample of it: repeat it every 0.2 s (~2% of the run).
  SetupClock setup(
      [&] { return build_hierarchy(2, base, mix_seed(opt.seed, 2)); }, 0.2);
  const Hierarchy h = setup.run();
  const PaddedInstance& inst = h.padded.back().instance;
  const std::size_t n = h.total_nodes();
  rep.diag("pi2_nodes", std::to_string(n));

  Tracer tr;
  Samples s;
  std::uint32_t op_id = 0;
  const std::uint64_t seeds[2] = {mix_seed(opt.seed, 3), mix_seed(opt.seed, 4)};
  const auto one_op = [&](bool rand) {
    const std::string kind = rand ? "rand" : "det";
    tr.begin_op(++op_id);
    Pi2Op op;
    try {
      op = run_pi2_once(inst, n, rand, seeds[rand ? 1 : 0], tr);
    } catch (const std::exception& e) {
      op.failure = std::string("threw: ") + e.what();
    }
    if (op.failure.empty() &&
        (!rep.same_count("pi2.rounds." + kind, op.rounds) ||
         !rep.same_count("pi2.inner_rounds." + kind, op.inner_rounds) ||
         !rep.same_count("pi2.stretch", op.stretch) ||
         !rep.same_count("pi2.virtual_nodes", op.virtual_nodes))) {
      op.failure = "counts differ from the run's first op";
    }
    if (!op.failure.empty()) {
      rep.op_failed(kind + ": " + op.failure);
      return op;
    }
    rep.op_ok();
    return op;
  };

  // Warm-up: one op of each kind, untimed.
  one_op(false);
  one_op(true);

  // Ops alternate det, rand; with tracing, det+rand pairs alternate
  // untraced and traced.
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  for (int i = 0; now_ns() < deadline; ++i) {
    const bool rand = i % 2 == 1;
    const bool traced = opt.trace && (i / 2) % 2 == 1;
    const std::string kind = rand ? "rand" : "det";
    tr.set_enabled(traced);
    const Pi2Op op = one_op(rand);
    if (op.failure.empty()) {
      s.add((traced ? "traced." : "") + kind, to_ms(op.total_ns));
      if (traced) {
        const auto self = tr.op_self_ns();
        const auto self_ms = [&self](const char* name) {
          const auto it = self.find(name);
          return it == self.end() ? 0.0 : to_ms(it->second);
        };
        s.add("pi2.lift_ms." + kind, self_ms("pi2.solve"));
        s.add("pi2.inner_ms." + kind, self_ms("pi2.inner"));
        s.add("pi2.check_ms." + kind, self_ms("pi2.check"));
        s.add("ids.assign_ms", self_ms("ids.assign"));
      }
    }
    if (rand) s.add("host.ref_ms", host_ref_ms());
    setup.tick();
  }
  rep.metric("setup_s", setup.median_s(), "s");

  const double det = s.best_of("det");
  const double rand = s.best_of("rand");
  rep.metric("best_pass_ms", det + rand, "ms");
  rep.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
  rep.metric("median_pass_ms", s.median_of("det") + s.median_of("rand"), "ms");
  rep.metric("pi2.det_ms", det, "ms");
  rep.metric("pi2.rand_ms", rand, "ms");
  rep.metric("pi2.build_ms", setup.median_s() * 1e3, "ms");
  rep.metric("host.ref_ms", s.median_of("host.ref_ms"), "ms");
  rep.diag("ops_det", std::to_string(s.of("det").size()));
  if (opt.trace) {
    for (const char* kind : {"det", "rand"}) {
      for (const char* m : {"pi2.lift_ms.", "pi2.inner_ms.", "pi2.check_ms."}) {
        const std::string name = std::string(m) + kind;
        rep.metric(name, s.best_of(name), "ms");
      }
    }
    rep.metric("ids.assign_ms", s.best_of("ids.assign_ms"), "ms");
    rep.metric("trace.overhead_frac",
               (s.best_of("traced.det") + s.best_of("traced.rand")) /
                       (det + rand) -
                   1.0,
               "frac");
  }
  finish_common(opt, rep, {&tr});
}

}  // namespace padbench

// ingest-2e14: one op is one fresh graph build (build::family) or one store
// op on the regular instance (store::write_pg, store::load_pg, SNAP-text
// store::load_graph_file). A pass runs every kind once, builds and store
// ops interleaved. Builds rotate over kInstances seeds per family: a
// builder's cost depends on its random draws (make_simple's repairs,
// high-girth retries), so a family's cost is the mean over instances of
// its fastest build.
#include <unistd.h>

#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>

#include "common.hpp"
#include "graph/builders.hpp"
#include "store/pg.hpp"

namespace padbench {
namespace {

using namespace padlock;

struct Kind {
  const char* name;    // family name, or the store op
  bool build;
  std::size_t nodes;   // builds only
};

constexpr int kInstances = 8;

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

EdgeList edges_of(const Graph& g) {
  EdgeList out(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) out[e] = g.endpoints(e);
  return out;
}

EdgeList canonical_edges(const Graph& g) {
  EdgeList out = edges_of(g);
  for (auto& [u, v] : out) {
    if (u > v) std::swap(u, v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Structural expectation of a family instance; empty = as expected.
std::string shape_failure(const std::string& family, std::size_t asked,
                          const Graph& g) {
  if (g.num_nodes() < asked) return "fewer nodes than asked";
  const auto all_degrees = [&g](int d) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (g.degree(v) != d) return false;
    }
    return true;
  };
  if (family == "regular" || family == "multigraph" || family == "high-girth")
    return all_degrees(3) ? "" : "not 3-regular";
  if (family == "torus") return all_degrees(4) ? "" : "not 4-regular";
  if (family == "bounded")
    return g.max_degree() <= 3 && g.num_edges() > 0 ? "" : "degree above 3";
  if (family == "tree")
    return g.num_edges() + 1 == g.num_nodes() ? "" : "not a tree";
  return "unknown family";
}

}  // namespace

void run_ingest(const Options& opt, Report& rep) {
  const std::size_t n = opt.smoke ? std::size_t{1} << 10 : std::size_t{1} << 14;
  // high-girth builds grow superlinearly (0.47 s at 2^14, 7.6 s at 2^16):
  // it runs at n/8.
  const std::size_t n_girth = n / 8;
  const std::vector<Kind> kinds = {
      {"regular", true, n},         {"write_pg", false, 0},
      {"bounded", true, n},         {"load_pg", false, 0},
      {"multigraph", true, n},      {"parse_text", false, 0},
      {"torus", true, n},           {"tree", true, n},
      {"high-girth", true, n_girth}};

  const std::string stem =
      opt.out_dir + "/ingest-" + std::to_string(::getpid());
  const std::string pg_path = stem + ".pg";
  const std::string txt_path = stem + ".txt";

  // Set-up: the reference instance the store ops work on, its SNAP text
  // file, and its .pg file.
  SetupClock setup([&] {
    Graph g = build::family("regular", n, 3, mix_seed(opt.seed, 5));
    std::string text = "# padbench regular instance\n";
    for (const auto& [u, v] : edges_of(g))
      text += std::to_string(u) + '\t' + std::to_string(v) + '\n';
    std::ofstream(txt_path, std::ios::binary) << text;
    store::write_pg(pg_path, g);
    return g;
  });
  const Graph ref = setup.run();
  const EdgeList ref_edges = edges_of(ref);
  const EdgeList ref_canonical = canonical_edges(ref);

  Tracer tr;
  Samples s;
  std::map<std::string, std::uint64_t> first_digest;
  std::uint32_t op_id = 0;

  // Runs one op; returns its time in ms, or a negative value on failure.
  const auto one_op = [&](const Kind& k, int inst) -> double {
    tr.begin_op(++op_id);
    std::string failure;
    std::uint64_t t = 0;
    try {
      if (k.build) {
        Graph g;
        const std::uint64_t t0 = now_ns();
        {
          Span sp(tr, "graph.build");
          g = build::family(k.name, k.nodes, 3,
                            mix_seed(opt.seed, 10 + inst));
        }
        t = now_ns() - t0;
        Span sp(tr, "verify");
        failure = shape_failure(k.name, k.nodes, g);
        const std::string key = k.name + ("#" + std::to_string(inst));
        const std::uint64_t digest = edge_digest(g);
        if (!first_digest.emplace(key, digest).second &&
            first_digest[key] != digest)
          failure = "rebuild is not bit-identical";
        if (!rep.same_count(std::string("graph.edges.") + k.name,
                            static_cast<std::int64_t>(g.num_edges()), inst))
          failure = "edge count differs from the run's first build";
      } else if (std::string(k.name) == "write_pg") {
        const std::uint64_t t0 = now_ns();
        {
          Span sp(tr, "store.write_pg");
          store::write_pg(pg_path, ref);
        }
        t = now_ns() - t0;
        const auto bytes = std::filesystem::file_size(pg_path);
        if (!rep.same_count("store.pg_bytes", static_cast<std::int64_t>(bytes)))
          failure = ".pg size differs from the run's first write";
      } else {
        const bool pg = std::string(k.name) == "load_pg";
        Graph g;
        const std::uint64_t t0 = now_ns();
        {
          Span sp(tr, pg ? "store.load_pg" : "store.parse_text");
          g = pg ? store::load_pg(pg_path) : store::load_graph_file(txt_path);
        }
        t = now_ns() - t0;
        Span sp(tr, "verify");
        if (g.num_nodes() != ref.num_nodes() ||
            g.num_edges() != ref.num_edges()) {
          failure = "loaded n or m differs from the built graph";
        } else if (edges_of(g) != (pg ? ref_edges : ref_canonical)) {
          failure = "loaded edges differ from the built graph";
        }
      }
    } catch (const std::exception& e) {
      failure = std::string("threw: ") + e.what();
    }
    if (!failure.empty()) {
      rep.op_failed(std::string(k.name) + ": " + failure);
      return -1;
    }
    rep.op_ok();
    return to_ms(t);
  };

  // Warm-up, untimed: every build instance and store op once. It records
  // every instance's counts, so they do not depend on how far the timed
  // passes get.
  for (const Kind& k : kinds) {
    for (int i = 0; i < (k.build ? kInstances : 1); ++i) one_op(k, i);
  }

  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  bool done = false;
  for (int pass = 0; !done; ++pass) {
    // Every instance gets an untraced and a traced pass.
    const bool traced = opt.trace && pass % 2 == 1;
    const int inst = (opt.trace ? pass / 2 : pass) % kInstances;
    tr.set_enabled(traced);
    for (const Kind& k : kinds) {
      if (now_ns() >= deadline) {
        done = true;
        break;
      }
      const int i = k.build ? inst : 0;
      const std::string tag = "#" + std::to_string(i);
      const double ms = one_op(k, i);
      if (ms < 0) continue;
      s.add((traced ? "traced." : "") + std::string(k.name) + tag, ms);
      if (!traced) continue;
      for (const auto& [span, ns] : tr.op_self_ns()) {
        if (span == "verify") continue;
        s.add((span == "graph.build" ? "graph.build_ms." + std::string(k.name)
                                     : span + "_ms") +
                  tag,
              to_ms(ns));
      }
    }
    s.add("host.ref_ms", host_ref_ms());
    setup.tick();
  }
  rep.metric("setup_s", setup.median_s(), "s");
  std::filesystem::remove(pg_path);
  std::filesystem::remove(txt_path);

  double build_pass = 0;
  double load_pass = 0;
  double median_pass = 0;
  double traced_pass = 0;
  for (const Kind& k : kinds) {
    const int pool = k.build ? kInstances : 1;
    (k.build ? build_pass : load_pass) += s.pool_best(k.name, pool);
    for (int i = 0; i < pool; ++i)
      median_pass += s.median_of(k.name + ("#" + std::to_string(i))) / pool;
    traced_pass += s.pool_best(std::string("traced.") + k.name, pool);
  }
  rep.metric("best_pass_ms", build_pass + load_pass, "ms");
  rep.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
  rep.metric("median_pass_ms", median_pass, "ms");
  rep.metric("ingest.build_pass_ms", build_pass, "ms");
  rep.metric("ingest.load_pass_ms", load_pass, "ms");
  rep.metric("host.ref_ms", s.median_of("host.ref_ms"), "ms");
  rep.diag("passes", std::to_string(s.of("write_pg#0").size()));
  if (opt.trace) {
    for (const Kind& k : kinds) {
      if (k.build) {
        const std::string name = std::string("graph.build_ms.") + k.name;
        rep.metric(name, s.pool_best(name, kInstances), "ms");
      }
    }
    for (const char* m :
         {"store.write_pg_ms", "store.load_pg_ms", "store.parse_text_ms"})
      rep.metric(m, s.pool_best(m, 1), "ms");
    rep.metric("trace.overhead_frac",
               traced_pass / (build_pass + load_pass) - 1.0, "frac");
  }
  finish_common(opt, rep, {&tr});
}

}  // namespace padbench

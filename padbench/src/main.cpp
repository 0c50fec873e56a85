// padbench driver: runs one workload and prints one JSON result line.
//
//   padbench --workload <pairs-2e14|pi2-b128|ingest-2e14|serve-mixed>
//            --seed N --seconds S --trace 0|1 --out-dir DIR
//            [--cli PATH] [--smoke]
//
// The line carries every metric the workload measured (end-to-end and
// per-layer, with units), op counts, and diagnostics; run.py selects the
// metrics BENCHMARK.json names for the trace mode. Exit status: 0 when the
// run completed (correct or not, as the line says), 2 on usage errors.
#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"
#include "support/parse.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "padbench: %s\nusage: padbench --workload W --seed N "
               "--seconds S --trace 0|1 --out-dir DIR [--cli PATH] "
               "[--smoke]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  padbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      const auto seed = padlock::parse_integer(v, 0, 1LL << 62);
      if (!seed) return usage("--seed expects an integer in [0, 2^62]");
      opt.seed = static_cast<std::uint64_t>(*seed);
    } else if (a == "--seconds") {
      const auto s = padlock::parse_integer(v, 1, 3600);
      if (!s) return usage("--seconds expects 1..3600");
      opt.seconds = static_cast<double>(*s);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace expects 0 or 1");
      opt.trace = v == "1";
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else if (a == "--cli") {
      opt.cli = v;
    } else {
      return usage(("unknown option " + a).c_str());
    }
  }
  if (opt.out_dir.empty()) return usage("--out-dir is required");

  padbench::Report rep;
  try {
    if (opt.workload == "pairs-2e14") {
      padbench::run_pairs(opt, rep);
    } else if (opt.workload == "pi2-b128") {
      padbench::run_pi2(opt, rep);
    } else if (opt.workload == "ingest-2e14") {
      padbench::run_ingest(opt, rep);
    } else if (opt.workload == "serve-mixed") {
      if (opt.cli.empty()) return usage("serve-mixed needs --cli");
      padbench::run_serve(opt, rep);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    rep.fatal(std::string("workload threw: ") + e.what());
  }
#ifdef __AVX2__
  rep.diag("avx2", "true");
#else
  rep.diag("avx2", "false");
#endif
  rep.diag("build_type", "\"" PADBENCH_BUILD_TYPE "\"");
  std::printf("%s\n", rep.json().c_str());
  return 0;
}

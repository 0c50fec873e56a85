#!/usr/bin/env python3
"""padbench: the end-to-end benchmark of the padlock library.

Run from the repository root:

  python3 padbench/run.py --workload W --seed N --seconds S --trace 0|1
      Builds the library and the driver from source (into $CARGO_TARGET_DIR,
      default .bench_build), runs workload W, checks its outputs, and prints
      a run header, a diagnostics line, and, as the last line, one JSON
      object {"correct", "attempted", "failed", "metrics"}: the end-to-end
      metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
      --trace 1 (the traced run, which also writes a Chrome trace-event
      file next to the build).

  python3 padbench/run.py --smoke
      Tiny sizes, all four workloads in both trace modes, in seconds; checks
      that every metric BENCHMARK.json names is printed once, with its unit
      and a finite value.

  python3 padbench/run.py --report K --workload W [--seconds S] [--trace T]
      Steadiness report: runs W with seeds 1..K and prints each metric's
      median, quartiles, min/max and spread, with host.ref_ms beside them.

  python3 padbench/run.py --record K
      Re-records padbench/expected_counts.json (the count metrics of seeds
      1..K at both scales). Only for a change that is meant to move counts.

Workloads: pairs-2e14, pi2-b128, ingest-2e14, serve-mixed (README.md).
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pairs-2e14", "pi2-b128", "ingest-2e14", "serve-mixed"]
COUNTS_FILE = os.path.join(HERE, "expected_counts.json")
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print("padbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d)


def rel(path):
    # The daemon's unix socket lives under the output directory, and socket
    # paths are limited to ~100 bytes: hand the driver short relative paths.
    r = os.path.relpath(path, ROOT)
    return path if r.startswith("..") else r


def build():
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s next to padbench/: run from a padlock source checkout"
                 % need)
    bdir = os.path.join(build_dir(), "padbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", bdir, "--target", "padbench",
                        "padlock_cli", "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return bdir


def run_driver(bdir, workload, seed, seconds, trace, smoke=False):
    out_dir = os.path.join(build_dir(), "padbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "padbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", rel(out_dir),
           "--cli", rel(os.path.join(bdir, "padlock", "padlock_cli"))]
    if smoke:
        cmd.append("--smoke")
    # Its own session, so a timeout also stops the serve daemon it started.
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("driver timed out on %s" % workload)
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail("driver failed on %s (exit %d)" % (workload, p.returncode))

    def no_duplicates(pairs):
        keys = [k for k, _ in pairs]
        if len(keys) != len(set(keys)):
            fail("driver printed a key twice: %s" % keys)
        return dict(pairs)

    return json.loads(lines[-1], object_pairs_hook=no_duplicates)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_counts():
    try:
        with open(COUNTS_FILE) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def check_counts(raw, workload, seed, scale):
    """Compares the run's count metrics with the recorded ones. A recorded
    seed is compared in full; any other seed on the counts that are equal
    across every recorded seed. Returns a list of mismatch messages."""
    table = load_counts().get(scale, {}).get(workload, {})
    if not table:
        return []
    counts = {k: v["value"] for k, v in raw["metrics"].items()
              if v["unit"] == "count"}
    if str(seed) in table:
        expected = table[str(seed)]
    else:
        seeds = list(table.values())
        expected = {k: v for k, v in seeds[0].items()
                    if all(s.get(k) == v for s in seeds)}
    return ["%s is %s, recorded %s" % (k, counts.get(k), v)
            for k, v in sorted(expected.items()) if counts.get(k) != v]


def header(workload, seed, seconds, trace, raw, load):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit,
            "build_type": raw["diag"].get("build_type"),
            "avx2": raw["diag"].get("avx2"),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "loadavg_at_start": [round(x, 2) for x in load],
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace}


def select(raw, names):
    """The metrics BENCHMARK.json names, with units. A per-layer metric the
    workload never touches reads 0 (that layer did no work in this run)."""
    out = {}
    for m in names:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if m.get("bound") is not None:
                fail("driver did not measure %s" % m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("%s measured in %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def one_run(args):
    load = os.getloadavg()
    bdir = build()
    raw = run_driver(bdir, args.workload, args.seed, args.seconds, args.trace)
    bench = load_bench()
    mismatches = check_counts(raw, args.workload, args.seed, "full")
    failed = raw["failed"] + (1 if mismatches else 0)
    print("# padbench header " + json.dumps(
        header(args.workload, args.seed, args.seconds, args.trace, raw, load)))
    print("# padbench diag " + json.dumps(
        {"diag": raw["diag"], "messages": raw["messages"] + mismatches,
         "host.ref_ms": raw["metrics"].get("host.ref_ms", {}).get("value")}))
    names = bench["per_layer"] if args.trace else bench["end_to_end"]
    result = {"correct": bool(raw["correct"]) and not mismatches,
              "attempted": raw["attempted"], "failed": failed,
              "metrics": select(raw, names)}
    print(json.dumps(result))


def smoke(_args):
    bdir = build()
    bench = load_bench()
    problems = []
    produced = set()
    started = time.time()
    for w in WORKLOADS:
        for trace in (0, 1):
            raw = run_driver(bdir, w, 1, 1, trace, smoke=True)
            if not raw["correct"]:
                problems.append("%s trace=%d incorrect: %s"
                                % (w, trace, raw["messages"]))
            problems += ["%s: %s" % (w, m)
                         for m in check_counts(raw, w, 1, "smoke")]
            names = bench["per_layer"] if trace else bench["end_to_end"]
            for m in names:
                got = raw["metrics"].get(m["name"])
                if got is None:
                    if trace == 0:
                        problems.append("%s: %s missing" % (w, m["name"]))
                    continue
                produced.add(m["name"])
                if got["unit"] != m["unit"]:
                    problems.append("%s: %s unit %s != %s"
                                    % (w, m["name"], got["unit"], m["unit"]))
                if not math.isfinite(got["value"]):
                    problems.append("%s: %s not finite" % (w, m["name"]))
            print("smoke %-12s trace=%d ok=%s attempted=%d"
                  % (w, trace, raw["correct"], raw["attempted"]))
    for m in bench["per_layer"]:
        if m["name"] not in produced:
            problems.append("no workload measures %s" % m["name"])
    for p in problems:
        print("smoke problem: " + p)
    print("smoke: %d metrics checked, %d problems, %.1f s"
          % (len(bench["end_to_end"]) + len(bench["per_layer"]),
             len(problems), time.time() - started))
    sys.exit(1 if problems else 0)


def spread_row(name, values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("nan")
    return "%-28s median %12.4f  q1 %12.4f  q3 %12.4f  min %12.4f  " \
           "max %12.4f  spread %.4f" % (name, med, q1, q3, min(values),
                                        max(values), spread)


def report(args):
    bdir = build()
    bench = load_bench()
    names = [m["name"] for m in
             (bench["per_layer"] if args.trace else bench["end_to_end"])]
    values = {n: [] for n in names + ["host.ref_ms"]}
    failed = 0
    for seed in range(1, args.report + 1):
        raw = run_driver(bdir, args.workload, seed, args.seconds, args.trace)
        failed += raw["failed"] + len(
            check_counts(raw, args.workload, seed, "full"))
        for n in values:
            if n in raw["metrics"]:
                values[n].append(raw["metrics"][n]["value"])
        print("seed %d: %s" % (seed, json.dumps(
            {n: round(raw["metrics"][n]["value"], 4) for n in values
             if n in raw["metrics"] and n in names[:8] + ["host.ref_ms"]})),
            flush=True)
    print("report: %s, %d runs, trace=%d, %d failed ops"
          % (args.workload, args.report, args.trace, failed))
    for n, v in values.items():
        if len(v) >= 2:
            print(spread_row(n, v))


def record(args):
    bdir = build()
    table = {"full": {}, "smoke": {}}
    for scale in ("full", "smoke"):
        for w in WORKLOADS[:3]:  # serve-mixed has no count metrics
            for seed in range(1, args.record + 1):
                raw = run_driver(bdir, w, seed, 1, 0, smoke=scale == "smoke")
                if not raw["correct"]:
                    fail("%s seed %d incorrect: %s"
                         % (w, seed, raw["messages"]))
                table[scale].setdefault(w, {})[str(seed)] = {
                    k: v["value"] for k, v in raw["metrics"].items()
                    if v["unit"] == "count"}
    with open(COUNTS_FILE, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--report", type=int, metavar="K")
    p.add_argument("--record", type=int, metavar="K")
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if args.smoke:
        smoke(args)
    elif args.record:
        record(args)
    elif args.report:
        if not args.workload:
            fail("--report needs --workload")
        report(args)
    else:
        if not args.workload:
            fail("--workload is required")
        one_run(args)


if __name__ == "__main__":
    main()

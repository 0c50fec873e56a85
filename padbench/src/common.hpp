// Shared machinery of the padbench driver: options, the span tracer, sample
// statistics, the result report, and the host reference kernel.
//
// Every workload times the library from outside: it wraps its own calls
// into a layer's public functions in spans (traced runs) and times whole
// ops with the steady clock (always). Nothing here reaches into the
// library's internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace padbench {

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double to_ms(std::uint64_t ns) { return ns / 1e6; }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;   // record spans (on alternate passes) and per-layer
  bool smoke = false;   // tiny sizes: exercises every path in seconds
  std::string out_dir;  // scratch files and the trace JSON
  std::string cli;      // padlock_cli binary (serve-mixed starts a daemon)
};

// ---- spans -----------------------------------------------------------------

/// In-memory span recorder. A span has a name, start, end, parent span and
/// op id; spans are kept until the run ends and written as Chrome
/// trace-event JSON. One Tracer per thread (the tid goes into the trace).
/// While disabled, opening a span records nothing and costs one branch.
class Tracer {
 public:
  explicit Tracer(int tid = 1) : tid_(tid) {}

  void set_enabled(bool on) { enabled_ = on; }

  /// Starts op `op`: spans opened from now on carry its id.
  void begin_op(std::uint32_t op);

  int open(const char* name);
  void close(int index);

  /// Self time in ns per span name over the current op's spans: a span's
  /// duration minus the part its direct children cover.
  [[nodiscard]] std::map<std::string, std::uint64_t> op_self_ns() const;

  /// Appends this tracer's spans as trace events ("ph": "X") to `out`,
  /// comma-separated; `first` tracks whether a separator is needed.
  void append_chrome(std::string& out, bool& first) const;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  struct SpanRec {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    int parent;
    std::uint32_t op;
  };
  int tid_;
  bool enabled_ = false;
  std::uint32_t op_ = 0;
  std::size_t op_first_ = 0;  // index of the current op's first span
  std::vector<SpanRec> spans_;
  std::vector<int> stack_;
};

/// RAII span around one call into a layer.
class Span {
 public:
  Span(Tracer& t, const char* name) : t_(t), index_(t.open(name)) {}
  ~Span() { t_.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  int index_;
};

/// Writes the spans of `tracers` to `path` as one Chrome trace-event file.
void write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers);

// ---- statistics ------------------------------------------------------------

/// Quantile with linear interpolation between order statistics (q in
/// [0,1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Samples keyed by metric name.
class Samples {
 public:
  void add(const std::string& key, double v) { by_key_[key].push_back(v); }
  [[nodiscard]] const std::vector<double>& of(const std::string& key) const;
  [[nodiscard]] double median_of(const std::string& key) const {
    return median(of(key));
  }
  /// The fastest sample: the op's cost with the least interference from
  /// the rest of the host (0 for no samples).
  [[nodiscard]] double best_of(const std::string& key) const {
    return quantile(of(key), 0.0);
  }
  /// Mean over instances 0..k-1 of best_of(key + "#" + instance): the
  /// cost of one op kind over the run's sample of inputs.
  [[nodiscard]] double pool_best(const std::string& key, int k) const;

 private:
  std::map<std::string, std::vector<double>> by_key_;
};

// ---- report ----------------------------------------------------------------

/// The run's outcome: op counts, failures, metrics by name with unit, and
/// free-form diagnostics. Rendered as the driver's one JSON result line.
class Report {
 public:
  void op_ok() { ++attempted_; }
  /// Counts an op whose verdict differs from the expected one.
  void op_failed(const std::string& what);
  /// A failure outside any op (set-up, a count that changed).
  void fatal(const std::string& what);

  void metric(const std::string& name, double value, const std::string& unit);
  void diag(const std::string& name, const std::string& json_value);

  /// Records a count that must repeat exactly: the first value recorded
  /// under (`name`, `instance`) is kept, and the caller fails an op whose
  /// value differs. Returns whether the value matched.
  bool same_count(const std::string& name, std::int64_t value,
                  int instance = 0);
  /// Emits each count as a metric: the sum over the run's instances.
  void emit_counts();

  [[nodiscard]] double fail_frac() const;

  [[nodiscard]] std::string json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool fatal_ = false;
  std::vector<std::string> messages_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> diag_;
  std::map<std::string, std::map<int, std::int64_t>> counts_;
};

// ---- helpers ---------------------------------------------------------------

/// Benchmark-owned reference kernel: a pointer chase over an L3-sized
/// permutation, in ms. Not a normaliser; a drift diagnostic (host.ref_ms).
[[nodiscard]] double host_ref_ms();

/// Peak resident set of this process in MB (VmHWM).
[[nodiscard]] double self_peak_rss_mb();
/// VmHWM of process `pid` in MB, or a negative value if unreadable.
[[nodiscard]] double proc_peak_rss_mb(int pid);

/// FNV-1a over the graph's edge endpoints in edge order (bit-identity of
/// a rebuilt or reloaded graph).
[[nodiscard]] std::uint64_t edge_digest(const padlock::Graph& g);

/// Times a workload's set-up. `make` builds the run's inputs and returns
/// them: run() builds the inputs the run keeps, and tick(), called between
/// passes, repeats the set-up every `interval_s` and discards the result.
/// The median over all repetitions then samples the same host conditions
/// as the timed ops, which back-to-back set-ups at the start would not.
template <class Make>
class SetupClock {
 public:
  explicit SetupClock(Make make, double interval_s = 1.0)
      : make_(std::move(make)),
        interval_ns_(static_cast<std::uint64_t>(interval_s * 1e9)) {}

  auto run() { return timed(); }
  void tick() {
    if (now_ns() >= next_ns_) (void)timed();
  }
  [[nodiscard]] double median_s() const { return median(samples_); }

 private:
  auto timed() {
    const std::uint64_t t0 = now_ns();
    auto out = make_();
    const std::uint64_t t1 = now_ns();
    samples_.push_back((t1 - t0) / 1e9);
    next_ns_ = t1 + interval_ns_;
    return out;
  }

  Make make_;
  std::uint64_t interval_ns_;
  std::vector<double> samples_;
  std::uint64_t next_ns_ = 0;
};

/// splitmix64: derives independent per-kind seeds from the workload seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// ---- workloads -------------------------------------------------------------

void run_pairs(const Options& opt, Report& rep);
void run_pi2(const Options& opt, Report& rep);
void run_ingest(const Options& opt, Report& rep);
void run_serve(const Options& opt, Report& rep);

/// Metrics shared by every workload's end: fail_frac and the trace file.
void finish_common(const Options& opt, Report& rep,
                   const std::vector<const Tracer*>& tracers);

}  // namespace padbench

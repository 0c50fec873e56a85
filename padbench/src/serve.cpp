// serve-mixed: one op is one request to a `padlock_cli serve` daemon over a
// unix socket. The daemon runs with --threads 2; the driver keeps two
// connections and sends on an open-loop schedule at fixed rates, timing
// each request from when it was due. The menu mixes run and sweep requests
// on cached instances, runs on instances outside the cache (built on the
// request path), pings, and malformed requests that must be refused.
//
// The serve layer's own functions are also timed in-process, between the
// load phases: serve::parse_request on the menu's lines and row_to_json on
// a finished row.
#include <fcntl.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstring>
#include <exception>
#include <filesystem>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "core/runner.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"

extern char** environ;

namespace padbench {
namespace {

using padlock::serve::JsonValue;
using padlock::serve::parse_json;

// ---- the daemon process ----------------------------------------------------

/// `padlock_cli serve --socket <path> --threads 2` as a child process. The
/// destructor stops a daemon still running (SIGTERM, which drains it, then
/// SIGKILL after a grace period) and always reaps it.
class Daemon {
 public:
  Daemon(const std::string& cli, const std::string& socket_path,
         const std::string& log_path)
      : socket_(socket_path) {
    std::filesystem::remove(socket_path);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    std::vector<std::string> args = {cli,        "serve",     "--socket",
                                     socket_path, "--threads", "2"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc =
        posix_spawn(&pid_, cli.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + cli + ": " +
                               std::strerror(rc));
    }
  }
  ~Daemon() {
    if (pid_ >= 0) ::kill(pid_, SIGTERM);
    stop();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] const std::string& socket() const { return socket_; }

  /// Waits up to 5 s for the daemon to exit (after a shutdown op), then
  /// kills it. Returns whether it exited by itself with status 0.
  bool stop() {
    if (pid_ < 0) return false;
    int status = 0;
    bool exited = false;
    for (int i = 0; i < 500 && !exited; ++i) {
      exited = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!exited) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!exited) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    std::filesystem::remove(socket_);
    return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

// ---- a line client ---------------------------------------------------------

class Conn {
 public:
  /// Connects to a unix socket, retrying for up to `wait_ms` while the
  /// daemon starts listening.
  explicit Conn(const std::string& path, int wait_ms = 0) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path)
      throw std::runtime_error("socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    for (int waited = 0;; waited += 5) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd_ < 0) throw std::runtime_error("socket() failed");
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
        return;
      ::close(fd_);
      fd_ = -1;
      if (waited >= wait_ms)
        throw std::runtime_error("cannot connect to " + path);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send(const std::string& line) {
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t w =
          ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (w <= 0) throw std::runtime_error("send failed");
      off += static_cast<std::size_t>(w);
    }
  }

  std::string read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t r = ::recv(fd_, chunk, sizeof chunk, 0);
      if (r <= 0) throw std::runtime_error("daemon closed the connection");
      buf_.append(chunk, static_cast<std::size_t>(r));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

struct Reply {
  std::string type;    // terminal line type
  std::string status;  // its "status" field, if any
  int rows = 0;        // row lines before it
  JsonValue terminal;
};

Reply exchange(Conn& c, const std::string& line) {
  c.send(line);
  Reply r;
  for (;;) {
    JsonValue v = parse_json(c.read_line());
    const JsonValue* type = v.find("type");
    if (type == nullptr) throw std::runtime_error("response without type");
    if (type->string == "accepted") continue;
    if (type->string == "row") {
      ++r.rows;
      continue;
    }
    r.type = type->string;
    if (const JsonValue* st = v.find("status")) r.status = st->string;
    r.terminal = std::move(v);
    return r;
  }
}

// ---- the request menu ------------------------------------------------------

struct Entry {
  std::string cls;  // run | sweep | cold | ping | poison
  std::string line;
  std::string type;    // expected terminal type
  std::string status;  // expected status ("" for pong)
  int rows = 0;        // expected row lines
};

struct Sizes {
  std::vector<int> nodes;  // run sizes, all hot
  int cold_nodes;
};

constexpr const char* kRunPairs[][3] = {
    {"mis", "luby", "regular"},
    {"coloring", "linial", "regular"},
    {"weak-coloring", "pointer-parity", "regular"},
    {"matching", "propose-accept", "regular"},
    {"3-coloring", "cole-vishkin", "cycle"},
};

constexpr const char* kPoison[] = {
    R"({"op": "run", "nodes": )",
    R"({"op": "run", "problem": "mis", "algo": "luby", "nodes": "16k"})",
    R"({"op": "run", "problem": "mis", "algo": "luby", "bogus": 1})",
    R"({"op": "sweep", "sizes": [true]})",
};

/// The menu: every 16 requests hold 6 runs, 2 sweeps, 1 cold run, 3 pings
/// and 4 malformed lines, shuffled per block from the seed. Hot runs and
/// sweeps name 4 seeds × the run sizes (at most 15 cached instances, so
/// they fit the daemon's 32-entry GraphCache); a cold run names a seed
/// never used before.
class Menu {
 public:
  Menu(std::uint64_t seed, Sizes sizes) : seed_(seed), sizes_(std::move(sizes)) {
    for (int k = 0; k < 4; ++k)
      hot_seeds_.push_back(mix_seed(seed, 20 + k) >> 20);
  }

  /// The warm-up requests: one run per cached instance.
  [[nodiscard]] std::vector<Entry> warm_up() const {
    std::vector<Entry> out;
    for (const auto& p : kRunPairs)
      for (const int n : sizes_.nodes)
        for (const std::uint64_t s : hot_seeds_)
          out.push_back(run_entry("run", p, n, s));
    return out;
  }

  [[nodiscard]] std::vector<Entry> block() {
    static constexpr const char* kSlots[16] = {
        "run",  "run",  "run",    "run",    "run",    "run",
        "sweep", "sweep", "cold", "ping",  "ping",   "ping",
        "poison", "poison", "poison", "poison"};
    std::vector<Entry> out;
    for (const char* slot : kSlots) {
      const std::string cls = slot;
      const std::uint64_t k = counter_++;
      if (cls == "run") {
        out.push_back(run_entry("run", kRunPairs[k % 5],
                                sizes_.nodes[(k / 5) % sizes_.nodes.size()],
                                hot_seeds_[(k / 7) % hot_seeds_.size()]));
      } else if (cls == "sweep") {
        const std::string n0 = std::to_string(sizes_.nodes.front());
        const std::string n1 = std::to_string(sizes_.nodes.back());
        out.push_back(
            {cls,
             R"({"op": "sweep", "pairs": ["mis/luby", "coloring/linial"], "sizes": [)" +
                 n0 + ", " + n1 + R"(], "seed": )" +
                 std::to_string(hot_seeds_[k % hot_seeds_.size()]) + "}\n",
             "done", "ok", 4});
      } else if (cls == "cold") {
        out.push_back(run_entry("cold", kRunPairs[0], sizes_.cold_nodes,
                                mix_seed(seed_, 1000000 + k) >> 12));
      } else if (cls == "ping") {
        out.push_back({cls, "{\"op\": \"ping\"}\n", "pong", "", 0});
      } else {
        out.push_back({cls, std::string(kPoison[k % 4]) + "\n", "error",
                       "bad_request", 0});
      }
    }
    std::mt19937_64 rng(mix_seed(seed_, 77 + counter_));
    std::shuffle(out.begin(), out.end(), rng);
    return out;
  }

  [[nodiscard]] std::vector<Entry> take(std::size_t count) {
    std::vector<Entry> out;
    while (out.size() < count) {
      for (Entry& e : block()) out.push_back(std::move(e));
    }
    out.resize(count);
    return out;
  }

 private:
  static Entry run_entry(const char* cls, const char* const p[3], int n,
                         std::uint64_t seed) {
    return {cls,
            std::string(R"({"op": "run", "problem": ")") + p[0] +
                R"(", "algo": ")" + p[1] + R"(", "family": ")" + p[2] +
                R"(", "nodes": )" + std::to_string(n) + R"(, "seed": )" +
                std::to_string(seed) + "}\n",
            "done", "ok", 1};
  }

  std::uint64_t seed_;
  Sizes sizes_;
  std::vector<std::uint64_t> hot_seeds_;
  std::uint64_t counter_ = 0;
};

std::string verdict(const Entry& e, const Reply& r) {
  if (r.type != e.type || r.status != e.status || r.rows != e.rows) {
    return e.cls + " request answered " + r.type + "/" + r.status + " with " +
           std::to_string(r.rows) + " rows, expected " + e.type + "/" +
           e.status + " with " + std::to_string(e.rows);
  }
  return "";
}

// ---- open-loop phases ------------------------------------------------------

struct Sample {
  std::string cls;
  double latency_ms;  // from when the request was due to its terminal line
  double late_ms;     // how late the generator sent it
  bool traced;
};

struct PhaseResult {
  std::vector<Sample> samples;
  std::vector<std::string> failures;
};

/// Sends `entries` at `rate` requests/s over the two connections: request
/// i is due at start + i/rate, and goes out on whichever connection is
/// free (so a stall makes later requests late, and that wait is counted).
/// With `trace_alternate`, every other block of 16 requests is traced.
PhaseResult run_phase(std::vector<Conn*>& conns, std::vector<Tracer*>& tracers,
                      const std::vector<Entry>& entries, double rate,
                      bool trace_alternate) {
  PhaseResult out;
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  const std::uint64_t start = now_ns() + 20'000'000;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      std::vector<Sample> mine;
      std::vector<std::string> failed;
      Tracer& tr = *tracers[c];
      try {
        for (;;) {
          const std::size_t i = next++;
          if (i >= entries.size()) break;
          const Entry& e = entries[i];
          const std::uint64_t due =
              start + static_cast<std::uint64_t>(i * 1e9 / rate);
          const std::uint64_t now = now_ns();
          if (due > now)
            std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
          const bool traced = trace_alternate && (i / 16) % 2 == 1;
          tr.set_enabled(traced);
          tr.begin_op(static_cast<std::uint32_t>(i));
          const std::uint64_t sent = now_ns();
          Reply r;
          {
            Span s(tr, e.cls == "ping" ? "serve.ping" : "serve.request");
            r = exchange(*conns[c], e.line);
          }
          const std::uint64_t done = now_ns();
          const std::string bad = verdict(e, r);
          if (!bad.empty()) {
            failed.push_back(bad);
            continue;
          }
          mine.push_back({e.cls, to_ms(done - due),
                          to_ms(sent > due ? sent - due : 0), traced});
        }
      } catch (const std::exception& ex) {
        failed.push_back(std::string("connection failed: ") + ex.what());
        next = entries.size();
      }
      const std::lock_guard<std::mutex> lock(mu);
      out.samples.insert(out.samples.end(), mine.begin(), mine.end());
      out.failures.insert(out.failures.end(), failed.begin(), failed.end());
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

std::vector<double> latencies(const std::vector<Sample>& samples,
                              const std::string& cls, int traced) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (!cls.empty() && s.cls != cls) continue;
    if (traced >= 0 && s.traced != (traced == 1)) continue;
    out.push_back(s.latency_ms);
  }
  return out;
}

/// The highest of p50/p90/p99/p99.9 with at least ten samples beyond it.
std::pair<double, double> tail_of(const std::vector<double>& v) {
  double pct = 0.5;
  for (const double p : {0.9, 0.99, 0.999}) {
    if (static_cast<double>(v.size()) * (1 - p) >= 10) pct = p;
  }
  return {pct, quantile(v, pct)};
}

}  // namespace

void run_serve(const Options& opt, Report& rep) {
  const Sizes sizes = opt.smoke ? Sizes{{64, 128, 256}, 128}
                                : Sizes{{1024, 2048, 4096}, 2048};
  // Rates in requests/s: the base rate carries the gated latencies; the
  // ladder finds the highest rate that still meets the latency limit.
  const double base_rate = 100;
  const std::vector<double> ladder = {200, 400, 800, 1600};
  const double limit_ms = 50;

  const std::string stem = opt.out_dir + "/serve-" + std::to_string(::getpid());
  const std::string socket_path = stem + ".sock";
  const std::string log_path = stem + ".log";
  Menu menu(opt.seed, sizes);
  const std::vector<Entry> warm = menu.warm_up();

  // Set-up: start the daemon, wait until it answers, and fill its graph
  // cache with every hot instance. Done five times; the last one stays.
  std::unique_ptr<Daemon> daemon;
  bool warm_ok = true;
  std::vector<double> setups;
  for (int i = 0; i < 5; ++i) {
    if (daemon) {
      Conn c(daemon->socket());
      exchange(c, "{\"op\": \"shutdown\"}\n");
      daemon->stop();
    }
    const std::uint64_t t = now_ns();
    daemon = std::make_unique<Daemon>(opt.cli, socket_path, log_path);
    Conn c(socket_path, 10000);
    for (const Entry& e : warm)
      warm_ok = verdict(e, exchange(c, e.line)).empty() && warm_ok;
    setups.push_back((now_ns() - t) / 1e9);
  }
  const double setup_s = median(setups);
  rep.metric("setup_s", setup_s, "s");
  if (!warm_ok) {
    rep.fatal("a warm-up request was not answered as expected");
    return;
  }

  Conn c0(socket_path);
  Conn c1(socket_path);
  std::vector<Conn*> conns = {&c0, &c1};
  Tracer t0(1);
  Tracer t1(2);
  std::vector<Tracer*> tracers = {&t0, &t1};
  Tracer probe(3);
  Samples s;

  // In-process probes of the serve layer: parse every menu line, render a
  // finished row.
  padlock::ExecutionPlan plan;
  plan.pairs = {{"mis", "luby"}};
  plan.graphs = {{"regular", 256, 3, 1}};
  const padlock::SweepOutcome sample_rows = padlock::run_batch(plan);
  std::vector<std::string> probe_lines;
  for (const Entry& e : menu.take(16)) probe_lines.push_back(e.line);
  const auto run_probes = [&] {
    constexpr int kReps = 200;
    probe.set_enabled(opt.trace);
    std::uint64_t t = now_ns();
    std::size_t parsed = 0;
    {
      Span sp(probe, "serve.parse_request");
      for (int r = 0; r < kReps; ++r) {
        for (const std::string& line : probe_lines) {
          try {
            (void)padlock::serve::parse_request(line, {});
            ++parsed;
          } catch (const padlock::serve::BadRequest&) {
          }
        }
      }
    }
    s.add("serve.parse_us", (now_ns() - t) / 1e3 / (kReps * probe_lines.size()));
    t = now_ns();
    std::size_t bytes = 0;
    {
      Span sp(probe, "serve.row_to_json");
      for (int r = 0; r < kReps; ++r)
        bytes += padlock::row_to_json(sample_rows.rows.front()).size();
    }
    s.add("serve.render_us", (now_ns() - t) / 1e3 / kReps);
    if (parsed == 0 || bytes == 0) rep.fatal("serve probes did nothing");
  };

  std::size_t poison_sent = 0;
  const auto send = [&](std::size_t count) {
    std::vector<Entry> entries = menu.take(count);
    for (const Entry& e : entries) poison_sent += e.cls == "poison" ? 1 : 0;
    return entries;
  };
  const auto account = [&](const PhaseResult& r) {
    for (std::size_t i = 0; i < r.samples.size(); ++i) rep.op_ok();
    for (const std::string& f : r.failures) rep.op_failed(f);
  };

  // Base rate, in four slices with the probes and the reference kernel in
  // between, then the ladder.
  const double base_s = opt.seconds * 0.6;
  PhaseResult base;
  for (int slice = 0; slice < 4; ++slice) {
    run_probes();
    s.add("host.ref_ms", host_ref_ms());
    const auto n = static_cast<std::size_t>(base_rate * base_s / 4);
    PhaseResult r = run_phase(conns, tracers, send(n), base_rate, opt.trace);
    account(r);
    base.samples.insert(base.samples.end(), r.samples.begin(), r.samples.end());
  }
  double max_rps = 0;
  bool still_meets = true;
  {
    const std::vector<double> all = latencies(base.samples, "", 0);
    still_meets = quantile(all, 0.9) <= limit_ms;
    if (still_meets) max_rps = base_rate;
  }
  const double step_s = opt.seconds * 0.4 / static_cast<double>(ladder.size());
  for (const double rate : ladder) {
    run_probes();
    s.add("host.ref_ms", host_ref_ms());
    PhaseResult r = run_phase(
        conns, tracers, send(static_cast<std::size_t>(rate * step_s)), rate,
        false);
    account(r);
    const bool meets = r.failures.empty() &&
                       quantile(latencies(r.samples, "", -1), 0.9) <= limit_ms;
    if (meets && still_meets) max_rps = rate;
    still_meets = still_meets && meets;
  }

  // Daemon counters, then a clean shutdown.
  double rss = 0;
  {
    Conn c(socket_path);
    const Reply st = exchange(c, "{\"op\": \"stats\"}\n");
    const auto field = [&st](const char* k) {
      const JsonValue* v = st.terminal.find(k);
      return v == nullptr ? -1.0 : static_cast<double>(v->integer);
    };
    rep.metric("serve.rejected", field("rejected"), "count");
    rep.metric("serve.completed", field("completed"), "count");
    if (field("rejected") != 0) rep.fatal("the daemon rejected requests");
    if (field("bad_requests") != static_cast<double>(poison_sent))
      rep.fatal("the daemon's bad_requests differs from the poison sent");
    rss = proc_peak_rss_mb(daemon->pid());
    exchange(c, "{\"op\": \"shutdown\"}\n");
  }
  if (daemon->stop()) {
    std::filesystem::remove(log_path);
  } else {
    rep.fatal("the daemon did not exit cleanly; see " + log_path);
  }

  const std::vector<std::string> classes = {"run", "sweep", "cold", "ping",
                                            "poison"};
  double best_pass = 0;
  double median_pass = 0;
  for (const std::string& cls : classes) {
    best_pass += quantile(latencies(base.samples, cls, 0), 0.0);
    median_pass += median(latencies(base.samples, cls, 0));
  }
  rep.metric("best_pass_ms", best_pass, "ms");
  rep.metric("median_pass_ms", median_pass, "ms");
  rep.metric("peak_rss_mb", rss, "MB");

  const std::vector<double> all = latencies(base.samples, "", 0);
  const auto [pct, tail] = tail_of(all);
  rep.metric("serve.req_ms.p50", median(all), "ms");
  rep.metric("serve.req_ms.tail", tail, "ms");
  rep.diag("serve_tail",
           "{\"percentile\": " + std::to_string(pct * 100) +
               ", \"samples\": " + std::to_string(all.size()) + "}");
  for (const char* cls : {"run", "sweep", "cold"}) {
    rep.metric(std::string("serve.req_ms.p50.") + cls,
               median(latencies(base.samples, cls, 0)), "ms");
  }
  rep.metric("serve.ping_ms.p50", median(latencies(base.samples, "ping", 0)),
             "ms");
  std::vector<double> late;
  for (const Sample& x : base.samples) late.push_back(x.late_ms);
  rep.metric("serve.gen_late_ms", quantile(late, 0.9), "ms");
  rep.metric("serve.max_rps", max_rps, "1/s");
  rep.metric("serve.parse_us", s.median_of("serve.parse_us"), "us");
  rep.metric("serve.render_us", s.median_of("serve.render_us"), "us");
  rep.metric("host.ref_ms", s.median_of("host.ref_ms"), "ms");
  if (opt.trace) {
    double traced = 0;
    for (const std::string& cls : classes)
      traced += median(latencies(base.samples, cls, 1));
    rep.metric("trace.overhead_frac", traced / median_pass - 1.0, "frac");
  }
  finish_common(opt, rep, {&t0, &t1, &probe});
}

}  // namespace padbench

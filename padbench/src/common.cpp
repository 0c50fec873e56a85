#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "serve/json.hpp"

namespace padbench {

using padlock::serve::json_quote;

// ---- spans -----------------------------------------------------------------

void Tracer::begin_op(std::uint32_t op) {
  op_ = op;
  op_first_ = spans_.size();
}

int Tracer::open(const char* name) {
  if (!enabled_) return -1;
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, now_ns(), 0, parent, op_});
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

std::map<std::string, std::uint64_t> Tracer::op_self_ns() const {
  std::vector<std::uint64_t> self;
  for (std::size_t i = op_first_; i < spans_.size(); ++i)
    self.push_back(spans_[i].end_ns - spans_[i].start_ns);
  for (std::size_t i = op_first_; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p >= static_cast<int>(op_first_)) {
      self[static_cast<std::size_t>(p) - op_first_] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, std::uint64_t> by_name;
  for (std::size_t i = op_first_; i < spans_.size(); ++i)
    by_name[spans_[i].name] += self[i - op_first_];
  return by_name;
}

void Tracer::append_chrome(std::string& out, bool& first) const {
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %u, "
                  "\"span\": %zu, \"parent\": %d}}",
                  first ? "" : ",", json_quote(s.name).c_str(), tid_,
                  s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3, s.op, i,
                  s.parent);
    out += buf;
    first = false;
  }
}

void write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers) {
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const Tracer* t : tracers) t->append_chrome(out, first);
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  std::ofstream f(path, std::ios::binary);
  f << out;
  if (!f) throw std::runtime_error("cannot write trace file " + path);
}

// ---- statistics ------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

const std::vector<double>& Samples::of(const std::string& key) const {
  static const std::vector<double> kEmpty;
  const auto it = by_key_.find(key);
  return it == by_key_.end() ? kEmpty : it->second;
}

double Samples::pool_best(const std::string& key, int k) const {
  double sum = 0;
  for (int i = 0; i < k; ++i) sum += best_of(key + "#" + std::to_string(i));
  return sum / k;
}

// ---- report ----------------------------------------------------------------

void Report::op_failed(const std::string& what) {
  ++attempted_;
  ++failed_;
  if (messages_.size() < 8) messages_.push_back(what);
}

void Report::fatal(const std::string& what) {
  fatal_ = true;
  if (messages_.size() < 8) messages_.push_back(what);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    fatal("metric " + name + " is not finite");
    value = 0;
  }
  if (!metrics_.emplace(name, std::make_pair(value, unit)).second)
    throw std::logic_error("metric emitted twice: " + name);
}

void Report::diag(const std::string& name, const std::string& json_value) {
  diag_[name] = json_value;
}

bool Report::same_count(const std::string& name, std::int64_t value,
                        int instance) {
  const auto [it, inserted] = counts_[name].emplace(instance, value);
  return inserted || it->second == value;
}

void Report::emit_counts() {
  for (const auto& [name, by_instance] : counts_) {
    std::int64_t sum = 0;
    for (const auto& [instance, value] : by_instance) sum += value;
    metric(name, static_cast<double>(sum), "count");
  }
}

double Report::fail_frac() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

std::string Report::json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (failed_ == 0 && !fatal_ && attempted_ > 0
                                  ? "true"
                                  : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    out << (first ? "" : ", ") << json_quote(name)
        << ": {\"value\": " << vu.first << ", \"unit\": "
        << json_quote(vu.second) << "}";
    first = false;
  }
  out << "}, \"diag\": {";
  first = true;
  for (const auto& [name, value] : diag_) {
    out << (first ? "" : ", ") << json_quote(name) << ": " << value;
    first = false;
  }
  out << "}, \"messages\": [";
  for (std::size_t i = 0; i < messages_.size(); ++i)
    out << (i ? ", " : "") << json_quote(messages_[i]);
  out << "]}";
  return out.str();
}

// ---- helpers ---------------------------------------------------------------

double host_ref_ms() {
  // 256k slots of 4 bytes = 1 MiB: larger than L2, within L3 on common
  // server parts. One Sattolo cycle so the chase visits every slot.
  static const std::vector<std::uint32_t> next = [] {
    constexpr std::uint32_t kSlots = 1u << 18;
    std::vector<std::uint32_t> p(kSlots);
    std::iota(p.begin(), p.end(), 0u);
    std::uint64_t s = 0x9E3779B97F4A7C15ull;
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {
      s = mix_seed(s, i);
      std::swap(p[i], p[s % i]);
    }
    return p;
  }();
  const std::uint64_t t0 = now_ns();
  std::uint32_t at = 0;
  for (std::size_t i = 0; i < next.size(); ++i) at = next[at];
  __asm__ volatile("" : : "r"(at));  // keeps the chase observable
  return to_ms(now_ns() - t0);
}

namespace {

double vm_hwm_mb(const std::string& status_path) {
  std::ifstream f(status_path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return -1.0;
}

}  // namespace

double self_peak_rss_mb() {
  const double mb = vm_hwm_mb("/proc/self/status");
  if (mb >= 0) return mb;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double proc_peak_rss_mb(int pid) {
  return vm_hwm_mb("/proc/" + std::to_string(pid) + "/status");
}

std::uint64_t edge_digest(const padlock::Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto feed = [&h](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  feed(g.num_nodes());
  for (padlock::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    feed((static_cast<std::uint64_t>(u) << 32) | v);
  }
  return h;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void finish_common(const Options& opt, Report& rep,
                   const std::vector<const Tracer*>& tracers) {
  rep.emit_counts();
  rep.metric("fail_frac", rep.fail_frac(), "frac");
  if (!opt.trace) return;
  std::size_t spans = 0;
  for (const Tracer* t : tracers) spans += t->size();
  const std::string path = opt.out_dir + "/trace-" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".json";
  write_chrome_trace(path, tracers);
  rep.diag("trace_file", json_quote(path));
  rep.diag("trace_spans", std::to_string(spans));
}

}  // namespace padbench

// Shared plumbing of the end-to-end benchmark (bench/e2e/README.md):
// run configuration, latency samples, the metric map every workload
// fills, the in-memory span trace with its Chrome trace-event writer, and
// the process-level probes (peak RSS, scratch directories).
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/jit.hpp"
#include "support/mutex.hpp"
#include "support/rng.hpp"

namespace mcf::e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Everything a workload reads from the command line.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 25.0;  ///< length of the timed loop
  bool trace = false;     ///< traced run: per-layer metrics instead of end-to-end
  int setup_reps = 3;     ///< set-up repetitions; setup_s is their median
  std::string scratch;    ///< per-run scratch directory (jit caches, socket)
};

// ---- sample statistics -------------------------------------------------------

/// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

[[nodiscard]] inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

[[nodiscard]] inline double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

/// Closed loop, one caller: ops completed per second spent in them.
[[nodiscard]] inline double closed_loop_rate(const std::vector<double>& lat_s) {
  return lat_s.empty() ? 0.0 : static_cast<double>(lat_s.size()) / sum(lat_s);
}

[[nodiscard]] inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

/// The highest of p99.9 / p99 / p90 / p50 with at least ten samples
/// beyond it (the rule for reporting a tail), as {percent, value}.
[[nodiscard]] inline std::pair<double, double> reportable_tail(
    const std::vector<double>& v) {
  for (const double pct : {99.9, 99.0, 90.0}) {
    if (static_cast<double>(v.size()) * (1.0 - pct / 100.0) >= 10.0) {
      return {pct, percentile(v, pct / 100.0)};
    }
  }
  return {50.0, percentile(v, 0.5)};
}

// ---- metrics -----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `metrics` holds the end-to-end set in
/// an untraced run and the per-layer set in a traced run.
struct WorkloadResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records one checked operation; false bumps `failed` and logs why.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "bench_e2e: check failed: %s\n", what.c_str());
    }
  }
};

/// Per-op means of named quantities, emitted as metrics at the end.
class OpMeans {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    auto& [values, u] = m_[name];
    values.push_back(value);
    u = unit;
  }
  void emit(WorkloadResult& r) const {
    for (const auto& [name, vu] : m_) r.set(name, mean(vu.first), vu.second);
  }

 private:
  std::map<std::string, std::pair<std::vector<double>, std::string>> m_;
};

/// End-to-end metrics every workload reports in an untraced run.
inline void set_end_to_end(WorkloadResult& r, const std::vector<double>& lat_s,
                           double ops_per_s, const std::vector<double>& setup_s) {
  r.set("p50_ms", median(lat_s) * 1e3, "ms");
  r.set("ops_per_s", ops_per_s, "1/s");
  r.set("setup_s", median(setup_s), "s");
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  r.set("peak_rss_mib", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
}

/// Whether op `i` of a traced run records spans.  A hashed coin rather
/// than alternation: it must not line up with the chain generator's
/// strata or with which sender thread picks up a request.
[[nodiscard]] inline bool traced_op(bool trace_run, std::uint64_t i) {
  return trace_run && (splitmix64(i) & 1) != 0;
}

/// Per-layer metrics every workload reports in a traced run: the tail of
/// the op latency (with its percentile and sample count) and the tracing
/// overhead, (traced ÷ untraced median op latency) − 1, over the ops
/// traced_op() split between the two modes.
inline void set_trace_common(WorkloadResult& r, const std::vector<double>& all_s,
                             const std::vector<double>& traced_s,
                             const std::vector<double>& untraced_s) {
  const auto [pct, tail] = reportable_tail(all_s);
  r.set("e2e.tail_pct", pct, "%");
  r.set("e2e.tail_ms", tail * 1e3, "ms");
  r.set("e2e.samples", static_cast<double>(all_s.size()), "count");
  if (!traced_s.empty() && !untraced_s.empty()) {
    r.set("trace.overhead_frac", median(traced_s) / median(untraced_s) - 1.0,
          "ratio");
  }
}

/// Durations of a set-up step repeated `reps` times; setup_s is their
/// median.
[[nodiscard]] inline std::vector<double> time_setup(int reps,
                                                    const std::function<void()>& setup) {
  std::vector<double> out;
  for (int i = 0; i < std::max(1, reps); ++i) {
    const auto t0 = Clock::now();
    setup();
    out.push_back(seconds_between(t0, Clock::now()));
  }
  return out;
}

/// A fresh, empty directory under `parent`.
[[nodiscard]] inline std::string fresh_dir(const std::string& parent,
                                           const std::string& stem) {
  static int counter = 0;
  const std::filesystem::path p =
      std::filesystem::path(parent) / (stem + "-" + std::to_string(++counter));
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

/// Makes the next jit compile cold: a fresh on-disk kernel cache
/// directory, and an empty in-memory kernel map (at the default
/// MCFUSER_JIT_KERNEL_CAP).
inline void cold_jit_cache(const RunConfig& cfg, const std::string& stem) {
  ::setenv("MCFUSER_JIT_CACHE_DIR", fresh_dir(cfg.scratch, stem).c_str(), 1);
  jit::set_kernel_cap_for_testing(4096);
}

// ---- trace -------------------------------------------------------------------

/// One completed span: a call into a layer's public function.
struct Span {
  std::string name;
  std::int64_t req = 0;  ///< request / op id the span belongs to
  double t0 = 0.0;       ///< seconds since the trace epoch
  double t1 = 0.0;
  int tid = 0;
};

/// Spans stay in memory and are written once, at exit.  Thread-safe: the
/// tuner's measurement waves record from pool threads.
class Trace {
 public:
  class Scope {
   public:
    Scope(Trace* t, const char* name, std::int64_t req)
        : t_(t), name_(name), req_(req), t0_(Clock::now()) {}
    ~Scope() {
      if (t_ != nullptr) t_->add(name_, req_, t0_, Clock::now());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* t_;
    const char* name_;
    std::int64_t req_;
    Clock::time_point t0_;
  };

  void add(const char* name, std::int64_t req, Clock::time_point t0,
           Clock::time_point t1) {
    const double a = seconds_between(epoch_, t0);
    const double b = seconds_between(epoch_, t1);
    const LockGuard lk(mu_);
    const int tid = tids_.try_emplace(std::this_thread::get_id(),
                                      static_cast<int>(tids_.size()) + 1)
                        .first->second;
    spans_.push_back(Span{name, req, a, b, tid});
  }

  [[nodiscard]] std::vector<Span> spans() const {
    const LockGuard lk(mu_);
    return spans_;
  }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  [[nodiscard]] bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    const std::vector<Span> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"e2e\",\"ph\":\"X\",\"ts\":%.3f,"
                   "\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"req\":%lld}}\n",
                   i ? "," : "", s.name.c_str(), s.t0 * 1e6, (s.t1 - s.t0) * 1e6,
                   static_cast<int>(::getpid()), s.tid,
                   static_cast<long long>(s.req));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  const Clock::time_point epoch_ = Clock::now();
  mutable Mutex mu_{"e2e.trace"};
  std::vector<Span> spans_ MCF_GUARDED_BY(mu_);
  std::map<std::thread::id, int> tids_ MCF_GUARDED_BY(mu_);
};

/// Wall time covered by the union of the given intervals.
[[nodiscard]] inline double covered_s(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double lo = 0.0;
  double hi = -1.0;
  for (const auto& [a, b] : iv) {
    if (a > hi) {
      if (hi > lo) total += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (hi > lo) total += hi - lo;
  return total;
}

/// Wall time of request `req` covered by spans named `name` (concurrent
/// spans, such as one measurement wave's samples, count once).
[[nodiscard]] inline double span_time_s(const std::vector<Span>& spans,
                                        const std::string& name, std::int64_t req) {
  std::vector<std::pair<double, double>> iv;
  for (const Span& s : spans) {
    if (s.req == req && s.name == name) iv.emplace_back(s.t0, s.t1);
  }
  return covered_s(std::move(iv));
}

}  // namespace mcf::e2e

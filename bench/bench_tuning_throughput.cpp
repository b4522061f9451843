// Tuning-throughput benchmark: the evaluation pipeline's throughput,
// section by section, on the Fig. 7 workload family (the paper's
// pruning-funnel GEMM chain plus attention/GEMM neighbours):
//
//   * interpreter:  blocks/second and GFLOP/s of the functional
//                   interpreter over a spread of schedules — the
//                   denominator of the jit and isolation sections.
//   * backends:     the simulator and interpreter MeasureBackends side by
//                   side on the same schedules — predicted/observed
//                   kernel time, measure() call cost, and the rank
//                   correlation between the two backends' times.
//   * jit:          the native-codegen path (exec/jit): the same
//                   schedules compiled to real machine code (one
//                   jit::resolve_kernel each, then jit::run_compiled with
//                   one reused scratch) and timed against the
//                   interpreter's GFLOP/s — the gate is a >= 3x geomean
//                   advantage on the fig7-mini family, both sides on ONE
//                   thread so it prices codegen alone (the full-pool jit
//                   GFLOP/s is reported next to it).
//                   Also reports the module lifecycle counters and a
//                   dlopen-churn soak: 256 resolves of distinct keys
//                   through a small kernel cap, gated on the resident
//                   module count staying bounded by the cap (RSS
//                   before/after published alongside).
//   * jit-mt:       multicore run_native — the same compiled kernels
//                   executed single-thread vs full worker-pool fan-out;
//                   gated at >= 2.5x geomean GFLOP/s when the host has
//                   >= 4 cores (reported, not gated, below that).
//   * isolation:    the crash-isolated "jit-isolated" backend
//                   (exec/sandbox) next to the in-process jit backend on
//                   the same schedules — per-measure() wall cost of the
//                   worker-pool pipe roundtrip, gated at <= 25% geomean
//                   overhead.
//   * admission:    the FusionEngine under a synthetic flood of 10k
//                   DISTINCT chains against a tiny bounded queue + LRU
//                   result memo — gates that the queue depth and memo
//                   entry count never exceed their caps, that every
//                   ticket lands in exactly one terminal bucket
//                   (rejected + completed + cancelled == submitted), and
//                   reports the RSS growth over the flood.
//
// Emits the paper-style table + CSV (common.hpp) and writes
// BENCH_tuning_throughput.json (stable schema v9, see
// docs/performance.md) so future PRs can track the trajectory.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "engine/engine.hpp"
#include "exec/interpreter.hpp"
#include "exec/jit.hpp"
#include "gpu/spec.hpp"
#include "measure/backend.hpp"
#include "search/tuner.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "tensor/tensor.hpp"
#include "verify/verify.hpp"

namespace {

using namespace mcf;
using clk = std::chrono::steady_clock;

double secs(clk::time_point a, clk::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Fastest-of-N: the standard noise-robust estimator for microbenchmarks
// on a shared machine (interference only ever adds time).
double best_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

double geomean(const std::vector<double>& v) {
  double lg = 0.0;
  for (const double x : v) lg += std::log(x);
  return std::exp(lg / static_cast<double>(v.size()));
}

struct InterpRow {
  std::string name;
  std::string tiles;
  std::int64_t blocks = 0;
  double blocks_per_s = 0.0;
  double gflops = 0.0;
  double t1_gflops = 0.0;  ///< InterpreterOptions{.parallel = false}
  double flops = 0.0;  ///< executed FLOPs per run (jit section reuses it)
};

struct JitRow {
  std::string name;
  std::string tiles;
  std::int64_t blocks = 0;
  double interp_t1_gflops = 0.0;  ///< single-thread interpreter
  double jit_t1_gflops = 0.0;     ///< run_compiled(..., threads = 1)
  double jit_gflops = 0.0;        ///< run_compiled(..., threads = 0): full pool
  /// The gated ratio: both sides on one thread, so a many-core host's
  /// block fan-out cannot move it.
  [[nodiscard]] double vs_interp() const {
    return jit_t1_gflops / interp_t1_gflops;
  }
};

struct BackendRow {
  std::string name;
  std::string tiles;
  double sim_time_s = 0.0;     ///< simulator-predicted kernel time
  double interp_time_s = 0.0;  ///< interpreter-observed CPU kernel time
  double sim_wall_s = 0.0;     ///< cost of one sim measure() call
  double interp_wall_s = 0.0;  ///< cost of one interp measure() call
};

BackendRow bench_backend(const ChainSpec& chain, const SearchSpace& space,
                         std::size_t cand_index, const MeasureBackend& sim,
                         const MeasureBackend& interp) {
  const CandidateConfig& cand = space.candidates()[cand_index];
  const Schedule s = space.schedule_for(cand);
  BackendRow row;
  row.name = chain.name();
  for (const auto t : cand.tiles) {
    row.tiles += (row.tiles.empty() ? "" : "x") + std::to_string(t);
  }
  constexpr int kRepeats = 3;
  std::vector<double> sim_wall;
  std::vector<double> interp_wall;
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = clk::now();
    const KernelMeasurement ms = sim.measure(s);
    const auto t1 = clk::now();
    const KernelMeasurement mi = interp.measure(s);
    const auto t2 = clk::now();
    if (!ms.ok || !mi.ok) {
      std::fprintf(stderr, "backend bench: measurement failed on %s\n",
                   row.name.c_str());
      std::exit(1);
    }
    row.sim_time_s = ms.time_s;
    row.interp_time_s = mi.time_s;
    sim_wall.push_back(secs(t0, t1));
    interp_wall.push_back(secs(t1, t2));
  }
  row.sim_wall_s = best_of(sim_wall);
  row.interp_wall_s = best_of(interp_wall);
  return row;
}

InterpRow bench_interp(const ChainSpec& chain, const SearchSpace& space,
                       std::size_t cand_index) {
  const auto& cands = space.candidates();
  const CandidateConfig& cand = cands[cand_index];
  const Schedule s = space.schedule_for(cand);

  const jit::KernelInputs in =
      jit::seeded_inputs(chain.batch(), chain.m(), chain.inner(), 1);
  Tensor out(Shape{chain.batch(), chain.m(), chain.inner().back()});

  // Each configuration is timed back to back after its own warm-up run,
  // so neither inherits the other's cache state.
  constexpr int kRepeats = 7;
  const auto best_wall = [&](const Interpreter& interp) {
    ExecutionCounters counters = interp.run(in.a, in.weights, out);
    std::vector<double> times;
    for (int r = 0; r < kRepeats; ++r) {
      const auto t0 = clk::now();
      counters = interp.run(in.a, in.weights, out);
      times.push_back(secs(t0, clk::now()));
    }
    return std::make_pair(best_of(times), counters);
  };
  const auto [best, counters] = best_wall(Interpreter(s));
  const double t1_best =
      best_wall(Interpreter(s, InterpreterOptions{.parallel = false})).first;

  InterpRow row;
  row.name = chain.name();
  for (const auto t : cand.tiles) {
    row.tiles += (row.tiles.empty() ? "" : "x") + std::to_string(t);
  }
  row.blocks = s.num_blocks();
  row.blocks_per_s = static_cast<double>(row.blocks) / best;
  row.flops = counters.flops + counters.epilogue_flops;
  row.gflops = row.flops / best / 1e9;
  row.t1_gflops = row.flops / t1_best / 1e9;
  return row;
}

/// The native kernel of `s`, resolved once; exits on failure.  The
/// returned kernel pins its module for as long as the caller holds it.
jit::ResolvedKernel resolve_or_exit(const Schedule& s, const char* what) {
  std::string err;
  jit::ResolvedKernel kernel =
      jit::resolve_kernel(s, "bench", jit::detect_toolchain(), &err);
  if (!kernel.ok()) {
    std::fprintf(stderr, "%s: compile failed on %s: %s\n", what,
                 s.chain().name().c_str(), err.c_str());
    std::exit(1);
  }
  return kernel;
}

/// Times the natively compiled kernel on the interp row's schedule, on one
/// thread and on the full pool; the executed-FLOP count (and hence the
/// GFLOP/s denominator) is identical by construction, so the one-thread
/// ratio against the serial interpreter is a pure codegen speedup.
JitRow bench_jit(const ChainSpec& chain, const Schedule& s,
                 const InterpRow& interp_row) {
  JitRow row;
  row.name = interp_row.name;
  row.tiles = interp_row.tiles;
  row.blocks = interp_row.blocks;
  row.interp_t1_gflops = interp_row.t1_gflops;

  const jit::ResolvedKernel kernel = resolve_or_exit(s, "jit bench");
  const jit::KernelInputs in =
      jit::seeded_inputs(chain.batch(), chain.m(), chain.inner(), 1);
  Tensor out(Shape{chain.batch(), chain.m(), chain.inner().back()});
  std::vector<std::vector<float>> scratch;  // reused by every run
  const auto run = [&](int threads) {
    jit::run_compiled(kernel.fn, s, in.a, in.weights, out, scratch, threads);
  };
  // As for the interpreter: each thread count back to back after its own
  // warm-up run (scratch allocation, icache).
  constexpr int kRepeats = 7;
  const auto best_wall = [&](int threads) {
    run(threads);
    std::vector<double> wall;
    for (int r = 0; r < kRepeats; ++r) {
      const auto t0 = clk::now();
      run(threads);
      wall.push_back(secs(t0, clk::now()));
    }
    return best_of(wall);
  };
  row.jit_t1_gflops = interp_row.flops / best_wall(1) / 1e9;
  row.jit_gflops = interp_row.flops / best_wall(0) / 1e9;
  return row;
}

/// VmRSS of this process in KiB (0 when /proc is unavailable).
long vm_rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kib = std::strtol(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kib;
}

struct JitMtRow {
  std::string name;
  std::string tiles;
  std::int64_t blocks = 0;
  double t1_gflops = 0.0;  ///< run_native with threads = 1
  double mt_gflops = 0.0;  ///< run_native with the full worker-slot pool
  [[nodiscard]] double scaling() const { return mt_gflops / t1_gflops; }
};

/// Multicore run_native: the SAME compiled kernel (cache hit on the jit
/// section's key) executed with the block fan-out pinned to one thread
/// and then released to the full worker-slot pool.  Output is
/// bit-identical either way (pinned by tests/exec/test_jit_lifecycle),
/// so the ratio is pure execution scaling.
JitMtRow bench_jit_mt(const ChainSpec& chain, const Schedule& s,
                      const InterpRow& interp_row) {
  JitMtRow row;
  row.name = interp_row.name;
  row.tiles = interp_row.tiles;
  row.blocks = interp_row.blocks;

  const jit::ResolvedKernel kernel = resolve_or_exit(s, "jit-mt bench");
  const jit::KernelInputs in =
      jit::seeded_inputs(chain.batch(), chain.m(), chain.inner(), 1);
  Tensor out(Shape{chain.batch(), chain.m(), chain.inner().back()});
  std::vector<std::vector<float>> scratch;  // reused by every run
  const auto run = [&](int threads) {
    jit::run_compiled(kernel.fn, s, in.a, in.weights, out, scratch, threads);
  };
  constexpr int kRepeats = 7;
  run(1);  // warm-up (scratch arenas, icache)
  run(0);
  std::vector<double> t1_wall;
  std::vector<double> mt_wall;
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = clk::now();
    run(1);
    const auto t1 = clk::now();
    run(0);  // 0 = the full worker-slot pool
    const auto t2 = clk::now();
    t1_wall.push_back(secs(t0, t1));
    mt_wall.push_back(secs(t1, t2));
  }
  row.t1_gflops = interp_row.flops / best_of(t1_wall) / 1e9;
  row.mt_gflops = interp_row.flops / best_of(mt_wall) / 1e9;
  return row;
}

struct JitChurnResult {
  std::size_t cap = 0;      ///< kernel cap the soak squeezes through
  int distinct_keys = 0;    ///< distinct gpu keys cycled
  int iterations = 0;       ///< resolve_kernel calls
  std::int64_t modules_open_before = 0;
  std::int64_t modules_open_after = 0;
  std::int64_t modules_closed_delta = 0;
  long rss_before_kib = 0;
  long rss_after_kib = 0;
};

/// dlopen-churn soak: cycles `distinct_keys` gpu keys over one schedule
/// through a `cap`-entry registry for 256 resolves.  Refcounted modules
/// mean every LRU eviction dlclose()s (nothing else holds the handle),
/// so the resident-module gauge must stay bounded by the cap — the gate
/// the module-leak fix is accepted on.  Keys are stable across runs so
/// a persisted CI cache turns the compiles into disk hits.
JitChurnResult bench_jit_churn(const Schedule& s, const jit::Toolchain& tc) {
  JitChurnResult res;
  res.cap = 4;
  res.distinct_keys = 16;
  res.iterations = 256;

  const jit::CompileStats before = jit::stats_snapshot();
  res.modules_open_before = before.modules_open;
  res.rss_before_kib = vm_rss_kib();
  jit::set_kernel_cap_for_testing(res.cap);
  for (int it = 0; it < res.iterations; ++it) {
    std::string err;
    const jit::ResolvedKernel rk = jit::resolve_kernel(
        s, "soak-" + std::to_string(it % res.distinct_keys), tc, &err);
    if (!rk.ok()) {
      std::fprintf(stderr, "jit churn soak: resolve failed: %s\n", err.c_str());
      std::exit(1);
    }
  }
  const jit::CompileStats after = jit::stats_snapshot();
  jit::set_kernel_cap_for_testing(4096);  // the production default
  res.modules_open_after = after.modules_open;
  res.modules_closed_delta = after.modules_closed - before.modules_closed;
  res.rss_after_kib = vm_rss_kib();
  return res;
}

struct IsolationRow {
  std::string name;
  std::string tiles;
  double inproc_wall_s = 0.0;    ///< one in-process jit measure() call
  double isolated_wall_s = 0.0;  ///< one sandboxed measure() call
  [[nodiscard]] double overhead() const {
    return isolated_wall_s / inproc_wall_s;
  }
};

/// One schedule through both jit measurement paths: the in-process
/// backend and the crash-isolated worker pool.  Both are warmed first
/// (compile, worker spawn, input build) so the ratio prices the steady
/// state — the per-measure pipe roundtrip — not one-time setup.
IsolationRow bench_isolation(const ChainSpec& chain, const Schedule& s,
                             const std::string& tiles,
                             const MeasureBackend& inproc,
                             const MeasureBackend& isolated) {
  IsolationRow row;
  row.name = chain.name();
  row.tiles = tiles;
  const KernelMeasurement warm_in = inproc.measure(s);
  const KernelMeasurement warm_iso = isolated.measure(s);
  if (!warm_in.ok || !warm_iso.ok) {
    std::fprintf(stderr, "isolation bench: warm-up failed on %s: %s\n",
                 row.name.c_str(),
                 (!warm_in.ok ? warm_in : warm_iso).fail_reason.c_str());
    std::exit(1);
  }
  constexpr int kRepeats = 5;
  std::vector<double> inproc_wall;
  std::vector<double> iso_wall;
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = clk::now();
    const KernelMeasurement mi = inproc.measure(s);
    const auto t1 = clk::now();
    const KernelMeasurement ms = isolated.measure(s);
    const auto t2 = clk::now();
    if (!mi.ok || !ms.ok) {
      std::fprintf(stderr, "isolation bench: measurement failed on %s: %s\n",
                   row.name.c_str(),
                   (!mi.ok ? mi : ms).fail_reason.c_str());
      std::exit(1);
    }
    inproc_wall.push_back(secs(t0, t1));
    iso_wall.push_back(secs(t1, t2));
  }
  row.inproc_wall_s = best_of(inproc_wall);
  row.isolated_wall_s = best_of(iso_wall);
  return row;
}

struct AdmissionResult {
  int flood_total = 0;
  int completed = 0;
  int rejected = 0;
  int other = 0;  ///< must stay 0 (no cancel/deadline configured)
  std::size_t queue_cap = 0;
  std::size_t memo_cap = 0;
  std::size_t max_queued_seen = 0;
  std::size_t max_memo_seen = 0;
  std::uint64_t memo_evictions = 0;
  long rss_before_kib = 0;
  long rss_after_kib = 0;
  double flood_wall_s = 0.0;
  // Deterministic memo-churn phase: 256 distinct chains through the
  // 32-entry memo via the batch path (every one tunes, cap must hold).
  int churn_chains = 0;
  std::size_t churn_max_memo_seen = 0;
  std::uint64_t churn_evictions = 0;
};

AdmissionResult bench_admission(const GpuSpec& gpu) {
  AdmissionResult res;
  res.queue_cap = 16;
  res.memo_cap = 32;

  FusionEngineOptions opts;
  opts.jobs = 2;
  opts.queue.max_queued = res.queue_cap;
  opts.memo.max_entries = res.memo_cap;
  // Tiny search budget: this section measures queue/memo mechanics, not
  // search quality.
  opts.tuner.population = 16;
  opts.tuner.topk = 2;
  opts.tuner.min_generations = 1;
  opts.tuner.max_generations = 2;
  FusionEngine engine(gpu, opts);

  res.rss_before_kib = vm_rss_kib();
  const auto t0 = clk::now();

  // ---- flood: 10k distinct chains, non-blocking submission ---------------
  constexpr int kFlood = 10000;
  res.flood_total = kFlood;
  std::deque<FusionTicket> outstanding;
  const auto harvest_ready = [&](bool drain) {
    while (!outstanding.empty() && (drain || outstanding.front().ready())) {
      const FusionResult& r = outstanding.front().get();
      if (r.status == FusionStatus::Rejected) {
        ++res.rejected;
      } else if (r.status == FusionStatus::Ok ||
                 r.status == FusionStatus::MeasureFailed) {
        ++res.completed;
      } else {
        ++res.other;
      }
      outstanding.pop_front();  // ticket (and its state) released: RSS
                                // stays bounded by the rolling window
    }
  };
  for (int i = 0; i < kFlood; ++i) {
    // 10k structurally distinct digests from a 100x100 (m, n) grid.
    outstanding.push_back(engine.submit(ChainSpec::gemm_chain(
        "f" + std::to_string(i), 1, 64 + (i % 100), 64 + (i / 100), 32, 32)));
    harvest_ready(/*drain=*/false);
    if (outstanding.size() > 1024) {
      // Bound the caller-side ticket window too: block on the oldest
      // (an admitted job mid-tune), then sweep everything behind it.
      (void)outstanding.front().get();
      harvest_ready(/*drain=*/false);
    }
    if (i % 64 == 0) {
      const EngineStats s = engine.stats();
      res.max_queued_seen = std::max(res.max_queued_seen, s.queued);
      res.max_memo_seen = std::max(res.max_memo_seen, s.memo_entries);
    }
  }
  harvest_ready(/*drain=*/true);
  res.flood_wall_s = secs(t0, clk::now());
  res.rss_after_kib = vm_rss_kib();
  {
    const EngineStats s = engine.stats();
    res.max_queued_seen = std::max(res.max_queued_seen, s.queued);
    res.max_memo_seen = std::max(res.max_memo_seen, s.memo_entries);
    res.memo_evictions = s.memo_evictions;
  }

  // ---- deterministic memo churn through the batch path -------------------
  constexpr int kChurn = 256;
  constexpr int kBatch = 32;
  res.churn_chains = kChurn;
  for (int base = 0; base < kChurn; base += kBatch) {
    std::vector<ChainSpec> batch;
    batch.reserve(kBatch);
    for (int i = base; i < base + kBatch; ++i) {
      batch.push_back(ChainSpec::gemm_chain("churn" + std::to_string(i), 2,
                                            64 + i, 64, 32, 32));
    }
    (void)engine.fuse_chains(batch, "churn");
    res.churn_max_memo_seen =
        std::max(res.churn_max_memo_seen, engine.result_cache_size());
  }
  res.churn_evictions = engine.stats().memo_evictions - res.memo_evictions;
  return res;
}

int run() {
  const GpuSpec gpu = a100();

  // ---- interpreter throughput -----------------------------------------------
  // Scaled-down Fig. 7 shapes: full-size chains take seconds per run in a
  // functional interpreter; the mini variants keep tile structure
  // (multiples of 16, padded cases) while fitting a benchmark budget.
  PruneOptions prune;
  prune.smem_limit_bytes = gpu.smem_per_block;
  const std::vector<ChainSpec> interp_chains = {
      ChainSpec::gemm_chain("fig7-mini", 2, 256, 256, 128, 128),
      ChainSpec::gemm_chain("fig7-mini-wide", 1, 512, 256, 64, 64),
      ChainSpec::attention("fig7-mini-attn", 4, 128, 128, 64, 64),
  };
  std::vector<InterpRow> interp_rows;
  std::vector<const ChainSpec*> interp_row_chains;
  std::vector<Schedule> interp_row_scheds;
  for (const auto& c : interp_chains) {
    const SearchSpace space(c, SpaceOptions{}, prune);
    const std::size_t n = space.candidates().size();
    // A deterministic spread: small-tile, mid and large-tile schedules.
    for (const std::size_t idx : {n / 8, n / 2, (7 * n) / 8}) {
      interp_rows.push_back(bench_interp(c, space, idx));
      interp_row_chains.push_back(&c);
      interp_row_scheds.push_back(space.schedule_for(space.candidates()[idx]));
    }
  }

  Table interp_table("Interpreter throughput — arena micro-kernel");
  interp_table.set_header(
      {"workload", "tiles", "blocks", "blk/s", "GFLOP/s", "1T GFLOP/s"});
  for (const auto& r : interp_rows) {
    interp_table.add_row({r.name, r.tiles, std::to_string(r.blocks),
                          Table::num(r.blocks_per_s, 0),
                          Table::num(r.gflops, 1), Table::num(r.t1_gflops, 1)});
  }

  // ---- measure backends side by side ----------------------------------------
  // The same schedules through the pluggable measurement subsystem: the
  // simulator's predicted time next to the interpreter backend's observed
  // CPU time, plus what one measure() call costs on each.  The rank
  // correlation is the number that matters: the interpreter orders
  // candidates like the simulator does (the conformance suite gates it).
  const SimulatorBackend sim_backend(gpu);
  ExecBackendOptions interp_opts;
  interp_opts.preset = ExecRung::Interpreter;
  const ExecBackend interp_backend(gpu, interp_opts);
  std::vector<BackendRow> backend_rows;
  for (const auto& c : interp_chains) {
    const SearchSpace space(c, SpaceOptions{}, prune);
    const std::size_t n = space.candidates().size();
    // The pruned space still holds quadrant-II candidates (rule-4 slack)
    // whose actual smem plan fails at lowering; scan forward to the next
    // measurable one, deduplicating in case two scans converge (a
    // duplicate point would pad the rank-correlation sample).
    std::vector<std::size_t> chosen;
    for (const std::size_t idx : {n / 8, n / 2, (7 * n) / 8}) {
      std::size_t feasible = idx;
      while (feasible < n &&
             (std::find(chosen.begin(), chosen.end(), feasible) != chosen.end() ||
              !sim_backend.measure(space.schedule_for(space.candidates()[feasible]))
                   .ok)) {
        ++feasible;
      }
      if (feasible == n) continue;
      chosen.push_back(feasible);
      backend_rows.push_back(
          bench_backend(c, space, feasible, sim_backend, interp_backend));
    }
  }
  std::vector<double> sim_times;
  std::vector<double> interp_times;
  Table backend_table(
      "Measure backends — simulator (predicted) vs interpreter (CPU wall)");
  backend_table.set_header({"workload", "tiles", "sim time (us)",
                            "interp time (ms)", "sim call (us)",
                            "interp call (ms)"});
  for (const auto& r : backend_rows) {
    sim_times.push_back(r.sim_time_s);
    interp_times.push_back(r.interp_time_s);
    backend_table.add_row({r.name, r.tiles, Table::num(r.sim_time_s * 1e6, 2),
                           Table::num(r.interp_time_s * 1e3, 2),
                           Table::num(r.sim_wall_s * 1e6, 1),
                           Table::num(r.interp_wall_s * 1e3, 2)});
  }
  const double backend_rank_corr = spearman(sim_times, interp_times);

  // ---- jit native codegen ---------------------------------------------------
  // The same fig7-mini schedules compiled to real machine code (exec/jit,
  // -O3 -march=native, register-blocked micro-kernel) and timed against
  // the interpreter.  Executed FLOPs are identical by construction.
  const jit::Toolchain toolchain = jit::detect_toolchain();
  const jit::CompileStats jit_before = jit::stats_snapshot();
  std::vector<JitRow> jit_rows;
  if (toolchain.ok()) {
    for (std::size_t i = 0; i < interp_rows.size(); ++i) {
      jit_rows.push_back(bench_jit(*interp_row_chains[i], interp_row_scheds[i],
                                   interp_rows[i]));
    }
  } else {
    std::fprintf(stderr, "jit section skipped: %s\n", toolchain.reason.c_str());
  }
  const jit::CompileStats jit_delta = jit::stats_snapshot().since(jit_before);
  Table jit_table("JIT native codegen — compiled kernels vs interpreter");
  jit_table.set_header({"workload", "tiles", "blocks", "interp 1T GFLOP/s",
                        "jit 1T GFLOP/s", "jit GFLOP/s", "1T speedup"});
  std::vector<double> jit_ratios;
  std::vector<double> jit_gflops_list;
  for (const auto& r : jit_rows) {
    jit_ratios.push_back(r.vs_interp());
    jit_gflops_list.push_back(r.jit_gflops);
    jit_table.add_row({r.name, r.tiles, std::to_string(r.blocks),
                       Table::num(r.interp_t1_gflops, 1),
                       Table::num(r.jit_t1_gflops, 1),
                       Table::num(r.jit_gflops, 1),
                       Table::num(r.vs_interp(), 2) + "x"});
  }
  const double jit_geo = jit_rows.empty() ? 0.0 : geomean(jit_ratios);
  const double jit_geo_gflops = jit_rows.empty() ? 0.0 : geomean(jit_gflops_list);

  // ---- static verifier overhead ---------------------------------------------
  // The pre-compile safety gate (src/verify/) runs once per resolve in
  // debug / MCFUSER_VERIFY=1 deployments; its cost must stay a rounding
  // error next to the compile it guards.  Measured over the exact
  // schedules the jit section compiled, min-of-repeats to shed timer
  // noise; the <= 10%-of-compile-wall gate binds only when this run
  // actually compiled TUs (a warm cache makes the ratio meaningless).
  const int verify_schedules = static_cast<int>(interp_row_scheds.size());
  double verify_wall_s = 0.0;
  int verify_safe = 0;
  {
    constexpr int kVerifyReps = 5;
    double best = 1e100;
    for (int rep = 0; rep < kVerifyReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      int safe = 0;
      for (const Schedule& s : interp_row_scheds) {
        safe += verify::verify_schedule(s).safe() ? 1 : 0;
      }
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      best = std::min(best, dt.count());
      verify_safe = safe;
    }
    verify_wall_s = best;
  }

  // ---- jit multicore scaling ------------------------------------------------
  // run_native's block fan-out across the worker-slot pool: single
  // thread vs full concurrency on the kernels the jit section already
  // compiled (cache hits — no extra compile wall).  The >= 2.5x geomean
  // gate only binds on hosts with >= 4 cores; below that the scaling is
  // reported but a 1-core runner cannot fail it.
  const unsigned hw_cores = std::max(1u, std::thread::hardware_concurrency());
  std::vector<JitMtRow> jit_mt_rows;
  if (toolchain.ok()) {
    for (std::size_t i = 0; i < interp_rows.size(); ++i) {
      jit_mt_rows.push_back(bench_jit_mt(*interp_row_chains[i],
                                         interp_row_scheds[i], interp_rows[i]));
    }
  }
  Table jit_mt_table("JIT multicore — run_native 1 thread vs full pool");
  jit_mt_table.set_header({"workload", "tiles", "blocks", "1T GFLOP/s",
                           "MT GFLOP/s", "scaling"});
  std::vector<double> jit_mt_scalings;
  for (const auto& r : jit_mt_rows) {
    jit_mt_scalings.push_back(r.scaling());
    jit_mt_table.add_row({r.name, r.tiles, std::to_string(r.blocks),
                          Table::num(r.t1_gflops, 1), Table::num(r.mt_gflops, 1),
                          Table::num(r.scaling(), 2) + "x"});
  }
  const double jit_mt_geo =
      jit_mt_rows.empty() ? 0.0 : geomean(jit_mt_scalings);

  // ---- jit module-lifecycle churn soak --------------------------------------
  JitChurnResult churn;
  if (toolchain.ok()) {
    churn = bench_jit_churn(interp_row_scheds.front(), toolchain);
  }
  const jit::CompileStats jit_now = jit::stats_snapshot();

  // ---- crash-isolated measurement overhead ----------------------------------
  // The same fig7-mini schedules measured through the sandboxed worker
  // pool ("jit-isolated", exec/sandbox.hpp) next to the in-process jit
  // backend.  The gate: isolation may cost at most 25% wall-clock per
  // measure() geomean — the price of surviving SIGSEGV is a pipe
  // roundtrip, not a fork+compile per request.
  const sandbox::Availability sandbox_avail = sandbox::availability();
  const bool isolation_available = toolchain.ok() && sandbox_avail.ok;
  std::vector<IsolationRow> isolation_rows;
  if (isolation_available) {
    const ExecBackend inproc_backend(gpu);
    ExecBackendOptions iso_opts;
    iso_opts.preset = ExecRung::Sandbox;
    iso_opts.pool.workers = 1;  // mirror the in-process execution geometry
    const ExecBackend isolated_backend(gpu, iso_opts);
    if (isolated_backend.top_rung() == ExecRung::Sandbox) {
      for (std::size_t i = 0; i < interp_rows.size(); ++i) {
        // The interp rows were never screened through the lowering gate
        // (the functional interpreter happily runs quadrant-II
        // candidates); only gate-passing schedules reach real execution.
        if (!inproc_backend.measure(interp_row_scheds[i]).ok) continue;
        isolation_rows.push_back(
            bench_isolation(*interp_row_chains[i], interp_row_scheds[i],
                            interp_rows[i].tiles, inproc_backend,
                            isolated_backend));
      }
    }
  } else {
    std::fprintf(stderr, "isolation section skipped: %s\n",
                 (toolchain.ok() ? sandbox_avail.reason : toolchain.reason)
                     .c_str());
  }
  Table isolation_table(
      "Crash isolation — sandboxed worker measure() vs in-process jit");
  isolation_table.set_header({"workload", "tiles", "in-proc call (ms)",
                              "isolated call (ms)", "overhead"});
  std::vector<double> isolation_overheads;
  for (const auto& r : isolation_rows) {
    isolation_overheads.push_back(r.overhead());
    isolation_table.add_row({r.name, r.tiles,
                             Table::num(r.inproc_wall_s * 1e3, 2),
                             Table::num(r.isolated_wall_s * 1e3, 2),
                             Table::num(r.overhead(), 2) + "x"});
  }
  const double isolation_geo =
      isolation_rows.empty() ? 0.0 : geomean(isolation_overheads);

  // ---- admission control under flood ----------------------------------------
  const AdmissionResult adm = bench_admission(gpu);
  Table adm_table("Admission control — 10k-distinct-chain flood vs bounded "
                  "queue + LRU memo");
  adm_table.set_header({"metric", "value"});
  adm_table.add_row({"chains flooded", std::to_string(adm.flood_total)});
  adm_table.add_row({"completed", std::to_string(adm.completed)});
  adm_table.add_row({"rejected (shed)", std::to_string(adm.rejected)});
  adm_table.add_row({"flood wall (s)", Table::num(adm.flood_wall_s, 2)});
  adm_table.add_row({"queue cap / max seen",
                     std::to_string(adm.queue_cap) + " / " +
                         std::to_string(adm.max_queued_seen)});
  adm_table.add_row({"memo cap / max seen",
                     std::to_string(adm.memo_cap) + " / " +
                         std::to_string(std::max(adm.max_memo_seen,
                                                 adm.churn_max_memo_seen))});
  adm_table.add_row({"memo evictions (flood+churn)",
                     std::to_string(adm.memo_evictions + adm.churn_evictions)});
  adm_table.add_row({"RSS before/after flood (MiB)",
                     Table::num(adm.rss_before_kib / 1024.0, 1) + " / " +
                         Table::num(adm.rss_after_kib / 1024.0, 1)});

  if (!mcf::bench::emit(interp_table, "tuning_throughput_interp")) return 1;
  if (!mcf::bench::emit(backend_table, "tuning_throughput_backends")) return 1;
  if (toolchain.ok() &&
      !mcf::bench::emit(jit_table, "tuning_throughput_jit")) {
    return 1;
  }
  if (!jit_mt_rows.empty() &&
      !mcf::bench::emit(jit_mt_table, "tuning_throughput_jit_mt")) {
    return 1;
  }
  if (!isolation_rows.empty() &&
      !mcf::bench::emit(isolation_table, "tuning_throughput_isolation")) {
    return 1;
  }
  if (!mcf::bench::emit(adm_table, "tuning_throughput_admission")) return 1;
  std::printf("sim/interp backend rank correlation: %.3f\n", backend_rank_corr);
  if (toolchain.ok()) {
    std::printf("jit vs interpreter geomean (1 thread each): %.2fx "
                "(%.1f GFLOP/s full-pool geomean, "
                "%lld TUs, %.2fs compile wall)\n",
                jit_geo, jit_geo_gflops,
                static_cast<long long>(jit_delta.tus_compiled),
                jit_delta.compile_wall_s);
    std::printf("jit-mt scaling geomean: %.2fx on %u cores\n", jit_mt_geo,
                hw_cores);
    std::printf("verifier: %d/%d schedules proven safe in %.1f us "
                "(%.3f%% of %.2fs compile wall)\n",
                verify_safe, verify_schedules, verify_wall_s * 1e6,
                jit_delta.compile_wall_s > 0.0
                    ? 100.0 * verify_wall_s / jit_delta.compile_wall_s
                    : 0.0,
                jit_delta.compile_wall_s);
    std::printf("jit churn soak: %d resolves of %d keys through cap %zu -> "
                "%lld modules resident (was %lld), %lld closed, RSS %.1f -> "
                "%.1f MiB\n",
                churn.iterations, churn.distinct_keys, churn.cap,
                static_cast<long long>(churn.modules_open_after),
                static_cast<long long>(churn.modules_open_before),
                static_cast<long long>(churn.modules_closed_delta),
                churn.rss_before_kib / 1024.0, churn.rss_after_kib / 1024.0);
  }
  if (!isolation_rows.empty()) {
    std::printf("isolated measure() geomean overhead: %.2fx\n", isolation_geo);
  }

  // ---- JSON (stable schema, consumed by future PRs / CI) --------------------
  FILE* f = std::fopen("BENCH_tuning_throughput.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_tuning_throughput.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"tuning_throughput\",\n");
  std::fprintf(f, "  \"schema_version\": 9,\n");
  std::fprintf(f, "  \"threads\": %u,\n", ThreadPool::global().size());
  std::fprintf(f, "  \"interpreter\": {\n");
  std::fprintf(f, "    \"workloads\": [\n");
  for (std::size_t i = 0; i < interp_rows.size(); ++i) {
    const auto& r = interp_rows[i];
    std::fprintf(f,
                 "      {\"name\": \"%s\", \"tiles\": \"%s\", \"blocks\": %lld, "
                 "\"blocks_per_s\": %.6g, \"gflops\": %.4f, "
                 "\"t1_gflops\": %.4f}%s\n",
                 r.name.c_str(), r.tiles.c_str(),
                 static_cast<long long>(r.blocks), r.blocks_per_s, r.gflops,
                 r.t1_gflops, i + 1 < interp_rows.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  std::fprintf(f, "  \"measure_backends\": {\n");
  std::fprintf(f, "    \"rank_correlation\": %.4f,\n", backend_rank_corr);
  std::fprintf(f, "    \"workloads\": [\n");
  for (std::size_t i = 0; i < backend_rows.size(); ++i) {
    const auto& r = backend_rows[i];
    std::fprintf(f,
                 "      {\"name\": \"%s\", \"tiles\": \"%s\", "
                 "\"sim_time_s\": %.6g, \"interp_time_s\": %.6g, "
                 "\"sim_measure_wall_s\": %.6g, "
                 "\"interp_measure_wall_s\": %.6g}%s\n",
                 r.name.c_str(), r.tiles.c_str(), r.sim_time_s,
                 r.interp_time_s, r.sim_wall_s, r.interp_wall_s,
                 i + 1 < backend_rows.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  std::fprintf(f, "  \"jit\": {\n");
  std::fprintf(f, "    \"available\": %s,\n", toolchain.ok() ? "true" : "false");
  std::fprintf(f, "    \"geomean_gflops\": %.4f,\n", jit_geo_gflops);
  std::fprintf(f, "    \"geomean_vs_interp\": %.4f,\n", jit_geo);
  std::fprintf(f,
               "    \"compile\": {\"tus_compiled\": %lld, "
               "\"kernels_compiled\": %lld, \"cache_hits\": %lld, "
               "\"compile_wall_s\": %.4f},\n",
               static_cast<long long>(jit_delta.tus_compiled),
               static_cast<long long>(jit_delta.kernels_compiled),
               static_cast<long long>(jit_delta.cache_hits()),
               jit_delta.compile_wall_s);
  // Absolute module-lifecycle gauges at this point of the run (identity:
  // opened == open + closed).
  std::fprintf(f,
               "    \"modules\": {\"opened\": %lld, \"open\": %lld, "
               "\"closed\": %lld},\n",
               static_cast<long long>(jit_now.modules_opened),
               static_cast<long long>(jit_now.modules_open),
               static_cast<long long>(jit_now.modules_closed));
  std::fprintf(f,
               "    \"churn\": {\"iterations\": %d, \"distinct_keys\": %d, "
               "\"cap\": %zu, \"modules_open_before\": %lld, "
               "\"modules_open_after\": %lld, \"modules_closed\": %lld, "
               "\"rss_before_kib\": %ld, \"rss_after_kib\": %ld},\n",
               churn.iterations, churn.distinct_keys, churn.cap,
               static_cast<long long>(churn.modules_open_before),
               static_cast<long long>(churn.modules_open_after),
               static_cast<long long>(churn.modules_closed_delta),
               churn.rss_before_kib, churn.rss_after_kib);
  std::fprintf(f, "    \"workloads\": [\n");
  for (std::size_t i = 0; i < jit_rows.size(); ++i) {
    const auto& r = jit_rows[i];
    std::fprintf(f,
                 "      {\"name\": \"%s\", \"tiles\": \"%s\", \"blocks\": "
                 "%lld, \"interp_t1_gflops\": %.4f, \"jit_t1_gflops\": "
                 "%.4f, \"jit_gflops\": %.4f, \"vs_interp\": %.4f}%s\n",
                 r.name.c_str(), r.tiles.c_str(),
                 static_cast<long long>(r.blocks), r.interp_t1_gflops,
                 r.jit_t1_gflops, r.jit_gflops, r.vs_interp(),
                 i + 1 < jit_rows.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  std::fprintf(f,
               "  \"verify\": {\"schedules\": %d, \"safe\": %d, "
               "\"wall_s\": %.6f, \"compile_wall_s\": %.4f, "
               "\"ratio\": %.6f},\n",
               verify_schedules, verify_safe, verify_wall_s,
               jit_delta.compile_wall_s,
               jit_delta.compile_wall_s > 0.0
                   ? verify_wall_s / jit_delta.compile_wall_s
                   : 0.0);
  std::fprintf(f, "  \"jit_mt\": {\n");
  std::fprintf(f, "    \"available\": %s,\n",
               jit_mt_rows.empty() ? "false" : "true");
  std::fprintf(f, "    \"hw_cores\": %u,\n", hw_cores);
  std::fprintf(f, "    \"gate_active\": %s,\n",
               (!jit_mt_rows.empty() && hw_cores >= 4) ? "true" : "false");
  std::fprintf(f, "    \"geomean_scaling\": %.4f,\n", jit_mt_geo);
  std::fprintf(f, "    \"workloads\": [\n");
  for (std::size_t i = 0; i < jit_mt_rows.size(); ++i) {
    const auto& r = jit_mt_rows[i];
    std::fprintf(f,
                 "      {\"name\": \"%s\", \"tiles\": \"%s\", \"blocks\": "
                 "%lld, \"t1_gflops\": %.4f, \"mt_gflops\": %.4f, "
                 "\"scaling\": %.4f}%s\n",
                 r.name.c_str(), r.tiles.c_str(),
                 static_cast<long long>(r.blocks), r.t1_gflops, r.mt_gflops,
                 r.scaling(), i + 1 < jit_mt_rows.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  std::fprintf(f, "  \"isolation\": {\n");
  std::fprintf(f, "    \"available\": %s,\n",
               isolation_rows.empty() ? "false" : "true");
  std::fprintf(f, "    \"geomean_overhead\": %.4f,\n", isolation_geo);
  std::fprintf(f, "    \"workloads\": [\n");
  for (std::size_t i = 0; i < isolation_rows.size(); ++i) {
    const auto& r = isolation_rows[i];
    std::fprintf(f,
                 "      {\"name\": \"%s\", \"tiles\": \"%s\", "
                 "\"inproc_measure_wall_s\": %.6g, "
                 "\"isolated_measure_wall_s\": %.6g, \"overhead\": %.4f}%s\n",
                 r.name.c_str(), r.tiles.c_str(), r.inproc_wall_s,
                 r.isolated_wall_s, r.overhead(),
                 i + 1 < isolation_rows.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n");
  std::fprintf(f, "  \"admission\": {\n");
  std::fprintf(f,
               "    \"flood_chains\": %d,\n    \"completed\": %d,\n"
               "    \"rejected\": %d,\n    \"flood_wall_s\": %.4f,\n",
               adm.flood_total, adm.completed, adm.rejected, adm.flood_wall_s);
  std::fprintf(f,
               "    \"queue_cap\": %zu,\n    \"max_queued_seen\": %zu,\n"
               "    \"memo_cap\": %zu,\n    \"max_memo_entries_seen\": %zu,\n",
               adm.queue_cap, adm.max_queued_seen, adm.memo_cap,
               std::max(adm.max_memo_seen, adm.churn_max_memo_seen));
  std::fprintf(f,
               "    \"memo_evictions\": %llu,\n"
               "    \"rss_before_kib\": %ld,\n    \"rss_after_kib\": %ld,\n",
               static_cast<unsigned long long>(adm.memo_evictions +
                                               adm.churn_evictions),
               adm.rss_before_kib, adm.rss_after_kib);
  std::fprintf(f,
               "    \"churn\": {\"chains\": %d, \"max_memo_entries_seen\": "
               "%zu, \"evictions\": %llu}\n",
               adm.churn_chains, adm.churn_max_memo_seen,
               static_cast<unsigned long long>(adm.churn_evictions));
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("[json written to BENCH_tuning_throughput.json]\n");

  // The JIT acceptance gate: compiled kernels must beat the interpreter
  // >= 3x (geomean GFLOP/s, one thread each) on the fig7-mini family.
  if (toolchain.ok() && jit_geo < 3.0) {
    std::fprintf(stderr,
                 "FAIL: jit vs interpreter (1 thread each) %.2fx < 3x\n",
                 jit_geo);
    return 1;
  }
  // Multicore gate: the block fan-out must scale >= 2.5x geomean on the
  // fig7-mini family — but only where the host can physically deliver it
  // (a 1-core CI runner reports instead of failing).
  if (!jit_mt_rows.empty() && hw_cores >= 4 && jit_mt_geo < 2.5) {
    std::fprintf(stderr, "FAIL: jit-mt scaling %.2fx < 2.5x on %u cores\n",
                 jit_mt_geo, hw_cores);
    return 1;
  }
  if (!jit_mt_rows.empty() && hw_cores < 4) {
    std::printf("jit-mt gate skipped (%u cores < 4; scaling reported only)\n",
                hw_cores);
  }
  // Module-lifecycle gates: churning 16 keys through a 4-entry registry
  // must dlclose on every eviction — the resident count stays bounded by
  // the cap (plus whatever the process had open going in) and closes
  // actually happened.  This is the dlopen-leak regression gate.
  if (toolchain.ok()) {
    if (churn.modules_open_after >
        churn.modules_open_before + static_cast<std::int64_t>(churn.cap)) {
      std::fprintf(stderr,
                   "FAIL: churn left %lld modules resident (> %lld before + "
                   "cap %zu)\n",
                   static_cast<long long>(churn.modules_open_after),
                   static_cast<long long>(churn.modules_open_before),
                   churn.cap);
      return 1;
    }
    if (churn.modules_closed_delta == 0) {
      std::fprintf(stderr,
                   "FAIL: %d-resolve churn over %d keys closed no modules\n",
                   churn.iterations, churn.distinct_keys);
      return 1;
    }
    if (jit_now.modules_opened !=
        jit_now.modules_open + jit_now.modules_closed) {
      std::fprintf(stderr,
                   "FAIL: module accounting %lld opened != %lld open + %lld "
                   "closed\n",
                   static_cast<long long>(jit_now.modules_opened),
                   static_cast<long long>(jit_now.modules_open),
                   static_cast<long long>(jit_now.modules_closed));
      return 1;
    }
  }
  // Verifier gates: every fig7-mini schedule must be proven safe (a
  // flag here is by definition a false positive — these kernels run
  // ASan-clean), and the static pass must stay cheap relative to the
  // compilation it guards.  The overhead ratio only means something
  // when this run actually compiled TUs; a warm cache makes
  // compile_wall_s ~0 and the comparison meaningless.
  if (verify_safe != verify_schedules) {
    std::fprintf(stderr, "FAIL: verifier flagged %d/%d known-safe schedules\n",
                 verify_schedules - verify_safe, verify_schedules);
    return 1;
  }
  if (toolchain.ok() && jit_delta.tus_compiled > 0 &&
      verify_wall_s > 0.10 * jit_delta.compile_wall_s) {
    std::fprintf(stderr,
                 "FAIL: verifier overhead %.1f us > 10%% of %.2fs compile "
                 "wall\n",
                 verify_wall_s * 1e6, jit_delta.compile_wall_s);
    return 1;
  }
  // Isolation gate: sandboxed measurement may cost at most 25% geomean
  // wall-clock over the in-process jit path on the fig7-mini family.
  if (!isolation_rows.empty() && isolation_geo > 1.25) {
    std::fprintf(stderr, "FAIL: isolation overhead %.2fx > 1.25x\n",
                 isolation_geo);
    return 1;
  }
  // Admission gates: every flooded ticket landed in exactly one terminal
  // bucket, and the bounded structures never exceeded their caps.
  if (adm.completed + adm.rejected != adm.flood_total || adm.other != 0) {
    std::fprintf(stderr,
                 "FAIL: admission accounting %d completed + %d rejected + %d "
                 "other != %d submitted\n",
                 adm.completed, adm.rejected, adm.other, adm.flood_total);
    return 1;
  }
  if (adm.rejected == 0 || adm.completed == 0) {
    std::fprintf(stderr,
                 "FAIL: the flood must both shed (%d rejected) and make "
                 "progress (%d completed)\n",
                 adm.rejected, adm.completed);
    return 1;
  }
  if (adm.max_queued_seen > adm.queue_cap) {
    std::fprintf(stderr, "FAIL: queue depth %zu exceeded the %zu cap\n",
                 adm.max_queued_seen, adm.queue_cap);
    return 1;
  }
  if (std::max(adm.max_memo_seen, adm.churn_max_memo_seen) > adm.memo_cap) {
    std::fprintf(stderr, "FAIL: memo entries %zu exceeded the %zu cap\n",
                 std::max(adm.max_memo_seen, adm.churn_max_memo_seen),
                 adm.memo_cap);
    return 1;
  }
  if (adm.churn_evictions == 0) {
    std::fprintf(stderr,
                 "FAIL: 256 distinct chains through a 32-entry memo must "
                 "evict\n");
    return 1;
  }
  std::printf("PASS: verifier clean%s%s, admission bounded "
              "(queue %zu<=%zu, memo %zu<=%zu, %d shed)\n",
              toolchain.ok() ? ", jit >= 3x interpreter, modules bounded"
                             : " (jit skipped)",
              (!jit_mt_rows.empty() && hw_cores >= 4) ? ", jit-mt >= 2.5x"
                                                      : "",
              adm.max_queued_seen, adm.queue_cap,
              std::max(adm.max_memo_seen, adm.churn_max_memo_seen),
              adm.memo_cap, adm.rejected);
  return 0;
}

}  // namespace

int main() { return run(); }

// fuse-cold: closed loop, one caller.  Each op is one request for a chain
// this process has never seen, so nothing of it is in the jit cache:
// FusionEngine::fuse with the default engine, verify_schedule on the
// winner, and the winner's first successful run_native, which compiles
// it.  The compile is most of the op.
//
// A traced run also spends a quarter of its time on requests tuned with
// the jit backend, which compiles and wall-clock-samples every measured
// candidate; they are reported per layer as jit_tune.*.  Their latency
// depends on which candidates the wall-clock tuner happens to measure
// (8 to 32 kernels per request on the reference host), a spread too
// wide for an end-to-end bound.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chains.hpp"
#include "engine/engine.hpp"
#include "exec/jit.hpp"
#include "harness.hpp"
#include "oracle.hpp"
#include "traced_fuse.hpp"
#include "verify/verify.hpp"

namespace mcf::e2e {

/// Distinct chains available to one run; the loop normally ends on time.
inline constexpr std::size_t kColdChains = 128;

/// What one cold request produced.
struct ColdOp {
  std::string why;  ///< failure reason; empty when the request succeeded
  double seconds = 0.0;
  std::optional<CompiledKernel> kernel;
  TracedFuse traced;      ///< the traced sequence's results (traced ops)
  int verify_sites = 0;
  jit::CompileStats jit;  ///< compiler work during the request
};

/// One timed request: fuse, verify the winner, run it once.  With `trace` it
/// runs FusionEngine::fuse's sequence explicitly (traced_fuse) with a
/// span per stage under one "fuse.request" span.
inline ColdOp cold_request(const FusionEngine& engine,
                           const std::shared_ptr<TimedBackend>& timed, Trace* trace,
                           ChainCase& c, std::int64_t req) {
  ColdOp op;
  const jit::CompileStats jit0 = jit::stats_snapshot();
  const auto t0 = Clock::now();
  if (trace != nullptr) {
    timed->begin_request(req);
    verify::VerifyReport v;
    bool ran = false;
    {
      const Trace::Scope root(trace, "fuse.request", req);
      op.traced = traced_fuse(engine, timed, *trace, c.chain, req);
      if (op.traced.kernel) {
        {
          const Trace::Scope span(trace, "verify", req);
          v = verify::verify_schedule(op.traced.kernel->schedule());
        }
        if (v.safe()) {
          const Trace::Scope span(trace, "exec.first_run", req);
          ran = op.traced.kernel->run_native(c.a, c.weights, c.out);
        }
      }
    }
    op.why = !op.traced.error.empty() ? op.traced.error
             : !v.safe()              ? "verifier rejected the winner"
             : !ran                   ? "run_native failed"
                                      : "";
    op.verify_sites = v.sites_checked;
    op.kernel = std::move(op.traced.kernel);
  } else {
    FusionResult r = engine.fuse(c.chain);
    if (!r.ok()) {
      op.why = std::string(fusion_status_name(r.status)) + ": " + r.reason;
    } else if (!verify::verify_schedule(r.kernel->schedule()).safe()) {
      op.why = "verifier rejected the winner";
    } else if (!r.kernel->run_native(c.a, c.weights, c.out)) {
      op.why = "run_native failed";
    }
    op.kernel = std::move(r.kernel);
  }
  op.seconds = seconds_between(t0, Clock::now());
  op.jit = jit::stats_snapshot().since(jit0);
  return op;
}

/// The request's verdict: its own failure, else the oracle's (untimed).
[[nodiscard]] inline std::string verdict(const ColdOp& op, const ChainCase& c) {
  if (!op.why.empty()) return op.why;
  return output_correct(c) ? "" : "output differs from the oracle";
}

inline WorkloadResult run_fuse_cold(const RunConfig& cfg, Trace& trace) {
  WorkloadResult res;
  const GpuSpec gpu = a100();
  const std::vector<ChainSpec> chains = generate_chains(cfg.seed, kColdChains);
  std::unique_ptr<FusionEngine> engine;
  // Set-up: the engine plus one cold warm-up request, so one-time costs
  // of the first compile are not timed.  Its shape lies outside the
  // generator's (N != 2d).  Its oracle needs at least as much memory as
  // any chain's and runs last, when the process holds the most jit
  // modules, so the bench's own share of the peak RSS does not hinge on
  // which shapes a seed draws or when they come.
  ChainCase warm = make_case(ChainSpec("warm-up", 4, 1024, {256, 520, 256},
                                       {Epilogue::Gelu, Epilogue::None}),
                             cfg.seed);
  std::string warm_why;
  const std::vector<double> setup = time_setup(cfg.setup_reps, [&] {
    cold_jit_cache(cfg, "jit-fuse-cold");
    engine = std::make_unique<FusionEngine>(gpu);
    warm_why = cold_request(*engine, nullptr, nullptr, warm, -1).why;
  });
  res.check(warm_why.empty(), "warm-up request: " + warm_why);
  if (res.failed > 0) return res;
  const auto check_warm_up = [&] { res.check(output_correct(warm), "warm-up output"); };

  const auto timed = std::make_shared<TimedBackend>(engine->backend(), trace);
  OpMeans layers;
  std::vector<double> lat;
  std::vector<double> traced_lat;
  std::vector<double> untraced_lat;
  std::vector<double> gflops;
  double ledger_stages = 0.0;
  double ledger_total = 0.0;
  const double loop_s = cfg.trace ? 0.75 * cfg.seconds : cfg.seconds;
  const auto deadline = Clock::now() + std::chrono::duration<double>(loop_s);
  std::size_t next = 0;
  for (; next < chains.size() && (next == 0 || Clock::now() < deadline); ++next) {
    ChainCase c = make_case(chains[next], cfg.seed);
    const auto req = static_cast<std::int64_t>(next);
    // Whole blocks of 4 chains (each M, d and epilogue once) go to one
    // side, so traced and untraced ops see the same mix of shapes.
    const bool traced = traced_op(cfg.trace, next / 4);
    const ColdOp op = cold_request(*engine, timed, traced ? &trace : nullptr, c, req);
    const std::string why = verdict(op, c);
    res.check(why.empty(), c.chain.name() + ": " + why);
    if (!why.empty()) continue;
    lat.push_back(op.seconds);
    (traced ? traced_lat : untraced_lat).push_back(op.seconds);
    if (!traced) continue;
    gflops.push_back(c.chain.total_flops() / kernel_seconds(*op.kernel, c, 0, 9) / 1e9);
    const auto spans = trace.spans();
    const double verify_s = span_time_s(spans, "verify", req);
    const double first_run_s = span_time_s(spans, "exec.first_run", req);
    ledger_stages += add_fuse_layers(layers, spans, req, op.traced, *timed) + verify_s +
                     first_run_s;
    ledger_total += span_time_s(spans, "fuse.request", req);
    layers.add("verify.ms", verify_s * 1e3, "ms");
    layers.add("verify.sites", op.verify_sites, "count");
    layers.add("exec.first_run_ms", first_run_s * 1e3, "ms");
    layers.add("exec.jit.tus", static_cast<double>(op.jit.tus_compiled), "count");
    layers.add("exec.jit.kernels", static_cast<double>(op.jit.kernels_compiled), "count");
    layers.add("exec.jit.compile_s", op.jit.compile_wall_s, "s");
    layers.add("exec.jit.hits", static_cast<double>(op.jit.cache_hits()), "count");
  }
  if (!cfg.trace) {
    check_warm_up();
    set_end_to_end(res, lat, closed_loop_rate(lat), setup);
    return res;
  }

  // jit-backend tuning requests for the rest of the traced run.
  FusionEngineOptions jo;
  jo.backend = "jit";
  const FusionEngine jit_engine(gpu, jo);
  const auto jit_timed = std::make_shared<TimedBackend>(jit_engine.backend(), trace);
  const auto jit_deadline = Clock::now() + std::chrono::duration<double>(0.25 * cfg.seconds);
  for (std::size_t k = next; k < chains.size() && (k == next || Clock::now() < jit_deadline);
       ++k) {
    ChainCase c = make_case(chains[k], cfg.seed);
    const auto req = static_cast<std::int64_t>(k);
    const ColdOp op = cold_request(jit_engine, jit_timed, &trace, c, req);
    const std::string why = verdict(op, c);
    res.check(why.empty(), "jit-tuned " + c.chain.name() + ": " + why);
    if (!why.empty()) continue;
    const auto spans = trace.spans();
    layers.add("jit_tune.request_ms", op.seconds * 1e3, "ms");
    layers.add("jit_tune.compile_ms", span_time_s(spans, "measure.compile", req) * 1e3, "ms");
    layers.add("jit_tune.sample_ms", span_time_s(spans, "measure.sample", req) * 1e3, "ms");
    layers.add("jit_tune.waves", static_cast<double>(jit_timed->waves()), "count");
    layers.add("jit_tune.tus", static_cast<double>(op.jit.tus_compiled), "count");
    layers.add("jit_tune.kernels", static_cast<double>(op.jit.kernels_compiled), "count");
    layers.add("jit_tune.tuned_gflops",
               c.chain.total_flops() / kernel_seconds(*op.kernel, c, 0, 9) / 1e9, "GFLOP/s");
  }
  check_warm_up();
  layers.emit(res);
  res.set("exec.tuned_gflops", geomean(gflops), "GFLOP/s");
  res.set("ledger.residual_frac",
          ledger_total > 0 ? 1.0 - ledger_stages / ledger_total : 0.0, "ratio");
  set_trace_common(res, lat, traced_lat, untraced_lat);
  return res;
}

}  // namespace mcf::e2e

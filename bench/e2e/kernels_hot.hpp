// kernels-hot: the speed of generated code.  Set-up tunes ten paper
// chains with the default (simulator) engine — the same winners for any
// seed and commit — and compiles each winner through its first
// run_native; the oracle checks those outputs after the timed set-up.  One
// op is one round of run_native over all ten chains at full pool fan-out;
// every round's outputs must be bit-identical to the first round's.  A traced run gives the rounds and the
// model step (model_step.hpp, which runs two of these kernels inside a
// BERT and a Mixer layer) half of its time each.
#pragma once

#include <cstring>
#include <string>
#include <vector>

#include "chains.hpp"
#include "dag/volume.hpp"
#include "engine/engine.hpp"
#include "harness.hpp"
#include "model_step.hpp"
#include "oracle.hpp"
#include "roofline.hpp"

namespace mcf::e2e {

[[nodiscard]] inline bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

inline WorkloadResult run_kernels_hot(const RunConfig& cfg, Trace& trace) {
  WorkloadResult res;
  const GpuSpec gpu = a100();
  std::vector<ChainCase> cases;
  std::vector<CompiledKernel> kernels;
  const std::vector<double> setup = time_setup(cfg.setup_reps, [&] {
    cold_jit_cache(cfg, "jit-kernels-hot");
    const FusionEngine engine(gpu);
    kernels.clear();
    cases.clear();
    // Kernels point at their ChainSpec: fuse each case in place, after
    // the vector has stopped growing.
    for (const ChainSpec& chain : hot_chains(gpu)) cases.push_back(make_case(chain, cfg.seed));
    for (ChainCase& c : cases) {
      FusionResult r = engine.fuse(c.chain);
      if (!r.ok() || !r.kernel->run_native(c.a, c.weights, c.out)) {
        res.check(false, "set-up of " + c.chain.name());
        return;
      }
      kernels.push_back(std::move(*r.kernel));
    }
  });
  if (kernels.size() != cases.size()) return res;
  // The oracle, outside the timed set-up: the last set-up's first runs.
  for (const ChainCase& c : cases) res.check(output_correct(c), "first run of " + c.chain.name());

  std::vector<std::string> span_names;
  for (const ChainCase& c : cases) span_names.push_back("exec.run." + c.chain.name());
  std::vector<Tensor> first;
  std::vector<double> lat;
  std::vector<double> traced_lat;
  std::vector<double> untraced_lat;
  const double loop_s = cfg.trace ? 0.5 * cfg.seconds : cfg.seconds;
  const auto deadline = Clock::now() + std::chrono::duration<double>(loop_s);
  for (std::int64_t round = 0; round == 0 || Clock::now() < deadline; ++round) {
    const bool traced = traced_op(cfg.trace, static_cast<std::uint64_t>(round));
    bool ok = true;
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < cases.size(); ++k) {
      const Trace::Scope span(traced ? &trace : nullptr, span_names[k].c_str(), round);
      ok = kernels[k].run_native(cases[k].a, cases[k].weights, cases[k].out) && ok;
    }
    const double op_s = seconds_between(t0, Clock::now());
    for (std::size_t k = 0; k < cases.size(); ++k) {
      if (round == 0) {
        first.push_back(cases[k].out);
      } else {
        ok = ok && bit_identical(cases[k].out, first[k]);
      }
    }
    res.check(ok, "round " + std::to_string(round) +
                      ": run_native failed or output differs from round 0");
    lat.push_back(op_s);
    (traced ? traced_lat : untraced_lat).push_back(op_s);
  }

  if (!cfg.trace) {
    set_end_to_end(res, lat, closed_loop_rate(lat), setup);
    return res;
  }
  const std::vector<Span> spans = trace.spans();
  double in_spans = 0.0;
  for (const Span& sp : spans) in_spans += sp.t1 - sp.t0;
  res.set("ledger.residual_frac", 1.0 - in_spans / sum(traced_lat), "ratio");
  const HostRoofline host = probe_host();
  res.set("host.stream_gbps", host.stream_gbps, "GB/s");
  res.set("host.fma_gflops", host.fma_gflops, "GFLOP/s");
  std::vector<double> gflops;
  std::vector<double> gflops_1t;
  VolumeOptions fp32;
  fp32.dtype_bytes = 4;
  for (std::size_t k = 0; k < cases.size(); ++k) {
    std::vector<double> t;
    for (const Span& s : spans) {
      if (s.name == span_names[k]) t.push_back(s.t1 - s.t0);
    }
    const double run_s = median(t);
    const double flops = cases[k].chain.total_flops();
    const double bytes = analyze_volume(kernels[k].schedule(), fp32).total_bytes();
    const double roof_gflops =
        std::min(host.fma_gflops, host.stream_gbps * flops / bytes);
    const std::string& name = cases[k].chain.name();
    gflops.push_back(flops / run_s / 1e9);
    res.set("exec.run_ms." + name, run_s * 1e3, "ms");
    res.set("exec.gflops." + name, gflops.back(), "GFLOP/s");
    res.set("exec.gbps." + name, bytes / run_s / 1e9, "GB/s");
    res.set("exec.roof_frac." + name, gflops.back() / roof_gflops, "ratio");
    gflops_1t.push_back(flops / kernel_seconds(kernels[k], cases[k], 1, 3) / 1e9);
  }
  res.set("exec.gflops", geomean(gflops), "GFLOP/s");
  res.set("exec.gflops_1t", geomean(gflops_1t), "GFLOP/s");
  res.set("exec.mt_scaling", geomean(gflops) / geomean(gflops_1t), "ratio");
  set_trace_common(res, lat, traced_lat, untraced_lat);
  run_model_step(cfg, 0.5 * cfg.seconds, trace, res);
  return res;
}

}  // namespace mcf::e2e

// The traced form of one fusion request: FusionEngine::fuse's sequence
// performed explicitly through the public API (SearchSpace -> Tuner::run
// -> CompiledKernel) with a span around each layer call, and a
// measurement-backend decorator that times every compile round and every
// sampling run inside the tuner.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "exec/program.hpp"
#include "harness.hpp"
#include "measure/backend.hpp"
#include "search/space.hpp"
#include "search/tuner.hpp"

namespace mcf::e2e {

/// Forwards to the engine's backend; one "measure.compile" span per
/// prepare_batch (a round of compiling the wave's candidate kernels) and
/// one "measure.sample" span per measure (a sampling run), tagged with
/// the current request id.  Requests run one at a time; the counters
/// cover the current one.
class TimedBackend final : public MeasureBackend {
 public:
  TimedBackend(std::shared_ptr<MeasureBackend> inner, Trace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  void begin_request(std::int64_t req) {
    req_.store(req, std::memory_order_relaxed);
    waves_.store(0);
    calls_.store(0);
    fails_.store(0);
  }
  [[nodiscard]] std::int64_t waves() const { return waves_.load(); }
  [[nodiscard]] std::int64_t calls() const { return calls_.load(); }
  [[nodiscard]] std::int64_t fails() const { return fails_.load(); }

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] const GpuSpec& spec() const noexcept override { return inner_->spec(); }
  [[nodiscard]] bool deterministic() const noexcept override {
    return inner_->deterministic();
  }
  [[nodiscard]] KernelMeasurement measure(const Schedule& s,
                                          const MeasureOptions& o) const override {
    const Trace::Scope span(&trace_, "measure.sample", req_.load(std::memory_order_relaxed));
    KernelMeasurement m = inner_->measure(s, o);
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (!m.ok) fails_.fetch_add(1, std::memory_order_relaxed);
    return m;
  }
  void prepare_batch(std::span<const Schedule* const> batch,
                     const MeasureOptions& o) const override {
    const Trace::Scope span(&trace_, "measure.compile", req_.load(std::memory_order_relaxed));
    inner_->prepare_batch(batch, o);
    waves_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] KernelMeasurement measure_raw(double bytes, double flops,
                                              std::int64_t n_blocks,
                                              std::int64_t smem_bytes, double mem_eff,
                                              double comp_eff, double stmt_trips,
                                              const MeasureOptions& o) const override {
    return inner_->measure_raw(bytes, flops, n_blocks, smem_bytes, mem_eff, comp_eff,
                               stmt_trips, o);
  }
  [[nodiscard]] std::uint64_t options_digest(const MeasureOptions& o) const noexcept override {
    return inner_->options_digest(o);
  }

 private:
  std::shared_ptr<MeasureBackend> inner_;
  Trace& trace_;
  std::atomic<std::int64_t> req_{0};
  mutable std::atomic<std::int64_t> waves_{0};
  mutable std::atomic<std::int64_t> calls_{0};
  mutable std::atomic<std::int64_t> fails_{0};
};

/// What the explicit fuse sequence produced.
struct TracedFuse {
  std::optional<CompiledKernel> kernel;  ///< set on success
  TunedResult tuned;
  std::size_t candidates = 0;
  double raw_candidates = 0.0;  ///< before pruning
  std::string error;            ///< empty on success
};

/// FusionEngine::fuse's pipeline with the engine's own options, measured
/// through `backend` (a TimedBackend over the engine's backend).
[[nodiscard]] inline TracedFuse traced_fuse(const FusionEngine& engine,
                                            const std::shared_ptr<MeasureBackend>& backend,
                                            Trace& trace, const ChainSpec& chain,
                                            std::int64_t req) {
  TracedFuse out;
  const FusionEngineOptions& o = engine.options();
  std::optional<SearchSpace> space;
  {
    const Trace::Scope span(&trace, "search.space", req);
    space.emplace(chain, o.space, o.prune, o.sched);
  }
  out.candidates = space->candidates().size();
  out.raw_candidates = space->funnel().original;
  if (out.candidates == 0) {
    out.error = "empty search space";
    return out;
  }
  TunerOptions topts = o.tuner;
  topts.backend = backend;
  // The engine derives the simulator's noise stream from the chain name.
  topts.measure.noise_seed =
      hash_combine(topts.measure.noise_seed, hash_string(chain.name()));
  {
    const Trace::Scope span(&trace, "tuner", req);
    out.tuned = Tuner(*space, engine.gpu(), topts).run();
  }
  if (!out.tuned.ok) {
    out.error = "tuning failed: " + out.tuned.fail_reason;
    return out;
  }
  {
    const Trace::Scope span(&trace, "exec.lower", req);
    out.kernel.emplace(space->schedule_for(out.tuned.best), engine.gpu());
  }
  if (!out.kernel->ok()) {
    out.error = "winner failed to lower: " + out.kernel->error();
    out.kernel.reset();
  }
  return out;
}

/// Search / model / measure layer numbers of one traced request: span
/// times of its stages plus the tuner's and the decorator's counters.
/// Returns the wall time of the stages traced_fuse covers (space + tuner
/// + lower), for the caller's ledger.
inline double add_fuse_layers(OpMeans& acc, const std::vector<Span>& spans,
                              std::int64_t req, const TracedFuse& f,
                              const TimedBackend& timed) {
  const double space = span_time_s(spans, "search.space", req);
  const double tuner = span_time_s(spans, "tuner", req);
  const double compile = span_time_s(spans, "measure.compile", req);
  const double sample = span_time_s(spans, "measure.sample", req);
  const double lower = span_time_s(spans, "exec.lower", req);
  acc.add("search.space_ms", space * 1e3, "ms");
  acc.add("tuner.wall_ms", tuner * 1e3, "ms");
  acc.add("tuner.self_ms", (tuner - compile - sample) * 1e3, "ms");
  acc.add("measure.compile_ms", compile * 1e3, "ms");
  acc.add("measure.sample_ms", sample * 1e3, "ms");
  acc.add("exec.lower_ms", lower * 1e3, "ms");
  acc.add("measure.waves", static_cast<double>(timed.waves()), "count");
  acc.add("measure.calls", static_cast<double>(timed.calls()), "count");
  acc.add("measure.fail", static_cast<double>(timed.fails()), "count");
  acc.add("search.candidates", static_cast<double>(f.candidates), "count");
  acc.add("search.prune_keep_frac",
          f.raw_candidates > 0 ? static_cast<double>(f.candidates) / f.raw_candidates : 0.0,
          "ratio");
  const TuningStats& ts = f.tuned.stats;
  acc.add("tuner.generations", ts.generations, "count");
  acc.add("tuner.mutate_ms", ts.mutate_seconds * 1e3, "ms");
  acc.add("model.estimate_ms", ts.estimate_seconds * 1e3, "ms");
  acc.add("model.estimates", ts.estimates, "count");
  return space + tuner + lower;
}

}  // namespace mcf::e2e

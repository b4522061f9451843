// Pluggable measurement subsystem (ROADMAP: "real timing path behind the
// same measure() interface").
//
// A MeasureBackend answers one question — "how long does this candidate
// schedule take?" — and the tuner, the library-kernel baselines and the
// benches consume the abstraction instead of holding a TimingSimulator
// directly.  Two implementations ship:
//
//   * SimulatorBackend  wraps the deterministic TimingSimulator; the
//                       default everywhere ("sim").
//   * ExecBackend       really executes the candidate and wall-clock-
//                       samples it through one cascade of rungs: a
//                       sandbox worker process, then native code in this
//                       process (exec/jit), then exec/interpreter.  The
//                       registry names "jit-isolated", "jit" and "interp"
//                       are presets that pick the rung it starts on.
//
// Every backend must honour the contract pinned by the conformance suite
// (tests/measure/test_conformance.cpp, documented in docs/measurement.md):
// ok=false + non-empty fail_reason on infeasible schedules, time_s > 0 on
// success, bit-identical repeats when deterministic() promises it, and
// safe concurrent measure() calls from a thread pool.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dag/schedule.hpp"
#include "exec/jit.hpp"
#include "exec/sandbox.hpp"
#include "gpu/spec.hpp"
#include "gpu/timing.hpp"
#include "measure/measurement.hpp"
#include "support/lru_map.hpp"
#include "support/mutex.hpp"
#include "support/rng.hpp"
#include "tensor/tensor.hpp"

namespace mcf {

class MeasureBackend {
 public:
  virtual ~MeasureBackend() = default;

  /// Registry name ("sim", "interp", ...).
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual const GpuSpec& spec() const noexcept = 0;
  /// True when repeated measure() of the same schedule with the same
  /// options promises a bit-identical result.  Wall-clock backends return
  /// false; the conformance suite keys its identity checks on this.
  [[nodiscard]] virtual bool deterministic() const noexcept = 0;

  /// Measures one fused-kernel schedule.  Must be safe to call
  /// concurrently from multiple threads on the same backend instance.
  [[nodiscard]] virtual KernelMeasurement measure(
      const Schedule& s, const MeasureOptions& options = {}) const = 0;

  /// Batch preparation hook: the tuner calls this once per measurement
  /// wave, before the concurrent measure() calls, with every schedule the
  /// wave will measure.  Backends with per-schedule compilation amortise
  /// it here (the jit backend compiles all missing kernels into ONE
  /// translation unit, one shared object); the default is a no-op.
  /// Must never change any measure() result — only its cost.
  virtual void prepare_batch(std::span<const Schedule* const> /*schedules*/,
                             const MeasureOptions& /*options*/ = {}) const {}

  /// Aggregate roofline path used by the library-kernel baselines: there
  /// is no schedule to execute, so every backend shares the simulator's
  /// arithmetic (overridden only by decorators, which forward to their
  /// inner backend).
  [[nodiscard]] virtual KernelMeasurement measure_raw(
      double bytes, double flops, std::int64_t n_blocks,
      std::int64_t smem_bytes, double mem_eff, double comp_eff,
      double stmt_trips, const MeasureOptions& options) const = 0;

  /// Digest of the MeasureOptions fields this backend's measure()
  /// actually consumes; memoizing decorators key on it.  A backend that
  /// ignores the options (the interpreter times real execution) returns a
  /// constant, so option churn cannot defeat a cache layered over it.
  [[nodiscard]] virtual std::uint64_t options_digest(
      const MeasureOptions& options) const noexcept {
    std::uint64_t h = splitmix64(options.noise_seed + 1);
    h = hash_combine(h, static_cast<std::uint64_t>(options.noise_amp * 1e9));
    h = hash_combine(h, options.include_launch ? 1u : 2u);
    return h;
  }
};

// ---- SimulatorBackend -------------------------------------------------------

/// The deterministic timing model; delegates 1:1 to TimingSimulator.
class SimulatorBackend : public MeasureBackend {
 public:
  explicit SimulatorBackend(GpuSpec spec) : sim_(std::move(spec)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "sim"; }
  [[nodiscard]] const GpuSpec& spec() const noexcept override { return sim_.spec(); }
  [[nodiscard]] bool deterministic() const noexcept override { return true; }

  [[nodiscard]] KernelMeasurement measure(
      const Schedule& s, const MeasureOptions& options = {}) const override {
    return sim_.measure(s, options);
  }
  [[nodiscard]] KernelMeasurement measure_raw(
      double bytes, double flops, std::int64_t n_blocks,
      std::int64_t smem_bytes, double mem_eff, double comp_eff,
      double stmt_trips, const MeasureOptions& options) const override {
    return sim_.measure_raw(bytes, flops, n_blocks, smem_bytes, mem_eff,
                            comp_eff, stmt_trips, options);
  }

  [[nodiscard]] const TimingSimulator& simulator() const noexcept { return sim_; }

 private:
  TimingSimulator sim_;
};

// ---- per-instance memos of the execution backend ----------------------------

namespace detail {

/// Seed of the jit::seeded_inputs every execution rung measures on (the
/// sandbox worker rebuilds them from RunRequest).
inline constexpr std::uint64_t kMeasureDataSeed = 1;

/// What ExecBackend memoizes per instance so repeated measure() calls of
/// the same candidate skip the lowering work:
///
///   * the lowering gate (validity, consume-completeness, smem plan) —
///     keyed by schedule_structure_digest, which already folds the chain
///     key and the tiles;
///   * the seeded input tensors (jit::seeded_inputs) — keyed by chain
///     shape, shared by every candidate of the same chain (building and
///     filling them dominated the per-measure setup cost).
///
/// Both memos are LRU-bounded (Limits) so a long-lived service that
/// measures millions of distinct schedules/chains stays at bounded RSS:
/// an evicted gate is recomputed, an evicted tensor set is rebuilt
/// bit-identically (deterministic seeded fill) — eviction is a pure
/// cost/memory trade, never a behaviour change.
///
/// All methods are thread-safe; data() returns immutable shared state
/// that outlives eviction for as long as a caller holds it.
class ExecMeasureState {
 public:
  struct Gate {
    bool ok = false;
    std::string fail_reason;
    std::int64_t n_blocks = 0;
    std::int64_t smem_bytes = 0;
  };
  /// Entry/byte caps; 0 = unbounded.  The defaults bound a backend
  /// instance to roughly the working set of one large tuning campaign
  /// (64Ki lowering gates, 512 MiB of cached input tensors).
  struct Limits {
    std::size_t max_gates = 64 * 1024;
    std::size_t max_data_entries = 256;
    std::size_t max_data_bytes = 512u * 1024 * 1024;
  };

  // Out of line: Limits' member defaults are not parseable until the end
  // of the enclosing class, so no inline default argument.
  ExecMeasureState();
  explicit ExecMeasureState(Limits limits);

  /// The CompiledKernel-equivalent lowering gate, memoized by digest.
  [[nodiscard]] Gate gate(const Schedule& s, const GpuSpec& gpu) const;
  /// Deterministic inputs for `chain` (kMeasureDataSeed), built once per
  /// chain shape.
  [[nodiscard]] std::shared_ptr<const jit::KernelInputs> data(
      const ChainSpec& chain) const;

  // Occupancy/eviction observability (the admission bench samples these).
  [[nodiscard]] std::size_t gate_entries() const;
  [[nodiscard]] std::size_t data_entries() const;
  [[nodiscard]] std::size_t data_bytes() const;
  [[nodiscard]] std::uint64_t evictions() const;

 private:
  mutable Mutex mu_{"measure.exec-state"};
  mutable LruMap<std::uint64_t, Gate> gates_ MCF_GUARDED_BY(mu_);
  mutable LruMap<std::string, std::shared_ptr<const jit::KernelInputs>> data_
      MCF_GUARDED_BY(mu_);
};

}  // namespace detail

// ---- ExecBackend ------------------------------------------------------------

/// The rungs of ExecBackend's cascade, top to bottom.  A preset names the
/// rung the cascade starts on; the registry spells it "jit-isolated",
/// "jit" or "interp".
enum class ExecRung : std::uint8_t {
  Sandbox,      ///< native kernel in a sandbox worker process
  Native,       ///< native kernel in this process
  Interpreter,  ///< exec/interpreter in this process
};

/// Registry name of the preset that starts on `rung`.
[[nodiscard]] std::string_view exec_rung_name(ExecRung rung) noexcept;

struct ExecBackendOptions {
  /// The preset: the rung the cascade starts on.
  ExecRung preset = ExecRung::Native;
  /// Untimed executions before sampling (first-touch page faults, arena
  /// allocation, cache warm-up).
  int warmup = 1;
  /// Timed wall-clock samples per measure() call.
  int repeats = 3;
  /// Fraction of samples trimmed from EACH end before averaging (0.25 with
  /// repeats=4 drops the fastest and slowest sample).  The trimmed mean is
  /// the standard outlier-robust estimator for shared-machine timing.
  double trim_fraction = 0.25;
  /// Monotonic time source in seconds.  Null = std::chrono::steady_clock.
  /// Tests inject a scripted clock to pin the sampling arithmetic; sandbox
  /// workers time with their own steady clock.
  std::function<double()> clock;
  /// LRU caps on the lowering-gate / input-tensor memos (bounded RSS
  /// under unbounded distinct-chain traffic); see ExecMeasureState.
  detail::ExecMeasureState::Limits memo_limits;
  /// Sandbox-rung worker-pool sizing/deadline/retry policy; defaults read
  /// the MCFUSER_SANDBOX_* environment.
  sandbox::PoolOptions pool = sandbox::default_pool_options();
};

/// Executes each candidate and wall-clock-samples it — the CPU-host
/// realisation of the paper's "lower to Triton/PTX, then measure" path.
/// measure() is one cascade; each rung either answers or hands the
/// schedule to the rung below:
///
///   1. Sandbox — the jit-compiled artifact runs in a worker process
///      (exec/sandbox.hpp) and is never loaded here, so a kernel that
///      segfaults, loops forever or emits garbage fails its own
///      measurement instead of taking down the engine.  A crash
///      negative-cache answers known-bad kernels without spawning
///      anything; crashes retry on a fresh worker (pool.max_retries) and
///      are then negative-cached as WorkerCrashed, timeouts immediately
///      as WorkerTimeout; a worker-side load failure (poisoned .so) drops
///      the artifact, recompiles and retries once.
///   2. Native — the kernel compiled by exec/jit (host toolchain, -O3
///      -march=native, digest-keyed on-disk cache) runs in this process.
///   3. Interpreter — exec/interpreter, which needs no toolchain.
///
/// Infeasible schedules fail at the lowering gate before any rung runs.
/// With the verifier gate on (MCFUSER_VERIFY), a "verify: " rejection
/// (src/verify/) fails as VerifyRejected on every rung and never falls
/// through to one that would execute the unsafe kernel.  Rungs the host
/// cannot offer (sanitizer build, MCFUSER_SANDBOX=0, no toolchain) are
/// dropped at construction; top_rung() tells which one is live.  The
/// absolute times are CPU times, not GPU times — useful because they
/// *rank* candidates by real executed work (the conformance suite asserts
/// rank correlation against the simulator on fig7).
class ExecBackend : public MeasureBackend {
 public:
  explicit ExecBackend(GpuSpec spec, ExecBackendOptions options = {});

  [[nodiscard]] std::string_view name() const noexcept override {
    return exec_rung_name(opt_.preset);
  }
  [[nodiscard]] const GpuSpec& spec() const noexcept override { return sim_.spec(); }
  /// Wall-clock sampling: repeats jitter run-to-run.
  [[nodiscard]] bool deterministic() const noexcept override { return false; }

  [[nodiscard]] KernelMeasurement measure(
      const Schedule& s, const MeasureOptions& options = {}) const override;
  /// Native rungs: one TU (one shared object) for all missing kernels of
  /// the wave, loading none of them (the native rung loads each on its
  /// first measure(); sandbox workers load them in their own process).
  void prepare_batch(std::span<const Schedule* const> schedules,
                     const MeasureOptions& options = {}) const override;
  [[nodiscard]] KernelMeasurement measure_raw(
      double bytes, double flops, std::int64_t n_blocks,
      std::int64_t smem_bytes, double mem_eff, double comp_eff,
      double stmt_trips, const MeasureOptions& options) const override {
    // No schedule to execute: raw aggregates fall back to the roofline.
    return sim_.measure_raw(bytes, flops, n_blocks, smem_bytes, mem_eff,
                            comp_eff, stmt_trips, options);
  }
  /// measure() executes the schedule as-is on the full pool; no
  /// MeasureOptions field reaches it, so every option set digests to 0.
  [[nodiscard]] std::uint64_t options_digest(
      const MeasureOptions& /*options*/) const noexcept override {
    return 0;
  }

  /// The rung the cascade starts on for this instance: the preset, or
  /// lower when the host cannot offer it.
  [[nodiscard]] ExecRung top_rung() const noexcept;
  /// Why top_rung() is below the preset (empty when it is not).
  [[nodiscard]] const std::string& fallback_reason() const noexcept {
    return fallback_reason_;
  }
  [[nodiscard]] const ExecBackendOptions& options() const noexcept {
    return opt_;
  }

 private:
  /// Sandbox rung; false = hand the schedule to the native rung.
  bool measure_in_worker(const Schedule& s, KernelMeasurement& m) const;
  /// Warm-up, then `repeats` timed runs reduced by the trimmed mean.
  [[nodiscard]] double sample(const std::function<void()>& run) const;

  TimingSimulator sim_;  ///< spec holder + measure_raw fallback
  ExecBackendOptions opt_;
  /// Resolved once at construction (tests override MCFUSER_JIT_CXX per
  /// instance); !ok() => no native rungs.  Never resolved by "interp".
  jit::Toolchain toolchain_;
  std::string fallback_reason_;
  /// The sandbox rung's workers; null when that rung is not live.
  std::unique_ptr<sandbox::WorkerPool> pool_;
  detail::ExecMeasureState state_;
};

/// Structural digest of a schedule: block loops, the scope/statement tree
/// and the tile sizes all feed a 64-bit hash.  Two schedules with equal
/// digests execute identically, which is what makes it a sound
/// memoization key component.
[[nodiscard]] std::uint64_t schedule_structure_digest(const Schedule& s);

// ---- registry ---------------------------------------------------------------

/// Name -> factory registry; the CLI's --backend flag and the conformance
/// suite enumerate it.  Registration is thread-safe; the built-ins ("sim"
/// and the ExecBackend presets "interp", "jit", "jit-isolated")
/// self-register on first use.  A hardware backend (CUDA events /
/// rocprof) plugs in with one add() call — see docs/measurement.md.
class BackendRegistry {
 public:
  using Factory =
      std::function<std::shared_ptr<MeasureBackend>(const GpuSpec&)>;

  static BackendRegistry& instance();

  /// False (and no-op) when `name` is already registered.
  bool add(const std::string& name, Factory factory);
  /// Null when `name` is unknown.
  [[nodiscard]] std::shared_ptr<MeasureBackend> create(
      const std::string& name, const GpuSpec& gpu) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  BackendRegistry();

  mutable Mutex mu_{"measure.registry"};
  std::map<std::string, Factory> factories_ MCF_GUARDED_BY(mu_);
};

}  // namespace mcf

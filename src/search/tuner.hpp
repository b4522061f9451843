// Heuristic exploration (paper §IV-B, Algorithm 1).
//
// Evolutionary search seeded from the pruned space: every generation is
// scored with the *analytical* model (no training), only the top-k are
// "measured" on the (simulated) hardware, and the loop stops on its own
// once the best measured time converges — the paper's two improvements
// over Ansor's tuner.
//
// Evaluation pipeline: candidates flow through rules -> estimate ->
// measure with the Schedule built at most once per candidate (the rules
// check stashes it for the later stages), population estimates fan out
// across a thread pool (the analytical model is pure), and top-k
// measurements run in concurrent waves.  All selection decisions are made
// on deterministically ordered data with index tie-breaking, so for a
// fixed seed the result is identical no matter how many threads run the
// evaluation.
//
// Measurements go through a pluggable MeasureBackend
// (TunerOptions::backend, measure/backend.hpp): the default simulator,
// the execution backend (interpreter or native code), or a future
// hardware backend all drive the identical search loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gpu/timing.hpp"
#include "model/analytical.hpp"
#include "search/space.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace mcf {

class MeasureBackend;

/// Live view into a running tuning job, shared between the tuner and an
/// observer (FusionTicket::progress feeds from it).  Counters mirror
/// TuningStats but are updated as the search runs; `cancel` is checked at
/// every generation boundary, so a cancelled run stops within one
/// generation.  Pure observation: attaching a sink never changes the
/// search trajectory.
struct TuningProgress {
  std::atomic<int> generations{0};
  std::atomic<int> estimates{0};
  std::atomic<int> measurements{0};
  std::atomic<bool> cancel{false};

  void request_cancel() noexcept { cancel.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancel_requested() const noexcept {
    return cancel.load(std::memory_order_relaxed);
  }
};

struct TunerOptions {
  int population = 256;          ///< N in Algorithm 1
  int topk = 8;                  ///< n in Algorithm 1 (paper §VI-E2)
  double epsilon = 0.004;        ///< relative convergence gap
  int min_generations = 3;       ///< never converge before this
  int max_generations = 24;      ///< safety stop
  std::uint64_t seed = 42;
  double expr_mutation_prob = 0.15;  ///< chance to mutate the expression
  MeasureOptions measure;        ///< simulator options (noise seed etc.)
  /// Threads for batched candidate evaluation: 0 = the process-wide pool
  /// (MCF_NUM_THREADS / hardware concurrency), n > 0 = a private pool of
  /// n workers (1 = fully serial).  The tuned result is identical for any
  /// value — only wall-clock changes.
  int num_threads = 0;
  /// How candidates are measured (measure/backend.hpp).  Null = a
  /// SimulatorBackend on the tuner's GPU — bit-for-bit the pre-subsystem
  /// behaviour (pinned by tests/search/test_tuner.cpp).  The backend's
  /// measure() must be safe to call from the evaluation thread pool.
  std::shared_ptr<MeasureBackend> backend;
  /// Optional live progress/cancellation channel (see TuningProgress).
  /// Null = no observation.  Never affects the tuned result.
  std::shared_ptr<TuningProgress> progress;
};

/// Counters for Table IV's tuning-time modelling.
struct TuningStats {
  int generations = 0;
  int estimates = 0;        ///< analytical-model invocations
  int measurements = 0;     ///< simulated hardware measurements (compile+run)
  int compile_failures = 0; ///< candidates rejected at lowering
  double wall_seconds = 0.0;
  // Phase breakdown of wall_seconds (throughput observability).
  double seed_seconds = 0.0;      ///< initial population sampling + scoring
  double estimate_seconds = 0.0;  ///< generational batch estimation
  double measure_seconds = 0.0;   ///< top-k + refinement measurement waves
  double mutate_seconds = 0.0;    ///< mutation / next-population assembly
};

struct TunedResult {
  bool ok = false;
  /// On ok=false: the kind of the dominant measurement failure.  Worker
  /// crash/timeout kinds outrank Generic — a wave where one candidate
  /// failed the lowering gate and the rest crashed sandbox workers must
  /// surface as a crash, not as the (earlier-committed) gate failure.
  MeasureFailKind fail_kind = MeasureFailKind::None;
  /// True when the run stopped because TuningProgress::cancel was set.
  bool cancelled = false;
  /// On ok=false: why — the first measurement failure reason observed, or
  /// a summary ("empty search space", "cancelled", ...).
  std::string fail_reason;
  CandidateConfig best;
  double best_time_s = 0.0;
  KernelMeasurement best_measurement;
  TuningStats stats;
  /// (analytical estimate, simulated measurement) for every measured
  /// candidate — the paper's Fig. 11 data.
  std::vector<std::pair<double, double>> est_vs_measured;
};

class Tuner {
 public:
  Tuner(const SearchSpace& space, GpuSpec gpu, TunerOptions options = {});

  [[nodiscard]] TunedResult run();

 private:
  /// Everything the pipeline knows about one candidate, keyed by its
  /// config hash.  The stashed schedule is dropped once a generation
  /// completes (memory stays bounded by the generation working set);
  /// estimates and measurements are kept for the whole run so repeated
  /// mutants cost a hash lookup instead of a schedule build.
  struct EvalEntry {
    bool has_est = false;
    bool measured = false;
    bool meas_ok = false;
    double est = 0.0;
    double meas_time = 1e9;
    std::string fail_note;          ///< backend fail_reason when !meas_ok
    MeasureFailKind fail_kind = MeasureFailKind::None;  ///< when !meas_ok
    std::optional<Schedule> sched;  ///< built at most once
  };

  [[nodiscard]] ThreadPool& pool();
  /// Single-candidate estimate (refinement path); cached.
  [[nodiscard]] double estimate(const CandidateConfig& c);
  /// Batch estimate: schedules built in parallel for cache misses, then
  /// one AnalyticalModel::estimate_batch sweep.  Result order matches the
  /// input order for any thread count.
  [[nodiscard]] std::vector<double> estimate_batch(
      std::span<const CandidateConfig> cs);
  /// Measures every not-yet-measured candidate in `keys` concurrently
  /// (each exactly once) and updates stats.  Entries must have estimates.
  void measure_batch(std::span<const CandidateConfig> cs,
                     std::span<const std::uint64_t> keys);
  /// Drops all stashed schedules (end-of-generation memory sweep).
  void drop_stashed_schedules();

  [[nodiscard]] CandidateConfig random_candidate();
  [[nodiscard]] CandidateConfig mutate(const CandidateConfig& parent);

  const SearchSpace& space_;
  GpuSpec gpu_;
  TunerOptions opt_;
  AnalyticalModel model_;
  std::shared_ptr<MeasureBackend> backend_;
  Rng rng_;
  TuningStats stats_;
  std::unique_ptr<ThreadPool> own_pool_;  ///< when opt_.num_threads > 0
  std::unordered_map<std::uint64_t, EvalEntry> cache_;
  std::vector<std::pair<double, double>> est_meas_;
  std::string first_fail_reason_;  ///< earliest measurement failure (commit order)
  /// Kind paired with first_fail_reason_, except that worker crash /
  /// timeout kinds upgrade over an earlier Generic (see TunedResult).
  MeasureFailKind first_fail_kind_ = MeasureFailKind::None;
};

}  // namespace mcf

// Crash-isolated measurement workers — the process boundary between the
// FusionEngine and the native code it measures.
//
// The in-process native rung of ExecBackend (measure/backend.hpp) runs
// candidate kernels in the engine's own address space: one miscompiled
// or ill-behaved kernel (SIGSEGV, SIGFPE, infinite loop) takes down the
// whole service and every queued ticket with it.  This subsystem moves
// execution behind a pool of fork/exec'd worker processes:
//
//   * WorkerPool — spawns `/proc/self/exe` with MCFUSER_SANDBOX_WORKER
//     set; the re-exec'd binary detects the flag in an early constructor
//     and becomes a measurement loop (worker_main) instead of running
//     main().  Requests and responses cross a pair of pipes (worker fds
//     3/4) as length-prefixed frames — see RunRequest for the payload.
//   * per-request wall-clock deadline — a hung kernel is SIGKILLed and
//     reaped at the deadline; the pool lazily respawns the worker.
//   * crash classification — EOF on the response pipe is decoded through
//     waitpid(): "killed by SIGSEGV" vs "exited with status N", mapped
//     to RunOutcome::Crashed / TimedOut (and, at the engine layer, to
//     FusionStatus::WorkerCrashed / WorkerTimeout).
//   * crash negative-cache — a process-wide, LRU-bounded map from the
//     jit cache key (jit::KernelArtifact::key) to the recorded failure,
//     so a known-bad kernel is never handed to a worker again anywhere
//     in the process.  crash_cache_evict re-arms one kernel.
//
// The host only resolves the artifact (jit::resolve_artifact publishes it
// on disk and loads nothing), so it never maps a sandboxed kernel.  The
// worker loads it through the jit's own loader (jit::load_artifact: the
// same refcounted modules, LRU-bounded by MCFUSER_JIT_KERNEL_CAP) and runs
// it with the same execution geometry (jit::run_blocks: thread-pool block
// fan-out, per-slot scratch arenas) on the same seeded inputs
// (jit::seeded_inputs), so sandboxed timings agree with in-process jit
// timings; the host computes the identical trimmed-mean estimate from the
// returned samples.
//
// Availability: sandboxing self-disables under sanitizer builds (like
// the jit — uninstrumented workers would evade the ASan/UBSan gate),
// when MCFUSER_SANDBOX=0, or when /proc/self/exe is not executable.
// ExecBackend's "jit-isolated" preset then starts its cascade on the
// in-process native/interpreter rungs, so measure() always answers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "measure/measurement.hpp"

namespace mcf {
namespace sandbox {

/// Whether this process can spawn measurement workers; reason says why
/// not (sanitizer build, MCFUSER_SANDBOX=0, no /proc/self/exe).
/// Re-reads the environment on every call (tests toggle it).
struct Availability {
  bool ok = false;
  std::string reason;
};
[[nodiscard]] Availability availability();

/// Pool sizing and per-request policy.
struct PoolOptions {
  /// Live worker processes the pool keeps at most.  Each worker fans its
  /// kernel's blocks across its own global thread pool, so 1 mirrors the
  /// in-process execution geometry; more workers overlap requests at the
  /// cost of CPU oversubscription.
  int workers = 1;
  /// Hard wall-clock deadline per request, seconds; 0 disables.  On
  /// expiry the worker is SIGKILLed and reaped.
  double deadline_s = 10.0;
  /// Crash retries per request (each on a freshly spawned worker) before
  /// the failure is recorded.  Timeouts are never retried — a kernel
  /// that hung once will hang again for a full deadline.
  int max_retries = 1;
};

/// PoolOptions with the environment applied:
/// MCFUSER_SANDBOX_WORKERS / MCFUSER_SANDBOX_DEADLINE_S /
/// MCFUSER_SANDBOX_RETRIES override the defaults above.
[[nodiscard]] PoolOptions default_pool_options();

/// Process-wide worker health counters (monotonic except `active`;
/// report deltas via since()).  Surfaced as EngineStats' `sandbox`
/// section.
struct WorkerStats {
  std::int64_t spawned = 0;        ///< worker processes exec'd, ever
  std::int64_t respawned = 0;      ///< spawns replacing a dead worker
  std::int64_t crashes = 0;        ///< requests ending in signal/exit
  std::int64_t timeouts = 0;       ///< requests killed at the deadline
  std::int64_t requests = 0;       ///< requests handed to a worker
  std::int64_t negative_hits = 0;  ///< measurements served by the crash cache
  std::int64_t active = 0;         ///< live workers right now (gauge)
  [[nodiscard]] WorkerStats since(const WorkerStats& before) const noexcept {
    WorkerStats d;
    d.spawned = spawned - before.spawned;
    d.respawned = respawned - before.respawned;
    d.crashes = crashes - before.crashes;
    d.timeouts = timeouts - before.timeouts;
    d.requests = requests - before.requests;
    d.negative_hits = negative_hits - before.negative_hits;
    d.active = active;  // gauge, not a counter
    return d;
  }
  /// Every field keyed by its name.
  [[nodiscard]] std::string to_json() const;
};
[[nodiscard]] WorkerStats stats_snapshot();

/// A fault a worker carries out on purpose (chaos tests): Segv, Kill and
/// Hang before the first run (Hang waits for the deadline), Garbage as NaN
/// output after the last run, before the finite-value scan.
enum class Fault : std::uint8_t { None, Segv, Kill, Hang, Garbage };

/// The fault MCFUSER_JIT_FAULT names for the chain whose chain_cache_key
/// is `tag`: comma-separated `mode[@substr]` entries, mode in {segv, kill,
/// hang, garbage}; the first entry whose substr occurs in `tag` wins, and
/// no `@` matches every chain.  An unknown mode warns and is skipped.
/// Only the sandbox rung asks, so an in-process caller never runs a fault.
[[nodiscard]] Fault injected_fault(std::string_view tag);

/// One measurement request: the on-disk kernel artifact plus everything
/// the worker needs to rebuild the inputs and the execution geometry —
/// no Schedule crosses the process boundary — and the fault, if any, the
/// worker must carry out.
struct RunRequest {
  std::uint64_t key = 0;  ///< jit cache key (crash-cache identity)
  std::string so_path;
  std::string symbol;
  // Chain geometry (ChainSpec::batch/m/inner): input a is
  // [batch, m, inner[0]], weight op is [batch, inner[op], inner[op+1]],
  // output is [batch, m, inner.back()].
  std::int64_t batch = 0;
  std::int64_t m = 0;
  std::vector<std::int64_t> inner;
  std::int64_t n_blocks = 0;       ///< Schedule::num_blocks()
  std::int64_t scratch_floats = 0; ///< cpp_kernel_scratch_floats(s)
  int warmup = 1;
  int repeats = 3;
  /// Seed of jit::seeded_inputs; ExecBackend always sends
  /// detail::kMeasureDataSeed, the seed ExecMeasureState::data uses
  /// in-process.
  std::uint64_t data_seed = 1;
  /// ExecBackend sends injected_fault(chain_cache_key(chain)).
  Fault fault = Fault::None;
};

enum class RunOutcome : std::uint8_t {
  Ok,        ///< samples returned
  Failed,    ///< worker answered with a structured failure (load/garbage)
  Crashed,   ///< worker died (signal or nonzero exit) mid-request
  TimedOut,  ///< killed at the per-request deadline
};

struct RunResult {
  RunOutcome outcome = RunOutcome::Crashed;
  std::string reason;           ///< non-empty unless outcome == Ok
  std::vector<double> samples;  ///< wall seconds, one per repeat
  /// Loading failed INSIDE the worker: the cached .so is poisoned
  /// (truncated write, foreign-ISA restore).  The caller should
  /// jit::invalidate_kernel + recompile once instead of failing.
  bool retryable_load_failure = false;
};

/// A pool of measurement worker processes.  run() is thread-safe:
/// concurrent callers check out idle workers (blocking when all
/// `workers` are busy) and dead workers are respawned lazily.  The
/// destructor kills and reaps everything.  Does NOT consult the crash
/// negative-cache — that policy lives in the caller (ExecBackend's sandbox
/// rung) so the pool stays a pure transport.
class WorkerPool {
 public:
  explicit WorkerPool(PoolOptions opt = default_pool_options());
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// One request end-to-end: checkout (spawn if needed), send, await
  /// within the deadline, classify.  Never throws; a spawn failure
  /// reports as Crashed with the reason.
  [[nodiscard]] RunResult run(const RunRequest& req);

  [[nodiscard]] const PoolOptions& options() const noexcept { return opt_; }

 private:
  struct Worker;
  struct State;
  PoolOptions opt_;
  std::unique_ptr<State> state_;
};

// ---- crash negative-cache ---------------------------------------------------
// Process-wide (like the jit registry): a kernel that crashed a worker is
// poisonous in EVERY pool and engine of this process.  LRU-bounded to
// 4096 entries.

struct CrashEntry {
  MeasureFailKind kind = MeasureFailKind::WorkerCrashed;
  std::string reason;
};

/// Hit counts toward WorkerStats::negative_hits.
[[nodiscard]] std::optional<CrashEntry> crash_cache_lookup(std::uint64_t key);
void crash_cache_insert(std::uint64_t key, MeasureFailKind kind,
                        std::string reason);
/// Returns whether an entry existed.  After eviction the kernel is
/// eligible for (sandboxed) execution again.
bool crash_cache_evict(std::uint64_t key);

// ---- worker side ------------------------------------------------------------

/// The measurement loop a worker process runs instead of main():
/// reads framed RunRequests from `request_fd`, executes each kernel
/// (jit::load_artifact + jit::seeded_inputs + jit::run_blocks), writes
/// framed responses to `response_fd`, and returns 0 on EOF (host closed
/// the pipe).  Exposed for direct-loopback testing; production workers enter
/// it from an early constructor when MCFUSER_SANDBOX_WORKER is set.
int worker_main(int request_fd, int response_fd);

}  // namespace sandbox
}  // namespace mcf

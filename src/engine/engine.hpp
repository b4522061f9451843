// FusionEngine — the library's service-grade entry point.
//
// A long-lived engine owns everything one fusion deployment shares across
// requests: the GPU spec, the resolved MeasureBackend, the worker pool for
// concurrent chain tuning, and one digest-keyed store of tuned results.
// Front doors:
//
//   * fuse(chain)        — synchronous, runs inline on the caller's thread;
//                          bit-identical to the pre-engine pipeline
//                          (pinned by tests/engine/test_regression.cpp).
//   * submit(chain)      — asynchronous; returns a FusionTicket with
//                          wait()/ready()/cancel() and live progress
//                          counters fed from the tuner.
//   * fuse_graph(graph)  — whole-graph batch fusion: partitions the graph,
//     fuse_chains(...)     deduplicates structurally-identical chains by
//                          digest, tunes distinct chains concurrently
//                          across the worker pool, and assembles a
//                          GraphFusionReport.
//
// One lookup rule: every entry point answers from the store when it holds
// the chain's digest, and every Ok tuning result is stored.  The store's
// file image keys each record by the GPU and backend that measured it.
//
// Every result carries a FusionStatus (engine/status.hpp) plus a
// human-readable reason from the layer that failed — no more bool ok.
//
// Load hardening: the async queue is bounded (FusionEngineOptions::queue —
// max queued, max in-flight, queue-wait deadline), the result memo is
// LRU-bounded (FusionEngineOptions::memo), and stats() snapshots queue
// depth, admission counters and memo occupancy — a traffic burst sheds
// load as Rejected/DeadlineExceeded tickets instead of growing without
// bound.
//
// Thread-safety: all public methods are safe to call concurrently from
// multiple threads.  Results are deterministic per chain regardless of
// jobs/threads (the tuner is seed-deterministic; concurrency only changes
// wall-clock).  See docs/api.md for the full contract.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/status.hpp"
#include "support/json.hpp"
#include "support/lru_map.hpp"
#include "support/mutex.hpp"
#include "exec/jit.hpp"
#include "exec/program.hpp"
#include "exec/sandbox.hpp"
#include "graph/netgraph.hpp"
#include "search/space.hpp"
#include "search/tuner.hpp"
#include "search/tuning_cache.hpp"

namespace mcf {

class MeasureBackend;

/// What a submit() to a full queue does: it resolves as Rejected at once
/// (the 429 of this API) — the only behaviour.  The engine reads no
/// overflow field; this enum and QueuePolicy::overflow remain only
/// because bench/e2e/serve_sim.hpp still assigns them.
enum class OverflowPolicy : std::uint8_t {
  Reject,
};

/// Admission control for the asynchronous queue.  All limits default to
/// 0 = unbounded (the pre-admission-control behaviour).  When the queue
/// is full, submit() resolves the new ticket as Rejected, while the
/// graph batch path (fuse_chains / fuse_graph) waits for a slot — a
/// batch call owns its backlog.  The per-ticket deadline applies to
/// both paths.
struct QueuePolicy {
  /// Max jobs waiting in the queue (not yet picked up by a worker).
  std::size_t max_queued = 0;
  /// Max outstanding jobs (queued + running).  Tighter of the two caps
  /// wins when both are set.
  std::size_t max_in_flight = 0;
  /// Per-ticket queue-wait deadline in seconds (measured from admission):
  /// a job still waiting when a worker finally picks it up resolves as
  /// DeadlineExceeded without tuning.  A job that *starts* in time runs
  /// to completion.  0 (or negative/non-finite/>= 1e9 — ~31 years, the
  /// clock-arithmetic overflow guard) = no deadline.
  double deadline_s = 0.0;
  /// Unread: a full queue always rejects a submit() (see OverflowPolicy).
  OverflowPolicy overflow = OverflowPolicy::Reject;
};

/// Byte/entry caps for the engine's digest-keyed result store (the memo).
/// 0 = unbounded.  Eviction is LRU; an evicted digest simply re-tunes on
/// the next request (deterministically identical result — pinned by
/// tests/engine/test_fuse_graph.cpp).  The newest entry is never evicted,
/// so a single result larger than max_bytes still memoizes (the memo
/// holds at most that one entry).
struct MemoLimits {
  std::size_t max_entries = 0;
  std::size_t max_bytes = 0;  ///< approximate payload bytes (see stats())
};

struct FusionEngineOptions {
  SpaceOptions space;
  PruneOptions prune;      ///< smem_limit_bytes is overwritten from the GPU
  ScheduleOptions sched;   ///< hoisting / unit-collapse flags
  TunerOptions tuner;
  /// Measurement backend by registry name ("sim", "interp", "jit",
  /// "jit-isolated"; see measure/backend.hpp).  Empty = tuner.backend if
  /// set, else the simulator.  Resolved once at engine construction; an
  /// unknown name aborts with the registered names in the message.
  std::string backend;
  /// Worker threads for asynchronous submission and graph-level batch
  /// fusion (distinct chains tune concurrently).  0 = hardware
  /// concurrency.  Workers start lazily on the first submit()/fuse_graph();
  /// the synchronous fuse() never spawns threads.
  int jobs = 0;
  /// Bounded admission queue (load shedding); defaults to unbounded.
  QueuePolicy queue;
  /// Caps on the digest-keyed result memo; defaults to unbounded.
  MemoLimits memo;
};

/// Point-in-time engine observability snapshot (stats()); the counter
/// fields are monotonic over the engine's lifetime.  Every job that
/// enters the admission path (each submit() and each distinct chain of a
/// fuse_chains call) counts in `submitted` and lands in exactly one of
/// completed/rejected/cancelled/deadline_exceeded — the stress suite pins
/// the identity submitted == completed + rejected + cancelled +
/// deadline_exceeded once all tickets resolved.  A job answered from the
/// store counts in submitted and completed.  The synchronous fuse() path
/// never touches the queue and is not counted.
struct EngineStats {
  std::size_t queued = 0;   ///< jobs waiting for a worker (instantaneous)
  std::size_t busy = 0;     ///< workers currently running a job
  std::size_t workers = 0;  ///< worker threads spawned so far
  std::uint64_t submitted = 0;  ///< admission attempts (terminal-or-queued)
  std::uint64_t completed = 0;  ///< ran the pipeline (Ok or a tuning failure)
  std::uint64_t rejected = 0;   ///< shed at admission (queue full)
  std::uint64_t cancelled = 0;  ///< resolved Cancelled (ticket or shutdown)
  std::uint64_t deadline_exceeded = 0;  ///< shed after queue-wait deadline
  std::size_t memo_entries = 0;  ///< digests currently memoized
  std::size_t memo_bytes = 0;    ///< approximate memoized payload bytes
  std::uint64_t memo_evictions = 0;  ///< results LRU-evicted so far
  std::uint64_t memo_hits = 0;  ///< requests answered from the store
  /// Process-wide snapshots: every engine in the process shares the jit
  /// kernel registry and the sandbox worker pools.  The absolute `jit`
  /// snapshot keeps the module identity opened == open + closed;
  /// `sandbox` is all zero when isolation is never used.
  jit::CompileStats jit;
  sandbox::WorkerStats sandbox;

  /// Every field keyed by its name, `jit` and `sandbox` as nested
  /// objects.
  [[nodiscard]] std::string to_json() const;
};

/// Everything the fusion pipeline produces for one chain.
struct FusionResult {
  /// Every engine path assigns a status; the default only survives on a
  /// default-constructed (never-run) result.
  FusionStatus status = FusionStatus::InvalidChain;
  /// Human-readable failure detail from the layer that failed (prune
  /// funnel, measurement backend, lowering, validation).  Empty on Ok.
  std::string reason;
  TunedResult tuned;
  PruneFunnel funnel;
  std::size_t space_size = 0;
  /// Best fused kernel, compiled for the target GPU (Ok results only).
  std::optional<CompiledKernel> kernel;

  [[nodiscard]] bool ok() const noexcept { return status == FusionStatus::Ok; }
  [[nodiscard]] double time_s() const noexcept { return tuned.best_time_s; }

  /// The one chain report, shared by GraphFusionReport's chains,
  /// `mcfuser fuse --json` and the wire FuseResult: writes `name`,
  /// `status`, `reason` and, when ok(), `time_us`, `measurements`,
  /// `generations`, `space_size`, `best_expr` and `best_tiles` into the
  /// object `w` has open.
  void write_report(JsonWriter& w, const std::string& name) const;
};

namespace detail {

/// Shared state between a FusionTicket and the engine worker running it.
struct TicketState {
  explicit TicketState(ChainSpec c)
      : chain(std::move(c)), digest(chain_cache_key(chain)),
        progress(std::make_shared<TuningProgress>()) {}

  const ChainSpec chain;
  const std::string digest;  ///< chain_cache_key(chain): the store key
  const std::shared_ptr<TuningProgress> progress;
  /// Queue-wait deadline (QueuePolicy::deadline_s); checked by the worker
  /// at pick-up time, for submit() and fuse_chains jobs alike.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};

  mutable Mutex mu{"ticket.state"};
  mutable CondVar cv;
  bool done MCF_GUARDED_BY(mu) = false;
  bool started MCF_GUARDED_BY(mu) = false;
  /// Written exactly once (by finish(), under mu, before done flips);
  /// the aliasing shared_ptr the memo publishes reads it lock-free only
  /// AFTER done — by then the value is frozen for the state's lifetime.
  FusionResult result MCF_GUARDED_BY(mu);
};

}  // namespace detail

/// Future-like handle to an asynchronous fusion job.  Cheap to copy; all
/// copies observe the same job.  A default-constructed ticket is empty
/// (valid() == false).
class FusionTicket {
 public:
  /// Live counters mirrored from the tuner (see TuningProgress).
  struct Progress {
    int generations = 0;
    int estimates = 0;
    int measurements = 0;
    bool started = false;
    bool done = false;
  };

  FusionTicket() = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] const ChainSpec& chain() const;

  /// True once the result is available (never blocks).
  [[nodiscard]] bool ready() const;
  /// Blocks until the job completes.
  void wait() const;
  /// Blocks up to `seconds`; true when the job completed in time.
  /// Contract for degenerate inputs: seconds <= 0 or NaN polls once
  /// (equivalent to ready()); +infinity (or any wait beyond ~31 years)
  /// waits indefinitely like wait().  Raw doubles never reach the
  /// condition variable unclamped.
  bool wait_for(double seconds) const;
  /// Waits, then returns the result (owned by the shared state — valid as
  /// long as any ticket copy is alive).
  [[nodiscard]] const FusionResult& get() const;

  /// Best-effort cancellation: a queued job finishes as Cancelled without
  /// running; a running job stops (as Cancelled) at its next generation
  /// or refinement-round boundary.  A job past tuning (or already done)
  /// completes normally — never a silently truncated search.  Returns
  /// true when the request was registered before the job finished; once
  /// the job is done, cancel() returns false and is a guaranteed no-op
  /// (the finished result is never touched).  Cancelling twice is
  /// idempotent.  Both properties are pinned by tests/engine.
  bool cancel();

  [[nodiscard]] Progress progress() const;

 private:
  friend class FusionEngine;
  explicit FusionTicket(std::shared_ptr<detail::TicketState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::TicketState> state_;
};

/// Per-distinct-chain entry of a GraphFusionReport.
struct GraphChainReport {
  std::string digest;      ///< structural chain digest (chain_cache_key)
  std::string chain_name;  ///< representative (first occurrence) name
  std::string chain_desc;  ///< ChainSpec::to_string of the representative
  int occurrences = 0;     ///< how many subgraphs share this digest
  /// True when the result came from the engine's store without tuning:
  /// at admission, or when a worker picked the job up after an earlier
  /// job of the same digest (another call's, or a submit()'s) stored it.
  bool reused = false;
  std::shared_ptr<const FusionResult> result;
};

/// What fuse_graph produced: one entry per distinct chain digest plus the
/// subgraph -> chain mapping and aggregate tuning-economy counters.
struct GraphFusionReport {
  std::string graph_name;
  int graph_nodes = 0;
  int mbci_subgraphs = 0;       ///< fusable regions found by the partitioner
  int distinct_chains = 0;      ///< == chains.size()
  int tuned_chains = 0;         ///< chains whose job started tuning
  int total_measurements = 0;   ///< hardware measurements spent this call
  double tuning_wall_s = 0.0;   ///< summed tuner wall-clock this call
  /// Kernel-compilation economy of this call when the measurement backend
  /// jit-compiles (deltas of the process-wide exec/jit counters over the
  /// call; all-zero for non-compiling backends).  TUs measure how well
  /// the per-wave batching amortised compiles; cache hits
  /// count kernels resolved without compiling at all.
  jit::CompileStats jit_compile;
  /// Engine snapshot taken as the call returns (queue depth, admission
  /// counters, memo occupancy) — the service-health section of to_json.
  EngineStats engine_stats;
  std::vector<GraphChainReport> chains;
  /// For input subgraph/chain i: index into `chains`.
  std::vector<int> sub_to_chain;

  [[nodiscard]] bool all_ok() const noexcept;
  /// Machine-readable report (the CLI's --json output).
  [[nodiscard]] std::string to_json() const;
};

class FusionEngine {
 public:
  explicit FusionEngine(GpuSpec gpu, FusionEngineOptions options = {});
  ~FusionEngine();

  FusionEngine(const FusionEngine&) = delete;
  FusionEngine& operator=(const FusionEngine&) = delete;

  [[nodiscard]] const GpuSpec& gpu() const noexcept { return gpu_; }
  [[nodiscard]] const FusionEngineOptions& options() const noexcept { return opt_; }
  /// The resolved measurement backend every tuning run goes through.
  [[nodiscard]] const std::shared_ptr<MeasureBackend>& backend() const noexcept {
    return opt_.tuner.backend;
  }

  /// Synchronous single-chain fusion, inline on the calling thread.
  /// `progress` optionally attaches an observation/cancellation channel.
  /// A store hit answers without tuning; the kernel of every result is
  /// built for `chain`, so it stays valid while `chain` does.
  [[nodiscard]] FusionResult fuse(
      const ChainSpec& chain,
      std::shared_ptr<TuningProgress> progress = nullptr) const;

  /// Asynchronous submission onto the engine's worker pool, subject to
  /// the configured QueuePolicy; never blocks.  A digest the store holds
  /// is answered at admission — the ticket is Ok at once, never started,
  /// even when the queue is full.  Otherwise a full bounded queue sheds
  /// the submission: it still returns a valid ticket, already resolved
  /// as Rejected (callers branch on get().status, never on ticket
  /// validity).
  [[nodiscard]] FusionTicket submit(ChainSpec chain);

  /// Whole-graph batch fusion: partition -> digest-dedup -> concurrent
  /// tuning of distinct chains -> report.  Each distinct chain is one
  /// admitted job that waits for a queue slot instead of being shed.
  /// Results are stored in the engine, so repeated calls (or shared
  /// chains across graphs) tune once.
  [[nodiscard]] GraphFusionReport fuse_graph(const NetGraph& g);

  /// Same pipeline over an explicit chain list (callers that partitioned
  /// already — GraphExecutor).  Order defines the sub_to_chain mapping.
  [[nodiscard]] GraphFusionReport fuse_chains(const std::vector<ChainSpec>& chains,
                                              const std::string& label = "");

  /// The store's file image (search/tuning_cache.hpp).  Only records
  /// this GPU, backend, measure options and host produced are served;
  /// the rest are kept for save.  load is false when the file is absent,
  /// unversioned (nothing loads) or partly malformed; save (atomic) is
  /// false, with `path` untouched, when it cannot write.
  bool load_tuning_cache(const std::string& path);
  [[nodiscard]] bool save_tuning_cache(const std::string& path) const;

  /// Distinct chain digests with a stored successful result (failures
  /// are reported but never stored — the next request re-tunes).
  [[nodiscard]] std::size_t result_cache_size() const;

  /// Point-in-time observability snapshot (queue depth, admission
  /// counters, memo occupancy/evictions).  Safe to call concurrently.
  [[nodiscard]] EngineStats stats() const;

  /// Blocks until the async queue is quiescent (nothing queued, no
  /// worker running a job) or the timeout expires; true when idle.  A
  /// drain barrier for front-ends (net::FusionServer): stop feeding the
  /// engine, resolve your tickets, then wait_idle before tearing down.
  /// Degenerate inputs follow FusionTicket::wait_for — <= 0/NaN polls
  /// once, +infinity (or >= 1e9 s) waits indefinitely.  New submissions
  /// while waiting extend the wait; quiescence is observed, not latched.
  [[nodiscard]] bool wait_idle(double timeout_s) const;

  /// Preset reproducing the paper's MCFuser-Chimera baseline: deep
  /// tilings only, no extent-1 hoisting (§VI-A "Comparisons").
  [[nodiscard]] static FusionEngineOptions chimera_options();

 private:
  /// A stored Ok result: what a hit needs to answer without tuning.
  struct StoredResult {
    /// The stored form of `tuned`, an Ok tuning over `space`.
    StoredResult(const SearchSpace& space, const TunedResult& tuned);
    FusionResult result;  ///< no kernel, zero tuning stats
    TileExpr expr;        ///< the winner's; a hit rebuilds its kernel
  };

  /// The single-chain pipeline (space -> prune -> tune -> compile) plus
  /// status/reason mapping; an Ok result is stored under `digest`.
  [[nodiscard]] FusionResult run_one(const ChainSpec& chain,
                                     const std::string& digest,
                                     std::shared_ptr<TuningProgress> progress) const;

  /// The one store lookup every entry point makes before tuning: the
  /// result stored under `digest`, its kernel built for `chain`.  A file
  /// record resolves on its first lookup, or is dropped.  Never called
  /// under engine.queue.
  [[nodiscard]] std::optional<FusionResult> lookup(const ChainSpec& chain,
                                                   const std::string& digest) const;
  /// A file record as a stored result; null when it no longer fits the
  /// rebuilt search space.
  [[nodiscard]] std::shared_ptr<const StoredResult> resolve(
      const ChainSpec& chain, const TuningRecord& record) const;
  void store(const std::string& digest,
             std::shared_ptr<const StoredResult> stored) const;

  /// Spawns one worker when the outstanding job count exceeds the
  /// current worker count, up to the jobs cap — so N submissions cost
  /// min(N, jobs) threads, never the full cap eagerly.
  void spawn_worker_locked() MCF_REQUIRES(queue_mu_);
  [[nodiscard]] unsigned max_workers() const;
  void worker_loop();
  void finish(const std::shared_ptr<detail::TicketState>& state,
              FusionResult result);

  /// True when the bounded queue has no room.
  [[nodiscard]] bool queue_full_locked() const MCF_REQUIRES(queue_mu_);
  /// The one admission path, behind submit() and fuse_chains: a store
  /// hit resolves the ticket at once; otherwise the job queues, and a
  /// full queue rejects it — or, for a `batch` (fuse_chains) job, waits
  /// for a slot.
  [[nodiscard]] FusionTicket admit(std::shared_ptr<detail::TicketState> state,
                                   bool batch);

  GpuSpec gpu_;
  FusionEngineOptions opt_;

  // Async workers (lazy) + bounded admission queue.
  mutable Mutex queue_mu_{"engine.queue"};
  CondVar queue_cv_;  ///< wakes workers (new job / stop)
  CondVar room_cv_;   ///< wakes batch jobs waiting for a slot
  mutable CondVar idle_cv_;  ///< wakes wait_idle (queue quiescent)
  std::deque<std::shared_ptr<detail::TicketState>> queue_
      MCF_GUARDED_BY(queue_mu_);
  std::vector<std::thread> workers_ MCF_GUARDED_BY(queue_mu_);
  std::size_t busy_ MCF_GUARDED_BY(queue_mu_) = 0;  ///< workers running a job
  bool stop_ MCF_GUARDED_BY(queue_mu_) = false;

  // Admission/outcome counters (EngineStats); relaxed atomics — they are
  // observability, never control flow.
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};

  // The result store: a digest-keyed LRU memo (bounded by opt_.memo;
  // support/lru_map.hpp) and the loaded file records not in it.
  mutable Mutex memo_mu_{"engine.memo"};
  mutable LruMap<std::string, std::shared_ptr<const StoredResult>> results_
      MCF_GUARDED_BY(memo_mu_);
  /// By record key ("<chain> <producer>"): this engine's records resolve
  /// on first lookup; the others are only written back.
  mutable std::map<std::string, std::string> file_ MCF_GUARDED_BY(memo_mu_);
  mutable std::atomic<std::uint64_t> memo_hits_{0};
  /// TuningRecord::producer of every record this engine writes or serves.
  std::string producer_;
};

}  // namespace mcf

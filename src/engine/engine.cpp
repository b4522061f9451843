#include "engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "exec/sandbox.hpp"
#include "graph/partitioner.hpp"
#include "measure/backend.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"

namespace mcf {

const char* fusion_status_name(FusionStatus s) noexcept {
  switch (s) {
    case FusionStatus::Ok:
      return "ok";
    case FusionStatus::InvalidChain:
      return "invalid-chain";
    case FusionStatus::InfeasibleSpace:
      return "infeasible-space";
    case FusionStatus::PruneEmpty:
      return "prune-empty";
    case FusionStatus::MeasureFailed:
      return "measure-failed";
    case FusionStatus::Cancelled:
      return "cancelled";
    case FusionStatus::Rejected:
      return "rejected";
    case FusionStatus::DeadlineExceeded:
      return "deadline-exceeded";
    case FusionStatus::WorkerCrashed:
      return "worker-crashed";
    case FusionStatus::WorkerTimeout:
      return "worker-timeout";
    case FusionStatus::VerifyRejected:
      return "verify-rejected";
  }
  return "?";
}

namespace {

FusionResult make_shed_result(FusionStatus status, std::string reason) {
  FusionResult r;
  r.status = status;
  r.reason = std::move(reason);
  return r;
}

}  // namespace

// ---- FusionTicket -----------------------------------------------------------

const ChainSpec& FusionTicket::chain() const {
  MCF_CHECK(state_ != nullptr) << "chain() on an empty FusionTicket";
  return state_->chain;
}

bool FusionTicket::ready() const {
  if (!state_) return false;
  const LockGuard lk(state_->mu);
  return state_->done;
}

void FusionTicket::wait() const {
  MCF_CHECK(state_ != nullptr) << "wait() on an empty FusionTicket";
  UniqueLock lk(state_->mu);
  state_->cv.wait(lk, [&] {
    state_->mu.assert_held();
    return state_->done;
  });
}

bool FusionTicket::wait_for(double seconds) const {
  MCF_CHECK(state_ != nullptr) << "wait_for() on an empty FusionTicket";
  UniqueLock lk(state_->mu);
  // Contract: <= 0 (and NaN, which fails every comparison) polls once.
  if (!(seconds > 0.0)) return state_->done;
  // +inf and absurdly large finite waits become wait(): feeding them to
  // cv.wait_for would overflow the steady_clock arithmetic.  1e9 s (~31
  // years) still fits an int64 nanosecond deadline with headroom.
  constexpr double kMaxWaitSeconds = 1e9;
  if (!std::isfinite(seconds) || seconds >= kMaxWaitSeconds) {
    state_->cv.wait(lk, [&] {
      state_->mu.assert_held();
      return state_->done;
    });
    return true;
  }
  return state_->cv.wait_for(lk, std::chrono::duration<double>(seconds), [&] {
    state_->mu.assert_held();
    return state_->done;
  });
}

const FusionResult& FusionTicket::get() const {
  wait();
  // done is set: the result is frozen, but the reference still binds to
  // a guarded field — take the (uncontended) lock for the access.
  const LockGuard lk(state_->mu);
  return state_->result;
}

bool FusionTicket::cancel() {
  if (!state_) return false;
  {
    // A finished job is untouchable: no cancel flag is raised, the result
    // stays as-is, and the call reports false.
    const LockGuard lk(state_->mu);
    if (state_->done) return false;
  }
  // Idempotent: re-raising an already-raised flag is a no-op.
  state_->progress->request_cancel();
  const LockGuard lk(state_->mu);
  return !state_->done;
}

FusionTicket::Progress FusionTicket::progress() const {
  Progress p;
  if (!state_) return p;
  p.generations = state_->progress->generations.load(std::memory_order_relaxed);
  p.estimates = state_->progress->estimates.load(std::memory_order_relaxed);
  p.measurements =
      state_->progress->measurements.load(std::memory_order_relaxed);
  const LockGuard lk(state_->mu);
  p.started = state_->started;
  p.done = state_->done;
  return p;
}

// ---- EngineStats / GraphFusionReport ----------------------------------------

std::string EngineStats::to_json() const {
  std::ostringstream os;
  os << "{\"queued\":" << queued << ",\"busy\":" << busy
     << ",\"workers\":" << workers << ",\"submitted\":" << submitted
     << ",\"completed\":" << completed
     << ",\"rejected\":" << rejected << ",\"cancelled\":" << cancelled
     << ",\"deadline_exceeded\":" << deadline_exceeded
     << ",\"memo_entries\":" << memo_entries
     << ",\"memo_bytes\":" << memo_bytes
     << ",\"memo_evictions\":" << memo_evictions
     << ",\"memo_hits\":" << memo_hits
     << ",\"worker_spawns\":" << worker_spawns
     << ",\"worker_respawns\":" << worker_respawns
     << ",\"worker_crashes\":" << worker_crashes
     << ",\"worker_timeouts\":" << worker_timeouts
     << ",\"crash_cache_hits\":" << crash_cache_hits
     << ",\"workers_active\":" << workers_active
     << ",\"jit_modules_opened\":" << jit_modules_opened
     << ",\"jit_modules_closed\":" << jit_modules_closed
     << ",\"jit_modules_open\":" << jit_modules_open << "}";
  return os.str();
}

bool GraphFusionReport::all_ok() const noexcept {
  for (const auto& c : chains) {
    if (!c.result || !c.result->ok()) return false;
  }
  return true;
}

std::string GraphFusionReport::to_json() const {
  std::ostringstream os;
  os << "{\"graph\":\"";
  os << json_escape(graph_name);
  os << "\",\"nodes\":" << graph_nodes
     << ",\"mbci_subgraphs\":" << mbci_subgraphs
     << ",\"distinct_chains\":" << distinct_chains
     << ",\"tuned_chains\":" << tuned_chains
     << ",\"total_measurements\":" << total_measurements
     << ",\"tuning_wall_s\":" << tuning_wall_s
     << ",\"jit_compile\":{\"tus_compiled\":" << jit_compile.tus_compiled
     << ",\"kernels_compiled\":" << jit_compile.kernels_compiled
     << ",\"cache_hits\":" << jit_compile.cache_hits()
     << ",\"failures\":" << jit_compile.failures
     << ",\"modules_opened\":" << jit_compile.modules_opened
     << ",\"modules_open\":" << jit_compile.modules_open
     << ",\"modules_closed\":" << jit_compile.modules_closed
     << ",\"compile_wall_s\":" << jit_compile.compile_wall_s
     << "},\"engine\":" << engine_stats.to_json() << ",\"chains\":[";
  for (std::size_t i = 0; i < chains.size(); ++i) {
    const GraphChainReport& c = chains[i];
    if (i) os << ",";
    os << "{\"digest\":\"";
    os << json_escape(c.digest);
    os << "\",\"name\":\"";
    os << json_escape(c.chain_name);
    os << "\",\"desc\":\"";
    os << json_escape(c.chain_desc);
    os << "\",\"occurrences\":" << c.occurrences
       << ",\"reused\":" << (c.reused ? "true" : "false") << ",\"status\":\""
       << (c.result ? fusion_status_name(c.result->status) : "missing")
       << "\",\"reason\":\"";
    if (c.result) os << json_escape(c.result->reason);
    os << "\"";
    if (c.result && c.result->ok()) {
      os << ",\"time_us\":" << c.result->time_s() * 1e6
         << ",\"measurements\":" << c.result->tuned.stats.measurements
         << ",\"space_size\":" << c.result->space_size << ",\"best_tiles\":[";
      const auto& tiles = c.result->tuned.best.tiles;
      for (std::size_t t = 0; t < tiles.size(); ++t) {
        if (t) os << ",";
        os << tiles[t];
      }
      os << "]";
    }
    os << "}";
  }
  os << "],\"sub_to_chain\":[";
  for (std::size_t i = 0; i < sub_to_chain.size(); ++i) {
    if (i) os << ",";
    os << sub_to_chain[i];
  }
  os << "]}";
  return os.str();
}

// ---- FusionEngine -----------------------------------------------------------

FusionEngine::FusionEngine(GpuSpec gpu, FusionEngineOptions options)
    : gpu_(std::move(gpu)), opt_(std::move(options)),
      results_(decltype(results_)::Limits{opt_.memo.max_entries,
                                          opt_.memo.max_bytes}) {
  opt_.prune.smem_limit_bytes = gpu_.smem_per_block;
  if (!opt_.backend.empty()) {
    opt_.tuner.backend = BackendRegistry::instance().create(opt_.backend, gpu_);
    if (opt_.tuner.backend == nullptr) {
      std::string known;
      for (const auto& n : BackendRegistry::instance().names()) {
        known += (known.empty() ? "" : ", ") + n;
      }
      MCF_CHECK(false) << "unknown measure backend '" << opt_.backend
                       << "' (registered: " << known << ")";
    }
  } else if (opt_.tuner.backend == nullptr) {
    // Resolve the default once so every tuning run shares one (stateless)
    // simulator — value-identical to the tuner's per-run default.
    opt_.tuner.backend = std::make_shared<SimulatorBackend>(gpu_);
  }
  // Who measures this engine's results; wall-clock times also depend on
  // the host and its toolchain.
  const MeasureBackend& b = *opt_.tuner.backend;
  producer_ = gpu_.name + " " + std::string(b.name()) + " " +
              std::to_string(b.options_digest(opt_.tuner.measure)) + " " +
              (b.deterministic() ? "-" : std::to_string(jit::host_key()));
}

FusionEngine::~FusionEngine() {
  // No admit() can be in progress: submit() never waits, and a caller
  // that destroys the engine during its own fuse_chains call is in
  // error.  Stop, then join the workers unlocked.
  std::vector<std::thread> workers;
  {
    const LockGuard lk(queue_mu_);
    stop_ = true;
    workers.swap(workers_);
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers) w.join();
  // With workers, the loop above drained the backlog as Cancelled.  The
  // defensive sweep covers an engine that never spawned one: every
  // outstanding ticket must still resolve so no waiter hangs.
  std::deque<std::shared_ptr<detail::TicketState>> leftover;
  {
    const LockGuard lk(queue_mu_);
    leftover.swap(queue_);
  }
  for (const auto& s : leftover) {
    finish(s, make_shed_result(FusionStatus::Cancelled, "engine shutting down"));
  }
}

FusionEngineOptions FusionEngine::chimera_options() {
  FusionEngineOptions o;
  o.space.include_flat = false;         // nested block execution orders only
  o.sched.collapse_unit_loops = false;  // misses the extent-1 optimisation
  return o;
}

FusionResult FusionEngine::run_one(const ChainSpec& chain,
                                   const std::string& digest,
                                   std::shared_ptr<TuningProgress> progress) const {
  FusionResult result;
  if (!chain.valid()) {
    result.status = FusionStatus::InvalidChain;
    result.reason = chain.validation_error();
    MCF_LOG(Warn) << "FusionEngine: invalid chain '" << chain.name()
                  << "': " << result.reason;
    return result;
  }
  const SearchSpace space(chain, opt_.space, opt_.prune, opt_.sched);
  result.funnel = space.funnel();
  result.space_size = space.candidates().size();
  if (space.candidates().empty()) {
    std::ostringstream os;
    if (space.expressions().empty() || result.funnel.original <= 0.0) {
      result.status = FusionStatus::InfeasibleSpace;
      os << "space generation produced no tiling expressions for "
         << chain.name();
    } else {
      result.status = FusionStatus::PruneEmpty;
      os << "pruning left 0 of " << result.funnel.original
         << " raw candidates (rule1 " << result.funnel.after_rule1
         << " -> rule2 " << result.funnel.after_rule2 << " -> rule3 "
         << result.funnel.after_rule3 << " -> rule4 "
         << result.funnel.after_rule4 << ")";
    }
    result.reason = os.str();
    MCF_LOG(Warn) << "FusionEngine: nothing to tune for " << chain.name()
                  << ": " << result.reason;
    return result;
  }
  TunerOptions topts = opt_.tuner;
  // Per-workload deterministic noise stream for simulated measurements.
  topts.measure.noise_seed =
      hash_combine(topts.measure.noise_seed, hash_string(chain.name()));
  topts.progress = std::move(progress);
  Tuner tuner(space, gpu_, topts);
  result.tuned = tuner.run();
  if (result.tuned.cancelled) {
    result.status = FusionStatus::Cancelled;
    result.reason = result.tuned.fail_reason;
    return result;
  }
  if (!result.tuned.ok) {
    // Isolation-aware failure taxonomy: a run whose candidates died in
    // sandbox workers (or hit the worker deadline) is operationally
    // different from "every candidate was infeasible" — surface it as
    // its own status, with the signal / deadline detail in the reason.
    switch (result.tuned.fail_kind) {
      case MeasureFailKind::WorkerCrashed:
        result.status = FusionStatus::WorkerCrashed;
        break;
      case MeasureFailKind::WorkerTimeout:
        result.status = FusionStatus::WorkerTimeout;
        break;
      case MeasureFailKind::VerifyRejected:
        result.status = FusionStatus::VerifyRejected;
        break;
      default:
        result.status = FusionStatus::MeasureFailed;
        break;
    }
    result.reason = result.tuned.fail_reason.empty()
                        ? "no candidate measured successfully"
                        : result.tuned.fail_reason;
    return result;
  }
  result.kernel.emplace(space.schedule_for(result.tuned.best), gpu_);
  if (!result.kernel->ok()) {
    result.status = FusionStatus::MeasureFailed;
    result.reason = "winner failed to lower: " + result.kernel->error();
    MCF_LOG(Warn) << "FusionEngine: " << result.reason;
    return result;
  }
  result.status = FusionStatus::Ok;
  // Only Ok results are stored: a failed tuning (which may be transient
  // on nondeterministic hardware backends) must not poison its digest
  // for the engine's lifetime; the next request re-tunes.
  store(digest, std::make_shared<const StoredResult>(space, result.tuned));
  return result;
}

FusionEngine::StoredResult::StoredResult(const SearchSpace& space,
                                         const TunedResult& tuned)
    : expr(space.expressions()[static_cast<std::size_t>(tuned.best.expr_id)]) {
  result.status = FusionStatus::Ok;
  result.funnel = space.funnel();
  result.space_size = space.candidates().size();
  result.tuned.ok = true;
  result.tuned.best = tuned.best;
  result.tuned.best_time_s = tuned.best_time_s;
  result.tuned.best_measurement = tuned.best_measurement;
}

std::optional<FusionResult> FusionEngine::lookup(const ChainSpec& chain,
                                                 const std::string& digest) const {
  std::shared_ptr<const StoredResult> stored;
  std::optional<TuningRecord> record;
  {
    const LockGuard lk(memo_mu_);
    if (const auto* hit = results_.find(digest)) {  // refreshes LRU recency
      stored = *hit;
    } else if (const auto it = file_.find(digest + " " + producer_);
               it != file_.end()) {
      // A file record resolves once: stored below, or dropped when stale.
      record = parse_tuning_record(it->second);
      file_.erase(it);
    }
  }
  if (record) stored = resolve(chain, *record);
  if (stored == nullptr) return std::nullopt;
  FusionResult r = stored->result;
  r.kernel.emplace(build_schedule(chain, stored->expr, r.tuned.best.tiles,
                                  opt_.sched),
                   gpu_);
  if (!r.kernel->ok()) {  // a record whose winner no longer lowers
    MCF_LOG(Warn) << "FusionEngine: stale tuning record for " << chain.name()
                  << " (" << r.kernel->error() << "), re-tuning";
    return std::nullopt;
  }
  if (record) store(digest, std::move(stored));
  memo_hits_.fetch_add(1, std::memory_order_relaxed);
  return r;
}

std::shared_ptr<const FusionEngine::StoredResult> FusionEngine::resolve(
    const ChainSpec& chain, const TuningRecord& record) const {
  if (!chain.valid()) return nullptr;
  const SearchSpace space(chain, opt_.space, opt_.prune, opt_.sched);
  for (std::size_t e = 0; e < space.expressions().size(); ++e) {
    if (space.expressions()[e].structure_key() != record.expr_key) continue;
    CandidateConfig c;
    c.expr_id = static_cast<int>(e);
    c.tiles.assign(record.tiles.begin(), record.tiles.end());
    // Grid membership, not passes_rules: records come off the grid, so a
    // miss means the space's rules or options changed under the record.
    if (!space.contains(c)) return nullptr;
    TunedResult tuned;
    tuned.ok = tuned.best_measurement.ok = true;
    tuned.best = std::move(c);
    tuned.best_time_s = tuned.best_measurement.time_s = record.time_s;
    return std::make_shared<const StoredResult>(space, tuned);
  }
  return nullptr;
}

void FusionEngine::store(const std::string& digest,
                         std::shared_ptr<const StoredResult> stored) const {
  // The MemoLimits byte cap counts an approximation, monotone in size.
  const std::size_t bytes = sizeof(StoredResult) +
                            stored->expr.num_nodes() * sizeof(TileExpr::Node);
  const LockGuard lk(memo_mu_);
  // A racing tuner of the same digest keeps the incumbent (results are
  // deterministic per chain, so the payloads match).
  (void)results_.insert(digest, std::move(stored), bytes);
  file_.erase(digest + " " + producer_);
}

FusionResult FusionEngine::fuse(const ChainSpec& chain,
                                std::shared_ptr<TuningProgress> progress) const {
  const std::string digest = chain_cache_key(chain);
  if (auto hit = lookup(chain, digest)) return std::move(*hit);
  return run_one(chain, digest, std::move(progress));
}

unsigned FusionEngine::max_workers() const {
  const unsigned n = opt_.jobs > 0 ? static_cast<unsigned>(opt_.jobs)
                                   : std::thread::hardware_concurrency();
  return std::max(1u, n);
}

void FusionEngine::spawn_worker_locked() {
  if (stop_) return;
  const std::size_t outstanding = queue_.size() + busy_;
  if (workers_.size() >= max_workers() || workers_.size() >= outstanding) {
    return;
  }
  workers_.emplace_back([this] { worker_loop(); });
}

void FusionEngine::worker_loop() {
  for (;;) {
    std::shared_ptr<detail::TicketState> job;
    bool stopping = false;
    {
      UniqueLock lk(queue_mu_);
      queue_cv_.wait(lk, [&] {
        queue_mu_.assert_held();
        return stop_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // stop_ set and drained
      stopping = stop_;
      job = std::move(queue_.front());
      queue_.pop_front();
      ++busy_;
    }
    room_cv_.notify_one();  // a queue slot freed up
    FusionResult r;
    if (stopping) {
      // Shutdown never tunes the backlog: running jobs complete, queued
      // jobs finish as Cancelled so waiters unblock immediately.
      r.status = FusionStatus::Cancelled;
      r.reason = "engine shutting down";
    } else if (job->progress->cancel_requested()) {
      // Cancelled while queued: started stays false so Progress can
      // distinguish a queued-cancel from a mid-run cancel.
      r.status = FusionStatus::Cancelled;
      r.reason = "cancelled before the job started";
    } else if (job->has_deadline &&
               std::chrono::steady_clock::now() > job->deadline) {
      // Load shedding: a job that waited past its deadline is dropped at
      // pick-up without tuning — nobody is waiting for a stale answer.
      std::ostringstream os;
      os << "queue wait exceeded the " << opt_.queue.deadline_s
         << "s admission deadline";
      r = make_shed_result(FusionStatus::DeadlineExceeded, os.str());
    } else if (auto hit = lookup(job->chain, job->digest)) {
      // Stored while this job waited (an earlier job of the same digest):
      // the engine's only dedup of concurrent jobs.
      r = std::move(*hit);
    } else {
      {
        const LockGuard lk(job->mu);
        job->started = true;
      }
      r = run_one(job->chain, job->digest, job->progress);
    }
    // Release the in-flight slot BEFORE publishing the result: once the
    // last ticket of a burst resolves, stats() must already show
    // busy == 0 (the stress suite pins this ordering).
    bool idle = false;
    {
      const LockGuard lk(queue_mu_);
      --busy_;
      idle = queue_.empty() && busy_ == 0;
    }
    room_cv_.notify_one();  // an in-flight slot freed up
    if (idle) idle_cv_.notify_all();
    finish(job, std::move(r));
  }
}

void FusionEngine::finish(const std::shared_ptr<detail::TicketState>& state,
                          FusionResult result) {
  // Outcome accounting: every admitted-or-shed job lands in exactly one
  // terminal bucket (the stress suite pins the sum against submitted).
  switch (result.status) {
    case FusionStatus::Rejected:
      rejected_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FusionStatus::Cancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FusionStatus::DeadlineExceeded:
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      completed_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  {
    const LockGuard lk(state->mu);
    state->result = std::move(result);
    state->done = true;
  }
  state->cv.notify_all();
}

bool FusionEngine::queue_full_locked() const {
  const QueuePolicy& q = opt_.queue;
  if (q.max_queued != 0 && queue_.size() >= q.max_queued) return true;
  if (q.max_in_flight != 0 && queue_.size() + busy_ >= q.max_in_flight) {
    return true;
  }
  return false;
}

FusionTicket FusionEngine::admit(std::shared_ptr<detail::TicketState> state,
                                 bool batch) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  // A stored digest is answered before the queue bound is checked, so a
  // hit never waits and is never shed.
  if (auto hit = lookup(state->chain, state->digest)) {
    finish(state, std::move(*hit));
    return FusionTicket(std::move(state));
  }
  const QueuePolicy& qp = opt_.queue;
  // Same overflow guard as FusionTicket::wait_for: a deadline past ~31
  // years would overflow the int64 nanosecond cast (UB), and means "no
  // deadline" anyway.  NaN/inf/non-positive also mean no deadline.
  constexpr double kMaxDeadlineSeconds = 1e9;
  if (std::isfinite(qp.deadline_s) && qp.deadline_s > 0.0 &&
      qp.deadline_s < kMaxDeadlineSeconds) {
    state->has_deadline = true;
    state->deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(qp.deadline_s));
  }
  bool admitted = true;
  {
    UniqueLock lk(queue_mu_);
    MCF_CHECK(!stop_) << "submit() on a shut-down FusionEngine";
    if (batch) {
      // A batch call owns its backlog: shedding its chains would fail
      // the report, so it waits for a slot instead.
      room_cv_.wait(lk, [&] {
        queue_mu_.assert_held();
        return !queue_full_locked();
      });
    } else {
      admitted = !queue_full_locked();
    }
    if (admitted) {
      queue_.push_back(state);
      spawn_worker_locked();
    }
  }
  if (admitted) {
    queue_cv_.notify_one();
  } else {
    std::ostringstream os;
    os << "admission queue full (max_queued=" << qp.max_queued
       << ", max_in_flight=" << qp.max_in_flight << ")";
    finish(state, make_shed_result(FusionStatus::Rejected, os.str()));
  }
  return FusionTicket(std::move(state));
}

FusionTicket FusionEngine::submit(ChainSpec chain) {
  return admit(std::make_shared<detail::TicketState>(std::move(chain)),
               /*batch=*/false);
}

GraphFusionReport FusionEngine::fuse_chains(const std::vector<ChainSpec>& chains,
                                            const std::string& label) {
  GraphFusionReport rep;
  rep.graph_name = label;
  rep.sub_to_chain.reserve(chains.size());
  // Jit-compilation economy: process-wide counter deltas over the call
  // (zero when the backend never compiles; shared across engines, so
  // concurrent fuse_graph calls each see their own compiles plus any
  // overlap — documented in docs/measurement.md).
  const jit::CompileStats jit_before = jit::stats_snapshot();

  struct Pending {
    std::size_t index;  ///< into rep.chains
    FusionTicket ticket;
  };
  std::vector<Pending> pending;
  std::unordered_map<std::string, std::size_t> index_by_digest;

  for (const ChainSpec& chain : chains) {
    const std::string digest = chain_cache_key(chain);
    if (const auto it = index_by_digest.find(digest);
        it != index_by_digest.end()) {
      ++rep.chains[it->second].occurrences;
      rep.sub_to_chain.push_back(static_cast<int>(it->second));
      continue;
    }
    GraphChainReport cr;
    cr.digest = digest;
    cr.chain_name = chain.name();
    cr.chain_desc = chain.to_string();
    cr.occurrences = 1;
    const std::size_t idx = rep.chains.size();
    rep.chains.push_back(std::move(cr));
    index_by_digest.emplace(digest, idx);
    rep.sub_to_chain.push_back(static_cast<int>(idx));
    // The state owns a copy of the chain the result's kernel points at,
    // so the report stays valid after `chains` is gone.
    auto state = std::make_shared<detail::TicketState>(chain);
    pending.push_back(Pending{idx, admit(std::move(state), /*batch=*/true)});
  }

  for (Pending& p : pending) {
    const FusionResult& r = p.ticket.get();
    GraphChainReport& cr = rep.chains[p.index];
    cr.result = std::shared_ptr<const FusionResult>(p.ticket.state_,
                                                    &p.ticket.state_->result);
    if (p.ticket.progress().started) {
      ++rep.tuned_chains;
      rep.total_measurements += r.tuned.stats.measurements;
      rep.tuning_wall_s += r.tuned.stats.wall_seconds;
    } else {
      // Never started: answered from the store, at admission or at
      // pick-up, unless the deadline shed it.
      cr.reused = r.ok();
    }
  }
  rep.distinct_chains = static_cast<int>(rep.chains.size());
  rep.jit_compile = jit::stats_snapshot().since(jit_before);
  rep.engine_stats = stats();
  return rep;
}

GraphFusionReport FusionEngine::fuse_graph(const NetGraph& g) {
  const PartitionResult part = partition_mbci(g, gpu_);
  std::vector<ChainSpec> chains;
  chains.reserve(part.mbci.size());
  for (const MbciSubgraph& sub : part.mbci) chains.push_back(sub.chain);
  GraphFusionReport rep = fuse_chains(chains, g.name());
  rep.graph_nodes = g.size();
  rep.mbci_subgraphs = static_cast<int>(part.mbci.size());
  return rep;
}

bool FusionEngine::load_tuning_cache(const std::string& path) {
  std::vector<std::string> lines;
  bool clean = read_tuning_cache(path, &lines);
  const LockGuard lk(memo_mu_);
  for (std::string& line : lines) {
    const std::optional<TuningRecord> r = parse_tuning_record(line);
    clean = clean && r.has_value();
    if (r && (r->producer != producer_ || !results_.contains(r->chain))) {
      file_[r->chain + " " + r->producer] = std::move(line);
    }
  }
  return clean;
}

bool FusionEngine::save_tuning_cache(const std::string& path) const {
  std::vector<std::string> lines;
  {
    const LockGuard lk(memo_mu_);
    results_.for_each([&](const std::string& digest,
                          const std::shared_ptr<const StoredResult>& s) {
      const TunedResult& t = s->result.tuned;
      lines.push_back(format_tuning_record(TuningRecord{
          digest, producer_, s->expr.structure_key(),
          std::vector<std::int64_t>(t.best.tiles.begin(), t.best.tiles.end()),
          t.best_time_s}));
    });
    for (const auto& [key, line] : file_) lines.push_back(line);
  }
  return write_tuning_cache(path, std::move(lines));
}

std::size_t FusionEngine::result_cache_size() const {
  const LockGuard lk(memo_mu_);
  return results_.size();
}

bool FusionEngine::wait_idle(double timeout_s) const {
  UniqueLock lk(queue_mu_);
  const auto idle = [&] {
    queue_mu_.assert_held();
    return queue_.empty() && busy_ == 0;
  };
  // Degenerate-input contract mirrors FusionTicket::wait_for (<= 0/NaN
  // polls; >= 1e9 s would overflow the clock arithmetic, wait forever).
  if (!(timeout_s > 0.0)) return idle();
  constexpr double kMaxWaitSeconds = 1e9;
  if (!std::isfinite(timeout_s) || timeout_s >= kMaxWaitSeconds) {
    idle_cv_.wait(lk, idle);
    return true;
  }
  return idle_cv_.wait_for(lk, std::chrono::duration<double>(timeout_s), idle);
}

EngineStats FusionEngine::stats() const {
  EngineStats s;
  {
    const LockGuard lk(queue_mu_);
    s.queued = queue_.size();
    s.busy = busy_;
    s.workers = workers_.size();
  }
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  {
    const LockGuard lk(memo_mu_);
    s.memo_entries = results_.size();
    s.memo_bytes = results_.bytes();
    s.memo_evictions = results_.evictions();
  }
  s.memo_hits = memo_hits_.load(std::memory_order_relaxed);
  // Worker-pool health is process-wide (the pools live in the measure
  // backends, which engines may share), mirrored here like jit compile
  // stats are mirrored into the graph report.
  const sandbox::WorkerStats w = sandbox::stats_snapshot();
  s.worker_spawns = static_cast<std::uint64_t>(w.spawned);
  s.worker_respawns = static_cast<std::uint64_t>(w.respawned);
  s.worker_crashes = static_cast<std::uint64_t>(w.crashes);
  s.worker_timeouts = static_cast<std::uint64_t>(w.timeouts);
  s.crash_cache_hits = static_cast<std::uint64_t>(w.negative_hits);
  s.workers_active = static_cast<std::size_t>(std::max<std::int64_t>(w.active, 0));
  // JIT module lifecycle is process-wide too (the registry is shared by
  // every engine); the snapshot carries the accounting identity
  // opened == open + closed.
  const jit::CompileStats j = jit::stats_snapshot();
  s.jit_modules_opened = static_cast<std::uint64_t>(j.modules_opened);
  s.jit_modules_closed = static_cast<std::uint64_t>(j.modules_closed);
  s.jit_modules_open =
      static_cast<std::size_t>(std::max<std::int64_t>(j.modules_open, 0));
  return s;
}

}  // namespace mcf

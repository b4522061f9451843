#include "measure/backend.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "exec/codegen.hpp"
#include "exec/interpreter.hpp"
#include "gpu/smem.hpp"
#include "search/tuning_cache.hpp"
#include "support/rng.hpp"
#include "tensor/tensor.hpp"
#include "verify/verify.hpp"

namespace mcf {

// ---- schedule digest --------------------------------------------------------

std::uint64_t schedule_structure_digest(const Schedule& s) {
  std::uint64_t h = hash_string(chain_cache_key(s.chain()));
  for (const int l : s.block_loops()) {
    h = hash_combine(h, static_cast<std::uint64_t>(l) + 1);
  }
  for (int i = 0; i < s.num_nodes(); ++i) {
    const Schedule::Node& n = s.node(i);
    h = hash_combine(h, static_cast<std::uint64_t>(n.loop) + 2);
    if (n.is_stmt) {
      h = hash_combine(h, static_cast<std::uint64_t>(n.stmt.kind) + 3);
      h = hash_combine(h, static_cast<std::uint64_t>(n.stmt.tensor) + 4);
      h = hash_combine(h, static_cast<std::uint64_t>(n.stmt.op) + 5);
      for (const int c : n.stmt.covered_loops) {
        h = hash_combine(h, static_cast<std::uint64_t>(c) + 6);
      }
    }
    for (const int c : n.children) {
      h = hash_combine(h, static_cast<std::uint64_t>(c) + 7);
    }
  }
  for (const auto t : s.tiles()) {
    h = hash_combine(h, static_cast<std::uint64_t>(t));
  }
  return h;
}

// ---- per-instance memos of the execution backend ----------------------------

namespace detail {

ExecMeasureState::ExecMeasureState() : ExecMeasureState(Limits()) {}

ExecMeasureState::ExecMeasureState(Limits limits)
    : gates_(LruMap<std::uint64_t, Gate>::Limits{limits.max_gates, 0}),
      data_(LruMap<std::string, std::shared_ptr<const jit::KernelInputs>>::
                Limits{limits.max_data_entries, limits.max_data_bytes}) {}

ExecMeasureState::Gate ExecMeasureState::gate(const Schedule& s,
                                              const GpuSpec& gpu) const {
  const std::uint64_t key = schedule_structure_digest(s);
  {
    const LockGuard lock(mu_);
    if (const Gate* hit = gates_.find(key)) return *hit;
  }
  // The same lowering gate as CompiledKernel: infeasible schedules fail
  // with a reason instead of executing (conformance contract).
  Gate g;
  if (!s.valid()) {
    g.fail_reason = "schedule has no legal statement placement";
  } else if (!s.consume_complete()) {
    g.fail_reason = "schedule consumes partial tiles (Rule-2 structure)";
  } else {
    const SmemPlan plan = plan_smem(s);
    g.n_blocks = s.num_blocks();
    g.smem_bytes = plan.total_bytes;
    if (plan.total_bytes > gpu.smem_per_block) {
      g.fail_reason = "shared memory exceeds per-block limit (" +
                      std::to_string(plan.total_bytes) + " > " +
                      std::to_string(gpu.smem_per_block) + " bytes)";
    } else {
      g.ok = true;
    }
  }
  const LockGuard lock(mu_);
  return gates_.insert(key, std::move(g));
}

std::shared_ptr<const jit::KernelInputs> ExecMeasureState::data(
    const ChainSpec& chain) const {
  const std::string key = chain_cache_key(chain);
  {
    const LockGuard lock(mu_);
    if (const auto* hit = data_.find(key)) return *hit;
  }
  // Build outside the lock: the allocation + fill_random cost must not
  // stall concurrent measure() calls (gates share the same mutex).  A
  // racing builder produces an identical (deterministic) tensor set;
  // the first insert wins.
  auto fresh = std::make_shared<const jit::KernelInputs>(jit::seeded_inputs(
      chain.batch(), chain.m(), chain.inner(), kMeasureDataSeed));
  const std::size_t fresh_bytes = fresh->bytes();
  const LockGuard lock(mu_);
  // Eviction only forgets, never frees in-use tensors: callers (and a
  // racing builder that lost the insert) hold shared_ptrs either way.
  return data_.insert(key, std::move(fresh), fresh_bytes);
}

std::size_t ExecMeasureState::gate_entries() const {
  const LockGuard lock(mu_);
  return gates_.size();
}

std::size_t ExecMeasureState::data_entries() const {
  const LockGuard lock(mu_);
  return data_.size();
}

std::size_t ExecMeasureState::data_bytes() const {
  const LockGuard lock(mu_);
  return data_.bytes();
}

std::uint64_t ExecMeasureState::evictions() const {
  const LockGuard lock(mu_);
  return gates_.evictions() + data_.evictions();
}

}  // namespace detail

namespace {

/// The outlier-robust estimator every rung shares: clamp each sample at a
/// nanosecond (a sample below clock resolution must not produce time_s ==
/// 0 — the contract promises time_s > 0 on ok), sort, drop trim_fraction
/// of the samples from each end, average the rest.  Worker-returned
/// samples go through the SAME arithmetic, which is what keeps sandboxed
/// and in-process timings directly comparable.
double trimmed_mean(std::vector<double> samples, double trim_fraction) {
  for (double& sample : samples) sample = std::max(sample, 1e-9);
  std::sort(samples.begin(), samples.end());
  const auto trim = static_cast<std::size_t>(
      static_cast<double>(samples.size()) * trim_fraction);
  const std::size_t lo = trim;
  const std::size_t hi = samples.size() - trim;
  return std::accumulate(samples.begin() + static_cast<std::ptrdiff_t>(lo),
                         samples.begin() + static_cast<std::ptrdiff_t>(hi),
                         0.0) /
         static_cast<double>(hi - lo);
}

bool verify_rejected(const std::string& err) {
  return err.rfind(verify::kGateErrorPrefix, 0) == 0;
}

}  // namespace

// ---- ExecBackend ------------------------------------------------------------

std::string_view exec_rung_name(ExecRung rung) noexcept {
  switch (rung) {
    case ExecRung::Sandbox:
      return "jit-isolated";
    case ExecRung::Native:
      return "jit";
    case ExecRung::Interpreter:
    default:
      return "interp";
  }
}

ExecBackend::ExecBackend(GpuSpec spec, ExecBackendOptions options)
    : sim_(std::move(spec)), opt_(std::move(options)),
      state_(opt_.memo_limits) {
  opt_.warmup = std::max(opt_.warmup, 0);
  opt_.repeats = std::max(opt_.repeats, 1);
  opt_.trim_fraction = std::clamp(opt_.trim_fraction, 0.0, 0.49);
  if (!opt_.clock) {
    opt_.clock = [] {
      return std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    };
  }
  if (opt_.preset == ExecRung::Interpreter) return;
  toolchain_ = jit::detect_toolchain();
  if (!toolchain_.ok()) {
    // No toolchain means no artifact for either native rung.
    fallback_reason_ = toolchain_.reason;
    return;
  }
  if (opt_.preset != ExecRung::Sandbox) return;
  const sandbox::Availability avail = sandbox::availability();
  if (avail.ok) {
    pool_ = std::make_unique<sandbox::WorkerPool>(opt_.pool);
  } else {
    fallback_reason_ = avail.reason;
  }
}

ExecRung ExecBackend::top_rung() const noexcept {
  if (pool_ != nullptr) return ExecRung::Sandbox;
  return toolchain_.ok() ? ExecRung::Native : ExecRung::Interpreter;
}

double ExecBackend::sample(const std::function<void()>& run) const {
  for (int i = 0; i < opt_.warmup; ++i) run();
  std::vector<double> samples(static_cast<std::size_t>(opt_.repeats));
  for (double& sample : samples) {
    const double t0 = opt_.clock();
    run();
    sample = opt_.clock() - t0;
  }
  return trimmed_mean(std::move(samples), opt_.trim_fraction);
}

KernelMeasurement ExecBackend::measure(
    const Schedule& s, const MeasureOptions& /*options*/) const {
  KernelMeasurement m;
  const detail::ExecMeasureState::Gate gate = state_.gate(s, spec());
  m.n_blocks = gate.n_blocks;
  m.smem_bytes = gate.smem_bytes;
  if (!gate.ok) {
    m.fail_reason = gate.fail_reason;
    m.fail_kind = MeasureFailKind::Generic;
    return m;
  }
  if (pool_ != nullptr && measure_in_worker(s, m)) return m;

  const auto data = state_.data(s.chain());
  const ChainSpec& chain = s.chain();
  Tensor out(Shape{chain.batch(), chain.m(), chain.inner().back()});
  std::string err;
  if (toolchain_.ok()) {
    // `rk.module` lives on this frame across all samples: a concurrent
    // registry eviction cannot unmap the code mid-measurement.
    const jit::ResolvedKernel rk =
        jit::resolve_kernel(s, spec().name, toolchain_, &err);
    if (rk.ok()) {
      // Per-call scratch (concurrent measure() calls stay independent),
      // reused across the warmup/repeat samples inside.
      std::vector<std::vector<float>> scratch;
      m.time_s = sample([&] {
        jit::run_compiled(rk.fn, s, data->a, data->weights, out, scratch);
      });
      m.ok = true;
      return m;
    }
  } else if (verify::verify_enabled()) {
    // The interpreter has no compile step to hang the verifier gate on.
    err = verify::verify_gate_error(s);
  }
  // A verifier rejection is a property of the schedule, not of the
  // toolchain: the interpreter would happily "measure" a kernel the gate
  // just proved unsafe.  Any other native failure degrades to it.
  if (verify_rejected(err)) {
    m.fail_reason = std::move(err);
    m.fail_kind = MeasureFailKind::VerifyRejected;
    return m;
  }
  const Interpreter interp(s);
  m.time_s = sample([&] { (void)interp.run(data->a, data->weights, out); });
  m.ok = true;
  return m;
}

bool ExecBackend::measure_in_worker(const Schedule& s,
                                    KernelMeasurement& m) const {
  // Resolve the on-disk artifact (compiling at most once) WITHOUT loading
  // it into this process — the host never maps a sandboxed kernel; a
  // compile failure hands over to the native rung, which reports it the
  // way the in-process path always has.
  const jit::KernelArtifact art =
      jit::resolve_artifact(s, spec().name, toolchain_);
  if (!art.ok()) {
    if (!verify_rejected(art.error)) return false;
    m.fail_reason = art.error;
    m.fail_kind = MeasureFailKind::VerifyRejected;
    return true;
  }
  // Crash negative-cache: a kernel that already killed (or hung) a worker
  // is answered from the cache — no process is spawned for it ever again.
  if (const auto hit = sandbox::crash_cache_lookup(art.key)) {
    m.fail_reason = hit->reason + " (crash-cache)";
    m.fail_kind = hit->kind;
    return true;
  }

  const ChainSpec& chain = s.chain();
  sandbox::RunRequest req;
  req.key = art.key;
  req.so_path = art.so_path;
  req.symbol = art.symbol;
  req.batch = chain.batch();
  req.m = chain.m();
  req.inner = chain.inner();
  req.n_blocks = m.n_blocks;
  req.scratch_floats = cpp_kernel_scratch_floats(s);
  req.warmup = opt_.warmup;
  req.repeats = opt_.repeats;
  req.data_seed = detail::kMeasureDataSeed;
  req.fault = sandbox::injected_fault(chain_cache_key(chain));

  sandbox::RunResult r = pool_->run(req);
  if (r.retryable_load_failure) {
    // The cached .so is poisoned (truncated write, foreign-ISA restore):
    // drop it, recompile once, retry once.
    jit::invalidate_kernel(art.key, r.reason);
    const jit::KernelArtifact fresh =
        jit::resolve_artifact(s, spec().name, toolchain_);
    if (fresh.ok()) {
      req.key = fresh.key;
      req.so_path = fresh.so_path;
      req.symbol = fresh.symbol;
      r = pool_->run(req);
    }
  }

  switch (r.outcome) {
    case sandbox::RunOutcome::Ok:
      m.time_s = trimmed_mean(std::move(r.samples), opt_.trim_fraction);
      m.ok = true;
      return true;
    case sandbox::RunOutcome::Failed:
      // Structured worker-side failure (garbage output, unhealable load
      // failure): re-running cannot help.
      m.fail_kind = MeasureFailKind::Generic;
      break;
    case sandbox::RunOutcome::TimedOut:
      // A hung kernel would burn another full deadline: never retried.
      m.fail_kind = MeasureFailKind::WorkerTimeout;
      break;
    case sandbox::RunOutcome::Crashed:
    default:
      m.fail_kind = MeasureFailKind::WorkerCrashed;
      break;
  }
  sandbox::crash_cache_insert(req.key, m.fail_kind, r.reason);
  m.fail_reason = std::move(r.reason);
  return true;
}

void ExecBackend::prepare_batch(std::span<const Schedule* const> schedules,
                                const MeasureOptions& /*options*/) const {
  if (!toolchain_.ok()) return;
  // Only schedules that pass the lowering gate are worth compiling (the
  // paper's quadrant-II candidates never reach execution).
  std::vector<const Schedule*> feasible;
  feasible.reserve(schedules.size());
  for (const Schedule* s : schedules) {
    if (s != nullptr && state_.gate(*s, spec()).ok) feasible.push_back(s);
  }
  jit::prepare_kernels(feasible, spec().name, toolchain_);
}

// ---- registry ---------------------------------------------------------------

BackendRegistry::BackendRegistry() {
  factories_["sim"] = [](const GpuSpec& gpu) {
    return std::make_shared<SimulatorBackend>(gpu);
  };
  for (const ExecRung preset :
       {ExecRung::Sandbox, ExecRung::Native, ExecRung::Interpreter}) {
    factories_[std::string(exec_rung_name(preset))] =
        [preset](const GpuSpec& gpu) {
          ExecBackendOptions options;
          options.preset = preset;
          return std::make_shared<ExecBackend>(gpu, std::move(options));
        };
  }
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

bool BackendRegistry::add(const std::string& name, Factory factory) {
  const LockGuard lock(mu_);
  return factories_.emplace(name, std::move(factory)).second;
}

std::shared_ptr<MeasureBackend> BackendRegistry::create(
    const std::string& name, const GpuSpec& gpu) const {
  Factory factory;
  {
    const LockGuard lock(mu_);
    const auto it = factories_.find(name);
    if (it == factories_.end()) return nullptr;
    factory = it->second;
  }
  return factory(gpu);
}

std::vector<std::string> BackendRegistry::names() const {
  const LockGuard lock(mu_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

}  // namespace mcf

// Backend-specific unit tests: the execution backend's sampling
// arithmetic (scripted clock) and its rung cascade across presets,
// environments and schedule kinds, the per-instance memos, the registry,
// and the schedule digest.  The cross-backend contract lives in
// test_conformance.cpp.
#include "measure/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include "search/space.hpp"
#include "verify/mutate.hpp"
#include "verify/verify.hpp"

namespace mcf {
namespace {

SearchSpace make_space(const ChainSpec& c, const GpuSpec& gpu) {
  PruneOptions prune;
  prune.smem_limit_bytes = gpu.smem_per_block;
  return SearchSpace(c, SpaceOptions{}, prune);
}

Schedule small_schedule(const GpuSpec& gpu) {
  // Static: the returned Schedule keeps a pointer to this chain.
  static const ChainSpec c = ChainSpec::gemm_chain("small", 1, 64, 64, 32, 32);
  const SearchSpace space = make_space(c, gpu);
  return space.schedule_for(space.candidates().front());
}

// ---- ExecBackend: sampling and geometry ------------------------------------

TEST(ExecBackend, TrimmedMeanOfScriptedSamplesIsExact) {
  // Scripted sample durations 1, 2, 3, 4 ms; trim 0.25 of 4 samples drops
  // one from each end: the reported time is exactly mean(2ms, 3ms).
  auto now = std::make_shared<double>(0.0);
  auto tick = std::make_shared<int>(0);
  ExecBackendOptions opt;
  opt.preset = ExecRung::Interpreter;
  opt.warmup = 0;
  opt.repeats = 4;
  opt.trim_fraction = 0.25;
  opt.clock = [now, tick] {
    if (++*tick % 2 == 0) *now += 1e-3 * (*tick / 2);
    return *now;
  };
  const ExecBackend backend(a100(), opt);
  const KernelMeasurement m = backend.measure(small_schedule(a100()));
  ASSERT_TRUE(m.ok);
  EXPECT_DOUBLE_EQ(m.time_s, 2.5e-3);
}

TEST(ExecBackend, WarmupRunsAreNotTimed) {
  auto clock_calls = std::make_shared<int>(0);
  auto now = std::make_shared<double>(0.0);
  ExecBackendOptions opt;
  opt.preset = ExecRung::Interpreter;
  opt.warmup = 3;
  opt.repeats = 2;
  opt.trim_fraction = 0.0;
  opt.clock = [clock_calls, now] {
    ++*clock_calls;
    return *now += 1e-3;
  };
  const ExecBackend backend(a100(), opt);
  ASSERT_TRUE(backend.measure(small_schedule(a100())).ok);
  // Two clock reads per timed sample, none for the warm-up executions.
  EXPECT_EQ(*clock_calls, 2 * opt.repeats);
}

TEST(ExecBackend, ReportsScheduleGeometry) {
  const GpuSpec gpu = a100();
  const Schedule s = small_schedule(gpu);
  ExecBackendOptions opt;
  opt.preset = ExecRung::Interpreter;
  const ExecBackend backend(gpu, opt);
  const KernelMeasurement m = backend.measure(s);
  ASSERT_TRUE(m.ok);
  EXPECT_EQ(m.n_blocks, s.num_blocks());
  EXPECT_EQ(m.smem_bytes, plan_smem(s).total_bytes);
  EXPECT_GT(m.time_s, 0.0);
}

TEST(ExecBackend, MeasureRawFallsBackToRoofline) {
  const GpuSpec gpu = a100();
  ExecBackendOptions opt;
  opt.preset = ExecRung::Interpreter;
  const ExecBackend interp(gpu, opt);
  const SimulatorBackend sim(gpu);
  MeasureOptions opts;
  opts.noise_amp = 0.0;
  const auto mi = interp.measure_raw(1e8, 1e12, 512, 32 * 1024, 1.0, 1.0, 10, opts);
  const auto ms = sim.measure_raw(1e8, 1e12, 512, 32 * 1024, 1.0, 1.0, 10, opts);
  ASSERT_TRUE(mi.ok && ms.ok);
  EXPECT_DOUBLE_EQ(mi.time_s, ms.time_s);
}

TEST(ExecBackend, OptionsDigestFollowsThePreset) {
  // Every preset executes the schedule as-is and ignores the
  // simulator-noise options.
  MeasureOptions noisy;
  noisy.noise_seed = 999;
  noisy.include_launch = false;
  ExecBackendOptions interp_opt;
  interp_opt.preset = ExecRung::Interpreter;
  const ExecBackend interp(a100(), interp_opt);
  EXPECT_EQ(interp.options_digest(noisy), 0u);
  ExecBackendOptions jit_opt;
  jit_opt.preset = ExecRung::Native;
  const ExecBackend jit(a100(), jit_opt);
  EXPECT_EQ(jit.options_digest(noisy), 0u);
}

// ---- ExecBackend: the rung cascade ------------------------------------------

/// Sets an environment variable for the enclosing scope (nullptr name =
/// no-op), restoring the previous value (or absence) on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (name_ == nullptr) return;
    if (const char* old = ::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (name_ == nullptr) return;
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// The highest rung this host offers under the current environment,
/// probed independently of ExecBackend.
ExecRung host_top_rung() {
  if (!jit::detect_toolchain().ok()) return ExecRung::Interpreter;
  return sandbox::availability().ok ? ExecRung::Sandbox : ExecRung::Native;
}

struct CascadeSchedule {
  const char* label;
  Schedule schedule;
  bool ok;
  MeasureFailKind fail_kind;
  const char* reason_prefix;  ///< "" = fail_reason must be empty
};

/// Feasible, infeasible (smem past the limit) and verifier-rejected (the
/// first seeded mutant of a safe fig7-mini schedule, as in
/// tests/verify/test_verify.cpp).  Static chains: a Schedule keeps a
/// ChainSpec pointer.
std::vector<CascadeSchedule> cascade_schedules() {
  static const ChainSpec gelu("cascade-gelu", 2, 96, {48, 96, 48},
                              {Epilogue::Gelu, Epilogue::None});
  static const ChainSpec big =
      ChainSpec::gemm_chain("cascade-too-big", 1, 512, 512, 256, 256);
  static const ChainSpec fig7 =
      ChainSpec::gemm_chain("cascade-fig7-mini", 1, 128, 128, 64, 64);
  const Schedule base = build_schedule(fig7, make_deep_expr(fig7, {0, 3, 2, 1}),
                                       std::vector<std::int64_t>{32, 32, 32, 32});
  const auto corpus = verify::mutation_corpus(base, 11, 4);
  EXPECT_FALSE(corpus.empty());
  return {
      {"feasible",
       build_schedule(gelu, make_deep_expr(gelu, {0, 3, 2, 1}),
                      std::vector<std::int64_t>{32, 16, 32, 16}),
       true, MeasureFailKind::None, ""},
      {"infeasible",
       build_schedule(big, make_deep_expr(big, {0, 3, 2, 1}),
                      std::vector<std::int64_t>{512, 512, 256, 256}),
       false, MeasureFailKind::Generic, "shared memory exceeds per-block limit"},
      {"verify-rejected", corpus.front().schedule, false,
       MeasureFailKind::VerifyRejected, verify::kGateErrorPrefix},
  };
}

TEST(ExecBackend, CascadeAnswersEveryPresetEnvironmentAndSchedule) {
  // Whatever rung a preset starts on in whatever environment, a schedule
  // gets the same answer: feasible measures, infeasible fails at the
  // lowering gate before anything compiles, and a verifier rejection fails
  // as VerifyRejected instead of falling through to a rung that would
  // execute the unsafe kernel.  The interpreter rung never compiles.
  const ScopedEnv verify_on("MCFUSER_VERIFY", "1");
  const std::vector<CascadeSchedule> schedules = cascade_schedules();
  const struct {
    const char* name;
    const char* value;
  } environments[] = {
      {nullptr, nullptr},
      {"MCFUSER_JIT_CXX", "/nonexistent/not-a-compiler"},
      {"MCFUSER_SANDBOX", "0"},
  };
  for (const char* preset : {"interp", "jit", "jit-isolated"}) {
    for (const auto& env : environments) {
      const ScopedEnv scoped(env.name, env.value);
      const std::string where = std::string(preset) + " with " +
                                (env.name ? env.name : "default env");
      const auto backend = std::dynamic_pointer_cast<ExecBackend>(
          BackendRegistry::instance().create(preset, a100()));
      ASSERT_NE(backend, nullptr) << where;
      EXPECT_EQ(backend->name(), preset);
      const ExecRung start = backend->options().preset;
      const ExecRung top = backend->top_rung();
      EXPECT_EQ(top, std::max(start, host_top_rung())) << where;
      EXPECT_EQ(backend->fallback_reason().empty(), top == start) << where;

      for (const CascadeSchedule& c : schedules) {
        const jit::CompileStats before = jit::stats_snapshot();
        const KernelMeasurement m = backend->measure(c.schedule);
        const jit::CompileStats d = jit::stats_snapshot().since(before);
        const std::string what = where + ", " + c.label;
        EXPECT_EQ(m.ok, c.ok) << what << ": " << m.fail_reason;
        EXPECT_EQ(m.fail_kind, c.fail_kind) << what << ": " << m.fail_reason;
        EXPECT_EQ(m.n_blocks, c.schedule.num_blocks()) << what;
        if (*c.reason_prefix == '\0') {
          EXPECT_TRUE(m.fail_reason.empty()) << what << ": " << m.fail_reason;
          EXPECT_GT(m.time_s, 0.0) << what;
        } else {
          EXPECT_EQ(m.fail_reason.rfind(c.reason_prefix, 0), 0u)
              << what << ": " << m.fail_reason;
          EXPECT_EQ(m.time_s, 0.0) << what;
        }
        if (top == ExecRung::Interpreter || !c.ok) {
          // Nothing compiled, or even attempted.
          EXPECT_EQ(d.tus_compiled, 0) << what;
          EXPECT_EQ(d.kernels_compiled, 0) << what;
          EXPECT_EQ(d.failures, 0) << what;
        }
      }
    }
  }
}

// ---- digest & registry ------------------------------------------------------

TEST(ScheduleDigest, SeparatesTilesAndStructure) {
  const ChainSpec c = ChainSpec::gemm_chain("dig", 1, 128, 128, 64, 64);
  const GpuSpec gpu = a100();
  const SearchSpace space = make_space(c, gpu);
  const auto& cands = space.candidates();
  const Schedule a = space.schedule_for(cands.front());
  const Schedule b = space.schedule_for(cands.back());
  EXPECT_EQ(schedule_structure_digest(a),
            schedule_structure_digest(space.schedule_for(cands.front())));
  EXPECT_NE(schedule_structure_digest(a), schedule_structure_digest(b));
}

TEST(ExecMeasureState, GateLruEvictsPastCapAndRecomputesIdentically) {
  const GpuSpec gpu = a100();
  const ChainSpec c = ChainSpec::gemm_chain("gates", 1, 128, 128, 64, 64);
  const SearchSpace space = make_space(c, gpu);
  ASSERT_GE(space.candidates().size(), 4u);

  detail::ExecMeasureState::Limits limits;
  limits.max_gates = 2;
  detail::ExecMeasureState state(limits);
  std::vector<detail::ExecMeasureState::Gate> first;
  for (std::size_t i = 0; i < 4; ++i) {
    first.push_back(
        state.gate(space.schedule_for(space.candidates()[i]), gpu));
  }
  EXPECT_LE(state.gate_entries(), 2u);
  EXPECT_GE(state.evictions(), 2u);
  // An evicted gate recomputes to the same answer: eviction is a pure
  // memory/cost trade, never a behaviour change.
  for (std::size_t i = 0; i < 4; ++i) {
    const auto again = state.gate(space.schedule_for(space.candidates()[i]), gpu);
    EXPECT_EQ(again.ok, first[i].ok) << i;
    EXPECT_EQ(again.fail_reason, first[i].fail_reason) << i;
    EXPECT_EQ(again.n_blocks, first[i].n_blocks) << i;
    EXPECT_EQ(again.smem_bytes, first[i].smem_bytes) << i;
  }
}

TEST(ExecMeasureState, DataLruEvictsByEntriesAndRebuildsIdentically) {
  const GpuSpec gpu = a100();
  (void)gpu;
  detail::ExecMeasureState::Limits limits;
  limits.max_data_entries = 1;
  detail::ExecMeasureState state(limits);
  const ChainSpec a = ChainSpec::gemm_chain("a", 1, 64, 64, 32, 32);
  const ChainSpec b = ChainSpec::gemm_chain("b", 1, 96, 64, 32, 32);
  const auto data_a = state.data(a);
  const float probe = data_a->a.data()[0];
  const std::size_t bytes_a = data_a->bytes();
  EXPECT_GT(bytes_a, 0u);
  (void)state.data(b);  // evicts a's entry (cap 1)
  EXPECT_EQ(state.data_entries(), 1u);
  EXPECT_GE(state.evictions(), 1u);
  // The held shared_ptr stays valid past eviction; a rebuilt tensor set
  // is bit-identical (deterministic seeded fill).
  const auto rebuilt = state.data(a);
  EXPECT_NE(rebuilt.get(), data_a.get());
  EXPECT_EQ(rebuilt->a.data()[0], probe);
  EXPECT_EQ(rebuilt->bytes(), bytes_a);
  EXPECT_EQ(data_a->a.data()[0], probe);
}

TEST(ExecMeasureState, DataByteCapKeepsNewestEntry) {
  detail::ExecMeasureState::Limits limits;
  limits.max_data_bytes = 1;  // everything oversized: only the newest stays
  detail::ExecMeasureState state(limits);
  const ChainSpec a = ChainSpec::gemm_chain("a", 1, 64, 64, 32, 32);
  const ChainSpec b = ChainSpec::gemm_chain("b", 1, 96, 64, 32, 32);
  (void)state.data(a);
  EXPECT_EQ(state.data_entries(), 1u);  // never evict the newest
  (void)state.data(b);
  EXPECT_EQ(state.data_entries(), 1u);
  EXPECT_GE(state.evictions(), 1u);
  EXPECT_GT(state.data_bytes(), 0u);
}

TEST(ExecBackend, HonoursMemoLimitsFromOptions) {
  const GpuSpec gpu = a100();
  ExecBackendOptions opts;
  opts.preset = ExecRung::Interpreter;
  opts.warmup = 0;
  opts.repeats = 1;
  opts.memo_limits.max_data_entries = 1;
  const ExecBackend backend(gpu, opts);
  // Two distinct chains through a 1-entry input-tensor memo: both still
  // measure correctly (the memo is an optimisation, not a correctness
  // dependency).
  for (const auto& c : {ChainSpec::gemm_chain("m1", 1, 64, 64, 32, 32),
                        ChainSpec::gemm_chain("m2", 1, 96, 64, 32, 32)}) {
    const SearchSpace space = make_space(c, gpu);
    const KernelMeasurement m =
        backend.measure(space.schedule_for(space.candidates().front()));
    EXPECT_TRUE(m.ok) << m.fail_reason;
    EXPECT_GT(m.time_s, 0.0);
  }
}

TEST(BackendRegistry, CreatesBuiltinsAndRejectsUnknown) {
  const GpuSpec gpu = a100();
  auto& registry = BackendRegistry::instance();
  for (const char* name : {"sim", "interp", "jit", "jit-isolated"}) {
    const auto backend = registry.create(name, gpu);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_EQ(backend->name(), name);
    EXPECT_EQ(backend->spec().name, gpu.name);
  }
  EXPECT_EQ(registry.create("cuda-events", gpu), nullptr);
  EXPECT_EQ(registry.create("cached-sim", gpu), nullptr);  // removed
}

TEST(BackendRegistry, AddIsFirstComeFirstServed) {
  auto& registry = BackendRegistry::instance();
  const auto factory = [](const GpuSpec& gpu) -> std::shared_ptr<MeasureBackend> {
    return std::make_shared<SimulatorBackend>(gpu);
  };
  EXPECT_TRUE(registry.add("test-only-backend", factory));
  EXPECT_FALSE(registry.add("test-only-backend", factory));  // duplicate
  EXPECT_FALSE(registry.add("sim", factory));                // builtin kept
  EXPECT_NE(registry.create("test-only-backend", a100()), nullptr);
}

}  // namespace
}  // namespace mcf

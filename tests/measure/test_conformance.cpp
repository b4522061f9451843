// Cross-backend conformance suite: ONE parameterized harness asserting the
// MeasureBackend contract (docs/measurement.md) against every registered
// backend.  A backend that passes this suite can be handed to the tuner.
//
// The contract:
//   * feasible schedule  -> ok=true, finite time_s > 0, honest n_blocks;
//   * infeasible schedule-> ok=false, non-empty fail_reason, no abort;
//   * deterministic()    -> repeated measure() is bit-identical;
//   * repeat/trim knobs  -> variance of the reported time never grows
//                          with more repeats (checked on a scripted clock
//                          so the property is tested, not the weather);
//   * thread safety      -> concurrent measure() from a pool matches the
//                          serial results;
//   * usefulness         -> simulator and interpreter times rank the fig7
//                          workload family consistently.
#include "measure/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "gpu/smem.hpp"
#include "search/space.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

namespace mcf {
namespace {

// ---- shared fixtures --------------------------------------------------------

/// Fig. 7 workload family, scaled down so the interpreter backend (which
/// really executes the kernels) fits a test budget even under sanitizers.
/// Static storage: Schedule/SearchSpace hold a ChainSpec pointer, so the
/// chains must outlive every schedule the tests build from them.
const std::vector<ChainSpec>& fig7_family() {
  static const std::vector<ChainSpec> chains = {
      ChainSpec::gemm_chain("fig7-mini", 1, 128, 128, 64, 64),
      ChainSpec::gemm_chain("fig7-mini-wide", 1, 256, 128, 32, 32),
      ChainSpec::attention("fig7-mini-attn", 2, 64, 64, 32, 32),
  };
  return chains;
}

SearchSpace make_space(const ChainSpec& c, const GpuSpec& gpu) {
  PruneOptions prune;
  prune.smem_limit_bytes = gpu.smem_per_block;
  return SearchSpace(c, SpaceOptions{}, prune);
}

/// A deterministic spread of feasible schedules across one space.  The
/// pruned space still holds quadrant-II candidates (rule-4 slack) whose
/// actual smem plan fails at lowering; scan forward past them so the
/// harness only hands backends schedules they are required to measure.
std::vector<Schedule> feasible_schedules(const SearchSpace& space,
                                         const GpuSpec& gpu) {
  const auto& cands = space.candidates();
  std::vector<Schedule> out;
  std::set<std::size_t> taken;
  for (const std::size_t start :
       {cands.size() / 8, cands.size() / 2, (7 * cands.size()) / 8}) {
    for (std::size_t idx = std::min(start, cands.size() - 1);
         idx < cands.size(); ++idx) {
      if (taken.count(idx) != 0) continue;
      Schedule s = space.schedule_for(cands[idx]);
      if (plan_smem(s).total_bytes > gpu.smem_per_block) continue;
      taken.insert(idx);
      out.push_back(std::move(s));
      break;
    }
  }
  EXPECT_FALSE(out.empty());
  return out;
}

/// Full-dimension tiles blow way past any real per-block shared-memory
/// limit — the paper's quadrant-II candidates, rejected at lowering.
Schedule infeasible_schedule(const GpuSpec& gpu) {
  static const ChainSpec c =
      ChainSpec::gemm_chain("too-big", 1, 512, 512, 256, 256);
  Schedule s = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                              std::vector<std::int64_t>{512, 512, 256, 256});
  EXPECT_GT(plan_smem(s).total_bytes, gpu.smem_per_block);
  return s;
}

/// Scripted monotonic clock: every timed sample gets a deterministic
/// jittery duration (one large outlier in eight), so the repeat/trim
/// estimator is exercised without depending on real scheduler noise.
struct ScriptedClock {
  std::shared_ptr<std::uint64_t> seq = std::make_shared<std::uint64_t>(0);
  std::shared_ptr<double> now = std::make_shared<double>(0.0);

  std::function<double()> fn() {
    auto seq_p = seq;
    auto now_p = now;
    return [seq_p, now_p] {
      const std::uint64_t tick = (*seq_p)++;
      // Odd ticks close a sample: advance by ~1ms, jittered +-30%, with
      // every 8th sample a 5x outlier (what the trim is for).
      if (tick % 2 == 1) {
        double dt = 1e-3 * hash_noise(splitmix64(tick), 0.3);
        if ((tick / 2) % 8 == 7) dt *= 5.0;
        *now_p += dt;
      }
      return *now_p;
    };
  }
};

// ---- the parameterized harness ----------------------------------------------

struct BackendCase {
  const char* label;
  /// Registry-faithful instance (contract, determinism, thread safety).
  std::shared_ptr<MeasureBackend> (*make)(const GpuSpec&);
  /// Sampling-controlled instance for the repeat-variance law: backends
  /// with a repeats knob get it wired to a scripted clock; the rest
  /// ignore `repeats` (their variance is identically zero).
  std::shared_ptr<MeasureBackend> (*make_sampling)(const GpuSpec&, int repeats);
};

std::shared_ptr<MeasureBackend> registry_make(const char* name,
                                              const GpuSpec& gpu) {
  auto backend = BackendRegistry::instance().create(name, gpu);
  EXPECT_NE(backend, nullptr) << name << " not registered";
  return backend;
}

/// An execution-backend preset sampled on a scripted clock.
std::shared_ptr<MeasureBackend> scripted_exec(const GpuSpec& gpu,
                                              ExecRung preset, int repeats) {
  ExecBackendOptions opt;
  opt.preset = preset;
  opt.repeats = repeats;
  opt.trim_fraction = 0.25;
  opt.warmup = 0;
  opt.clock = ScriptedClock{}.fn();
  return std::make_shared<ExecBackend>(gpu, opt);
}

const BackendCase kCases[] = {
    {"sim", [](const GpuSpec& g) { return registry_make("sim", g); },
     [](const GpuSpec& g, int) { return registry_make("sim", g); }},
    {"interp", [](const GpuSpec& g) { return registry_make("interp", g); },
     [](const GpuSpec& g, int repeats) {
       return scripted_exec(g, ExecRung::Interpreter, repeats);
     }},
    // Real native-code measurement; where no host toolchain exists (or
    // under sanitizer builds) the cascade starts on the interpreter rung,
    // so the contract holds in every environment.
    {"jit", [](const GpuSpec& g) { return registry_make("jit", g); },
     [](const GpuSpec& g, int repeats) {
       return scripted_exec(g, ExecRung::Native, repeats);
     }},
    // Crash-isolated measurement in sandbox worker processes.  Worker-side
    // timings use the worker's own steady clock, which a test cannot
    // script; the sampler is one function for every rung, so the jit
    // preset's scripted instance exercises the same arithmetic.
    {"jit-isolated",
     [](const GpuSpec& g) { return registry_make("jit-isolated", g); },
     [](const GpuSpec& g, int repeats) {
       return scripted_exec(g, ExecRung::Native, repeats);
     }},
};

class ConformanceTest : public ::testing::TestWithParam<BackendCase> {};

TEST(MeasureBackendRegistry, SuiteCoversEveryRegisteredBackend) {
  // A new backend must join this suite: registering it without adding a
  // BackendCase is a conformance failure by construction.
  std::set<std::string> covered;
  for (const auto& c : kCases) covered.insert(c.label);
  const auto names = BackendRegistry::instance().names();
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()), covered);
}

TEST_P(ConformanceTest, MeasuresFeasibleSchedules) {
  const GpuSpec gpu = a100();
  const auto backend = GetParam().make(gpu);
  EXPECT_EQ(backend->spec().name, gpu.name);
  for (const ChainSpec& chain : fig7_family()) {
    const SearchSpace space = make_space(chain, gpu);
    for (const Schedule& s : feasible_schedules(space, gpu)) {
      const KernelMeasurement m = backend->measure(s);
      ASSERT_TRUE(m.ok) << chain.name() << ": " << m.fail_reason;
      EXPECT_TRUE(std::isfinite(m.time_s));
      EXPECT_GT(m.time_s, 0.0);
      EXPECT_EQ(m.n_blocks, s.num_blocks());
    }
  }
}

TEST_P(ConformanceTest, InfeasibleScheduleFailsWithReason) {
  const GpuSpec gpu = a100();
  const auto backend = GetParam().make(gpu);
  const Schedule s = infeasible_schedule(gpu);
  const KernelMeasurement m = backend->measure(s);
  EXPECT_FALSE(m.ok);
  EXPECT_FALSE(m.fail_reason.empty());
  EXPECT_EQ(m.time_s, 0.0);
}

TEST_P(ConformanceTest, DeterministicWherePromised) {
  const GpuSpec gpu = a100();
  const auto backend = GetParam().make(gpu);
  const SearchSpace space = make_space(fig7_family().front(), gpu);
  for (const Schedule& s : feasible_schedules(space, gpu)) {
    const KernelMeasurement m1 = backend->measure(s);
    const KernelMeasurement m2 = backend->measure(s);
    EXPECT_EQ(m1.ok, m2.ok);
    if (backend->deterministic()) {
      // Bitwise equality, not ULP tolerance: the promise is identity.
      EXPECT_EQ(m1.time_s, m2.time_s);
    }
  }
}

TEST_P(ConformanceTest, RepeatVarianceIsMonotoneNonIncreasing) {
  const GpuSpec gpu = a100();
  const SearchSpace space = make_space(fig7_family().front(), gpu);
  const Schedule s = space.schedule_for(space.candidates().front());
  // Sample variance of the reported time over K independent measure()
  // calls, for 1 repeat vs 4 repeats (+trim).  More repeats must never
  // make the estimator noisier.
  auto variance_at = [&](int repeats) {
    const auto backend = GetParam().make_sampling(gpu, repeats);
    constexpr int kCalls = 16;
    std::vector<double> times;
    for (int i = 0; i < kCalls; ++i) {
      const KernelMeasurement m = backend->measure(s);
      EXPECT_TRUE(m.ok);
      times.push_back(m.time_s);
    }
    const double mean = std::accumulate(times.begin(), times.end(), 0.0) /
                        static_cast<double>(times.size());
    double var = 0.0;
    for (const double t : times) var += (t - mean) * (t - mean);
    return var / static_cast<double>(times.size());
  };
  const double var1 = variance_at(1);
  const double var4 = variance_at(4);
  EXPECT_LE(var4, var1 + 1e-18);
}

TEST_P(ConformanceTest, ThreadSafeUnderParallelForSlots) {
  const GpuSpec gpu = a100();
  const auto backend = GetParam().make(gpu);
  std::vector<Schedule> schedules;
  for (const ChainSpec& chain : fig7_family()) {
    for (Schedule& s : feasible_schedules(make_space(chain, gpu), gpu)) {
      schedules.push_back(std::move(s));
    }
  }
  schedules.push_back(infeasible_schedule(gpu));

  // Serial reference first, then the same instance hammered from a pool.
  std::vector<KernelMeasurement> serial;
  for (const Schedule& s : schedules) serial.push_back(backend->measure(s));

  constexpr int kRounds = 3;
  const auto n = static_cast<std::int64_t>(schedules.size());
  std::vector<KernelMeasurement> concurrent(
      static_cast<std::size_t>(n * kRounds));
  ThreadPool pool(4);
  pool.parallel_for_slots(n * kRounds, [&](unsigned, std::int64_t i) {
    concurrent[static_cast<std::size_t>(i)] =
        backend->measure(schedules[static_cast<std::size_t>(i % n)]);
  });
  for (std::int64_t i = 0; i < n * kRounds; ++i) {
    const auto& ref = serial[static_cast<std::size_t>(i % n)];
    const auto& got = concurrent[static_cast<std::size_t>(i)];
    EXPECT_EQ(got.ok, ref.ok);
    if (backend->deterministic()) EXPECT_EQ(got.time_s, ref.time_s);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ConformanceTest,
                         ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<BackendCase>& info) {
                           std::string name = info.param.label;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// ---- cross-backend usefulness -----------------------------------------------

TEST(MeasureBackendConformance, SimulatorAndInterpreterRankWorkloadsAlike) {
  // The interpreter's wall-clock is a CPU time, not a GPU time — but over
  // the fig7 family it must *order* candidates consistently with the
  // simulator, otherwise tuning on it would optimise a different
  // objective.  Workload sizes in the family span ~10x, which anchors the
  // ranking; the per-chain candidate spread adds the fine structure.
  const GpuSpec gpu = a100();
  const SimulatorBackend sim(gpu);
  ExecBackendOptions opt;
  opt.preset = ExecRung::Interpreter;
  opt.warmup = 1;
  opt.repeats = 3;
  opt.trim_fraction = 0.34;  // median of three
  const ExecBackend interp(gpu, opt);

  std::vector<double> sim_times;
  std::vector<double> interp_times;
  for (const ChainSpec& chain : fig7_family()) {
    const SearchSpace space = make_space(chain, gpu);
    for (const Schedule& s : feasible_schedules(space, gpu)) {
      const KernelMeasurement ms = sim.measure(s);
      const KernelMeasurement mi = interp.measure(s);
      ASSERT_TRUE(ms.ok && mi.ok);
      sim_times.push_back(ms.time_s);
      interp_times.push_back(mi.time_s);
    }
  }
  ASSERT_GE(sim_times.size(), 9u);
  EXPECT_GT(spearman(sim_times, interp_times), 0.4);
}

}  // namespace
}  // namespace mcf

#include "search/tuner.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "measure/backend.hpp"
#include "model/analytical.hpp"
#include "support/stats.hpp"

namespace mcf {
namespace {

SearchSpace make_space(const ChainSpec& c, const GpuSpec& gpu) {
  PruneOptions prune;
  prune.smem_limit_bytes = gpu.smem_per_block;
  return SearchSpace(c, SpaceOptions{}, prune);
}

TEST(Tuner, FindsAMeasurableCandidate) {
  const ChainSpec c = ChainSpec::gemm_chain("g1", 1, 512, 256, 64, 64);
  const GpuSpec gpu = a100();
  const SearchSpace space = make_space(c, gpu);
  Tuner tuner(space, gpu);
  const TunedResult r = tuner.run();
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.best_time_s, 0.0);
  EXPECT_TRUE(r.best_measurement.ok);
  EXPECT_GT(r.stats.measurements, 0);
  EXPECT_GT(r.stats.estimates, 0);
}

TEST(Tuner, DeterministicForFixedSeed) {
  const ChainSpec c = ChainSpec::gemm_chain("g1", 1, 512, 256, 64, 64);
  const GpuSpec gpu = a100();
  const SearchSpace space = make_space(c, gpu);
  TunerOptions opts;
  opts.seed = 99;
  const TunedResult r1 = Tuner(space, gpu, opts).run();
  const TunedResult r2 = Tuner(space, gpu, opts).run();
  ASSERT_TRUE(r1.ok && r2.ok);
  EXPECT_DOUBLE_EQ(r1.best_time_s, r2.best_time_s);
  EXPECT_EQ(r1.best.tiles, r2.best.tiles);
}

/// Bitwise identity of two tuned results, not ULP tolerance: the
/// determinism contract is exact.
void expect_identical(const TunedResult& r1, const TunedResult& r2) {
  ASSERT_TRUE(r1.ok && r2.ok);
  EXPECT_EQ(r1.best.expr_id, r2.best.expr_id);
  EXPECT_EQ(r1.best.tiles, r2.best.tiles);
  EXPECT_EQ(r1.best_time_s, r2.best_time_s);
  EXPECT_EQ(r1.stats.generations, r2.stats.generations);
  EXPECT_EQ(r1.stats.estimates, r2.stats.estimates);
  EXPECT_EQ(r1.stats.measurements, r2.stats.measurements);
  EXPECT_EQ(r1.stats.compile_failures, r2.stats.compile_failures);
  ASSERT_EQ(r1.est_vs_measured.size(), r2.est_vs_measured.size());
  for (std::size_t i = 0; i < r1.est_vs_measured.size(); ++i) {
    EXPECT_EQ(r1.est_vs_measured[i].first, r2.est_vs_measured[i].first);
    EXPECT_EQ(r1.est_vs_measured[i].second, r2.est_vs_measured[i].second);
  }
}

TEST(Tuner, DeterministicAcrossThreadCounts) {
  // The batched evaluation pipeline must be a pure throughput knob: for a
  // fixed seed the tuned result — winner, time, stats, and the full
  // Fig. 11 scatter — is identical whether evaluation runs on one worker
  // or many (pinned here for 1, 2 and 8 workers under the simulator
  // backend, the PR-1 guarantee).
  const ChainSpec c = ChainSpec::attention("s2", 8, 256, 256, 64, 64);
  const GpuSpec gpu = a100();
  const SearchSpace space = make_space(c, gpu);
  TunerOptions serial;
  serial.seed = 7;
  serial.num_threads = 1;
  serial.backend = std::make_shared<SimulatorBackend>(gpu);
  const TunedResult r1 = Tuner(space, gpu, serial).run();
  for (const int threads : {2, 8}) {
    TunerOptions threaded = serial;
    threaded.num_threads = threads;
    const TunedResult r2 = Tuner(space, gpu, threaded).run();
    expect_identical(r1, r2);
  }
}

TEST(Tuner, ExplicitSimulatorBackendIsBitIdenticalToDefault) {
  // Regression pin for the MeasureBackend extraction: a Tuner handed an
  // explicit SimulatorBackend produces exactly the result of the
  // pre-subsystem Tuner (which held a TimingSimulator member), i.e. the
  // default-constructed path.  Covers winner, counters and the full
  // est_vs_measured trace.
  const ChainSpec c = ChainSpec::gemm_chain("g1", 1, 512, 256, 64, 64);
  const GpuSpec gpu = a100();
  const SearchSpace space = make_space(c, gpu);
  TunerOptions defaults;
  defaults.seed = 123;
  TunerOptions explicit_sim = defaults;
  explicit_sim.backend = std::make_shared<SimulatorBackend>(gpu);
  const TunedResult r1 = Tuner(space, gpu, defaults).run();
  const TunedResult r2 = Tuner(space, gpu, explicit_sim).run();
  expect_identical(r1, r2);
}

TEST(Tuner, BeatsMedianOfSpace) {
  const ChainSpec c = ChainSpec::attention("s4", 12, 256, 256, 64, 64);
  const GpuSpec gpu = a100();
  const SearchSpace space = make_space(c, gpu);
  const TunedResult r = Tuner(space, gpu).run();
  ASSERT_TRUE(r.ok);
  // Measure a uniform sample of the space and compare to the median.
  TimingSimulator sim(gpu);
  std::vector<double> sample;
  const auto& cands = space.candidates();
  for (std::size_t i = 0; i < cands.size(); i += std::max<std::size_t>(1, cands.size() / 50)) {
    const auto m = sim.measure(space.schedule_for(cands[i]));
    if (m.ok) sample.push_back(m.time_s);
  }
  ASSERT_GT(sample.size(), 10u);
  EXPECT_LT(r.best_time_s, quantile(sample, 0.5));
  EXPECT_LE(r.best_time_s, quantile(sample, 0.05) * 1.10);
}

TEST(Tuner, ConvergesBeforeGenerationCap) {
  const ChainSpec c = ChainSpec::gemm_chain("g7", 1, 512, 512, 128, 128);
  const GpuSpec gpu = a100();
  const SearchSpace space = make_space(c, gpu);
  TunerOptions opts;
  opts.max_generations = 64;
  const TunedResult r = Tuner(space, gpu, opts).run();
  ASSERT_TRUE(r.ok);
  EXPECT_LT(r.stats.generations, 64);
}

TEST(Tuner, EstimatesVsMeasurementsCorrelate) {
  // The property behind Fig. 11: the analytical model must rank usefully
  // across the whole space (the tuner's own measured set is top-k cream
  // with restricted range, so the sample here is uniform).
  const ChainSpec c = ChainSpec::gemm_chain("g4", 1, 512, 512, 256, 256);
  const GpuSpec gpu = a100();
  const SearchSpace space = make_space(c, gpu);
  const AnalyticalModel model(gpu);
  TimingSimulator sim(gpu);
  std::vector<double> est;
  std::vector<double> meas;
  const auto& cands = space.candidates();
  for (std::size_t i = 0; i < cands.size();
       i += std::max<std::size_t>(1, cands.size() / 120)) {
    const Schedule s = space.schedule_for(cands[i]);
    const auto m = sim.measure(s);
    if (!m.ok) continue;
    est.push_back(model.estimate(s).time_s);
    meas.push_back(m.time_s);
  }
  ASSERT_GE(est.size(), 40u);
  EXPECT_GT(pearson(est, meas), 0.6);
  EXPECT_GT(spearman(est, meas), 0.5);
}

TEST(Tuner, MeasuresFarFewerThanItEstimates) {
  // The efficiency claim of §IV: estimates are cheap, measurements rare.
  const ChainSpec c = ChainSpec::gemm_chain("g8", 1, 1024, 512, 128, 128);
  const GpuSpec gpu = a100();
  const SearchSpace space = make_space(c, gpu);
  const TunedResult r = Tuner(space, gpu).run();
  ASSERT_TRUE(r.ok);
  EXPECT_LT(r.stats.measurements, r.stats.estimates / 2);
  EXPECT_LT(r.stats.measurements, 120);
}

TEST(Tuner, EmptySpaceReturnsNotOk) {
  const ChainSpec c = ChainSpec::gemm_chain("tiny", 1, 512, 256, 64, 64);
  PruneOptions impossible;
  impossible.smem_limit_bytes = 64;  // nothing fits
  const SearchSpace space(c, SpaceOptions{}, impossible);
  GpuSpec gpu = a100();
  const TunedResult r = Tuner(space, gpu).run();
  EXPECT_FALSE(r.ok);
}

}  // namespace
}  // namespace mcf

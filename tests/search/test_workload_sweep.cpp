// Full-suite property sweep: MCFuser must produce a valid, compilable,
// profitable fused kernel for every paper workload (Tables II and III) on
// both evaluation GPUs.
#include <gtest/gtest.h>

#include "baselines/unfused.hpp"
#include "dag/volume.hpp"
#include "engine/engine.hpp"
#include "workloads/suites.hpp"

namespace mcf {
namespace {

struct SweepCase {
  std::string workload;
  std::string gpu;
};

std::string case_name(const testing::TestParamInfo<SweepCase>& info) {
  return info.param.workload + "_" + info.param.gpu;
}

ChainSpec find_chain(const std::string& name) {
  for (const auto& c : gemm_chain_suite()) {
    if (c.name() == name) return c;
  }
  for (const auto& c : attention_suite()) {
    if (c.name() == name) return c;
  }
  ADD_FAILURE() << "unknown workload " << name;
  return ChainSpec::gemm_chain("?", 1, 16, 16, 16, 16);
}

class WorkloadSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(WorkloadSweep, FusesValidlyAndProfitably) {
  const SweepCase& p = GetParam();
  const GpuSpec gpu = gpu_by_name(p.gpu);
  const ChainSpec chain = find_chain(p.workload);

  const FusionResult r = FusionEngine(gpu).fuse(chain);
  ASSERT_TRUE(r.ok()) << "fusion failed on " << chain.to_string();

  // The winner lowers within the hardware limits.
  ASSERT_TRUE(r.kernel.has_value());
  EXPECT_TRUE(r.kernel->ok()) << r.kernel->error();
  EXPECT_LE(plan_smem(r.kernel->schedule()).total_bytes, gpu.smem_per_block);

  // The winning schedule is legal and consume-complete.
  const Schedule& s = r.kernel->schedule();
  EXPECT_TRUE(s.valid());
  EXPECT_TRUE(s.consume_complete());
  EXPECT_GE(s.num_blocks(), chain.batch());

  // Fusion beats eager execution on every MBCI workload of the paper.
  const double eager = UnfusedBaseline(gpu).run(chain).time_s;
  EXPECT_LT(r.time_s(), eager) << "fusion must beat eager on " << p.workload;

  // Tuning effort stays in the paper's band (tens of measurements).
  EXPECT_LE(r.tuned.stats.measurements, 200);
  EXPECT_GE(r.tuned.stats.measurements, 5);

  // The fused kernel reads each input at least once and writes the output
  // exactly once.
  const VolumeReport vol = analyze_volume(r.kernel->schedule());
  EXPECT_GE(vol.load_bytes, static_cast<double>(chain.batch()) *
                                (chain.m() * chain.inner()[0]) * 2.0);
  EXPECT_GE(vol.store_bytes,
            static_cast<double>(chain.batch()) * chain.m() *
                chain.inner().back() * 2.0 * 0.999);
}

std::vector<SweepCase> make_cases() {
  std::vector<SweepCase> cases;
  for (const auto& c : gemm_chain_suite()) {
    cases.push_back({c.name(), "a100"});
    cases.push_back({c.name(), "rtx3080"});
  }
  for (const auto& c : attention_suite()) {
    cases.push_back({c.name(), "a100"});
    cases.push_back({c.name(), "rtx3080"});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(PaperSuites, WorkloadSweep,
                         testing::ValuesIn(make_cases()), case_name);

}  // namespace
}  // namespace mcf

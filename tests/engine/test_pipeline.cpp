// The single-chain fusion pipeline end to end through FusionEngine::fuse:
// tuned kernels validate numerically against the unfused references, the
// simulated time respects the traffic bound, the Chimera preset restricts
// the space, and the prune funnel is reported per chain.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include "tensor/ops.hpp"

namespace mcf {
namespace {

TEST(FusionPipeline, FusesGemmChainAndValidates) {
  const GpuSpec gpu = a100();
  const ChainSpec c = ChainSpec::gemm_chain("q", 2, 128, 96, 64, 80);
  const FusionResult r = FusionEngine(gpu).fuse(c);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.kernel.has_value());
  // The tuned kernel must run and match the reference numerically.
  Tensor a(Shape{2, 128, 64});
  Tensor b(Shape{2, 64, 96});
  Tensor d(Shape{2, 96, 80});
  a.fill_random(1);
  b.fill_random(2);
  d.fill_random(3);
  std::vector<Tensor> w;
  w.push_back(std::move(b));
  w.push_back(std::move(d));
  Tensor out(Shape{2, 128, 80});
  r.kernel->run(a, w, out);
  Tensor ref(Shape{2, 128, 80});
  ops::gemm_chain_reference(a, w[0], w[1], ref);
  EXPECT_TRUE(allclose(out, ref, 1e-3, 1e-4));
}

TEST(FusionPipeline, FusesAttentionAndValidates) {
  const GpuSpec gpu = a100();
  const ChainSpec c = ChainSpec::attention("qa", 4, 128, 128, 64, 64);
  const FusionResult r = FusionEngine(gpu).fuse(c);
  ASSERT_TRUE(r.ok());
  Tensor q(Shape{4, 128, 64});
  Tensor kt(Shape{4, 64, 128});
  Tensor v(Shape{4, 128, 64});
  q.fill_random(11);
  kt.fill_random(12);
  v.fill_random(13);
  std::vector<Tensor> w;
  w.push_back(std::move(kt));
  w.push_back(std::move(v));
  Tensor out(Shape{4, 128, 64});
  r.kernel->run(q, w, out);
  Tensor ref(Shape{4, 128, 64});
  ops::attention_reference(q, w[0], w[1], c.softmax_scale(), ref);
  EXPECT_TRUE(allclose(out, ref, 1e-3, 1e-4));
}

TEST(FusionPipeline, FusedBeatsMinimalTrafficBound) {
  // Sanity: simulated time is bounded below by the fused traffic at peak
  // bandwidth, and the tuner's winner should be within ~30x of it.
  const GpuSpec gpu = a100();
  const ChainSpec c = ChainSpec::gemm_chain("g1", 1, 512, 256, 64, 64);
  const FusionResult r = FusionEngine(gpu).fuse(c);
  ASSERT_TRUE(r.ok());
  const double bound = static_cast<double>(c.min_traffic_elems()) * 2.0 /
                       gpu.mem_bandwidth;
  EXPECT_GT(r.time_s(), bound);
  EXPECT_LT(r.time_s(), 30.0 * bound + 1e-4);
}

TEST(FusionPipeline, ChimeraOptionsRestrictSpace) {
  const GpuSpec gpu = a100();
  const ChainSpec c = ChainSpec::gemm_chain("g3", 1, 512, 256, 64, 256);
  const FusionResult full = FusionEngine(gpu).fuse(c);
  const FusionResult chim =
      FusionEngine(gpu, FusionEngine::chimera_options()).fuse(c);
  ASSERT_TRUE(full.ok() && chim.ok());
  EXPECT_LE(chim.space_size, full.space_size);
  // The full space can never lose (same tuner, superset space, shared
  // refinement): allow a whisker of measurement noise.
  EXPECT_LE(full.time_s(), chim.time_s() * 1.02);
}

TEST(FusionPipeline, FunnelReportedPerChain) {
  const GpuSpec gpu = a100();
  const ChainSpec c = ChainSpec::gemm_chain("fig7", 1, 1024, 1024, 512, 512);
  const FusionResult r = FusionEngine(gpu).fuse(c);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.funnel.original, 109051904.0);
  EXPECT_EQ(r.space_size, static_cast<std::size_t>(r.funnel.after_rule4));
}

TEST(FusionPipeline, WinnerKeepsMostOfTheReductionResident) {
  // For K = 64-class attention shapes the best schedules hold all (or
  // half) of the reduction in one tile — the FlashAttention recipe.
  const GpuSpec gpu = a100();
  const ChainSpec c = ChainSpec::attention("s4", 12, 256, 256, 64, 64);
  const FusionResult r = FusionEngine(gpu).fuse(c);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.tuned.best.tiles[1], 32);  // Tk >= K/2
}

TEST(FusionPipeline, WorksOnRtx3080) {
  const GpuSpec gpu = rtx3080();
  const ChainSpec c = ChainSpec::gemm_chain("g1r", 1, 512, 256, 64, 64);
  const FusionResult r = FusionEngine(gpu).fuse(c);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(plan_smem(r.kernel->schedule()).total_bytes, gpu.smem_per_block);
}

}  // namespace
}  // namespace mcf

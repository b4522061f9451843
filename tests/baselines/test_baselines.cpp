// Structural behaviour of the §VI baselines.
#include <gtest/gtest.h>

#include "baselines/ansor_like.hpp"
#include "baselines/bolt_like.hpp"
#include "baselines/chimera_like.hpp"
#include "baselines/flash_like.hpp"
#include "baselines/library_kernels.hpp"
#include "baselines/relay_like.hpp"
#include "baselines/unfused.hpp"
#include "engine/engine.hpp"

namespace mcf {
namespace {

ChainSpec g1() { return ChainSpec::gemm_chain("G1", 1, 512, 256, 64, 64); }
ChainSpec s2() { return ChainSpec::attention("S2", 12, 512, 512, 64, 64); }

TEST(Library, MenuBeatsOrMatchesFixedConfig) {
  const LibraryKernels lib(a100());
  const auto menu = lib.gemm(1, 512, 512, 256);
  const auto fixed = lib.gemm_fixed(1, 512, 512, 256, GemmConfig{128, 128, 32});
  EXPECT_LE(menu.time_s, fixed.time_s);
}

TEST(Library, GemmScalesWithWork) {
  const LibraryKernels lib(a100());
  MeasureOptions quiet;  // default noise is small; compare coarse scaling
  (void)quiet;
  const auto small = lib.gemm(1, 512, 512, 64);
  const auto large = lib.gemm(1, 2048, 2048, 512);
  EXPECT_GT(large.time_s, 3.0 * small.time_s);
}

TEST(Library, SoftmaxBandwidthBound) {
  const LibraryKernels lib(a100());
  const auto m = lib.softmax(4096, 512);
  EXPECT_GT(m.mem_time_s, m.comp_time_s);
}

TEST(Unfused, LaunchCountGemmChain) {
  const UnfusedBaseline pytorch(a100());
  const SubgraphResult r = pytorch.run(g1());
  EXPECT_EQ(r.kernel_launches, 2);  // two GEMM kernels
  EXPECT_FALSE(r.fused);
}

TEST(Unfused, LaunchCountAttention) {
  const UnfusedBaseline pytorch(a100());
  const SubgraphResult r = pytorch.run(s2());
  EXPECT_EQ(r.kernel_launches, 3);  // gemm, softmax, gemm
}

TEST(Unfused, ReluChainGetsExtraKernel) {
  const UnfusedBaseline pytorch(a100());
  const ChainSpec relu("r", 1, 512, {64, 256, 64},
                       {Epilogue::Relu, Epilogue::None});
  EXPECT_EQ(pytorch.run(relu).kernel_launches, 3);
}

TEST(Relay, EpilogueFusionSavesKernel) {
  const RelayLikeBaseline relay(a100());
  const ChainSpec relu("r", 1, 512, {64, 256, 64},
                       {Epilogue::Relu, Epilogue::None});
  EXPECT_EQ(relay.run(relu).kernel_launches, 2);  // relu folded into GEMM
}

TEST(Relay, SlowerThanMenuDispatchOnOddShapes) {
  const RelayLikeBaseline relay(a100());
  const LibraryKernels lib(a100());
  // A narrow GEMM where the fixed 128x128 template wastes a lot.
  EXPECT_GT(relay.gemm(1, 4096, 64, 64).time_s, lib.gemm(1, 4096, 64, 64).time_s);
}

TEST(Bolt, UnsupportedOnRtx3080) {
  const BoltLikeBaseline bolt(rtx3080());
  EXPECT_FALSE(bolt.supports_gpu());
  EXPECT_FALSE(bolt.run(g1()).supported);
}

TEST(Bolt, FusesPlainGemmChain) {
  const BoltLikeBaseline bolt(a100());
  const SubgraphResult r = bolt.run(g1());
  ASSERT_TRUE(r.supported);
  EXPECT_TRUE(r.fused);
  EXPECT_GT(r.tuning.templates_instantiated, 0);
  EXPECT_EQ(r.tuning.templates_instantiated, r.tuning.hardware_measurements);
}

TEST(Bolt, CannotFuseAttention) {
  const BoltLikeBaseline bolt(a100());
  const SubgraphResult r = bolt.run(s2());
  ASSERT_TRUE(r.supported);
  EXPECT_FALSE(r.fused);  // softmax is outside the pattern table
}

TEST(Bolt, LargeIntermediateDefeatsTemplates) {
  // G12-class shape: Tn == N = 1024 cannot fit the block tile (paper:
  // BOLT degrades on G11/G12).
  const BoltLikeBaseline bolt(a100());
  const SubgraphResult r = bolt.run(
      ChainSpec::gemm_chain("G12", 8, 1024, 1024, 128, 128));
  ASSERT_TRUE(r.supported);
  EXPECT_FALSE(r.fused);
}

TEST(Flash, SupportsOnlyMatchingHeadDims) {
  EXPECT_TRUE(FlashAttentionLikeBaseline::supports(s2()));
  EXPECT_FALSE(FlashAttentionLikeBaseline::supports(
      ChainSpec::attention("odd", 8, 512, 512, 64, 128)));  // K != H
  EXPECT_FALSE(FlashAttentionLikeBaseline::supports(g1()));  // no softmax
}

TEST(Flash, FusesSupportedAttention) {
  const FlashAttentionLikeBaseline flash(a100());
  const SubgraphResult r = flash.run(s2());
  EXPECT_TRUE(r.fused);
  EXPECT_EQ(r.kernel_launches, 1);
}

TEST(Flash, FallsBackWhenUnsupported) {
  const FlashAttentionLikeBaseline flash(a100());
  const SubgraphResult r =
      flash.run(ChainSpec::attention("odd", 8, 512, 512, 64, 128));
  EXPECT_FALSE(r.fused);
  EXPECT_EQ(r.kernel_launches, 3);
}

TEST(Flash, SlowerThanTunedMCFuser) {
  const GpuSpec gpu = a100();
  const FlashAttentionLikeBaseline flash(gpu);
  const FusionResult mcf = FusionEngine(gpu).fuse(s2());
  ASSERT_TRUE(mcf.ok());
  EXPECT_GT(flash.run(s2()).time_s, mcf.time_s());
}

TEST(Ansor, DoesNotFuseSoftmaxChains) {
  AnsorOptions opts;
  opts.trials = 100;
  const AnsorLikeBaseline ansor(a100(), opts);
  const SubgraphResult r = ansor.run(s2());
  EXPECT_FALSE(r.fused);
  EXPECT_EQ(r.tuning.hardware_measurements, 100);  // budget still burnt
}

TEST(Ansor, FusesPlainChainsAndSpendsBudget) {
  AnsorOptions opts;
  opts.trials = 128;
  const AnsorLikeBaseline ansor(a100(), opts);
  const SubgraphResult r = ansor.run(g1());
  EXPECT_TRUE(r.fused);
  EXPECT_GE(r.tuning.hardware_measurements, 100);
  EXPECT_GT(r.tuning.model_trainings, 0);
}

TEST(Ansor, MoreTrialsNeverWorse) {
  AnsorOptions few;
  few.trials = 64;
  AnsorOptions many;
  many.trials = 512;
  const ChainSpec c = ChainSpec::gemm_chain("G8", 1, 1024, 512, 128, 128);
  const double t_few = AnsorLikeBaseline(a100(), few).run(c).time_s;
  const double t_many = AnsorLikeBaseline(a100(), many).run(c).time_s;
  EXPECT_LE(t_many, t_few * 1.05);
}

TEST(Chimera, RunsAndReportsMeasurements) {
  const ChimeraLikeBaseline chim(a100());
  const SubgraphResult r = chim.run(g1());
  ASSERT_TRUE(r.supported);
  EXPECT_TRUE(r.fused);
  EXPECT_GT(r.tuning.hardware_measurements, 0);
}

TEST(Chimera, PureDataMovementObjectiveMeasuresFew) {
  // Chimera selects analytically and only verifies on hardware: a handful
  // of measurements (its min-traffic picks may be rejected at lowering
  // and fall through to the next candidate).
  const ChimeraLikeBaseline chim(a100(), ChimeraLikeBaseline::Objective::DataMovement);
  const SubgraphResult r = chim.run(g1());
  ASSERT_TRUE(r.fused);
  EXPECT_GE(r.tuning.hardware_measurements, 1);
  EXPECT_LE(r.tuning.hardware_measurements, 8);
}

TEST(Chimera, DataMovementObjectiveCanMisjudge) {
  // The paper's critique: minimising traffic alone neglects computation.
  // The measured-time objective must be at least as good.
  const ChainSpec c = ChainSpec::gemm_chain("G5", 1, 512, 512, 512, 256);
  const double by_time =
      ChimeraLikeBaseline(a100(), ChimeraLikeBaseline::Objective::MeasuredTime)
          .run(c)
          .time_s;
  const double by_bytes =
      ChimeraLikeBaseline(a100(), ChimeraLikeBaseline::Objective::DataMovement)
          .run(c)
          .time_s;
  EXPECT_LE(by_time, by_bytes * 1.02);
}

TEST(CrossBaseline, FusionOrderingOnMemoryBoundShape) {
  // The headline ordering of Fig. 8 on a memory-bound chain.
  const GpuSpec gpu = a100();
  const ChainSpec c = g1();
  const double pytorch = UnfusedBaseline(gpu).run(c).time_s;
  AnsorOptions aopts;
  aopts.trials = 256;
  const double ansor = AnsorLikeBaseline(gpu, aopts).run(c).time_s;
  const FusionResult mcf = FusionEngine(gpu).fuse(c);
  ASSERT_TRUE(mcf.ok());
  EXPECT_LT(mcf.time_s(), ansor * 1.05);
  EXPECT_LT(ansor, pytorch);
  EXPECT_GT(pytorch / mcf.time_s(), 2.0);  // fusion wins clearly
}

}  // namespace
}  // namespace mcf

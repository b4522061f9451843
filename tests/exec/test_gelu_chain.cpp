// GeLU-epilogue chains (extension): fused numerics vs reference across
// expressions and tile sizes, and MCFuser end-to-end on the token-mixing
// MLP shape.
#include <gtest/gtest.h>

#include "dag/volume.hpp"
#include "engine/engine.hpp"
#include "exec/interpreter.hpp"
#include "tensor/ops.hpp"

namespace mcf {
namespace {

ChainSpec gelu_chain(std::int64_t batch, std::int64_t m, std::int64_t n,
                     std::int64_t k, std::int64_t h) {
  return ChainSpec("gelu", batch, m, {k, n, h},
                   {Epilogue::Gelu, Epilogue::None});
}

struct GeluCase {
  bool flat;
  std::vector<std::int64_t> tiles;
};

class GeluChainProperty : public testing::TestWithParam<GeluCase> {};

TEST_P(GeluChainProperty, MatchesReferenceAndCounts) {
  const GeluCase& p = GetParam();
  const ChainSpec chain = gelu_chain(2, 96, 96, 48, 48);
  const TileExpr expr = p.flat ? make_flat_expr(chain, {0, 2}, {1, 3})
                               : make_deep_expr(chain, {0, 3, 2, 1});
  const Schedule s = build_schedule(chain, expr, p.tiles);
  ASSERT_TRUE(s.valid());
  if (!s.consume_complete()) GTEST_SKIP();

  Tensor a(Shape{2, 96, 48});
  Tensor b(Shape{2, 48, 96});
  Tensor d(Shape{2, 96, 48});
  a.fill_random(201);
  b.fill_random(202);
  d.fill_random(203);
  std::vector<Tensor> w;
  w.push_back(std::move(b));
  w.push_back(std::move(d));
  Tensor out(Shape{2, 96, 48});
  const ExecutionCounters counters = Interpreter(s).run(a, w, out);

  Tensor ref(Shape{2, 96, 48});
  ops::gemm_chain_reference(a, w[0], w[1], ref, ops::ChainEpilogue::Gelu);
  EXPECT_TRUE(allclose(out, ref, 1e-3, 1e-4))
      << "max diff " << max_abs_diff(out, ref);

  const VolumeReport vol = analyze_volume(s);
  EXPECT_DOUBLE_EQ(counters.epilogue_flops, vol.epilogue_flops);
  EXPECT_GT(vol.epilogue_flops, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeluChainProperty,
    testing::Values(GeluCase{false, {32, 16, 32, 16}},
                    GeluCase{false, {48, 48, 48, 48}},
                    GeluCase{false, {96, 16, 96, 48}},
                    GeluCase{true, {32, 16, 32, 48}},
                    GeluCase{true, {48, 48, 48, 48}}));

TEST(GeluChain, McfuserFusesTokenMlpShape) {
  // Mixer-Base token-mixing MLP: [768,196] x [196,384] -> GeLU -> x [384,196].
  const GpuSpec gpu = a100();
  const ChainSpec chain = ChainSpec("token_mlp", 1, 768, {196, 384, 196},
                                    {Epilogue::Gelu, Epilogue::None});
  const FusionResult r = FusionEngine(gpu).fuse(chain);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(plan_smem(r.kernel->schedule()).total_bytes, gpu.smem_per_block);
}

TEST(GeluChain, GeluCostsMoreThanRelu) {
  const ChainSpec g = gelu_chain(1, 128, 128, 64, 64);
  const ChainSpec r("relu", 1, 128, {64, 128, 64},
                    {Epilogue::Relu, Epilogue::None});
  const std::vector<std::int64_t> tiles = {64, 64, 64, 64};
  const VolumeReport vg =
      analyze_volume(build_schedule(g, make_deep_expr(g, {0, 3, 2, 1}), tiles));
  const VolumeReport vr =
      analyze_volume(build_schedule(r, make_deep_expr(r, {0, 3, 2, 1}), tiles));
  EXPECT_GT(vg.epilogue_flops, vr.epilogue_flops);
}

TEST(GeluChain, CodegenAnnotates) {
  const ChainSpec chain = gelu_chain(1, 128, 128, 64, 64);
  const Schedule s = build_schedule(chain, make_deep_expr(chain, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{64, 64, 64, 64});
  // Rendering lives in exec/codegen; the pseudo form at least names GeLU
  // via the epilogue in the chain description.
  EXPECT_EQ(chain.epilogue(0), Epilogue::Gelu);
  EXPECT_NE(chain.to_string().find("gelu"), std::string::npos);
  EXPECT_TRUE(s.valid());
}

}  // namespace
}  // namespace mcf

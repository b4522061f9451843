#include "exec/codegen.hpp"

#include <gtest/gtest.h>

#include "dag/volume.hpp"
#include "exec/program.hpp"
#include "support/rng.hpp"

namespace mcf {
namespace {

ChainSpec chain() { return ChainSpec::gemm_chain("cg", 1, 512, 512, 256, 256); }

TEST(Codegen, EmitsKernelSkeleton) {
  const ChainSpec c = chain();
  const Schedule s = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{64, 64, 64, 64});
  const std::string src = emit_kernel_source(s, a100());
  EXPECT_NE(src.find("@triton.jit"), std::string::npos);
  EXPECT_NE(src.find("tl.dot(smem_A, smem_B)"), std::string::npos);
  EXPECT_NE(src.find("tl.store(E_ptr"), std::string::npos);
  EXPECT_NE(src.find("tl.program_id"), std::string::npos);
}

TEST(Codegen, HoistedLoadAppearsBeforeLoop) {
  const ChainSpec c = chain();
  // Tk = K: Load(A) hoists to the function body before any loop.
  const Schedule s = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{64, 256, 64, 64});
  const std::string src = emit_kernel_source(s, a100());
  const auto load_pos = src.find("smem_A = tl.load");
  const auto loop_pos = src.find("for n in range");
  ASSERT_NE(load_pos, std::string::npos);
  ASSERT_NE(loop_pos, std::string::npos);
  EXPECT_LT(load_pos, loop_pos);
}

TEST(Codegen, SoftmaxEpilogueAnnotated) {
  const ChainSpec c = ChainSpec::attention("cga", 4, 256, 256, 64, 64);
  const Schedule s = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{64, 64, 64, 64});
  const std::string src = emit_kernel_source(s, a100());
  EXPECT_NE(src.find("online-softmax"), std::string::npos);
}

TEST(Codegen, CoveredStoreAnnotated) {
  const ChainSpec c = chain();
  const Schedule s = build_schedule(c, make_flat_expr(c, {0, 2}, {1, 3}),
                                    std::vector<std::int64_t>{64, 64, 64, 64});
  const std::string src = emit_kernel_source(s, a100());
  EXPECT_NE(src.find("covers all resident tiles of: h"), std::string::npos);
}

TEST(CompiledKernel, AcceptsValidSchedule) {
  const ChainSpec c = chain();
  CompiledKernel kernel(build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                       std::vector<std::int64_t>{64, 64, 64, 64}),
                        a100());
  EXPECT_TRUE(kernel.ok()) << kernel.error();
  EXPECT_GT(analyze_volume(kernel.schedule()).total_bytes(), 0.0);
  EXPECT_GT(plan_smem(kernel.schedule()).total_bytes, 0);
}

TEST(CompiledKernel, RejectsPartialConsume) {
  const ChainSpec c = chain();
  CompiledKernel kernel(build_schedule(c, make_deep_expr(c, {0, 3, 1, 2}),
                                       std::vector<std::int64_t>{64, 64, 64, 64}),
                        a100());
  EXPECT_FALSE(kernel.ok());
  EXPECT_NE(kernel.error().find("Rule-2"), std::string::npos);
}

TEST(CompiledKernel, RejectsSmemOverflow) {
  // Giant tiles blow the per-block budget at lowering time.
  const ChainSpec c = ChainSpec::gemm_chain("big", 1, 2048, 2048, 1024, 1024);
  CompiledKernel kernel(
      build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                     std::vector<std::int64_t>{512, 512, 512, 512}),
      a100());
  EXPECT_FALSE(kernel.ok());
  EXPECT_NE(kernel.error().find("shared memory"), std::string::npos);
}

// The jit keys its on-disk cache on the emitted source, so any change to
// the printed C++ must come with a kEmitterVersion bump.  One schedule per
// emitter path: exact and fringe tiles, every epilogue, a hoisted store.
TEST(CppEmitter, GoldenSourceDigests) {
  static const ChainSpec exact = ChainSpec::gemm_chain("g-exact", 1, 128, 128, 64, 64);
  static const ChainSpec fringe = ChainSpec::gemm_chain("g-fringe", 2, 96, 80, 48, 56);
  static const ChainSpec relu("g-relu", 2, 64, {32, 64, 32}, {Epilogue::Relu, Epilogue::None});
  static const ChainSpec gelu("g-gelu", 1, 80, {48, 72, 40}, {Epilogue::Gelu, Epilogue::None});
  static const ChainSpec attn = ChainSpec::attention("g-attn", 2, 64, 72, 32, 32);
  static const ChainSpec hoist = ChainSpec::gemm_chain("g-hoist", 1, 256, 256, 128, 128);
  struct Golden {
    const char* tag;
    Schedule s;
    std::uint64_t digest;
  };
  const std::vector<Golden> cases = {
      {"exact", build_schedule(exact, make_deep_expr(exact, {0, 3, 2, 1}),
                               std::vector<std::int64_t>{32, 32, 32, 32}),
       0xbf54cd1afa457cddULL},
      {"fringe", build_schedule(fringe, make_deep_expr(fringe, {0, 3, 2, 1}),
                                std::vector<std::int64_t>{40, 48, 28, 24}),
       0x82a67696e90f9b2cULL},
      {"relu", build_schedule(relu, make_deep_expr(relu, {0, 3, 2, 1}),
                              std::vector<std::int64_t>{32, 32, 32, 32}),
       0xc736d3a513dc2d35ULL},
      {"gelu", build_schedule(gelu, make_deep_expr(gelu, {0, 3, 2, 1}),
                              std::vector<std::int64_t>{32, 48, 24, 40}),
       0x511568b3ca7ec164ULL},
      {"softmax", build_schedule(attn, make_deep_expr(attn, {0, 3, 2, 1}),
                                 std::vector<std::int64_t>{24, 64, 16, 16}),
       0xd46253fdbeb2b787ULL},
      {"hoisted-store", build_schedule(hoist, make_flat_expr(hoist, {0, 2}, {1, 3}),
                                       std::vector<std::int64_t>{64, 64, 64, 64}),
       0x5f001cf83ed8fcabULL},
  };
  for (const Golden& g : cases) {
    ASSERT_TRUE(g.s.valid() && g.s.consume_complete()) << g.tag;
    const std::string code = emit_cpp_kernel(g.s, "golden_kernel").code;
    EXPECT_EQ(hash_string(code), g.digest)
        << g.tag << " (0x" << std::hex << hash_string(code)
        << "): emitter output changed — bump kEmitterVersion in exec/jit.cpp";
  }
}

TEST(CompiledKernel, MeasureProducesTime) {
  const ChainSpec c = chain();
  CompiledKernel kernel(build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                       std::vector<std::int64_t>{64, 64, 64, 64}),
                        a100());
  ASSERT_TRUE(kernel.ok());
  const auto m = kernel.measure();
  EXPECT_TRUE(m.ok);
  EXPECT_GT(m.time_s, 0.0);
}

}  // namespace
}  // namespace mcf

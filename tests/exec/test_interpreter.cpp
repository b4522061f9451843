// Functional interpreter correctness.
//
// Property tests (TEST_P) sweep tiling expressions x tile sizes x chain
// kinds x (power-of-two and ragged) dims and assert, for every
// consume-complete schedule:
//   1. the fused kernel's numerical output equals the unfused reference;
//   2. the dynamically counted traffic/FLOPs equal dag/volume's static
//      analysis exactly (the repo's analogue of the paper's NVPTX
//      validation);
//   3. the verifier proves the lowered kernel safe;
//   4. when a host compiler exists, the jit-compiled kernel (the same
//      lowering, printed as C++) also matches the reference.
#include <gtest/gtest.h>

#include "dag/volume.hpp"
#include "exec/interpreter.hpp"
#include "exec/jit.hpp"
#include "tensor/ops.hpp"
#include "verify/verify.hpp"

namespace mcf {
namespace {

enum class ChainKind { Plain, Relu, Gelu, Attention };

const char* kind_name(ChainKind k) {
  switch (k) {
    case ChainKind::Plain:
      return "plain";
    case ChainKind::Relu:
      return "relu";
    case ChainKind::Gelu:
      return "gelu";
    case ChainKind::Attention:
      return "attention";
  }
  return "?";
}

ChainSpec make_chain(ChainKind kind, std::int64_t batch, std::int64_t m,
                     std::int64_t n, std::int64_t k, std::int64_t h) {
  switch (kind) {
    case ChainKind::Plain:
      return ChainSpec::gemm_chain("plain", batch, m, n, k, h);
    case ChainKind::Relu:
      return ChainSpec("relu", batch, m, {k, n, h}, {Epilogue::Relu, Epilogue::None});
    case ChainKind::Gelu:
      return ChainSpec("gelu", batch, m, {k, n, h}, {Epilogue::Gelu, Epilogue::None});
    case ChainKind::Attention:
      return ChainSpec::attention("attn", batch, m, n, k, h);
  }
  return ChainSpec::gemm_chain("plain", batch, m, n, k, h);
}

void reference(const ChainSpec& chain, ChainKind kind, const Tensor& a,
               const std::vector<Tensor>& w, Tensor& out) {
  ops::ChainEpilogue epi = ops::ChainEpilogue::None;
  if (kind == ChainKind::Relu) epi = ops::ChainEpilogue::Relu;
  if (kind == ChainKind::Gelu) epi = ops::ChainEpilogue::Gelu;
  if (kind == ChainKind::Attention) epi = ops::ChainEpilogue::Softmax;
  ops::gemm_chain_reference(a, w[0], w[1], out, epi, chain.softmax_scale());
}

/// Sweep dims (batch, m, n, k, h): every tile in the sweep divides or pads
/// the power-of-two set; the ragged set puts a fringe on every dimension.
struct Dims {
  std::int64_t batch, m, n, k, h;
};
constexpr Dims kEvenDims{2, 96, 96, 48, 48};
constexpr Dims kRaggedDims{2, 80, 72, 40, 56};

/// Static storage: a Schedule keeps a ChainSpec pointer.
const ChainSpec& sweep_chain(ChainKind kind, bool ragged) {
  static const std::vector<ChainSpec> chains = [] {
    std::vector<ChainSpec> out;
    for (const Dims& d : {kEvenDims, kRaggedDims}) {
      for (const ChainKind k : {ChainKind::Plain, ChainKind::Relu,
                                ChainKind::Gelu, ChainKind::Attention}) {
        out.push_back(make_chain(k, d.batch, d.m, d.n, d.k, d.h));
      }
    }
    return out;
  }();
  return chains[(ragged ? 4u : 0u) + static_cast<std::size_t>(kind)];
}

struct Case {
  ChainKind kind;
  bool ragged;
  bool flat;
  std::vector<int> order;  // deep order (ignored when flat)
  std::vector<std::int64_t> tiles;
};

Schedule case_schedule(const Case& c) {
  const ChainSpec& chain = sweep_chain(c.kind, c.ragged);
  const TileExpr expr = c.flat ? make_flat_expr(chain, {0, 2}, {1, 3})
                               : make_deep_expr(chain, c.order);
  return build_schedule(chain, expr, c.tiles);
}

std::string case_name(const testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string name = kind_name(c.kind);
  if (c.ragged) name += "_ragged";
  name += c.flat ? "_flat" : "_deep";
  for (const int l : c.order) name += std::to_string(l);
  for (const auto t : c.tiles) name += "_" + std::to_string(t);
  return name;
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  const std::vector<std::vector<int>> deep_orders = {
      {0, 3, 2, 1},  // mhnk -> nk
      {0, 2, 3, 1},  // -> nk variant
      {0, 3, 1, 2},  // -> kn (complete only when Tk == K)
  };
  const std::vector<std::vector<std::int64_t>> tile_sets = {
      {32, 16, 32, 16}, {48, 48, 48, 48}, {96, 16, 96, 48},
      {32, 48, 32, 48}, {16, 32, 48, 16},
  };
  for (const bool ragged : {false, true}) {
    for (const ChainKind kind : {ChainKind::Plain, ChainKind::Relu,
                                 ChainKind::Gelu, ChainKind::Attention}) {
      for (const auto& order : deep_orders) {
        for (const auto& tiles : tile_sets) {
          cases.push_back(Case{kind, ragged, false, order, tiles});
        }
      }
      for (const auto& tiles : tile_sets) {
        cases.push_back(Case{kind, ragged, true, {}, tiles});
      }
    }
  }
  return cases;
}

constexpr const char* kJitKey = "interp-sweep";

class FusedKernelProperty : public testing::TestWithParam<Case> {
 protected:
  /// One TU for every kernel of the sweep.
  static void SetUpTestSuite() {
    const jit::Toolchain tc = jit::detect_toolchain();
    if (!tc.ok()) return;
    std::vector<Schedule> schedules;
    for (const Case& c : make_cases()) {
      Schedule s = case_schedule(c);
      if (s.valid() && s.consume_complete()) schedules.push_back(std::move(s));
    }
    std::vector<const Schedule*> batch;
    for (const Schedule& s : schedules) batch.push_back(&s);
    jit::prepare_kernels(batch, kJitKey, tc);
  }
};

TEST_P(FusedKernelProperty, MatchesReferenceAndStaticCounts) {
  const Case& p = GetParam();
  const ChainSpec& chain = sweep_chain(p.kind, p.ragged);
  const std::int64_t batch = chain.batch();
  const std::int64_t m = chain.m();
  const std::int64_t h = chain.inner()[2];
  const Schedule s = case_schedule(p);
  ASSERT_TRUE(s.valid());
  if (!s.consume_complete()) GTEST_SKIP() << "Rule-2 schedule, not executable";

  const jit::KernelInputs in = jit::seeded_inputs(batch, m, chain.inner(), 101);
  const Tensor& a = in.a;
  const std::vector<Tensor>& w = in.weights;

  Tensor out(Shape{batch, m, h});
  const ExecutionCounters counters = Interpreter(s).run(a, w, out);

  Tensor ref(Shape{batch, m, h});
  reference(chain, p.kind, a, w, ref);
  EXPECT_TRUE(allclose(out, ref, 1e-3, 1e-4))
      << "max diff " << max_abs_diff(out, ref);

  const VolumeReport vol = analyze_volume(s);
  EXPECT_DOUBLE_EQ(counters.load_bytes, vol.load_bytes);
  EXPECT_DOUBLE_EQ(counters.store_bytes, vol.store_bytes);
  EXPECT_DOUBLE_EQ(counters.flops, vol.flops);
  EXPECT_DOUBLE_EQ(counters.epilogue_flops, vol.epilogue_flops);
  EXPECT_DOUBLE_EQ(counters.stmt_trips, vol.stmt_trips);

  const verify::VerifyReport rep = verify::verify_schedule(s);
  EXPECT_TRUE(rep.safe()) << rep.to_json();

  // The jit self-disables under sanitizer builds (no toolchain).
  if (!jit::detect_toolchain().ok()) return;
  std::string err;
  const jit::ResolvedKernel kernel =
      jit::resolve_kernel(s, kJitKey, jit::detect_toolchain(), &err);
  ASSERT_TRUE(kernel.ok()) << err;
  Tensor out_jit(Shape{batch, m, h});
  std::vector<std::vector<float>> scratch;
  jit::run_compiled(kernel.fn, s, a, w, out_jit, scratch);
  EXPECT_TRUE(allclose(out_jit, ref, 1e-3, 1e-4))
      << "jit max diff " << max_abs_diff(out_jit, ref);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FusedKernelProperty,
                         testing::ValuesIn(make_cases()), case_name);

// ---- targeted scenarios ----------------------------------------------------

TEST(Interpreter, PaddedDimsStillCorrect) {
  // 80 is not a multiple of 32: loads zero-pad, stores clip.
  const ChainSpec chain = ChainSpec::gemm_chain("pad", 1, 80, 80, 80, 80);
  const Schedule s = build_schedule(chain, make_deep_expr(chain, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{32, 32, 32, 32});
  Tensor a(Shape{1, 80, 80});
  Tensor b(Shape{1, 80, 80});
  Tensor d(Shape{1, 80, 80});
  a.fill_random(7);
  b.fill_random(8);
  d.fill_random(9);
  std::vector<Tensor> w;
  w.push_back(std::move(b));
  w.push_back(std::move(d));
  Tensor out(Shape{1, 80, 80});
  Interpreter(s).run(a, w, out);
  Tensor ref(Shape{1, 80, 80});
  ops::gemm_chain_reference(a, w[0], w[1], ref);
  EXPECT_TRUE(allclose(out, ref, 1e-3, 1e-4));
}

TEST(Interpreter, PaddedAttentionMasksSoftmaxColumns) {
  // Padded n columns must not leak exp(0) mass into the distribution.
  const ChainSpec chain = ChainSpec::attention("padattn", 2, 80, 80, 32, 32);
  const Schedule s = build_schedule(chain, make_deep_expr(chain, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{32, 32, 32, 32});
  Tensor q(Shape{2, 80, 32});
  Tensor kt(Shape{2, 32, 80});
  Tensor v(Shape{2, 80, 32});
  q.fill_random(11);
  kt.fill_random(12);
  v.fill_random(13);
  std::vector<Tensor> w;
  w.push_back(std::move(kt));
  w.push_back(std::move(v));
  Tensor out(Shape{2, 80, 32});
  Interpreter(s).run(q, w, out);
  Tensor ref(Shape{2, 80, 32});
  ops::attention_reference(q, w[0], w[1], chain.softmax_scale(), ref);
  EXPECT_TRUE(allclose(out, ref, 1e-3, 1e-4))
      << "max diff " << max_abs_diff(out, ref);
}

TEST(Interpreter, SerialAndParallelAgreeExactly) {
  const ChainSpec chain = ChainSpec::gemm_chain("par", 3, 64, 64, 32, 32);
  const Schedule s = build_schedule(chain, make_deep_expr(chain, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{32, 32, 32, 32});
  Tensor a(Shape{3, 64, 32});
  Tensor b(Shape{3, 32, 64});
  Tensor d(Shape{3, 64, 32});
  a.fill_random(21);
  b.fill_random(22);
  d.fill_random(23);
  std::vector<Tensor> w;
  w.push_back(std::move(b));
  w.push_back(std::move(d));
  Tensor out_par(Shape{3, 64, 32});
  Tensor out_ser(Shape{3, 64, 32});
  InterpreterOptions ser;
  ser.parallel = false;
  Interpreter(s).run(a, w, out_par);
  Interpreter(s, ser).run(a, w, out_ser);
  EXPECT_EQ(max_abs_diff(out_par, out_ser), 0.0);
}

TEST(Interpreter, SerialAndParallelCountersBitIdentical) {
  // Sweep several schedule shapes (padded dims, hoisted stores, softmax
  // chains): output tensors AND dynamic counters must be bit-identical
  // with the worker-slot arenas on and off — per-slot counter reduction
  // may not perturb a single bit.
  struct Shape3 {
    ChainKind kind;
    std::vector<std::int64_t> tiles;
  };
  const std::vector<Shape3> shapes = {
      {ChainKind::Plain, {32, 16, 32, 16}},
      {ChainKind::Plain, {96, 16, 96, 48}},
      {ChainKind::Relu, {48, 48, 48, 48}},
      {ChainKind::Attention, {16, 32, 48, 16}},
      {ChainKind::Attention, {32, 48, 32, 48}},
  };
  for (const auto& p : shapes) {
    const ChainSpec chain = make_chain(p.kind, 3, 96, 96, 48, 48);
    const Schedule s =
        build_schedule(chain, make_deep_expr(chain, {0, 3, 2, 1}), p.tiles);
    if (!s.consume_complete()) continue;
    Tensor a(Shape{3, 96, 48});
    Tensor b(Shape{3, 48, 96});
    Tensor d(Shape{3, 96, 48});
    a.fill_random(41);
    b.fill_random(42);
    d.fill_random(43);
    std::vector<Tensor> w;
    w.push_back(std::move(b));
    w.push_back(std::move(d));
    Tensor out_par(Shape{3, 96, 48});
    Tensor out_ser(Shape{3, 96, 48});
    InterpreterOptions ser;
    ser.parallel = false;
    const ExecutionCounters cp = Interpreter(s).run(a, w, out_par);
    const ExecutionCounters cs = Interpreter(s, ser).run(a, w, out_ser);
    EXPECT_EQ(max_abs_diff(out_par, out_ser), 0.0) << kind_name(p.kind);
    EXPECT_EQ(cp.load_bytes, cs.load_bytes) << kind_name(p.kind);
    EXPECT_EQ(cp.store_bytes, cs.store_bytes) << kind_name(p.kind);
    EXPECT_EQ(cp.flops, cs.flops) << kind_name(p.kind);
    EXPECT_EQ(cp.epilogue_flops, cs.epilogue_flops) << kind_name(p.kind);
    EXPECT_EQ(cp.stmt_trips, cs.stmt_trips) << kind_name(p.kind);
  }
}

TEST(Interpreter, RepeatedRunsAreDeterministic) {
  // Within a run, worker-slot arenas are reused across blocks; stale
  // state from an earlier block (or run) must never leak into a result.
  const ChainSpec chain = ChainSpec::attention("drift", 2, 80, 80, 32, 32);
  const Schedule s = build_schedule(chain, make_deep_expr(chain, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{32, 32, 32, 32});
  Tensor q(Shape{2, 80, 32});
  Tensor kt(Shape{2, 32, 80});
  Tensor v(Shape{2, 80, 32});
  q.fill_random(61);
  kt.fill_random(62);
  v.fill_random(63);
  std::vector<Tensor> w;
  w.push_back(std::move(kt));
  w.push_back(std::move(v));
  const Interpreter interp(s);
  Tensor first(Shape{2, 80, 32});
  interp.run(q, w, first);
  for (int r = 0; r < 3; ++r) {
    Tensor again(Shape{2, 80, 32});
    interp.run(q, w, again);
    EXPECT_EQ(max_abs_diff(first, again), 0.0) << "run " << r;
  }
}

TEST(Interpreter, ThreeOpChainNumerics) {
  const ChainSpec chain("triple", 2, 48, {32, 48, 24, 40});
  const TileExpr expr = make_deep_expr(chain, {0, 4, 3, 2, 1});
  const Schedule s = build_schedule(
      chain, expr, std::vector<std::int64_t>{24, 16, 24, 24, 40});
  ASSERT_TRUE(s.valid());
  ASSERT_TRUE(s.consume_complete());
  Tensor a(Shape{2, 48, 32});
  Tensor w0(Shape{2, 32, 48});
  Tensor w1(Shape{2, 48, 24});
  Tensor w2(Shape{2, 24, 40});
  a.fill_random(31);
  w0.fill_random(32);
  w1.fill_random(33);
  w2.fill_random(34);
  std::vector<Tensor> w;
  w.push_back(std::move(w0));
  w.push_back(std::move(w1));
  w.push_back(std::move(w2));
  Tensor out(Shape{2, 48, 40});
  Interpreter(s).run(a, w, out);
  // Reference: three chained batched GEMMs.
  Tensor x1(Shape{2, 48, 48});
  Tensor x2(Shape{2, 48, 24});
  Tensor ref(Shape{2, 48, 40});
  ops::batched_gemm(a, w[0], x1);
  ops::batched_gemm(x1, w[1], x2);
  ops::batched_gemm(x2, w[2], ref);
  EXPECT_TRUE(allclose(out, ref, 1e-3, 1e-4));
}

TEST(Interpreter, RejectsPartialConsumeSchedules) {
  const ChainSpec chain = ChainSpec::gemm_chain("bad", 1, 64, 64, 64, 64);
  const Schedule s = build_schedule(chain, make_deep_expr(chain, {0, 3, 1, 2}),
                                    std::vector<std::int64_t>{32, 32, 32, 32});
  ASSERT_FALSE(s.consume_complete());
  EXPECT_DEATH(Interpreter{s}, "Rule-2");
}

TEST(Interpreter, ShapeValidation) {
  const ChainSpec chain = ChainSpec::gemm_chain("shape", 1, 64, 64, 32, 32);
  const Schedule s = build_schedule(chain, make_deep_expr(chain, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{32, 32, 32, 32});
  Tensor a(Shape{1, 64, 16});  // wrong K
  Tensor b(Shape{1, 32, 64});
  Tensor d(Shape{1, 64, 32});
  std::vector<Tensor> w;
  w.push_back(std::move(b));
  w.push_back(std::move(d));
  Tensor out(Shape{1, 64, 32});
  EXPECT_DEATH(Interpreter(s).run(a, w, out), "input shape");
}

}  // namespace
}  // namespace mcf

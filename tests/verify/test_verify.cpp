// Static bounds verifier (src/verify/): zero false positives across the
// conformance workload matrix, a 100% catch rate on the seeded mutation
// corpus, concrete witnesses, overflow detection on astronomically-sized
// chains, the MCFUSER_VERIFY gate policy, and the jit pre-compile gate.
#include "verify/verify.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "dag/schedule_internal.hpp"
#include "exec/codegen.hpp"
#include "exec/jit.hpp"
#include "gpu/spec.hpp"
#include "ir/expr.hpp"
#include "measure/backend.hpp"
#include "search/space.hpp"
#include "verify/mutate.hpp"

namespace mcf {
namespace {

// Static storage: a Schedule keeps a ChainSpec pointer.
const ChainSpec& fig7_chain() {
  static const ChainSpec c =
      ChainSpec::gemm_chain("fig7-mini", 1, 128, 128, 64, 64);
  return c;
}
const ChainSpec& ragged_chain() {
  static const ChainSpec c = ChainSpec::gemm_chain("ragged", 4, 96, 80, 48, 56);
  return c;
}
const ChainSpec& attn_chain() {
  static const ChainSpec c = ChainSpec::attention("attn-mini", 2, 64, 64, 32, 32);
  return c;
}
const ChainSpec& gelu3_chain() {
  static const ChainSpec c("gelu3", 2, 96, {48, 96, 48},
                           {Epilogue::Gelu, Epilogue::None});
  return c;
}

std::vector<const ChainSpec*> matrix() {
  return {&fig7_chain(), &ragged_chain(), &attn_chain(), &gelu3_chain()};
}

Schedule deep_schedule(const ChainSpec& c, std::vector<std::int64_t> tiles) {
  std::vector<int> order;
  order.push_back(0);
  for (int l = c.num_loops() - 1; l >= 1; --l) order.push_back(l);
  return build_schedule(c, make_deep_expr(c, order), tiles);
}

TEST(Verify, SafeScheduleReportsClean) {
  const Schedule s = deep_schedule(fig7_chain(), {32, 32, 32, 32});
  ASSERT_TRUE(s.valid() && s.consume_complete());
  const verify::VerifyReport r = verify::verify_schedule(s);
  EXPECT_TRUE(r.checked);
  EXPECT_TRUE(r.safe()) << r.to_json();
  EXPECT_GT(r.n_blocks, 0);
  EXPECT_EQ(r.scratch_floats, cpp_kernel_scratch_floats(s));
  EXPECT_GT(r.sites_checked, 0);
  EXPECT_EQ(verify::verify_gate_error(s), "");
}

TEST(Verify, NotLowerableSchedulesAreSkippedNotFlagged) {
  Schedule s = deep_schedule(fig7_chain(), {32, 32, 32, 32});
  ScheduleBuilderAccess::set_valid(s, false);
  const verify::VerifyReport r = verify::verify_schedule(s);
  EXPECT_FALSE(r.checked);
  EXPECT_FALSE(r.safe());
  EXPECT_NE(r.skip_reason, "");
  // The gate does not own unlowerable schedules; compile gates do.
  EXPECT_EQ(verify::verify_gate_error(s), "");
}

// Zero false positives across the tuner's own candidate grids: every
// schedule the search space can hand the measurement layer proves safe.
TEST(Verify, TunerCandidateGridHasZeroFalsePositives) {
  PruneOptions prune;
  prune.smem_limit_bytes = a100().smem_per_block;
  for (const ChainSpec* c : matrix()) {
    const SearchSpace space(*c, SpaceOptions{}, prune);
    const auto& cands = space.candidates();
    ASSERT_FALSE(cands.empty()) << c->name();
    // Even spread including both grid ends (corner-heavy tilings).
    const std::size_t take = std::min<std::size_t>(cands.size(), 24);
    for (std::size_t i = 0; i < take; ++i) {
      const std::size_t idx =
          take <= 1 ? 0 : i * (cands.size() - 1) / (take - 1);
      const Schedule s = space.schedule_for(cands[idx]);
      const verify::VerifyReport r = verify::verify_schedule(s);
      EXPECT_TRUE(r.checked) << c->name() << " candidate " << idx;
      EXPECT_TRUE(r.safe())
          << c->name() << " candidate " << idx << ": " << r.to_json();
    }
  }
}

// Ragged hand-picked tiles force every fringe path (fr/fc clamps, the
// zero-filled rows, partial store columns); all must still prove safe.
TEST(Verify, RaggedFringeTilesAreSafe) {
  for (const ChainSpec* c : matrix()) {
    for (const double frac : {1.0 / 8, 1.0 / 2, 7.0 / 8}) {
      std::vector<std::int64_t> tiles;
      for (int l = 0; l < c->num_loops(); ++l) {
        tiles.push_back(std::max<std::int64_t>(
            1, static_cast<std::int64_t>(
                   static_cast<double>(c->loop_dim(l)) * frac)));
      }
      const Schedule s = deep_schedule(*c, tiles);
      ASSERT_TRUE(s.valid());
      if (!s.consume_complete()) continue;  // Rule-2 gate owns these
      const verify::VerifyReport r = verify::verify_schedule(s);
      EXPECT_TRUE(r.safe()) << c->name() << " frac " << frac << ": "
                            << r.to_json();
    }
  }
}

TEST(Mutate, CorpusIsFullyFlagged) {
  std::size_t total = 0;
  for (const ChainSpec* c : matrix()) {
    std::vector<std::int64_t> tiles(static_cast<std::size_t>(c->num_loops()));
    for (int l = 0; l < c->num_loops(); ++l) {
      tiles[static_cast<std::size_t>(l)] = std::max<std::int64_t>(
          16, c->loop_dim(l) / 2);
    }
    const Schedule base = deep_schedule(*c, tiles);
    ASSERT_TRUE(base.valid() && base.consume_complete()) << c->name();
    ASSERT_TRUE(verify::verify_schedule(base).safe()) << c->name();
    for (const verify::Mutant& m : verify::mutation_corpus(base, 7, 64)) {
      ++total;
      const verify::VerifyReport r = verify::verify_schedule(m.schedule);
      EXPECT_TRUE(r.checked) << c->name() << " " << m.name;
      EXPECT_FALSE(r.safe())
          << c->name() << ": mutant '" << m.name << "' (" << m.detail
          << ") escaped the verifier";
    }
  }
  // The corpus generator found real work to do.
  EXPECT_GE(total, 8u);
}

TEST(Mutate, CorpusIsSeededAndDeterministic) {
  const Schedule base = deep_schedule(fig7_chain(), {32, 32, 32, 32});
  const auto a = verify::mutation_corpus(base, 123, 16);
  const auto b = verify::mutation_corpus(base, 123, 16);
  const auto c = verify::mutation_corpus(base, 321, 16);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].name, b[i].name);
  ASSERT_EQ(a.size(), c.size());  // same pool, different order
}

TEST(Mutate, WitnessIsConcrete) {
  const Schedule base = deep_schedule(fig7_chain(), {32, 32, 32, 32});
  const auto corpus = verify::mutation_corpus(base, 7, 64);
  ASSERT_FALSE(corpus.empty());
  bool saw_violation = false;
  for (const verify::Mutant& m : corpus) {
    const verify::VerifyReport r = verify::verify_schedule(m.schedule);
    if (r.violations.empty()) continue;
    saw_violation = true;
    const verify::Violation& v = r.violations.front();
    EXPECT_GE(v.block, 0);
    EXPECT_LT(v.block, r.n_blocks);
    EXPECT_EQ(v.indices.size(),
              static_cast<std::size_t>(base.chain().num_loops()));
    EXPECT_TRUE(v.offset < v.lo || v.offset >= v.hi)
        << v.offset << " vs [" << v.lo << ", " << v.hi << ")";
    EXPECT_NE(v.message.find(v.buffer), std::string::npos) << v.message;
    EXPECT_NE(v.message.find(verify::violation_kind_name(v.kind)),
              std::string::npos)
        << v.message;
    const std::string j = v.to_json();
    EXPECT_NE(j.find("\"kind\""), std::string::npos);
    EXPECT_NE(j.find("\"block\""), std::string::npos);
    EXPECT_NE(j.find("\"indices\""), std::string::npos);
  }
  EXPECT_TRUE(saw_violation);
}

// batch * m * cols == 2^63 overflows the kernel's long long before a
// single block runs; the verifier must refuse at setup, not wrap.
TEST(Verify, HugeChainOffsetsFlaggedAsOverflow) {
  static const ChainSpec c("huge", std::int64_t{1} << 30, std::int64_t{1} << 20,
                           {16, 16, 8192});
  ASSERT_TRUE(c.valid()) << c.validation_error();
  const Schedule s = deep_schedule(c, {16, 16, 16, 16});
  ASSERT_TRUE(s.valid() && s.consume_complete());
  const verify::VerifyReport r = verify::verify_schedule(s);
  ASSERT_TRUE(r.checked);
  ASSERT_FALSE(r.safe());
  bool overflow = false;
  for (const auto& v : r.violations) {
    overflow |= v.kind == verify::ViolationKind::IndexOverflow;
  }
  EXPECT_TRUE(overflow) << r.to_json();
  EXPECT_EQ(verify::verify_gate_error(s).rfind(verify::kGateErrorPrefix, 0), 0u);
}

TEST(Verify, EnvKnobControlsGate) {
  ::setenv("MCFUSER_VERIFY", "0", 1);
  EXPECT_FALSE(verify::verify_enabled());
  ::setenv("MCFUSER_VERIFY", "1", 1);
  EXPECT_TRUE(verify::verify_enabled());
  ::unsetenv("MCFUSER_VERIFY");
#ifdef NDEBUG
  EXPECT_FALSE(verify::verify_enabled());
#else
  EXPECT_TRUE(verify::verify_enabled());
#endif
}

// The jit refuses to hand an unsafe schedule to the compiler: resolve
// fails with the "verify: " prefix and the measure backend surfaces
// MeasureFailKind::VerifyRejected instead of silently degrading to the
// interpreter.
TEST(Verify, JitGateRefusesUnsafeKernels) {
  if (!jit::detect_toolchain().ok()) {
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  const Schedule base = deep_schedule(fig7_chain(), {32, 32, 32, 32});
  const auto corpus = verify::mutation_corpus(base, 11, 4);
  ASSERT_FALSE(corpus.empty());
  const Schedule& unsafe = corpus.front().schedule;

  ::setenv("MCFUSER_VERIFY", "1", 1);
  std::string err;
  const jit::ResolvedKernel rk = jit::resolve_kernel(
      unsafe, "verify-gate-test", jit::detect_toolchain(), &err);
  EXPECT_FALSE(rk.ok());
  EXPECT_EQ(err.rfind(verify::kGateErrorPrefix, 0), 0u) << err;

  const ExecBackend backend(a100(), {});
  const KernelMeasurement m = backend.measure(unsafe, {});
  EXPECT_FALSE(m.ok);
  EXPECT_EQ(m.fail_kind, MeasureFailKind::VerifyRejected) << m.fail_reason;
  EXPECT_EQ(m.fail_reason.rfind(verify::kGateErrorPrefix, 0), 0u)
      << m.fail_reason;

  // The safe base still compiles through the same gate.
  const KernelMeasurement ok = backend.measure(base, {});
  EXPECT_TRUE(ok.ok) << ok.fail_reason;
  ::unsetenv("MCFUSER_VERIFY");
}

}  // namespace
}  // namespace mcf

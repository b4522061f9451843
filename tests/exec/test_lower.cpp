// exec/lower: the one lowering the interpreter, the C++ emitter and the
// verifier share — arena plan, statement descriptors, overflow records.
#include "exec/lower.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "exec/codegen.hpp"
#include "ir/expr.hpp"

namespace mcf {
namespace {

TEST(Lower, ArenaPlanPacksRegionsThenStats) {
  static const ChainSpec c = ChainSpec::attention("lower-attn", 2, 80, 72, 32, 32);
  const Schedule s = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{32, 32, 24, 16});
  ASSERT_TRUE(s.valid() && s.consume_complete());
  const LoweredKernel k = lower(s);
  const ArenaPlan& p = k.arena;
  ASSERT_EQ(p.region.size(), static_cast<std::size_t>(c.num_tensors()) + 1);
  EXPECT_EQ(p.region[0], 0);
  for (int t = 0; t < c.num_tensors(); ++t) {
    EXPECT_EQ(p.hi(t) - p.lo(t),
              s.tile_elems(t) * s.resident_tiles()[static_cast<std::size_t>(t)]);
  }
  EXPECT_EQ(p.arena_floats, p.region.back());
  EXPECT_EQ(p.stat[0], 0);   // op 0 carries the online softmax
  EXPECT_EQ(p.stat[1], -1);
  EXPECT_EQ(p.stat_floats, 2 * s.tiles()[0]);
  EXPECT_EQ(p.scratch_floats, p.arena_floats + p.stat_floats);
  EXPECT_EQ(cpp_kernel_scratch_floats(s), p.scratch_floats);
  EXPECT_EQ(k.n_blocks, s.num_blocks());
  EXPECT_TRUE(k.overflows.empty());
}

TEST(Lower, StatementsFollowTheScheduleAndRangeOverTheirLoops) {
  static const ChainSpec c = ChainSpec::gemm_chain("lower-flat", 1, 256, 256, 128, 128);
  const Schedule s = build_schedule(c, make_flat_expr(c, {0, 2}, {1, 3}),
                                    std::vector<std::int64_t>{64, 64, 64, 64});
  const LoweredKernel k = lower(s);
  const std::vector<int> order = s.statements_in_order();
  ASSERT_EQ(k.stmts.size(), order.size());
  std::uint32_t block_mask = 0;
  for (const int l : s.block_loops()) block_mask |= 1u << l;
  bool saw_covered = false;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Statement& st = s.node(order[i]).stmt;
    const LoweredStmt& ls = k.stmts[i];
    EXPECT_EQ(ls.kind, st.kind);
    EXPECT_EQ(ls.ranging & block_mask, block_mask);
    for (const int l : st.covered_loops) {
      EXPECT_TRUE(ls.ranges(l));
      saw_covered = true;
    }
  }
  EXPECT_TRUE(saw_covered);
}

TEST(Lower, DescriptorsEvaluateTheEmittedArithmetic) {
  static const ChainSpec c = ChainSpec::gemm_chain("lower-ragged", 2, 96, 80, 48, 56);
  const Schedule s = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{40, 48, 28, 24});
  const LoweredKernel k = lower(s);
  for (const LoweredStmt& st : k.stmts) {
    if (st.kind != StmtKind::Load) continue;
    const GlobalTile& g = st.global;
    std::vector<std::int64_t> idx(static_cast<std::size_t>(c.num_loops()), 0);
    EXPECT_EQ(st.tile.offset<std::int64_t>(idx), st.tile.lo);
    // The last row tile keeps only the fringe: min(dim - start, tile).
    idx[static_cast<std::size_t>(g.row.loop)] = k.extent(g.row.loop) - 1;
    const std::int64_t start = (k.extent(g.row.loop) - 1) * g.row.tile;
    EXPECT_EQ(g.row.start<std::int64_t>(idx), start);
    EXPECT_EQ(g.row.valid<std::int64_t>(idx),
              std::min(g.row.dim - start, g.row.tile));
    EXPECT_EQ(g.exact, g.row.dim % g.row.tile == 0 && g.col.dim % g.col.tile == 0);
  }
}

// batch * m * cols == 2^63: lowering must record the overflows (and not
// hit signed-overflow UB computing them — the UBSan lane runs this).
TEST(Lower, HugeChainRecordsOverflows) {
  static const ChainSpec c("lower-huge", std::int64_t{1} << 30,
                           std::int64_t{1} << 20, {16, 16, 8192});
  const Schedule s = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{16, 16, 16, 16});
  const LoweredKernel k = lower(s);
  ASSERT_FALSE(k.overflows.empty());
  EXPECT_EQ(k.overflows.front(), "tensor E extent (batch*rows*cols)");
}

}  // namespace
}  // namespace mcf

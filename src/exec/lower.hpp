// Lowering: one pass from a Schedule to the kernel every backend runs.
//
// MCFuser analyses a tiling expression's DAG once to decide every memory
// access (paper §IV); lower() is that analysis for the fused CPU kernel.
// It fixes the scratch-arena plan, the block count and decode order, and
// a loop/statement tree whose statements carry explicit access
// descriptors: affine arena addresses over the resident loops, global
// tile windows with their fringe clamps kept symbolic as
// min(dim - i*tile, tile), and the compute tiles and epilogue parameters.
// exec/interpreter executes the LoweredKernel, exec/codegen prints it as
// C++ and verify/verify corner-evaluates its descriptors — so what the
// verifier proves is what the emitter printed, by construction.  The
// descriptor evaluators are templates over the integer type: std::int64_t
// in the interpreter, a saturating 128-bit type in the verifier.
//
// Sizes use overflow-checked arithmetic: an overflowing value wraps like
// the emitted `long long` literal would (without UB here) and is named in
// LoweredKernel::overflows, which the verifier reports.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "dag/schedule.hpp"
#include "support/inline_vec.hpp"

namespace mcf {

/// Scratch layout of one kernel invocation: tensor t's tiles occupy
/// [region[t], region[t+1]); the stats area follows at arena_floats with
/// [run_max(stat_rows), run_sum(stat_rows)] per online-softmax op.
struct ArenaPlan {
  InlineVec<std::int64_t, 16> region;  ///< num_tensors + 1 prefix sums
  InlineVec<std::int64_t, 8> stat;     ///< per op: run_max offset, -1 if none
  std::int64_t stat_rows = 0;
  std::int64_t arena_floats = 0;
  std::int64_t stat_floats = 0;
  std::int64_t scratch_floats = 0;     ///< INT64_MAX on overflow

  [[nodiscard]] std::int64_t lo(int t) const { return region[static_cast<std::size_t>(t)]; }
  [[nodiscard]] std::int64_t hi(int t) const { return region[static_cast<std::size_t>(t) + 1]; }
};

/// Allocation-free arena plan (the jit's per-call scratch size).  Sizes
/// that overflow i64 are named in `overflows` when given.
[[nodiscard]] ArenaPlan plan_arena(const Schedule& s,
                                   std::vector<std::string>* overflows = nullptr);

/// A tensor's current tile in the scratch arena:
///   lo + (mixed radix of the resident-loop indices) * tile_elems.
struct ArenaRef {
  int tensor = -1;
  std::int64_t lo = 0, hi = 0;      ///< the tensor's region [lo, hi)
  InlineVec<int, 6> loops;          ///< resident loops, outermost digit first
  InlineVec<std::int64_t, 6> radix; ///< their extents
  std::int64_t tile_elems = 0;

  template <class Int, class Idx>
  [[nodiscard]] Int offset(const Idx& idx) const {
    Int slot(0);
    for (std::size_t j = 0; j < loops.size(); ++j) {
      slot = slot * Int(radix[j]) + Int(idx[static_cast<std::size_t>(loops[j])]);
    }
    return Int(lo) + slot * Int(tile_elems);
  }
};

/// One tile dimension of a global window: the tile starts at
/// i<loop>*tile and holds min(dim - start, tile) valid elements — negative
/// when an extent overshoots.
struct Clamp {
  int loop = -1;
  std::int64_t tile = 0;
  std::int64_t dim = 0;

  template <class Int, class Idx>
  [[nodiscard]] Int start(const Idx& idx) const {
    return Int(idx[static_cast<std::size_t>(loop)]) * Int(tile);
  }
  template <class Int, class Idx>
  [[nodiscard]] Int valid(const Idx& idx) const {
    using std::min;
    return min(Int(dim) - start<Int>(idx), Int(tile));
  }
};

enum class GlobalBuf : std::uint8_t { Input, Weight, Output };

/// A tile window of a global tensor's per-batch [row.dim, col.dim] slice.
struct GlobalTile {
  GlobalBuf buf = GlobalBuf::Input;
  int weight = -1;         ///< k of gw[k]
  Clamp row, col;
  std::int64_t slice = 0;  ///< row.dim * col.dim: the per-batch stride
  bool exact = false;      ///< both tiles divide their dims: no fringe

  /// The kernel parameter: "ga", "gw[k]" or "gout".
  [[nodiscard]] std::string name() const;
};

struct LoweredStmt {
  StmtKind kind = StmtKind::Load;
  int tensor = -1;  ///< Load/Store
  int op = -1;      ///< Compute
  /// Bit l is set iff i<l> ranges over its full extent here: a block
  /// loop, a tree ancestor or a hoisted store's covered loop.  Every other
  /// index is 0 (the emitted code resets i<l> after closing its loop).
  std::uint32_t ranging = 0;

  // Load / Store: the arena tile and the global window it moves to/from.
  ArenaRef tile;
  GlobalTile global;
  InlineVec<int, 6> covered;  ///< store: loops swept by shadow indices q<l>

  // Compute: out[tm x tcl] += in[tm x trd] * w[trd x tcl], restarting at
  // i<red> == 0; the epilogue runs at i<red> == red_ext - 1.
  ArenaRef in, w, out;
  int red = -1;
  std::int64_t red_ext = 0;
  std::int64_t tm = 0, trd = 0, tcl = 0;
  Epilogue epilogue = Epilogue::None;
  // Online softmax over out's columns (loop `col`): columns past
  // valid_cols are padding, and every row of the consumer accumulator's
  // region (cons_rows rows of cons_cols) is rescaled.
  int col = -1;
  std::int64_t valid_cols = 0;
  float scale = 1.0f;
  int cons = -1;
  std::int64_t cons_rows = 0, cons_cols = 0;

  // Online-softmax stats of op `stat_op`, as offsets into the stats area:
  // the running maxima at `stat`, the running sums at `rsum` (a compute
  // updates both; a store divides by the sums).
  int stat_op = -1;
  std::int64_t stat = -1;
  std::int64_t rsum = -1;

  [[nodiscard]] bool ranges(int l) const {
    return (ranging >> static_cast<unsigned>(l)) & 1u;
  }
  [[nodiscard]] std::vector<const ArenaRef*> arena_refs() const;
};

/// Loop/statement tree node; node 0 is the root scope.
struct LoweredNode {
  int loop = -1;  ///< scope loop; -1 for the root and for statements
  int stmt = -1;  ///< index into LoweredKernel::stmts for leaves
  InlineVec<int, 6> children;
};

struct LoweredKernel {
  const ChainSpec* chain = nullptr;
  ArenaPlan arena;
  InlineVec<std::int64_t, 8> extents;  ///< per loop
  std::int64_t n_blocks = 0;           ///< INT64_MAX on overflow
  /// Block loops innermost first: i<l> = rem % extent; rem /= extent;
  /// what remains is the batch index.
  InlineVec<int, 6> decode;
  std::vector<LoweredNode> nodes;
  std::vector<LoweredStmt> stmts;      ///< execution (pre)order
  std::vector<std::string> overflows;  ///< sizes that overflow i64

  [[nodiscard]] std::int64_t extent(int l) const {
    return extents[static_cast<std::size_t>(l)];
  }
};

/// Lowers a valid, consume-complete schedule.
[[nodiscard]] LoweredKernel lower(const Schedule& s);

}  // namespace mcf

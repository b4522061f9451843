// Scheduled candidate: a tiling expression + concrete tile sizes with
// Load/Compute/Store statements placed (paper §III-B).
//
// The Schedule is the single source of truth shared by
//   * dag/hoist.cpp    — DAG-based memory-statement motion,
//   * dag/volume.cpp   — static traffic / FLOP / shared-memory analysis,
//   * exec/lower       — the lowered kernel that the interpreter executes,
//                        the C++ emitter prints and the verifier checks,
//   * model/analytical — the paper's performance model (eqs 2-5).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ir/chain.hpp"
#include "ir/expr.hpp"
#include "support/inline_vec.hpp"

namespace mcf {

enum class StmtKind : std::uint8_t { Load, Compute, Store };

[[nodiscard]] const char* stmt_kind_name(StmtKind k) noexcept;

/// One primitive statement. Load/Store reference `tensor`; Compute
/// references `op`. `covered_loops` lists index-loops a hoisted store
/// jumped over: its per-trip bytes cover all resident tiles of those loops.
struct Statement {
  StmtKind kind = StmtKind::Load;
  int tensor = -1;
  int op = -1;
  std::vector<int> covered_loops;
};

/// Options controlling schedule construction; baselines flip these to model
/// the limitations the paper attributes to Ansor / Chimera (§II-B(b)).
struct ScheduleOptions {
  /// Hoist memory statements to the outermost relevant loop (standard
  /// optimization, present in Ansor and Chimera).
  bool hoist = true;
  /// Additionally collapse loops whose extent is 1 and hoist through them
  /// (the paper's Fig. 4(b)/Fig. 5(b) optimization, unique to MCFuser).
  bool collapse_unit_loops = true;
};

/// A fully-placed schedule. Node 0 is the root scope.  Children are in
/// execution order; statement nodes are leaves.
class Schedule {
 public:
  struct Node {
    int loop = -1;                ///< loop id for scope nodes, -1 otherwise
    bool is_stmt = false;
    Statement stmt;               ///< valid when is_stmt
    int parent = -1;
    /// Ordered; empty for statements.  Inline storage: child lists are
    /// tiny and schedule construction is the tuner's hot path.
    InlineVec<int, 6> children;
  };

  [[nodiscard]] const ChainSpec& chain() const noexcept { return *chain_; }
  [[nodiscard]] const InlineVec<std::int64_t, 8>& tiles() const noexcept { return tiles_; }
  [[nodiscard]] const InlineVec<std::int64_t, 8>& extents() const noexcept { return extents_; }
  [[nodiscard]] const InlineVec<int, 6>& block_loops() const noexcept { return block_loops_; }

  [[nodiscard]] int num_nodes() const noexcept { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] const Node& node(int i) const { return nodes_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] int root() const noexcept { return 0; }

  /// Statement node indices in execution (pre-)order.
  [[nodiscard]] std::vector<int> statements_in_order() const;

  /// Number of thread blocks of the fused kernel (batch x block loop extents).
  [[nodiscard]] std::int64_t num_blocks() const;

  /// Per-tensor count of simultaneously-resident shared-memory tiles
  /// (paper Rule 2 quantity).  Computed at build time.
  [[nodiscard]] const InlineVec<std::int64_t, 8>& resident_tiles() const noexcept { return resident_; }

  /// Per-tensor loops whose extents multiply into resident_tiles(); the
  /// interpreter uses them to address multi-tile buffers.
  [[nodiscard]] const InlineVec<int, 6>& resident_loops(int t) const {
    return resident_loops_.at(static_cast<std::size_t>(t));
  }

  /// False when a consumer reads a producer tile before its reduction
  /// completes (Fig. 6(b) partial-tile schedules) — pruned by Rule 2.
  [[nodiscard]] bool consume_complete() const noexcept { return consume_complete_; }

  /// True when every operator found a legal placement.
  [[nodiscard]] bool valid() const noexcept { return valid_; }

  /// Product of extents of the tree-loop ancestors of node `i`
  /// (the statement trip count of eq. 3/4).
  [[nodiscard]] double trip_count(int i) const;

  /// Tile footprint of tensor `t` in elements: product of tile sizes over
  /// its index loops.
  [[nodiscard]] std::int64_t tile_elems(int t) const;

  /// Human-readable pseudo-code (paper Fig. 4 style).
  [[nodiscard]] std::string to_pseudo() const;

 private:
  const ChainSpec* chain_ = nullptr;
  InlineVec<std::int64_t, 8> tiles_;
  InlineVec<std::int64_t, 8> extents_;
  InlineVec<int, 6> block_loops_;
  std::vector<Node> nodes_;
  InlineVec<std::int64_t, 8> resident_;
  std::vector<InlineVec<int, 6>> resident_loops_;
  bool consume_complete_ = true;
  bool valid_ = true;

  friend struct ScheduleBuilderAccess;
};

/// Builds a schedule for `chain` from expression structure + tile sizes.
/// Tile sizes are given per loop id and are clamped to the loop dimension.
[[nodiscard]] Schedule build_schedule(const ChainSpec& chain,
                                      const TileExpr& expr,
                                      std::span<const std::int64_t> tiles,
                                      const ScheduleOptions& options = {});

// --- internals shared with hoist.cpp ---------------------------------------
namespace detail {
/// Moves memory statements outward (paper §III-B); updates covered_loops.
void hoist_memory_statements(Schedule& s, const ScheduleOptions& options);
/// Recomputes per-tensor resident tile counts after hoisting.
void compute_residency(Schedule& s);
/// Index loops of tensor `t` present in the schedule tree.
[[nodiscard]] std::vector<int> tree_index_loops(const Schedule& s, int t);
}  // namespace detail

}  // namespace mcf

#include "verify/mutate.hpp"

#include <algorithm>
#include <set>

#include "dag/schedule_internal.hpp"
#include "exec/lower.hpp"
#include "support/rng.hpp"

namespace mcf {
namespace verify {

namespace {

/// True when the verifier's corners provably address a slot of `r` past
/// its region at `st`: the mixed radix over the resident loops, each at
/// extent-1 (`bumped_loop` one further), reaches region slots - `shrink`.
/// Needs every resident loop ranging.
[[nodiscard]] bool slot_overrun_guaranteed(const Schedule& s,
                                           const LoweredStmt& st,
                                           const ArenaRef& r, int bumped_loop,
                                           std::int64_t shrink) {
  if (r.loops.empty()) return false;
  bool has_bumped = false;
  std::int64_t prod = 1;
  for (std::size_t j = 0; j < r.loops.size(); ++j) {
    if (!st.ranges(r.loops[j])) return false;
    const bool bump = r.loops[j] == bumped_loop;
    has_bumped |= bump;
    prod *= r.radix[j] + (bump ? 1 : 0);
  }
  if (bumped_loop >= 0 && !has_bumped) return false;
  return prod - 1 >=
         s.resident_tiles()[static_cast<std::size_t>(r.tensor)] - shrink;
}

struct Candidate {
  std::string name;
  std::string detail;
};

}  // namespace

std::vector<Mutant> mutation_corpus(const Schedule& s, std::uint64_t seed,
                                    std::size_t max_mutants) {
  std::vector<Mutant> out;
  if (!s.valid() || !s.consume_complete()) return out;
  const ChainSpec& chain = s.chain();
  const LoweredKernel k = lower(s);
  const int L = chain.num_loops();

  // --- class 1: off-by-one loop extent (extents[l] += 1) --------------------
  // Unsafe iff some access provably reaches the extra iteration:
  //   * an arena slot overrun (l resident for an accessed tensor, all
  //     resident loops ranging at the site), or
  //   * a load whose bumped row/col lands past the dimension — on the
  //     exact path the unconditional tile memcpy reads out of the slice;
  //     on the fringe path the self-dimension must be ragged so the
  //     min-clamp goes NEGATIVE (fr/fc < 0 writes below the tile).  The
  //     fr == 0 edge (self-dim divides exactly, other dim ragged) is
  //     excluded: it only zero-fills the whole tile, which is safe.
  //   * an exact-path store, whose full-tile write lands past the slice.
  for (int l = 0; l < L; ++l) {
    bool applicable = false;
    std::string why;
    for (const LoweredStmt& st : k.stmts) {
      for (const ArenaRef* r : st.arena_refs()) {
        if (slot_overrun_guaranteed(s, st, *r, l, 0)) {
          applicable = true;
          why = "arena slot of " + chain.tensor(r->tensor).name +
                " overruns its residency region";
        }
      }
      if (st.kind == StmtKind::Compute) continue;
      const auto& info = chain.tensor(st.tensor);
      const GlobalTile& g = st.global;
      if (l != g.row.loop && l != g.col.loop) continue;
      if (!st.ranges(l)) continue;
      const Clamp& dim = l == g.row.loop ? g.row : g.col;
      const std::int64_t e = s.extents()[static_cast<std::size_t>(l)];
      if (st.kind == StmtKind::Load) {
        if (g.exact && e * dim.tile >= dim.dim) {
          applicable = true;
          why = "load " + info.name + " tile copy runs past the slice";
        } else if (!g.exact && dim.dim % dim.tile != 0 &&
                   e * dim.tile > dim.dim) {
          applicable = true;
          why = "load " + info.name +
                " fringe clamp goes negative (writes below the tile)";
        }
      } else if (g.exact && e * dim.tile >= dim.dim) {  // Store
        applicable = true;
        why = "store " + info.name + " full-tile write runs past the slice";
      }
    }
    if (!applicable) continue;
    Mutant m{"extent-bump(l=" + std::to_string(l) + ")",
             "extents[" + std::to_string(l) + "] " +
                 std::to_string(s.extents()[static_cast<std::size_t>(l)]) +
                 " -> " +
                 std::to_string(s.extents()[static_cast<std::size_t>(l)] + 1) +
                 ": " + why,
             s};
    ScheduleBuilderAccess::extents(m.schedule)[static_cast<std::size_t>(l)] +=
        1;
    out.push_back(std::move(m));
  }

  // --- class 2: shifted scratch offsets (resident_tiles[t] -= 1) ------------
  // Shrinks tensor t's arena region (and shifts every later region);
  // the untouched resident-loop radix still addresses the old slot
  // count, so the last slot provably lands in the next region.
  for (int t = 0; t < chain.num_tensors(); ++t) {
    if (s.resident_tiles()[static_cast<std::size_t>(t)] <= 1) continue;
    bool applicable = false;
    for (const LoweredStmt& st : k.stmts) {
      for (const ArenaRef* r : st.arena_refs()) {
        applicable |= r->tensor == t && slot_overrun_guaranteed(s, st, *r, -1, 1);
      }
    }
    if (!applicable) continue;
    Mutant m{"resident-shrink(t=" + std::to_string(t) + ")",
             "resident_tiles[" + chain.tensor(t).name + "] " +
                 std::to_string(s.resident_tiles()[static_cast<std::size_t>(t)]) +
                 " -> " +
                 std::to_string(
                     s.resident_tiles()[static_cast<std::size_t>(t)] - 1) +
                 ": last slot lands in the next arena region",
             s};
    ScheduleBuilderAccess::resident(m.schedule)[static_cast<std::size_t>(t)] -=
        1;
    out.push_back(std::move(m));
  }

  // --- class 3: truncated fringe handling -----------------------------------
  // Force a load/store site onto the exact path (tiles = full dims) while
  // the loop extents still overshoot: the removed fringe clamp is what
  // kept r0/c0 in range, so the full-tile copy provably leaves the slice.
  std::set<std::pair<int, int>> fringe_done;  // (lr, lc) dedup
  for (const LoweredStmt& st : k.stmts) {
    if (st.kind == StmtKind::Compute) continue;
    const auto& info = chain.tensor(st.tensor);
    const int lr = st.global.row.loop;
    const int lc = st.global.col.loop;
    const bool over_r =
        st.ranges(lr) && s.extents()[static_cast<std::size_t>(lr)] >= 2;
    const bool over_c =
        st.ranges(lc) && s.extents()[static_cast<std::size_t>(lc)] >= 2;
    if (!over_r && !over_c) continue;
    if (!fringe_done.insert({lr, lc}).second) continue;
    Mutant m{"fringe-truncate(" + std::string(stmt_kind_name(st.kind)) +
                 " " + info.name + ")",
             "tiles[" + std::to_string(lr) + "]=" +
                 std::to_string(chain.loop_dim(lr)) + ", tiles[" +
                 std::to_string(lc) + "]=" + std::to_string(chain.loop_dim(lc)) +
                 " force the exact path while the extents still iterate: the "
                 "full-tile copy leaves the slice",
             s};
    ScheduleBuilderAccess::tiles(m.schedule)[static_cast<std::size_t>(lr)] =
        chain.loop_dim(lr);
    ScheduleBuilderAccess::tiles(m.schedule)[static_cast<std::size_t>(lc)] =
        chain.loop_dim(lc);
    out.push_back(std::move(m));
  }

  std::shuffle(out.begin(), out.end(), make_rng(seed));
  if (out.size() > max_mutants) out.resize(max_mutants);
  return out;
}

}  // namespace verify
}  // namespace mcf

#include "verify/verify.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "exec/lower.hpp"
#include "support/env.hpp"
#include "support/json.hpp"

namespace mcf {
namespace verify {

namespace {

// ---- checked 128-bit arithmetic --------------------------------------------
//
// Every offset is evaluated in __int128 with saturation, so a value that
// would wrap the kernel's i64 is detected instead of wrapping the
// analysis too.  Saturation (rather than wrapping) keeps the ordering
// usable for worst-corner selection after an overflow.  CInt converts
// implicitly from i64 so exec/lower's descriptor templates evaluate in it.

constexpr __int128 kSat = static_cast<__int128>(1) << 120;

struct CInt {
  __int128 v = 0;
  bool ovf = false;

  CInt() = default;
  CInt(std::int64_t x) : v(x) {}
  CInt(__int128 x, bool o) : v(x), ovf(o) {}

  /// Saturates at +-kSat (an overflowed result arrives as +-kSat).
  [[nodiscard]] static CInt sat(__int128 r, bool ovf) {
    if (r > kSat || r < -kSat) return {r > 0 ? kSat : -kSat, true};
    return {r, ovf};
  }
  friend CInt operator+(CInt a, CInt b) {
    __int128 r = 0;
    const bool o = __builtin_add_overflow(a.v, b.v, &r);
    return sat(o ? (a.v > 0 ? kSat : -kSat) : r, a.ovf || b.ovf || o);
  }
  friend CInt operator-(CInt a, CInt b) {
    __int128 r = 0;
    const bool o = __builtin_sub_overflow(a.v, b.v, &r);
    return sat(o ? (a.v > 0 ? kSat : -kSat) : r, a.ovf || b.ovf || o);
  }
  friend CInt operator*(CInt a, CInt b) {
    __int128 r = 0;
    const bool o = __builtin_mul_overflow(a.v, b.v, &r);
    return sat(o ? ((a.v < 0) != (b.v < 0) ? -kSat : kSat) : r,
               a.ovf || b.ovf || o);
  }
  friend CInt min(CInt a, CInt b) {
    return {a.v < b.v ? a.v : b.v, a.ovf || b.ovf};
  }
};

[[nodiscard]] bool fits_i64(CInt a) {
  return !a.ovf && a.v >= static_cast<__int128>(INT64_MIN) &&
         a.v <= static_cast<__int128>(INT64_MAX);
}

[[nodiscard]] std::int64_t clamp64(CInt a) {
  if (a.v > static_cast<__int128>(INT64_MAX)) return INT64_MAX;
  if (a.v < static_cast<__int128>(INT64_MIN)) return INT64_MIN;
  return static_cast<std::int64_t>(a.v);
}

// ---- the analyzer ----------------------------------------------------------

class Verifier {
 public:
  explicit Verifier(const Schedule& s) : s_(s), chain_(s.chain()) {}

  [[nodiscard]] VerifyReport run() {
    if (!s_.valid() || !s_.consume_complete()) {
      rep_.checked = false;
      rep_.skip_reason =
          "schedule is not lowerable (invalid or Rule-2 incomplete)";
      return rep_;
    }
    rep_.checked = true;
    k_ = lower(s_);
    rep_.scratch_floats = k_.arena.scratch_floats;
    rep_.n_blocks = k_.n_blocks;
    // A size that already overflows makes every site's analysis garbage;
    // the setup violations say why.
    for (const std::string& what : k_.overflows) overflow_setup(what);
    if (k_.overflows.empty()) {
      stats_reset_sites();
      for (const LoweredStmt& st : k_.stmts) check_stmt(st);
    }
    finalize();
    return rep_;
  }

 private:
  /// Per-corner loop index values (num_loops <= 8 by InlineVec sizing).
  using Corner = std::array<std::int64_t, 8>;

  void overflow_setup(const std::string& what) {
    Violation viol;
    viol.kind = ViolationKind::IndexOverflow;
    viol.site = "setup";
    viol.buffer = what;
    viol.access = "size";
    viol.offset = INT64_MAX;
    viol.lo = 0;
    viol.hi = INT64_MAX;
    viol.message = "setup: " + what + " overflows i64";
    keep("setup|" + what, viol, kSat);
  }

  /// The per-block stats reset writes each softmax op's full stat span;
  /// checked like any site so the model stays total.
  void stats_reset_sites() {
    const std::int64_t tm = k_.arena.stat_rows;
    for (int op = 0; op < chain_.num_ops(); ++op) {
      const std::int64_t soff = k_.arena.stat[static_cast<std::size_t>(op)];
      if (soff < 0) continue;
      cur_site_ = "stats reset op " + std::to_string(op);
      const CInt base = CInt(k_.arena.arena_floats) + soff;
      rec_scratch(stat_name(op), "write", base, base + (2 * tm - 1),
                  clamp64(base), clamp64(base + 2 * tm), Corner{});
    }
  }

  /// Enumerates the corners of the statement's iteration box and runs
  /// the kind-specific evaluator at each: loop `l` spans its full extent
  /// where the statement ranges over it, else its index is pinned 0.
  void check_stmt(const LoweredStmt& st) {
    switch (st.kind) {
      case StmtKind::Load:
        cur_site_ = "load " + chain_.tensor(st.tensor).name;
        break;
      case StmtKind::Compute:
        cur_site_ = "compute op " + std::to_string(st.op);
        break;
      case StmtKind::Store:
        cur_site_ = "store " + chain_.tensor(st.tensor).name;
        break;
    }
    std::vector<int> free;
    for (int l = 0; l < chain_.num_loops(); ++l) {
      if (st.ranges(l) && k_.extent(l) > 1) free.push_back(l);
    }
    const std::size_t corners = static_cast<std::size_t>(1) << free.size();
    for (std::size_t mask = 0; mask < corners; ++mask) {
      Corner c{};
      for (std::size_t i = 0; i < free.size(); ++i) {
        if (mask & (static_cast<std::size_t>(1) << i)) {
          c[static_cast<std::size_t>(free[i])] = k_.extent(free[i]) - 1;
        }
      }
      switch (st.kind) {
        case StmtKind::Load: eval_load(st, c); break;
        case StmtKind::Compute: eval_compute(st, c); break;
        case StmtKind::Store: eval_store(st, c); break;
      }
    }
  }

  [[nodiscard]] std::string arena_name(int t) const {
    return "arena:" + chain_.tensor(t).name;
  }
  [[nodiscard]] static std::string stat_name(int op) {
    return "stats:op" + std::to_string(op);
  }

  /// A full-tile access of `r` at this corner.
  void rec_tile(const ArenaRef& r, const char* access, const Corner& c) {
    const CInt base = r.offset<CInt>(c);
    rec_scratch(arena_name(r.tensor), access, base, base + (r.tile_elems - 1),
                r.lo, r.hi, c);
  }

  // The load copies its global window into the arena tile.  On the fringe
  // path fr/fc are min-clamps that can reach (or pass) zero: a negative
  // fc starts the row write at dp[fc], a negative fr starts the zero-fill
  // at dst[fr*tc] — the model keeps those spans, which is exactly how
  // extent mutants are caught.
  void eval_load(const LoweredStmt& st, const Corner& c) {
    const GlobalTile& g = st.global;
    const std::int64_t tr = g.row.tile;
    const std::int64_t tc = g.col.tile;
    const std::int64_t cols = g.col.dim;
    const CInt r0 = g.row.start<CInt>(c);
    const CInt c0 = g.col.start<CInt>(c);
    if (g.exact) {
      rec_tile(st.tile, "write", c);
      rec_global(g, "read", r0 * cols + c0,
                 (r0 + (tr - 1)) * cols + c0 + (tc - 1), c);
      return;
    }
    const ArenaRef& a = st.tile;
    const CInt base = a.offset<CInt>(c);
    const CInt fr = g.row.valid<CInt>(c);
    const CInt fc = g.col.valid<CInt>(c);
    if (fr.v > 0) {
      // Interior rows r in [0, fr): dp[c] for c in [0,fc) then the
      // zero-fill [fc, tc) — the union always ends at tc-1 and starts
      // at min(fc, 0).
      rec_scratch(arena_name(a.tensor), "write", base + min(fc, 0),
                  base + ((fr - 1) * tc + (tc - 1)), a.lo, a.hi, c);
      if (fc.v > 0) {
        rec_global(g, "read", r0 * cols + c0,
                   (r0 + (fr - 1)) * cols + c0 + (fc - 1), c);
      }
    }
    if (fr.v < tr) {
      // Zero-fill rows r in [fr, tr): full-width writes, starting at
      // fr*tc — negative when fr < 0.
      rec_scratch(arena_name(a.tensor), "write", base + fr * tc,
                  base + (a.tile_elems - 1), a.lo, a.hi, c);
    }
  }

  // The register-blocked micro-kernel sweeps the full o/x/w tiles; the
  // epilogue runs iff the emitted `i<red> == red_ext-1` test is reachable
  // at this statement.
  void eval_compute(const LoweredStmt& st, const Corner& c) {
    rec_tile(st.out, "write", c);
    rec_tile(st.in, "read", c);
    rec_tile(st.w, "read", c);
    if (st.epilogue != Epilogue::OnlineSoftmax) return;
    if (!st.ranges(st.red) && st.red_ext != 1) return;
    // Online-softmax epilogue: running max/sum rows plus the consumer-
    // accumulator rescale.  `cons` is addressed from the tensor's region
    // base with NO slot term — the rescale walks every resident row of
    // the consumer tile block.
    const std::string save = cur_site_;
    cur_site_ = "softmax epilogue op " + std::to_string(st.op);
    const std::int64_t tm = st.tm;
    const CInt rmax = CInt(k_.arena.arena_floats) + st.stat;
    const CInt rsum = CInt(k_.arena.arena_floats) + st.rsum;
    const std::int64_t lo = clamp64(rmax);
    const std::int64_t hi = clamp64(rmax + 2 * tm);
    rec_scratch(stat_name(st.op), "write", rmax, rmax + (tm - 1), lo, hi, c);
    rec_scratch(stat_name(st.op), "write", rsum, rsum + (tm - 1), lo, hi, c);
    if (st.cons_rows > 0) {
      const CInt cons = k_.arena.lo(st.cons);
      rec_scratch(arena_name(st.cons), "write", cons,
                  cons + (st.cons_rows * st.cons_cols - 1),
                  k_.arena.lo(st.cons), k_.arena.hi(st.cons), c);
    }
    cur_site_ = save;
  }

  // Hoisted stores sweep the covered shadow loops (already folded into
  // the corner ranges); the fringe clamps gate both the row loop and the
  // column span, and the deferred softmax normalisation reads the
  // producer's rsum rows.
  void eval_store(const LoweredStmt& st, const Corner& c) {
    const GlobalTile& g = st.global;
    const ArenaRef& a = st.tile;
    const std::int64_t tc = g.col.tile;
    const std::int64_t cols = g.col.dim;
    const CInt base = a.offset<CInt>(c);
    const CInt r0 = g.row.start<CInt>(c);
    const CInt c0 = g.col.start<CInt>(c);
    const CInt fr = g.exact ? CInt(g.row.tile) : g.row.valid<CInt>(c);
    const CInt fc = g.exact ? CInt(tc) : g.col.valid<CInt>(c);
    if (fr.v <= 0) return;  // the emitted row loop does not run
    if (st.rsum >= 0) {
      const CInt rsum = CInt(k_.arena.arena_floats) + st.rsum;
      rec_scratch(stat_name(st.stat_op), "read", rsum, rsum + (fr - 1),
                  clamp64(rsum), clamp64(rsum + k_.arena.stat_rows), c);
    }
    // Column span: the exact non-normalize path memcpys the full tile;
    // every other path iterates c in [0, fc) and vanishes when fc <= 0.
    const CInt cc = (g.exact && st.rsum < 0) ? CInt(tc) : fc;
    if (cc.v <= 0) return;
    rec_scratch(arena_name(a.tensor), "read", base,
                base + ((fr - 1) * tc + (cc - 1)), a.lo, a.hi, c);
    rec_global(g, "write", r0 * cols + c0,
               (r0 + (fr - 1)) * cols + c0 + (cc - 1), c);
  }

  // ---- recording ----------------------------------------------------------

  void note_site(const std::string& buffer, const char* access) {
    sites_.insert(cur_site_ + "|" + buffer + "|" + access);
  }

  /// Scratch access spanning [lo, hi] (inclusive) against its own region
  /// [rlo, rhi).  Inside scratch but outside the region is aliasing;
  /// outside the allocation (or negative) is an overflow.
  void rec_scratch(const std::string& buffer, const char* access, CInt lo,
                   CInt hi, std::int64_t rlo, std::int64_t rhi,
                   const Corner& c) {
    note_site(buffer, access);
    if (!fits_i64(lo) || !fits_i64(hi)) {
      flag(ViolationKind::IndexOverflow, buffer, access,
           fits_i64(lo) ? hi : lo, rlo, rhi, c, 0);
      return;
    }
    if (lo.v < rlo) flag_scratch(buffer, access, lo, rlo, rhi, c);
    if (hi.v >= rhi) flag_scratch(buffer, access, hi, rlo, rhi, c);
  }

  void flag_scratch(const std::string& buffer, const char* access, CInt off,
                    std::int64_t rlo, std::int64_t rhi, const Corner& c) {
    const bool inside_scratch = off.v >= 0 && off.v < k_.arena.scratch_floats;
    flag(inside_scratch ? ViolationKind::RegionAlias
                        : ViolationKind::ScratchOverflow,
         buffer, access, off, rlo, rhi, c, 0);
  }

  /// Global access spanning slice offsets [lo, hi] (inclusive) against
  /// the per-batch slice [0, rows*cols); the allocation is
  /// batch * rows * cols, so the witness picks the worst batch index.
  void rec_global(const GlobalTile& g, const char* access, CInt lo, CInt hi,
                  const Corner& c) {
    const std::string buffer = g.name();
    note_site(buffer, access);
    const CInt total = CInt(chain_.batch()) * g.slice;
    if (!fits_i64(lo) || !fits_i64(hi)) {
      flag(ViolationKind::IndexOverflow, buffer, access,
           fits_i64(lo) ? hi : lo, 0, clamp64(total), c, 0);
      return;
    }
    if (lo.v < 0) {
      flag(ViolationKind::GlobalOutOfBounds, buffer, access, lo, 0,
           clamp64(total), c, 0);
    }
    if (hi.v >= g.slice) {
      // Worst block is in the last batch slice: absolute offset
      // (batch-1)*slice + hi against the allocation bound.
      const CInt abs = CInt(chain_.batch() - 1) * g.slice + hi;
      flag(ViolationKind::GlobalOutOfBounds, buffer, access, abs, 0,
           clamp64(total), c, chain_.batch() - 1);
    }
  }

  void flag(ViolationKind kind, const std::string& buffer, const char* access,
            CInt off, std::int64_t lo, std::int64_t hi, const Corner& c,
            std::int64_t batch_idx) {
    Violation v;
    v.kind = kind;
    v.site = cur_site_;
    v.buffer = buffer;
    v.access = access;
    v.block = witness_block(c, batch_idx);
    const int L = chain_.num_loops();
    v.indices.assign(c.begin(), c.begin() + L);
    v.offset = clamp64(off);
    v.lo = lo;
    v.hi = hi;
    std::ostringstream msg;
    msg << cur_site_ << ": " << access << " of " << buffer << " at offset "
        << v.offset << " outside [" << lo << ", " << hi << ") ("
        << violation_kind_name(kind) << "; block " << v.block << ",";
    for (int l = 0; l < L; ++l) {
      msg << " i" << l << "=" << v.indices[static_cast<std::size_t>(l)];
    }
    msg << ")";
    v.message = msg.str();
    // Excess = distance outside the range: the worst corner wins the
    // witness slot for this (site, buffer, kind, access).
    const __int128 excess =
        off.v >= hi ? off.v - hi : (off.v < lo ? static_cast<__int128>(lo) - off.v
                                               : 0);
    keep(cur_site_ + "|" + buffer + "|" + access + "|" +
             violation_kind_name(kind),
         v, excess);
  }

  void keep(const std::string& key, Violation v, __int128 excess) {
    for (auto& kv : worst_) {
      if (kv.key == key) {
        if (excess > kv.excess) {
          kv.excess = excess;
          kv.v = std::move(v);
        }
        return;
      }
    }
    worst_.push_back({key, excess, std::move(v)});
  }

  /// Block id of a witness: the inverse of the lowered block decode
  /// (batch outermost, then the block loops outermost first).
  [[nodiscard]] std::int64_t witness_block(const Corner& c,
                                           std::int64_t batch_idx) const {
    CInt blk = batch_idx;
    for (auto it = k_.decode.rbegin(); it != k_.decode.rend(); ++it) {
      blk = blk * k_.extent(*it) + c[static_cast<std::size_t>(*it)];
    }
    return clamp64(blk);
  }

  void finalize() {
    rep_.sites_checked = static_cast<int>(sites_.size());
    for (auto& kv : worst_) rep_.violations.push_back(std::move(kv.v));
  }

  struct Kept {
    std::string key;
    __int128 excess;
    Violation v;
  };

  const Schedule& s_;
  const ChainSpec& chain_;
  LoweredKernel k_;
  VerifyReport rep_;
  std::string cur_site_;
  std::set<std::string> sites_;
  std::vector<Kept> worst_;
};

}  // namespace

const char* violation_kind_name(ViolationKind k) noexcept {
  switch (k) {
    case ViolationKind::ScratchOverflow: return "scratch-overflow";
    case ViolationKind::RegionAlias: return "region-alias";
    case ViolationKind::GlobalOutOfBounds: return "global-out-of-bounds";
    case ViolationKind::IndexOverflow: return "index-overflow";
  }
  return "unknown";
}

std::string Violation::to_json() const {
  return JsonWriter().object()
      .field("kind", violation_kind_name(kind)).field("site", site)
      .field("buffer", buffer).field("access", access).field("block", block)
      .key("indices").integers(indices)
      .field("offset", offset).field("lo", lo).field("hi", hi)
      .field("message", message)
      .end().str();
}

std::string VerifyReport::to_json() const {
  JsonWriter w;
  w.object().field("checked", checked);
  if (!skip_reason.empty()) w.field("skip_reason", skip_reason);
  w.field("safe", safe()).field("n_blocks", n_blocks)
      .field("scratch_floats", scratch_floats)
      .field("sites_checked", sites_checked)
      .key("violations").array();
  for (const Violation& v : violations) w.raw(v.to_json());
  w.end().end();
  return w.str();
}

VerifyReport verify_schedule(const Schedule& s) { return Verifier(s).run(); }

bool verify_enabled() {
#ifdef NDEBUG
  constexpr bool kDefault = false;
#else
  constexpr bool kDefault = true;
#endif
  return env::bool_flag("MCFUSER_VERIFY", kDefault);
}

std::string verify_gate_error(const Schedule& s) {
  const VerifyReport rep = verify_schedule(s);
  if (!rep.checked || rep.safe()) return {};
  return std::string(kGateErrorPrefix) + rep.violations.front().message;
}

}  // namespace verify
}  // namespace mcf

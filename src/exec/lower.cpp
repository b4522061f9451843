#include "exec/lower.hpp"

#include <limits>

#include "support/logging.hpp"

namespace mcf {

namespace {

/// i64 arithmetic that wraps like the emitted kernel's literals would,
/// without UB, and remembers whether it did.
struct Checked {
  std::int64_t v = 0;
  bool ovf = false;
};

[[nodiscard]] Checked operator+(Checked a, Checked b) {
  Checked r;
  r.ovf = __builtin_add_overflow(a.v, b.v, &r.v) || a.ovf || b.ovf;
  return r;
}

[[nodiscard]] Checked operator*(Checked a, Checked b) {
  Checked r;
  r.ovf = __builtin_mul_overflow(a.v, b.v, &r.v) || a.ovf || b.ovf;
  return r;
}

[[nodiscard]] std::int64_t saturated(Checked c) {
  return c.ovf ? std::numeric_limits<std::int64_t>::max() : c.v;
}

[[nodiscard]] Checked tile_elems(const Schedule& s, int t) {
  Checked elems{1};
  for (const int l : s.chain().tensor(t).loops) {
    elems = elems * Checked{s.tiles()[static_cast<std::size_t>(l)]};
  }
  return elems;
}

[[nodiscard]] Checked region_floats(const Schedule& s, int t) {
  return tile_elems(s, t) *
         Checked{s.resident_tiles()[static_cast<std::size_t>(t)]};
}

class Lowering {
 public:
  explicit Lowering(const Schedule& s) : s_(s), chain_(s.chain()) {}

  LoweredKernel run() {
    k_.chain = &chain_;
    k_.arena = plan_arena(s_, &k_.overflows);
    k_.extents = s_.extents();
    Checked blocks{chain_.batch()};
    std::uint32_t active = 0;
    for (const int l : s_.block_loops()) {
      blocks = blocks * Checked{ext(l)};
      active |= bit(l);
      k_.decode.insert(k_.decode.begin(), l);
    }
    if (blocks.ovf) k_.overflows.emplace_back("block count");
    k_.n_blocks = saturated(blocks);
    // batch*rows*cols of every externally visible tensor is a literal in
    // the emitted pointer arithmetic.
    for (int t = 0; t < chain_.num_tensors(); ++t) {
      const auto& info = chain_.tensor(t);
      if (info.kind == TensorKind::Intermediate) continue;
      const Checked total = Checked{chain_.batch()} *
                            (Checked{chain_.loop_dim(info.loops[0])} *
                             Checked{chain_.loop_dim(info.loops[1])});
      if (total.ovf) {
        k_.overflows.push_back("tensor " + info.name +
                               " extent (batch*rows*cols)");
      }
    }
    k_.nodes.reserve(static_cast<std::size_t>(s_.num_nodes()));
    k_.stmts.reserve(static_cast<std::size_t>(s_.num_nodes()));
    lower_node(s_.root(), active);
    return std::move(k_);
  }

 private:
  [[nodiscard]] static std::uint32_t bit(int l) {
    return 1u << static_cast<unsigned>(l);
  }
  [[nodiscard]] std::int64_t ext(int l) const {
    return s_.extents()[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] std::int64_t tile(int l) const {
    return s_.tiles()[static_cast<std::size_t>(l)];
  }

  /// Appends `node`'s subtree in preorder; `active` holds the loops whose
  /// indices range at this point.  Returns the lowered node's index.
  int lower_node(int node, std::uint32_t active) {
    const auto& n = s_.node(node);
    const auto idx = k_.nodes.size();
    k_.nodes.emplace_back();
    if (n.is_stmt) {
      k_.nodes[idx].stmt = static_cast<int>(k_.stmts.size());
      k_.stmts.push_back(lower_stmt(n.stmt, active));
      return static_cast<int>(idx);
    }
    k_.nodes[idx].loop = n.loop;
    if (n.loop >= 0) active |= bit(n.loop);
    for (const int c : n.children) {
      const int child = lower_node(c, active);
      k_.nodes[idx].children.push_back(child);
    }
    return static_cast<int>(idx);
  }

  [[nodiscard]] ArenaRef arena_ref(int t) const {
    ArenaRef r{t, k_.arena.lo(t), k_.arena.hi(t), {}, {},
               tile_elems(s_, t).v};
    for (const int l : s_.resident_loops(t)) {
      r.loops.push_back(l);
      r.radix.push_back(ext(l));
    }
    return r;
  }

  [[nodiscard]] LoweredStmt lower_stmt(const Statement& st,
                                       std::uint32_t active) const {
    LoweredStmt out;
    out.kind = st.kind;
    out.ranging = active;
    if (st.kind == StmtKind::Compute) {
      lower_compute(st.op, out);
      return out;
    }
    const int t = st.tensor;
    const auto& info = chain_.tensor(t);
    out.tensor = t;
    out.tile = arena_ref(t);
    GlobalTile& g = out.global;
    const int lr = info.loops[0];
    const int lc = info.loops[1];
    g.row = {lr, tile(lr), chain_.loop_dim(lr)};
    g.col = {lc, tile(lc), chain_.loop_dim(lc)};
    g.slice = (Checked{g.row.dim} * Checked{g.col.dim}).v;
    g.exact = g.row.dim % g.row.tile == 0 && g.col.dim % g.col.tile == 0;
    if (st.kind == StmtKind::Load) {
      MCF_CHECK(info.kind == TensorKind::Input ||
                info.kind == TensorKind::Weight)
          << "load of non-input tensor";
      g.buf = info.kind == TensorKind::Input ? GlobalBuf::Input
                                             : GlobalBuf::Weight;
      if (g.buf == GlobalBuf::Weight) g.weight = info.consumer_op;
      return out;
    }
    MCF_CHECK(info.kind == TensorKind::Output) << "store of non-output tensor";
    g.buf = GlobalBuf::Output;
    for (const int l : st.covered_loops) {
      out.covered.push_back(l);
      out.ranging |= bit(l);
    }
    // Division by the softmax running sum is deferred to the store (the
    // FlashAttention final normalisation).
    const int producer = info.producer_op;
    if (producer > 0 &&
        chain_.epilogue(producer - 1) == Epilogue::OnlineSoftmax) {
      set_stats(producer - 1, out);
    }
    return out;
  }

  void lower_compute(int op, LoweredStmt& out) const {
    out.op = op;
    out.in = arena_ref(chain_.op_input_tensor(op));
    out.w = arena_ref(chain_.op_weight_tensor(op));
    out.out = arena_ref(chain_.op_output_tensor(op));
    out.red = chain_.reduction_loop(op);
    out.red_ext = ext(out.red);
    out.col = chain_.out_col_loop(op);
    out.tm = tile(0);
    out.trd = tile(out.red);
    out.tcl = tile(out.col);
    out.epilogue = chain_.epilogue(op);
    if (out.epilogue != Epilogue::OnlineSoftmax) return;
    MCF_CHECK(op + 1 < chain_.num_ops())
        << "online softmax requires a consumer operator";
    set_stats(op, out);
    out.valid_cols = chain_.loop_dim(out.col);
    out.scale = chain_.softmax_scale();
    out.cons = chain_.op_output_tensor(op + 1);
    out.cons_cols = tile(chain_.out_col_loop(op + 1));
    out.cons_rows = region_floats(s_, out.cons).v / out.cons_cols;
  }

  void set_stats(int op, LoweredStmt& out) const {
    out.stat_op = op;
    out.stat = k_.arena.stat[static_cast<std::size_t>(op)];
    out.rsum = (Checked{out.stat} + Checked{k_.arena.stat_rows}).v;
  }

  const Schedule& s_;
  const ChainSpec& chain_;
  LoweredKernel k_;
};

}  // namespace

ArenaPlan plan_arena(const Schedule& s, std::vector<std::string>* overflows) {
  const ChainSpec& chain = s.chain();
  ArenaPlan p;
  Checked off;
  p.region.push_back(0);
  for (int t = 0; t < chain.num_tensors(); ++t) {
    off = off + region_floats(s, t);
    if (off.ovf && overflows != nullptr) {
      overflows->push_back("scratch arena size (tensor " +
                           chain.tensor(t).name + ")");
    }
    p.region.push_back(off.v);
  }
  p.stat_rows = s.tiles()[0];
  Checked stats;
  for (int op = 0; op < chain.num_ops(); ++op) {
    const bool softmax = chain.epilogue(op) == Epilogue::OnlineSoftmax;
    p.stat.push_back(softmax ? stats.v : -1);
    if (softmax) stats = stats + Checked{2} * Checked{p.stat_rows};
  }
  const Checked total = off + stats;
  if (total.ovf && overflows != nullptr) {
    overflows->emplace_back("scratch floats");
  }
  p.arena_floats = off.v;
  p.stat_floats = stats.v;
  p.scratch_floats = saturated(total);
  return p;
}

std::string GlobalTile::name() const {
  switch (buf) {
    case GlobalBuf::Input: return "ga";
    case GlobalBuf::Weight: return "gw[" + std::to_string(weight) + "]";
    case GlobalBuf::Output: return "gout";
  }
  return "?";
}

std::vector<const ArenaRef*> LoweredStmt::arena_refs() const {
  if (kind == StmtKind::Compute) return {&in, &w, &out};
  return {&tile};
}

LoweredKernel lower(const Schedule& s) {
  MCF_CHECK(s.valid()) << "cannot lower an invalid schedule";
  MCF_CHECK(s.consume_complete())
      << "schedule reads partial tiles (Rule-2 violation); refusing to lower";
  return Lowering(s).run();
}

}  // namespace mcf

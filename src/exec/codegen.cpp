#include "exec/codegen.hpp"

#include <algorithm>
#include <initializer_list>
#include <iomanip>
#include <sstream>
#include <vector>

#include "exec/lower.hpp"
#include "support/logging.hpp"

namespace mcf {

namespace {

void emit_node(const Schedule& s, int idx, int depth, std::ostringstream& os) {
  const auto& n = s.node(idx);
  const std::string ind(static_cast<std::size_t>(depth) * 4, ' ');
  if (n.is_stmt) {
    const Statement& st = n.stmt;
    const ChainSpec& chain = s.chain();
    switch (st.kind) {
      case StmtKind::Load: {
        const auto& info = chain.tensor(st.tensor);
        os << ind << "smem_" << info.name << " = tl.load(" << info.name
           << "_ptr + tile_offset(";
        for (std::size_t i = 0; i < info.loops.size(); ++i) {
          if (i) os << ", ";
          os << chain.loop_name(info.loops[i]);
        }
        os << "))\n";
        break;
      }
      case StmtKind::Compute: {
        const int op = st.op;
        const auto& out = chain.tensor(chain.op_output_tensor(op));
        const auto& in = chain.tensor(chain.op_input_tensor(op));
        const auto& w = chain.tensor(chain.op_weight_tensor(op));
        os << ind << "acc_" << out.name << " += tl.dot(smem_" << in.name
           << ", smem_" << w.name << ")";
        if (chain.epilogue(op) == Epilogue::OnlineSoftmax) {
          os << "  # + online-softmax epilogue (running max/sum, rescale)";
        } else if (chain.epilogue(op) == Epilogue::Relu) {
          os << "  # + relu epilogue";
        } else if (chain.epilogue(op) == Epilogue::Gelu) {
          os << "  # + gelu epilogue";
        }
        os << "\n";
        break;
      }
      case StmtKind::Store: {
        const auto& info = chain.tensor(st.tensor);
        os << ind << "tl.store(" << info.name << "_ptr + tile_offset(...), acc_"
           << info.name << ")";
        if (!st.covered_loops.empty()) {
          os << "  # covers all resident tiles of:";
          for (const int l : st.covered_loops) os << " " << chain.loop_name(l);
        }
        os << "\n";
        break;
      }
    }
    return;
  }
  int next = depth;
  if (n.loop >= 0) {
    os << ind << "for " << s.chain().loop_name(n.loop) << " in range("
       << s.extents()[static_cast<std::size_t>(n.loop)]
       << "):  # tile " << s.tiles()[static_cast<std::size_t>(n.loop)] << "\n";
    next = depth + 1;
  }
  for (const int c : n.children) emit_node(s, c, next, os);
}

}  // namespace

std::string emit_kernel_source(const Schedule& s, const GpuSpec& gpu) {
  MCF_CHECK(s.valid()) << "cannot emit an invalid schedule";
  const ChainSpec& chain = s.chain();
  std::ostringstream os;
  os << "# mcfuser generated kernel for " << chain.name() << " on " << gpu.name
     << "\n";
  os << "# blocks = " << s.num_blocks() << " (batch " << chain.batch();
  for (const int l : s.block_loops()) {
    os << " x " << chain.loop_name(l) << "="
       << s.extents()[static_cast<std::size_t>(l)];
  }
  os << ")\n";
  const SmemPlan plan = plan_smem(s);
  os << "# shared memory: " << plan.total_bytes << " bytes\n";
  os << "@triton.jit\n";
  os << "def fused_" << chain.name() << "_kernel(";
  for (int t = 0; t < chain.num_tensors(); ++t) {
    const auto& info = chain.tensor(t);
    if (info.kind == TensorKind::Input || info.kind == TensorKind::Weight ||
        info.kind == TensorKind::Output) {
      os << info.name << "_ptr, ";
    }
  }
  os << "...):\n";
  // blockIdx decode.
  os << "    pid = tl.program_id(0)\n";
  for (const int l : s.block_loops()) {
    os << "    " << chain.loop_name(l) << " = decode(pid, '"
       << chain.loop_name(l) << "')\n";
  }
  emit_node(s, s.root(), 1, os);
  return os.str();
}

// ---- C++ lowering -----------------------------------------------------------
//
// The emitted function prints exec/lower's LoweredKernel statement for
// statement — the same kernel the interpreter executes and the verifier
// checks — with every extent, tile size and arena offset folded to a
// literal.  Loop index variables are i<loop-id>; hoisted stores iterate
// covered loops through shadow variables q<loop-id>.

namespace {

class CppEmitter {
 public:
  CppEmitter(const Schedule& s, std::string symbol)
      : k_(lower(s)), chain_(s.chain()), symbol_(std::move(symbol)) {}

  [[nodiscard]] CppKernelSource emit() {
    os_ << "extern \"C\" void " << symbol_
        << "(const float* __restrict ga, const float* const* __restrict gw,\n"
        << "    float* __restrict gout, float* __restrict scratch,\n"
        << "    i64 block_begin, i64 block_end) {\n";
    os_ << "  float* const arena = scratch;\n";
    if (k_.arena.stat_floats > 0) {
      os_ << "  float* const stats = scratch + " << k_.arena.arena_floats
          << ";\n";
    }
    os_ << "  for (i64 blk = block_begin; blk < block_end; ++blk) {\n";
    for (int l = 0; l < chain_.num_loops(); ++l) {
      os_ << "    i64 i" << l << " = 0; (void)i" << l << ";\n";
    }
    os_ << "    i64 rem = blk;\n";
    for (const int l : k_.decode) {
      os_ << "    i" << l << " = rem % " << k_.extent(l) << "; rem /= "
          << k_.extent(l) << ";\n";
    }
    os_ << "    const i64 b = rem;\n";
    // Online-softmax running stats reset once per block.
    const std::int64_t tm = k_.arena.stat_rows;
    for (const std::int64_t off : k_.arena.stat) {
      if (off < 0) continue;
      os_ << "    for (i64 r = 0; r < " << tm << "; ++r) { stats[" << off
          << " + r] = -INFINITY; stats[" << off + tm << " + r] = 0.0f; }\n";
    }
    emit_node(0, 2);
    os_ << "  }\n";
    os_ << "}\n";
    return CppKernelSource{symbol_, os_.str(), std::move(inst_)};
  }

 private:
  [[nodiscard]] static std::string flit(float v) {
    // Hex float literal: exact round trip of the emit-time value.
    std::ostringstream os;
    os << std::hexfloat << static_cast<double>(v) << "f";
    return os.str();
  }

  [[nodiscard]] std::string ind(int depth) const {
    return std::string(static_cast<std::size_t>(depth) * 2, ' ');
  }

  /// Index variable of loop `l`: the covered-loop shadow inside a hoisted
  /// store, the block/tree variable otherwise.
  [[nodiscard]] static std::string idx_var(int l,
                                           const InlineVec<int, 6>& covered) {
    const bool is_covered =
        std::find(covered.begin(), covered.end(), l) != covered.end();
    return (is_covered ? "q" : "i") + std::to_string(l);
  }

  /// ArenaRef::offset as C++: region base + the resident-loop mixed radix.
  [[nodiscard]] static std::string buf_expr(const ArenaRef& r,
                                            const InlineVec<int, 6>& covered) {
    std::string slot;
    for (std::size_t j = 0; j < r.loops.size(); ++j) {
      slot = slot.empty() ? idx_var(r.loops[j], covered)
                          : "(" + slot + ")*" + std::to_string(r.radix[j]) +
                                " + " + idx_var(r.loops[j], covered);
    }
    std::string out = std::to_string(r.lo);
    if (!slot.empty()) {
      out += " + (" + slot + ")*" + std::to_string(r.tile_elems);
    }
    return out;
  }

  /// Clamp::valid as C++, with the tile start held in variable `start`.
  [[nodiscard]] static std::string clamp_expr(const Clamp& c,
                                              const char* start) {
    std::ostringstream os;
    os << c.dim << " - " << start << " < " << c.tile << " ? " << c.dim
       << " - " << start << " : " << c.tile;
    return os.str();
  }

  void emit_node(int node, int depth) {
    const LoweredNode& n = k_.nodes[static_cast<std::size_t>(node)];
    if (n.stmt >= 0) {
      const LoweredStmt& st = k_.stmts[static_cast<std::size_t>(n.stmt)];
      switch (st.kind) {
        case StmtKind::Load: emit_load(st, depth); break;
        case StmtKind::Compute: emit_compute(st, depth); break;
        case StmtKind::Store: emit_store(st, depth); break;
      }
      return;
    }
    int next = depth;
    if (n.loop >= 0) {
      os_ << ind(depth) << "for (i" << n.loop << " = 0; i" << n.loop << " < "
          << k_.extent(n.loop) << "; ++i" << n.loop << ") {\n";
      next = depth + 1;
    }
    for (const int c : n.children) emit_node(c, next);
    if (n.loop >= 0) {
      os_ << ind(depth) << "}\n";
      os_ << ind(depth) << "i" << n.loop << " = 0;\n";
    }
  }

  /// Tile copy from global memory into the arena, fringe handling
  /// included.  When the tile divides the dimension exactly the fringe
  /// vanishes at emit time and the copy is a straight full-tile loop.
  void emit_load(const LoweredStmt& st, int depth) {
    const GlobalTile& g = st.global;
    const std::int64_t tr = g.row.tile;
    const std::int64_t tc = g.col.tile;
    const std::string in = ind(depth);

    os_ << in << "{ // load " << chain_.tensor(st.tensor).name << "\n";
    os_ << in << "  float* __restrict dst = arena + "
        << buf_expr(st.tile, st.covered) << ";\n";
    os_ << in << "  const float* __restrict src = " << g.name() << " + b*"
        << g.slice << ";\n";
    os_ << in << "  const i64 r0 = i" << g.row.loop << "*" << tr << ", c0 = i"
        << g.col.loop << "*" << tc << ";\n";
    if (g.exact) {
      os_ << in << "  for (i64 r = 0; r < " << tr << "; ++r) {\n";
      os_ << in << "    memcpy(dst + r*" << tc << ", src + (r0 + r)*"
          << g.col.dim << " + c0, " << tc << "*sizeof(float));\n";
      os_ << in << "  }\n";
    } else {
      os_ << in << "  const i64 fr = " << clamp_expr(g.row, "r0") << ";\n";
      os_ << in << "  const i64 fc = " << clamp_expr(g.col, "c0") << ";\n";
      os_ << in << "  for (i64 r = 0; r < fr; ++r) {\n";
      os_ << in << "    const float* __restrict sp = src + (r0 + r)*"
          << g.col.dim << " + c0;\n";
      os_ << in << "    float* __restrict dp = dst + r*" << tc << ";\n";
      os_ << in << "    for (i64 c = 0; c < fc; ++c) dp[c] = sp[c];\n";
      os_ << in << "    for (i64 c = fc; c < " << tc << "; ++c) dp[c] = 0.0f;\n";
      os_ << in << "  }\n";
      os_ << in << "  for (i64 r = fr; r < " << tr << "; ++r) {\n";
      os_ << in << "    float* __restrict dp = dst + r*" << tc << ";\n";
      os_ << in << "    for (i64 c = 0; c < " << tc << "; ++c) dp[c] = 0.0f;\n";
      os_ << in << "  }\n";
    }
    os_ << in << "}\n";
  }

  void emit_compute(const LoweredStmt& st, int depth) {
    const std::string in = ind(depth);
    os_ << in << "{ // compute op " << st.op << "\n";
    os_ << in << "  float* __restrict o = arena + " << buf_expr(st.out, st.covered)
        << ";\n";
    os_ << in << "  const float* __restrict x = arena + "
        << buf_expr(st.in, st.covered) << ";\n";
    os_ << in << "  const float* __restrict w = arena + "
        << buf_expr(st.w, st.covered) << ";\n";
    // The prelude's one GEMM micro-kernel (4 x 64 register blocks of
    // vectors as wide as the ISA macros allow), specialised on the tile
    // shape; the accumulators restart at zero when the reduction does.
    os_ << in << "  "
        << instantiate("mcf_gemm_tile", {st.tm, st.tcl, st.trd},
                       "(float* __restrict, const float* __restrict, "
                       "const float* __restrict, bool)")
        << "(o, x, w, i" << st.red << " == 0);\n";
    // Producer-completion hook: epilogue when the reduction finishes.
    if (st.epilogue != Epilogue::None) {
      os_ << in << "  if (i" << st.red << " == " << st.red_ext - 1 << ") {\n";
      emit_epilogue(st, depth + 2);
      os_ << in << "  }\n";
    }
    os_ << in << "}\n";
  }

  /// Emitted inside the compute scope: `o` is the op's accumulator tile.
  /// One call into the prelude's epilogue helpers, with literal arguments.
  void emit_epilogue(const LoweredStmt& st, int depth) {
    const std::string in = ind(depth);
    if (st.epilogue == Epilogue::Relu || st.epilogue == Epilogue::Gelu) {
      os_ << in << (st.epilogue == Epilogue::Relu ? "mcf_relu" : "mcf_gelu")
          << "(o, " << st.out.tile_elems << ");\n";
      return;
    }
    // Online softmax over the streamed `col` dimension, with the
    // consumer-accumulator rescale.
    os_ << in
        << instantiate("mcf_softmax_tile",
                       {st.tm, st.tcl, st.valid_cols, st.cons_rows,
                        st.cons_cols},
                       "(float* __restrict, float* __restrict, "
                       "float* __restrict, float* __restrict, i64, float)")
        << "(o, stats + " << st.stat << ", stats + " << st.rsum << ", arena + "
        << k_.arena.lo(st.cons) << ", i" << st.col << "*" << st.tcl << ", "
        << flit(st.scale) << ");\n";
  }

  /// The template-id `name<args...>` of a prelude tile routine the kernel
  /// calls; records its declarator (parameter list `params`) once.
  [[nodiscard]] std::string instantiate(
      const char* name, std::initializer_list<std::int64_t> args,
      const char* params) {
    std::string id = std::string(name) + "<";
    for (const std::int64_t a : args) {
      if (id.back() != '<') id += ", ";
      id += std::to_string(a);
    }
    id += ">";
    std::string decl = "void " + id + params;
    if (std::find(inst_.begin(), inst_.end(), decl) == inst_.end()) {
      inst_.push_back(std::move(decl));
    }
    return id;
  }

  void emit_store(const LoweredStmt& st, int depth) {
    const GlobalTile& g = st.global;
    const std::int64_t tr = g.row.tile;
    const std::int64_t tc = g.col.tile;
    const std::string in = ind(depth);

    os_ << in << "{ // store " << chain_.tensor(st.tensor).name << "\n";
    if (st.rsum >= 0) {
      // Deferred softmax normalisation (the FlashAttention final divide).
      os_ << in << "  const float* __restrict rsum = stats + " << st.rsum
          << ";\n";
    }
    // Hoisted stores write every resident tile: one emitted loop per
    // covered loop, shadow indices q<l>.
    int extra = 0;
    for (const int l : st.covered) {
      os_ << ind(depth + 1 + extra) << "for (i64 q" << l << " = 0; q" << l
          << " < " << k_.extent(l) << "; ++q" << l << ") {\n";
      ++extra;
    }
    const std::string bn = ind(depth + 1 + extra);
    os_ << bn << "const float* __restrict src = arena + "
        << buf_expr(st.tile, st.covered) << ";\n";
    os_ << bn << "const i64 r0 = " << idx_var(g.row.loop, st.covered) << "*"
        << tr << ", c0 = " << idx_var(g.col.loop, st.covered) << "*" << tc
        << ";\n";
    if (!g.exact) {
      os_ << bn << "const i64 fr = " << clamp_expr(g.row, "r0") << ";\n";
      os_ << bn << "const i64 fc = " << clamp_expr(g.col, "c0") << ";\n";
    }
    const std::string fr = g.exact ? std::to_string(tr) : "fr";
    const std::string fc = g.exact ? std::to_string(tc) : "fc";
    os_ << bn << "for (i64 r = 0; r < " << fr << "; ++r) {\n";
    os_ << bn << "  const float* __restrict sp = src + r*" << tc << ";\n";
    os_ << bn << "  float* __restrict dp = " << g.name() << " + b*" << g.slice
        << " + (r0 + r)*" << g.col.dim << " + c0;\n";
    if (st.rsum >= 0) {
      os_ << bn << "  const float inv = 1.0f / (rsum[r] < 1e-30f ? 1e-30f : "
          << "rsum[r]);\n";
      os_ << bn << "  for (i64 c = 0; c < " << fc
          << "; ++c) dp[c] = sp[c] * inv;\n";
    } else if (g.exact) {
      os_ << bn << "  memcpy(dp, sp, " << tc << "*sizeof(float));\n";
    } else {
      os_ << bn << "  for (i64 c = 0; c < " << fc << "; ++c) dp[c] = sp[c];\n";
    }
    os_ << bn << "}\n";
    for (int j = extra - 1; j >= 0; --j) os_ << ind(depth + 1 + j) << "}\n";
    os_ << in << "}\n";
  }

  const LoweredKernel k_;
  const ChainSpec& chain_;
  std::string symbol_;
  std::ostringstream os_;
  std::vector<std::string> inst_;  ///< prelude instantiations, in call order
};

}  // namespace

// Generated by CMake from src/exec/kernel_prelude.inc.
extern const char kKernelPreludeText[];

// The prelude includes no header: it declares exactly the libc functions
// the TU calls, memcpy and floorf.  In C++ mode <math.h> and <stdlib.h>
// pull in libstdc++'s <cmath> and <cstdlib>, and parsing them cost about
// 40% of every cold kernel compile.  The declarations match glibc's C++
// prototypes (noexcept, as glibc's __THROW), so GCC binds them to the
// same builtins and the machine code does not change.  A call to anything
// else must be declared here too — JitCompile.KernelSourceNeedsNoSystemHeader
// (tests/exec/test_jit.cpp) compiles every epilogue's kernel with
// -nostdinc to hold the rule.  The helpers follow, verbatim from
// kernel_prelude.inc.
std::string cpp_kernel_prelude() {
  std::string out =
      "// generated by mcfuser exec/codegen (C++ lowering)\n"
      "typedef __SIZE_TYPE__ size_t;\n"
      "extern \"C\" {\n"
      "void* memcpy(void* __restrict, const void* __restrict, size_t) "
      "noexcept;\n"
      "float floorf(float) noexcept;\n"
      "}\n"
      "#define INFINITY (__builtin_inff())\n"
      "typedef long long i64;\n"
      "\n";
  out += kKernelPreludeText;
  return out;
}

std::int64_t cpp_kernel_scratch_floats(const Schedule& s) {
  return plan_arena(s).scratch_floats;
}

CppKernelSource emit_cpp_kernel(const Schedule& s, const std::string& symbol) {
  return CppEmitter(s, symbol).emit();
}

}  // namespace mcf

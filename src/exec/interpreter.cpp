#include "exec/interpreter.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "dag/volume.hpp"
#include "support/logging.hpp"
#include "support/thread_pool.hpp"

namespace mcf {

namespace kernel {
typedef long long i64;
#include "exec/kernel_prelude.inc"
}  // namespace kernel

namespace {

/// Reusable per-worker-slot execution state.  One Scratch lives per thread
/// pool slot for the whole kernel run: blocks executing on the same slot
/// reuse its allocations, so the steady-state hot path performs no heap
/// allocation at all.  `scratch` has the jit kernel's layout (exec/lower
/// ArenaPlan): every tile region, then the online-softmax running stats.
struct alignas(64) Scratch {
  std::int64_t batch = 0;
  std::vector<std::int64_t> idx;   // current tile index per loop
  std::vector<float> scratch;
  ExecutionCounters* acc = nullptr;  // counter sink of the current block
};

class BlockExecutor {
 public:
  BlockExecutor(const LoweredKernel& k, const InterpreterOptions& opt,
                const Tensor& a, std::span<const Tensor> weights, Tensor& out)
      : k_(k), chain_(*k.chain), opt_(opt), a_(a), weights_(weights), out_(out) {}

  /// Executes one simulated thread block on the given slot scratch,
  /// folding dynamic counters into `counters`.
  void run_block(std::int64_t block_id, Scratch& st,
                 ExecutionCounters& counters) const {
    st.acc = &counters;
    prepare(st);
    decode_block(block_id, st);
    exec_node(0, st);
  }

 private:
  /// Readies the scratch for a fresh block: allocates on a slot's first
  /// block (the only heap traffic of the whole run), then only resets the
  /// softmax running stats.  The tile arena needs no blanket zeroing:
  /// loads overwrite their full tile (padded fringe included) before any
  /// read, and accumulator tiles are zeroed when their reduction restarts
  /// — consume-completeness (checked by lower()) guarantees no other
  /// read-before-write exists.
  void prepare(Scratch& st) const {
    const auto floats = static_cast<std::size_t>(k_.arena.scratch_floats);
    if (st.scratch.size() != floats) {
      st.scratch.assign(floats, 0.0f);
      st.idx.resize(static_cast<std::size_t>(chain_.num_loops()));
    }
    const std::int64_t tm = k_.arena.stat_rows;
    for (const std::int64_t off : k_.arena.stat) {
      if (off < 0) continue;
      float* stat = stats(st) + off;
      std::fill_n(stat, tm, -std::numeric_limits<float>::infinity());
      std::fill_n(stat + tm, tm, 0.0f);
    }
  }

  [[nodiscard]] float* stats(Scratch& st) const {
    return st.scratch.data() + k_.arena.arena_floats;
  }
  [[nodiscard]] static float* tile(const ArenaRef& r, Scratch& st,
                                   const std::vector<std::int64_t>& idx) {
    return st.scratch.data() + r.offset<std::int64_t>(idx);
  }

  void decode_block(std::int64_t block_id, Scratch& st) const {
    std::fill(st.idx.begin(), st.idx.end(), 0);
    std::int64_t rem = block_id;
    for (const int l : k_.decode) {
      st.idx[static_cast<std::size_t>(l)] = rem % k_.extent(l);
      rem /= k_.extent(l);
    }
    st.batch = rem;
    MCF_CHECK(st.batch < chain_.batch()) << "block id out of range";
  }

  void exec_node(int node, Scratch& st) const {
    const LoweredNode& n = k_.nodes[static_cast<std::size_t>(node)];
    if (n.stmt >= 0) {
      const LoweredStmt& stmt = k_.stmts[static_cast<std::size_t>(n.stmt)];
      st.acc->stmt_trips += 1.0;
      switch (stmt.kind) {
        case StmtKind::Load: exec_load(stmt, st); break;
        case StmtKind::Compute: exec_compute(stmt, st); break;
        case StmtKind::Store: exec_store(stmt, st); break;
      }
      return;
    }
    if (n.loop < 0) {
      for (const int c : n.children) exec_node(c, st);
      return;
    }
    const std::int64_t e = k_.extent(n.loop);
    for (std::int64_t i = 0; i < e; ++i) {
      st.idx[static_cast<std::size_t>(n.loop)] = i;
      for (const int c : n.children) exec_node(c, st);
    }
    st.idx[static_cast<std::size_t>(n.loop)] = 0;
  }

  void exec_load(const LoweredStmt& stmt, Scratch& st) const {
    const GlobalTile& g = stmt.global;
    const Tensor& src = g.buf == GlobalBuf::Input
                            ? a_
                            : weights_[static_cast<std::size_t>(g.weight)];
    const std::int64_t tr = g.row.tile;
    const std::int64_t tc = g.col.tile;
    const std::int64_t r0 = g.row.start<std::int64_t>(st.idx);
    const std::int64_t c0 = g.col.start<std::int64_t>(st.idx);
    const std::int64_t cols = g.col.dim;
    const auto slice = src.batch_slice(st.batch);
    float* dst = tile(stmt.tile, st, st.idx);
    const std::int64_t full_rows = g.row.valid<std::int64_t>(st.idx);
    const std::int64_t full_cols = g.col.valid<std::int64_t>(st.idx);
    for (std::int64_t r = 0; r < full_rows; ++r) {
      // Contiguous interior copy; the padded fringe zero-fills.
      const float* srow = slice.data() + (r0 + r) * cols + c0;
      float* drow = dst + r * tc;
      std::copy_n(srow, full_cols, drow);
      std::fill(drow + std::max<std::int64_t>(full_cols, 0), drow + tc, 0.0f);
    }
    for (std::int64_t r = std::max<std::int64_t>(full_rows, 0); r < tr; ++r) {
      std::fill_n(dst + r * tc, tc, 0.0f);
    }
    st.acc->load_bytes +=
        static_cast<double>(stmt.tile.tile_elems) * opt_.dtype_bytes;
  }

  void exec_compute(const LoweredStmt& stmt, Scratch& st) const {
    const std::int64_t tm = stmt.tm;
    const std::int64_t trd = stmt.trd;
    const std::int64_t tcl = stmt.tcl;
    float* out = tile(stmt.out, st, st.idx);
    const float* in = tile(stmt.in, st, st.idx);
    const float* w = tile(stmt.w, st, st.idx);

    // Fresh accumulation tile: zero when the reduction restarts.
    const std::int64_t red_i = st.idx[static_cast<std::size_t>(stmt.red)];
    if (red_i == 0) std::fill_n(out, stmt.out.tile_elems, 0.0f);
    // Consumer-side online-softmax rescale happens at the producer hook
    // (see below); here we only accumulate.
    //
    // Register-blocked contiguous FMA micro-kernel: four reduction rows
    // per pass, so every accumulator-row load/store amortises four FMAs
    // and the inner loop is branch-free and vectorisable.  The arena
    // plan gives the in/weight/out tensors disjoint regions, so the
    // pointers can be declared non-aliasing — this is what lets the
    // compiler vectorise the inner loop.
    const std::int64_t r4 = trd & ~std::int64_t{3};
    for (std::int64_t i = 0; i < tm; ++i) {
      const float* __restrict arow = &in[i * trd];
      float* __restrict orow = &out[i * tcl];
      std::int64_t r = 0;
      for (; r < r4; r += 4) {
        const float a0 = arow[r];
        const float a1 = arow[r + 1];
        const float a2 = arow[r + 2];
        const float a3 = arow[r + 3];
        const float* __restrict w0 = &w[r * tcl];
        const float* __restrict w1 = w0 + tcl;
        const float* __restrict w2 = w1 + tcl;
        const float* __restrict w3 = w2 + tcl;
#pragma omp simd
        for (std::int64_t c = 0; c < tcl; ++c) {
          orow[c] += a0 * w0[c] + a1 * w1[c] + a2 * w2[c] + a3 * w3[c];
        }
      }
      for (; r < trd; ++r) {
        const float av = arow[r];
        const float* __restrict wrow = &w[r * tcl];
#pragma omp simd
        for (std::int64_t c = 0; c < tcl; ++c) orow[c] += av * wrow[c];
      }
    }
    st.acc->flops += 2.0 * static_cast<double>(tm) * trd * tcl;
    if (stmt.op > 0 &&
        chain_.epilogue(stmt.op - 1) == Epilogue::OnlineSoftmax) {
      st.acc->epilogue_flops +=
          kRescaleFlopsPerElem * static_cast<double>(tm) * tcl;
    }

    // Producer-completion hook: epilogue fires when the reduction finishes.
    if (red_i == stmt.red_ext - 1 && stmt.epilogue != Epilogue::None) {
      apply_epilogue(stmt, out, st);
      st.acc->epilogue_flops += epilogue_flops_per_elem(stmt.epilogue) *
                                static_cast<double>(tm) * tcl;
    }
  }

  /// The jit's epilogues (kernel_prelude.inc), called with the same
  /// arguments the emitted kernel passes as literals.
  void apply_epilogue(const LoweredStmt& stmt, float* x, Scratch& st) const {
    if (stmt.epilogue == Epilogue::Relu) {
      kernel::mcf_relu(x, stmt.out.tile_elems);
    } else if (stmt.epilogue == Epilogue::Gelu) {
      kernel::mcf_gelu(x, stmt.out.tile_elems);
    } else {
      kernel::mcf_softmax(
          x, stats(st) + stmt.stat, stats(st) + stmt.rsum,
          st.scratch.data() + k_.arena.lo(stmt.cons), stmt.tm, stmt.tcl,
          st.idx[static_cast<std::size_t>(stmt.col)] * stmt.tcl,
          stmt.valid_cols, stmt.scale, stmt.cons_rows, stmt.cons_cols);
    }
  }

  void exec_store(const LoweredStmt& stmt, Scratch& st) const {
    const GlobalTile& g = stmt.global;
    const std::int64_t tc = g.col.tile;
    const std::int64_t cols = g.col.dim;
    auto slice = out_.batch_slice(st.batch);
    // Division by the softmax running sum is deferred to the store (the
    // interpreter's analogue of the FlashAttention final normalisation).
    const float* rsum = stmt.rsum >= 0 ? stats(st) + stmt.rsum : nullptr;

    // Iterate all combinations of covered loops (hoisted stores write every
    // resident tile); other loops use the current indices.
    std::vector<std::int64_t> combo_idx = st.idx;
    const auto& covered = stmt.covered;
    std::vector<std::int64_t> counter(covered.size(), 0);
    double tiles_written = 0.0;
    for (;;) {
      for (std::size_t j = 0; j < covered.size(); ++j) {
        combo_idx[static_cast<std::size_t>(covered[j])] = counter[j];
      }
      const float* src = tile(stmt.tile, st, combo_idx);
      const std::int64_t r0 = g.row.start<std::int64_t>(combo_idx);
      const std::int64_t c0 = g.col.start<std::int64_t>(combo_idx);
      // Contiguous interior rows; the clipped fringe never enters the loop.
      const std::int64_t full_rows = g.row.valid<std::int64_t>(combo_idx);
      const std::int64_t full_cols = g.col.valid<std::int64_t>(combo_idx);
      for (std::int64_t r = 0; r < full_rows; ++r) {
        const float* srow = src + r * tc;
        float* drow = slice.data() + (r0 + r) * cols + c0;
        if (rsum != nullptr) {
          const float inv = 1.0f / std::max(rsum[r], 1e-30f);
          for (std::int64_t c = 0; c < full_cols; ++c) drow[c] = srow[c] * inv;
        } else {
          std::copy_n(srow, full_cols, drow);
        }
      }
      tiles_written += 1.0;
      // Advance the mixed-radix counter over covered loops.
      std::size_t j = 0;
      for (; j < covered.size(); ++j) {
        counter[j] += 1;
        if (counter[j] < k_.extent(covered[j])) break;
        counter[j] = 0;
      }
      if (j == covered.size()) break;
    }
    st.acc->store_bytes += tiles_written *
                               static_cast<double>(stmt.tile.tile_elems) *
                               opt_.dtype_bytes;
  }

  const LoweredKernel& k_;
  const ChainSpec& chain_;
  const InterpreterOptions& opt_;
  const Tensor& a_;
  std::span<const Tensor> weights_;
  Tensor& out_;
};

}  // namespace

Interpreter::Interpreter(const Schedule& schedule, InterpreterOptions options)
    : k_(lower(schedule)), opt_(options) {}

ExecutionCounters Interpreter::run(const Tensor& a,
                                   std::span<const Tensor> weights,
                                   Tensor& out) const {
  const ChainSpec& chain = *k_.chain;
  MCF_CHECK(static_cast<int>(weights.size()) == chain.num_ops())
      << "need one weight tensor per op";
  MCF_CHECK(a.shape().rank() == 3 && out.shape().rank() == 3)
      << "interpreter tensors are rank-3 (batch, rows, cols)";
  MCF_CHECK(a.shape()[0] == chain.batch() && out.shape()[0] == chain.batch())
      << "batch mismatch";
  MCF_CHECK(a.shape()[1] == chain.m() && a.shape()[2] == chain.inner().front())
      << "input shape mismatch";
  MCF_CHECK(out.shape()[1] == chain.m() &&
            out.shape()[2] == chain.inner().back())
      << "output shape mismatch";

  const std::int64_t n_blocks = k_.n_blocks;
  const BlockExecutor exec(k_, opt_, a, weights, out);
  // One reusable scratch per worker slot, counters accumulated per slot
  // by parallel_for_reduce and folded once at the end — no mutex on the
  // block hot path.  The counters are exact integer-valued doubles (tile
  // extents and byte counts well below 2^53), so the reduction order
  // cannot change the result: parallel and serial runs are bit-identical.
  auto fold = [](ExecutionCounters& into, const ExecutionCounters& c) {
    into.load_bytes += c.load_bytes;
    into.store_bytes += c.store_bytes;
    into.flops += c.flops;
    into.epilogue_flops += c.epilogue_flops;
    into.stmt_trips += c.stmt_trips;
  };
  if (opt_.parallel) {
    ThreadPool& pool = ThreadPool::global();
    std::vector<Scratch> scratch(pool.concurrency());
    return pool.parallel_for_reduce<ExecutionCounters>(
        n_blocks, ExecutionCounters{},
        [&](unsigned slot, std::int64_t b, ExecutionCounters& acc) {
          exec.run_block(b, scratch[slot], acc);
        },
        fold);
  }
  ExecutionCounters total;
  Scratch st;
  for (std::int64_t b = 0; b < n_blocks; ++b) exec.run_block(b, st, total);
  return total;
}

}  // namespace mcf

// Functional kernel interpreter — the repo's stand-in for Triton/PTX
// execution that needs no toolchain.
//
// Executes a Schedule numerically, one simulated thread block per thread
// pool task: tiles are staged through per-block "shared memory" buffers,
// computes run as tile GEMM-accumulates, and every global<->shared
// transfer is counted.  The epilogues are the jit's own: ReLU, GeLU and
// the online softmax (running row statistics with consumer-accumulator
// rescaling, the FlashAttention recurrence) call the same helpers in
// exec/kernel_prelude.inc that every compiled kernel calls.  The dynamic
// counters must match dag/volume's static analysis exactly — tests
// assert this (it is the repo's analogue of the paper validating eq. (1)
// against the NVPTX backend).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dag/schedule.hpp"
#include "exec/lower.hpp"
#include "tensor/tensor.hpp"

namespace mcf {

/// Dynamic execution counters (whole kernel, all blocks).
struct ExecutionCounters {
  double load_bytes = 0.0;
  double store_bytes = 0.0;
  double flops = 0.0;
  double epilogue_flops = 0.0;
  double stmt_trips = 0.0;
};

struct InterpreterOptions {
  /// Element size used for the byte counters (must match VolumeOptions).
  int dtype_bytes = 2;
  /// Run blocks on the global thread pool (disable for deterministic
  /// single-thread debugging; results are identical either way).
  bool parallel = true;
};

/// Executes fused-chain schedules through their exec/lower LoweredKernel
/// (the kernel the jit compiles and the verifier checks).  The schedule
/// must be valid and consume-complete (Rule-2-violating schedules read
/// unfinished tiles and are rejected).
class Interpreter {
 public:
  explicit Interpreter(const Schedule& schedule,
                       InterpreterOptions options = {});

  /// Runs the kernel.
  /// `a`:       rank-3 (batch, M, d0) chain input.
  /// `weights`: one rank-3 tensor per op, (batch, d_i, d_{i+1}).
  /// `out`:     rank-3 (batch, M, d_P), overwritten.
  ExecutionCounters run(const Tensor& a, std::span<const Tensor> weights,
                        Tensor& out) const;

 private:
  LoweredKernel k_;
  InterpreterOptions opt_;
};

}  // namespace mcf

// CompiledKernel: the product of "lowering" a schedule — the repo's
// analogue of MCFuser's Triton -> PTX -> TVM runtime module path (§V).
//
// Compilation validates the schedule against the target GPU (actual
// shared-memory fit — the paper's quadrant-II candidates are rejected
// here, "during PTX code lowering"), precomputes the static volume report
// and shared-memory plan, and exposes run() (interpreter), run_native()
// (the compiled module) and measure() (simulator).  run_native is the one
// handle for running a schedule's native kernel; code that needs the raw
// entry point holds a jit::ResolvedKernel from jit::resolve_kernel.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "dag/schedule.hpp"
#include "dag/volume.hpp"
#include "exec/interpreter.hpp"
#include "gpu/smem.hpp"
#include "gpu/timing.hpp"
#include "tensor/tensor.hpp"

namespace mcf {

/// The lowering gate CompiledKernel and the execution backends share:
/// why `schedule` cannot be lowered for `gpu` (no legal statement
/// placement, Rule-2 partial tiles, shared memory over the per-block
/// limit), or empty when it can.  `smem` receives the shared-memory plan
/// once the two placement checks pass, so a shared-memory failure sets
/// it too.
[[nodiscard]] std::string lowering_error(const Schedule& schedule,
                                         const GpuSpec& gpu,
                                         std::optional<SmemPlan>& smem);

class CompiledKernel {
 public:
  /// Schedule + target; fails (ok()==false) when the kernel cannot be
  /// lowered (invalid placement, Rule-2 partial tiles, smem overflow).
  CompiledKernel(Schedule schedule, GpuSpec gpu);

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  [[nodiscard]] const Schedule& schedule() const noexcept { return schedule_; }
  /// Computed for ok() kernels only.
  [[nodiscard]] const VolumeReport& volume() const noexcept { return volume_; }
  [[nodiscard]] const SmemPlan& smem() const noexcept { return smem_; }
  [[nodiscard]] const GpuSpec& gpu() const noexcept { return gpu_; }

  /// Functional execution (see Interpreter).
  ExecutionCounters run(const Tensor& a, std::span<const Tensor> weights,
                        Tensor& out) const;

  /// Native execution: jit::resolve_kernel compiles the schedule to
  /// machine code at most once (digest-keyed cache — a warm call is one
  /// emit plus one in-memory lookup) and run_compiled runs it, holding a
  /// module reference for the duration so a concurrent registry eviction
  /// can never unmap the executing code.  `threads` caps the block
  /// fan-out across the worker-slot pool (<= 0 = full pool concurrency,
  /// 1 = single-threaded); the output is bit-identical for every thread
  /// count.
  /// Returns false without touching `out` when no host toolchain is
  /// available (or compilation failed); fall back to run().  Same tensor
  /// contract as run(); results agree with the interpreter to float
  /// round-off (tests/exec/test_jit.cpp).
  bool run_native(const Tensor& a, std::span<const Tensor> weights,
                  Tensor& out, int threads = 0) const;

  /// Simulated hardware measurement.
  [[nodiscard]] KernelMeasurement measure(const MeasureOptions& options = {}) const;

 private:
  Schedule schedule_;
  GpuSpec gpu_;
  VolumeReport volume_;
  SmemPlan smem_;
  bool ok_ = false;
  std::string error_;
};

}  // namespace mcf

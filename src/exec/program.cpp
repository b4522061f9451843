#include "exec/program.hpp"

#include <vector>

#include "exec/jit.hpp"
#include "support/logging.hpp"

namespace mcf {

std::string lowering_error(const Schedule& schedule, const GpuSpec& gpu,
                           std::optional<SmemPlan>& smem) {
  if (!schedule.valid()) return "schedule has no legal statement placement";
  if (!schedule.consume_complete()) {
    return "schedule consumes partial tiles (Rule-2 structure)";
  }
  smem = plan_smem(schedule);
  if (smem->total_bytes > gpu.smem_per_block) {
    return "shared memory exceeds per-block limit (" +
           std::to_string(smem->total_bytes) + " > " +
           std::to_string(gpu.smem_per_block) + " bytes)";
  }
  return "";
}

CompiledKernel::CompiledKernel(Schedule schedule, GpuSpec gpu)
    : schedule_(std::move(schedule)), gpu_(std::move(gpu)) {
  std::optional<SmemPlan> smem;
  error_ = lowering_error(schedule_, gpu_, smem);
  ok_ = error_.empty();
}

ExecutionCounters CompiledKernel::run(const Tensor& a,
                                      std::span<const Tensor> weights,
                                      Tensor& out) const {
  MCF_CHECK(ok_) << "cannot run a failed compilation: " << error_;
  return Interpreter(schedule_).run(a, weights, out);
}

bool CompiledKernel::run_native(const Tensor& a,
                                std::span<const Tensor> weights,
                                Tensor& out, int threads) const {
  MCF_CHECK(ok_) << "cannot run a failed compilation: " << error_;
  const jit::Toolchain tc = jit::detect_toolchain();
  if (!tc.ok()) return false;
  std::string err;
  // `rk.module` stays on this frame for the whole call: an LRU eviction
  // on another thread drops the registry's reference, not ours, so the
  // mapping survives until we return.
  const jit::ResolvedKernel rk =
      jit::resolve_kernel(schedule_, gpu_.name, tc, &err);
  if (!rk.ok()) return false;
  std::vector<std::vector<float>> scratch;
  jit::run_compiled(rk.fn, schedule_, a, weights, out, scratch, threads);
  return true;
}

KernelMeasurement CompiledKernel::measure(const MeasureOptions& options) const {
  MCF_CHECK(ok_) << "cannot measure a failed compilation: " << error_;
  return TimingSimulator(gpu_).measure(schedule_, options);
}

}  // namespace mcf

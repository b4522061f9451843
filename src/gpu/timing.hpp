// Deterministic GPU timing simulator — the repo's stand-in for "running
// the kernel on hardware" (the `sim` backend, docs/measurement.md).
//
// It consumes the exact static volumes of a Schedule (dag/volume) and the
// actual shared-memory plan (gpu/smem) and models:
//   * bandwidth efficiency as a function of transaction row length,
//   * tensor-core efficiency as a function of tile shape,
//   * imperfect memory/compute overlap,
//   * occupancy (shared-memory-limited blocks/SM), wave quantization and
//     DRAM-saturation effects of low block counts,
//   * per-statement issue overhead and kernel launch overhead,
//   * a small deterministic "measurement noise" term.
//
// The *analytical* model of the paper (model/analytical.cpp) deliberately
// ignores most of these effects — the gap between the two is what Fig. 11
// measures.
#pragma once

#include <cstdint>
#include <string>

#include "dag/schedule.hpp"
#include "dag/volume.hpp"
#include "gpu/smem.hpp"
#include "gpu/spec.hpp"
// MeasureOptions / KernelMeasurement moved to measure/measurement.hpp when
// measurement became a pluggable subsystem (measure/backend.hpp); the
// include keeps every pre-existing `#include "gpu/timing.hpp"` compiling.
#include "measure/measurement.hpp"

namespace mcf {

/// Stateless simulator bound to one GPU spec.
class TimingSimulator {
 public:
  explicit TimingSimulator(GpuSpec spec) : spec_(std::move(spec)) {}

  [[nodiscard]] const GpuSpec& spec() const noexcept { return spec_; }

  /// "Runs" a fused-kernel schedule.  Fails (ok=false) when the actual
  /// shared-memory plan exceeds the per-block limit — the paper's
  /// "eliminated during PTX code lowering" path (§VI-E1).
  [[nodiscard]] KernelMeasurement measure(const Schedule& s,
                                          const MeasureOptions& options = {}) const;

  /// Low-level entry used for library kernels (baselines): aggregate
  /// bytes/FLOPs with explicit efficiencies.
  [[nodiscard]] KernelMeasurement measure_raw(double bytes, double flops,
                                              std::int64_t n_blocks,
                                              std::int64_t smem_bytes,
                                              double mem_eff, double comp_eff,
                                              double stmt_trips,
                                              const MeasureOptions& options) const;

  /// Bandwidth efficiency for a contiguous row of `row_bytes` bytes.
  [[nodiscard]] static double bandwidth_efficiency(double row_bytes) noexcept;

  /// Tensor-core efficiency for an (m, red, col) MMA tile.
  [[nodiscard]] static double mma_efficiency(std::int64_t tm, std::int64_t tr,
                                             std::int64_t tc) noexcept;

  /// Pipeline-ramp efficiency: a block issuing only `mma_steps` tile-MMA
  /// iterations pays the software-pipeline prologue/epilogue.  Short
  /// accumulation loops (small K) under-utilise tensor cores — the reason
  /// unfused small-K GEMMs are slow and fused chains (which keep the
  /// pipeline warm across the streamed loop) are not.
  [[nodiscard]] static double pipeline_efficiency(double mma_steps) noexcept;

 private:
  GpuSpec spec_;
};

}  // namespace mcf

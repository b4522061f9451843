// GPU hardware description used by the timing simulator and the
// analytical performance model.
//
// Substitution note: this repo has no physical GPU; the
// presets below describe the paper's two evaluation platforms and drive a
// deterministic timing model.  Peak numbers are the public fp16
// tensor-core specifications.
#pragma once

#include <cstdint>
#include <string>

namespace mcf {

struct GpuSpec {
  std::string name;
  int num_sms = 0;
  /// Peak fp16 tensor-core throughput, FLOP/s.
  double peak_flops = 0.0;
  /// DRAM bandwidth, bytes/s.
  double mem_bandwidth = 0.0;
  /// Maximum shared memory per thread block, bytes (opt-in carveout).
  std::int64_t smem_per_block = 0;
  /// Shared memory per SM, bytes (limits concurrent blocks).
  std::int64_t smem_per_sm = 0;
  /// L2 cache capacity and bandwidth: *intra-kernel* re-reads of tensors
  /// that fit in (part of) L2 are served from it rather than DRAM.
  /// Cross-kernel reuse is deliberately not modelled — intermediates
  /// round-trip DRAM, which is the premise of operator fusion.
  std::int64_t l2_bytes = 0;
  double l2_bandwidth = 0.0;
  /// Hardware cap on resident blocks per SM.
  int max_blocks_per_sm = 32;
  /// Kernel launch overhead, seconds.
  double launch_overhead_s = 5e-6;
  /// Per-statement issue/synchronisation overhead, seconds per trip.
  double stmt_overhead_s = 1.2e-8;

  /// Peak compute / bandwidth ratio (the paper's P/W threshold: operators
  /// with op/byte below this are memory-bound).
  [[nodiscard]] double flops_per_byte() const noexcept {
    return peak_flops / mem_bandwidth;
  }

  /// Exact field-wise equality — "same hardware model", used to guard
  /// against mixing costs from different (or tweaked) specs.
  [[nodiscard]] bool operator==(const GpuSpec&) const = default;
};

/// NVIDIA A100-PCIe-40GB (108 SMs, 312 TFLOPS fp16 TC, 1.555 TB/s HBM2).
[[nodiscard]] GpuSpec a100();

/// NVIDIA GeForce RTX 3080 (68 SMs, 119 TFLOPS fp16 TC, 760 GB/s GDDR6X).
[[nodiscard]] GpuSpec rtx3080();

/// Lookup by name ("a100" / "rtx3080"); aborts on unknown names.
[[nodiscard]] GpuSpec gpu_by_name(const std::string& name);

}  // namespace mcf

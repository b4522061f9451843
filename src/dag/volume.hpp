// Static volume analysis: exact global-memory traffic, FLOP counts and
// statement trip counts of a Schedule (the quantities of the paper's
// eqs. (3)/(4)).  For affine tiled tensor programs these counts are exact;
// the functional interpreter cross-checks them dynamically in the tests.
#pragma once

#include <cstdint>
#include <vector>

#include "dag/schedule.hpp"

namespace mcf {

/// FLOPs charged per output element by a fused epilogue: exp/max/sum for
/// online softmax, compare/select for ReLU, the tanh approximation for
/// GeLU.  The static analysis and the interpreter's dynamic counters both
/// charge these, so estimate and "hardware" agree on definitions.
[[nodiscard]] constexpr double epilogue_flops_per_elem(Epilogue e) noexcept {
  switch (e) {
    case Epilogue::None: return 0.0;
    case Epilogue::Relu: return 1.0;
    case Epilogue::Gelu: return 8.0;
    case Epilogue::OnlineSoftmax: return 8.0;
  }
  return 0.0;
}

/// Online-softmax rescale of the consumer accumulator (the running-max
/// correction), per output element per streaming step.
inline constexpr double kRescaleFlopsPerElem = 4.0;

struct VolumeOptions {
  /// Global-memory element size used for traffic/footprints (fp16 on the
  /// modelled hardware; functional execution is fp32 but counts elements
  /// identically).
  int dtype_bytes = 2;
};

/// Per-statement static volume record.
struct StmtVolume {
  int node = -1;                 ///< schedule node index
  StmtKind kind = StmtKind::Load;
  int tensor = -1;               ///< for Load/Store
  int op = -1;                   ///< for Compute
  double trips_per_block = 0.0;  ///< product of surrounding loop extents
  double bytes_per_trip = 0.0;   ///< 0 for Compute
  double flops_per_trip = 0.0;   ///< 0 for Load/Store
  std::int64_t row_elems = 0;    ///< contiguous innermost-dim elements moved
  std::int64_t tile_m = 0, tile_red = 0, tile_col = 0;  ///< Compute tile dims
};

/// Aggregate per-kernel volumes (totals over all thread blocks).
struct VolumeReport {
  double n_blocks = 0.0;
  double load_bytes = 0.0;
  double store_bytes = 0.0;
  double flops = 0.0;           ///< contraction FLOPs (2*Tm*Tr*Tc per trip)
  double epilogue_flops = 0.0;  ///< softmax / relu / rescale work
  double stmt_trips = 0.0;      ///< total statement executions (issue cost)
  std::vector<StmtVolume> stmts;

  [[nodiscard]] double total_bytes() const noexcept { return load_bytes + store_bytes; }
  [[nodiscard]] double total_flops() const noexcept { return flops + epilogue_flops; }
};

/// Analyzes a valid schedule. The schedule need not be consume-complete
/// (analysis is still well-defined; such candidates are pruned elsewhere).
[[nodiscard]] VolumeReport analyze_volume(const Schedule& s,
                                          const VolumeOptions& options = {});

}  // namespace mcf

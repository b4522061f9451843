// Measurement value types shared by every MeasureBackend (the simulator,
// the execution backend's interp/jit/jit-isolated presets, future
// hardware backends).
//
// Historically these lived in gpu/timing.hpp next to TimingSimulator; they
// moved here when measurement became a pluggable subsystem so that a
// backend implementation does not have to pull in the simulator.
// gpu/timing.hpp still re-exports both names — existing includes compile
// unchanged.
#pragma once

#include <cstdint>
#include <string>

namespace mcf {

struct MeasureOptions {
  /// Extra entropy mixed into the deterministic noise (e.g. workload name).
  /// Backends without synthetic noise (the interpreter) ignore it.
  std::uint64_t noise_seed = 0;
  /// Relative amplitude of the deterministic measurement noise.
  double noise_amp = 0.015;
  bool include_launch = true;
};

/// Machine-readable classification of a failed measurement, refining the
/// free-form fail_reason.  Generic covers everything that is a property of
/// the schedule itself (infeasible lowering, compile failure, bad output);
/// the Worker* kinds are properties of out-of-process execution
/// (ExecBackend's sandbox rung, measure/backend.hpp) and map 1:1 onto
/// FusionStatus::WorkerCrashed / WorkerTimeout at the engine layer.
enum class MeasureFailKind : std::uint8_t {
  None,            ///< measurement succeeded (ok == true)
  Generic,         ///< infeasible / compile / numeric failure
  WorkerCrashed,   ///< sandbox worker died (signal or nonzero exit)
  WorkerTimeout,   ///< sandbox worker exceeded the per-request deadline
  VerifyRejected,  ///< static safety verifier refused to compile (src/verify/)
};

/// Result of one kernel "measurement", whatever the backend.
struct KernelMeasurement {
  bool ok = false;
  std::string fail_reason;
  MeasureFailKind fail_kind = MeasureFailKind::None;
  double time_s = 0.0;
  // Decomposition (pre-noise); zero when the backend cannot attribute
  // time to phases (wall-clock backends report only time_s).
  double mem_time_s = 0.0;
  double comp_time_s = 0.0;
  double issue_time_s = 0.0;
  double launch_time_s = 0.0;
  // Diagnostics:
  double mem_eff = 1.0;
  double comp_eff = 1.0;
  double utilization = 1.0;
  int waves = 1;
  int blocks_per_sm = 1;
  std::int64_t n_blocks = 0;
  std::int64_t smem_bytes = 0;
};

}  // namespace mcf

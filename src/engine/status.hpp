// Structured fusion outcomes (the service-grade replacement for the old
// `FusionResult::ok` bool): every failure mode of the pipeline — space
// generation, pruning, tuning/measurement, lowering, cancellation, and
// admission control (bounded-queue shedding, queue-wait deadlines) — maps
// to one FusionStatus value, and FusionResult::reason carries the
// human-readable detail from the layer that failed.
//
// Migration note: code that `switch`es exhaustively on FusionStatus must
// add the load-shedding values Rejected and DeadlineExceeded (both are
// terminal, non-retryable-as-is outcomes of submit() under a QueuePolicy;
// see docs/api.md "Admission control"), and the isolation
// values WorkerCrashed and WorkerTimeout (terminal measurement outcomes of
// the "jit-isolated" backend: every candidate of the chain died in a
// sandbox worker; see docs/measurement.md "Crash-isolated measurement"),
// and the static-analysis value VerifyRejected (every measured candidate
// was refused by the pre-compile safety verifier; see
// docs/verification.md — the reason carries the first witness).
#pragma once

#include <cstdint>

namespace mcf {

enum class FusionStatus : std::uint8_t {
  Ok,                ///< tuned, compiled, ready to run
  InvalidChain,      ///< ChainSpec failed construction-time validation
  InfeasibleSpace,   ///< space generation produced no tiling expressions
  PruneEmpty,        ///< raw space non-empty, but pruning left 0 candidates
  MeasureFailed,     ///< no candidate measured/lowered successfully
  Cancelled,         ///< cancelled via FusionTicket before completion
  Rejected,          ///< shed at admission: bounded queue full (QueuePolicy)
  DeadlineExceeded,  ///< queue wait exceeded QueuePolicy::deadline_s
  WorkerCrashed,     ///< every measured candidate died in a sandbox worker
  WorkerTimeout,     ///< every measured candidate hit the worker deadline
  VerifyRejected,    ///< the static safety verifier rejected every candidate
};

/// Stable display name ("ok", "invalid-chain", ...).
[[nodiscard]] const char* fusion_status_name(FusionStatus s) noexcept;

}  // namespace mcf

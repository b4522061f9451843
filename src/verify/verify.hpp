// Static kernel-safety verifier: symbolic interval/bounds analysis over
// lowered kernels (the data-plane counterpart of the concurrency gates).
//
// `emit_cpp_kernel` (exec/codegen.cpp) prints exec/lower's LoweredKernel
// with every extent, tile size and arena offset folded to a literal;
// nothing at runtime re-checks them.  verify_schedule() lowers the
// schedule through the same lower() and corner-evaluates the very access
// descriptors the emitter prints — without executing or compiling
// anything — proving three properties for every thread block in
// [0, n_blocks):
//
//   1. scratch safety — every arena access stays inside its tensor's
//      region of the scratch arena (`ArenaPlan`, whose size
//      `cpp_kernel_scratch_floats` reports), and the tile-stage regions
//      never alias each other or the online-softmax stats region;
//   2. global safety — every ga/gw/gout access stays inside the declared
//      tensor extents (batch x rows x cols), including the zero-filled
//      fringe paths where the emitted offsets are min-clamped;
//   3. no overflow — offset/index arithmetic (evaluated in 128-bit with
//      saturation) cannot overflow the kernel's `long long` ("i64"); a
//      size that overflows already in lower() is reported as a `setup`
//      violation.
//
// Every lowered index expression is affine in the loop variables plus
// min-clamps, hence monotone in each variable separately — so interval
// extremes are attained at corners of the iteration box and corner
// evaluation is exact: zero false positives by construction, not by
// tolerance.  A statement sees loop `l` at its full extent iff the
// lowered statement ranges over it (LoweredStmt::ranging: block loop,
// tree ancestor, or a hoisted store's covered loop); otherwise the
// emitted variable is pinned to 0.
//
// Violations carry a concrete witness: the block id, the per-loop index
// values, and the offending offset against its bound.  The jit consults
// verify_gate_error() before handing a kernel to the compiler
// (docs/verification.md; MCFUSER_VERIFY knob in docs/service.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dag/schedule.hpp"

namespace mcf {
namespace verify {

enum class ViolationKind : std::uint8_t {
  ScratchOverflow,    ///< arena/stats access outside the scratch allocation
  RegionAlias,        ///< access inside scratch but outside its own region
  GlobalOutOfBounds,  ///< ga/gw/gout access outside batch x rows x cols
  IndexOverflow,      ///< offset arithmetic overflows the kernel's i64
};

[[nodiscard]] const char* violation_kind_name(ViolationKind k) noexcept;

/// One proven-unsafe access, with a concrete witness point.
struct Violation {
  ViolationKind kind = ViolationKind::ScratchOverflow;
  std::string site;    ///< "load A", "compute op 0", "store C", ...
  std::string buffer;  ///< "arena:A", "stats:op0", "ga", "gw[1]", "gout"
  std::string access;  ///< "read" or "write"
  std::int64_t block = 0;             ///< witness thread-block id
  std::vector<std::int64_t> indices;  ///< witness loop index per loop id
  std::int64_t offset = 0;            ///< offending offset (floats)
  std::int64_t lo = 0;                ///< allowed range [lo, hi)
  std::int64_t hi = 0;
  std::string message;  ///< one-line human-readable statement

  [[nodiscard]] std::string to_json() const;
};

struct VerifyReport {
  /// False when the schedule never reached analysis (not lowerable);
  /// skip_reason says why.  A skipped schedule is neither safe nor
  /// unsafe — the lowering gates already reject it.
  bool checked = false;
  std::string skip_reason;
  std::int64_t n_blocks = 0;
  std::int64_t scratch_floats = 0;
  int sites_checked = 0;  ///< distinct (statement, buffer, access) sites
  std::vector<Violation> violations;

  [[nodiscard]] bool safe() const { return checked && violations.empty(); }
  [[nodiscard]] std::string to_json() const;
};

/// Proves the three safety properties for `s` or returns witnesses.
/// Pure analysis: nothing is executed or compiled.
[[nodiscard]] VerifyReport verify_schedule(const Schedule& s);

/// Gate policy: MCFUSER_VERIFY (unset -> on in debug builds, off in
/// NDEBUG builds; "0" -> off, anything else -> on).
[[nodiscard]] bool verify_enabled();

/// Prefix of every verifier-produced fail_reason; the measure backends
/// key the VerifyRejected failure kind off it.
inline constexpr const char* kGateErrorPrefix = "verify: ";

/// "" when `s` is safe (or not analyzable — the lowering gates own that
/// case); otherwise kGateErrorPrefix + the first violation's message.
[[nodiscard]] std::string verify_gate_error(const Schedule& s);

}  // namespace verify
}  // namespace mcf

// Kernel source emitters.
//
// MCFuser lowers schedules to Triton IR and PTX (§V); this repo provides
// two renderings of a scheduled kernel:
//
//   * emit_kernel_source  — a readable Triton-like pretty-print for
//     documentation, examples and debugging.  Deterministic, so tests can
//     assert structural properties (hoisted loads, store positions).
//   * emit_cpp_kernel     — a REAL C++ lowering: a tile-size-specialized,
//     `__restrict`-annotated kernel function with every tile extent,
//     buffer offset and loop bound baked in as a compile-time constant.
//     Each compute statement calls the prelude's one GEMM micro-kernel,
//     mcf_gemm_tile<TM, TCL, TRD>: 4 x 64 register blocks of GCC vector
//     types whose lane count comes from the compiler's ISA macros (16
//     with AVX-512, 8 with AVX, 4 otherwise), the CPU analogue of the
//     paper's tile-level `tl.dot`, and each epilogue is one call to
//     mcf_relu, mcf_gelu or mcf_softmax_tile<TM, TCL, VALID, CR, CC>
//     (mcf_softmax with the tile shape as template arguments).  These
//     helpers live in exec/kernel_prelude.inc, a real source file:
//     libmcfuser compiles it into the interpreter, and the prelude embeds
//     its text.  exec/jit compiles the kernels into shared objects and
//     runs them — the CPU-host analogue of the paper's Triton -> PTX
//     path — building the two tile routines' instantiations in objects of
//     their own beside the kernel bodies.
//
// The C++ lowering prints exec/lower's LoweredKernel — the kernel the
// interpreter executes and the verifier checks — statement for statement
// (loads stage tiles through a scratch arena with zero-filled fringes,
// computes are tile GEMM-accumulates, online-softmax epilogues keep
// running row stats and rescale the consumer accumulator, stores defer
// the softmax normalisation), and the interpreter calls the same
// epilogue helpers, so jit and interp results agree to float round-off
// in the GEMM — tests/exec/test_jit.cpp pins the tolerance.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dag/schedule.hpp"
#include "gpu/smem.hpp"
#include "gpu/spec.hpp"

namespace mcf {

/// Renders the schedule as a Triton-style kernel function.
[[nodiscard]] std::string emit_kernel_source(const Schedule& s,
                                             const GpuSpec& gpu);

/// One lowered C++ kernel: the `extern "C"` function definition plus the
/// symbol it exports.  The function signature is fixed:
///
///   void <symbol>(const float* a, const float* const* weights,
///                 float* out, float* scratch,
///                 long long block_begin, long long block_end);
///
/// It executes thread blocks [block_begin, block_end) of the fused kernel
/// using `scratch` (>= cpp_kernel_scratch_floats(s) floats, per-thread)
/// as the shared-memory arena + softmax-stats area.  Blocks write
/// disjoint output tiles, so disjoint block ranges may run concurrently
/// over distinct scratch buffers.
///
/// `instantiations` lists the distinct prelude tile routines `code` calls,
/// each as the declarator of its explicit instantiation, e.g.
/// `void mcf_gemm_tile<32, 64, 64>(float* __restrict, const float*
/// __restrict, const float* __restrict, bool)`: exec/jit compiles them
/// apart from the kernel body.
struct CppKernelSource {
  std::string symbol;
  std::string code;
  std::vector<std::string> instantiations;
};

/// Lowers a valid, consume-complete schedule into specialized C++.
[[nodiscard]] CppKernelSource emit_cpp_kernel(const Schedule& s,
                                              const std::string& symbol);

/// Translation-unit header shared by every emitted kernel: the libc
/// declarations and typedefs, then the text of exec/kernel_prelude.inc
/// (mcf_expf, the GEMM micro-kernel and the epilogues).  It has no
/// #include, so a TU compiles without any system header.  Every source
/// exec/jit compiles starts with it: the kernel bodies' part, or a part
/// of explicit tile-routine instantiations.
[[nodiscard]] std::string cpp_kernel_prelude();

/// Scratch floats one kernel invocation needs: exec/lower's arena plan
/// (every tile region plus the online-softmax row stats), the layout the
/// emitted code indexes into.  Allocation-free: the jit calls it per run.
[[nodiscard]] std::int64_t cpp_kernel_scratch_floats(const Schedule& s);

}  // namespace mcf

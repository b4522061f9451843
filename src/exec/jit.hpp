// JIT native-codegen execution subsystem — the repo's analogue of the
// paper's Triton -> PTX -> runtime-module path (§V), targeting the host
// CPU through the host C++ toolchain.
//
// exec/codegen lowers a Schedule into a tile-size-specialized C++ kernel
// (constant extents, `__restrict`, SIMD pragmas); this file turns those
// sources into runnable machine code:
//
//   * JitEngine (process-wide)  — batches many candidate kernels into ONE
//     translation unit, shells out to the host compiler once per batch
//     (`-O3 -march=native`, so the JIT'd code uses the full vector ISA
//     even when the library itself is built generic), dlopen()s the
//     resulting shared object and resolves per-candidate entry points.
//     The whole compile and link is one command:
//
//       $CXX -std=c++17 -O3 -march=native -fopenmp-simd -fno-math-errno
//            -fno-trapping-math -fPIC -shared -nodefaultlibs
//            -o tu_<hash>.so.tmp.<pid>.<n> tu_<hash>.tmp.<pid>.<n>.cpp -lc
//
//     The TU includes no header: cpp_kernel_prelude() declares the few
//     libc functions the kernels call, because in C++ mode <math.h> and
//     <stdlib.h> drag in libstdc++'s <cmath> and <cstdlib>, whose parse
//     was ~40% of a cold compile.  GCC binds the declarations to the same
//     builtins, so the machine code is what the headers gave.  Nothing
//     but libc is linked: the kernels call nothing in libstdc++, libm or
//     libgcc_s, and scanning them was nearly half the link.
//   * digest-keyed on-disk cache — kernels are keyed by
//     schedule_structure_digest (which already folds the tiles) + the gpu
//     key + the emitted source + the compile line; a `<key>.idx` file maps
//     the key to its shared object and symbol, so recompiles are free
//     across tuner generations, engine calls and processes.  The on-disk
//     directory has no automatic eviction (it is bounded by the distinct
//     schedules a deployment tunes, and `rm -rf` is always safe); the
//     IN-MEMORY resolved-kernel map and negative cache are LRU-bounded
//     (MCFUSER_JIT_KERNEL_CAP, default 4096 entries each); an evicted
//     key re-resolves from disk with one dlsym.
//   * refcounted module lifecycle — every dlopen'd TU is owned by a
//     shared JitModule handle; registry entries, JitKernel instances
//     and in-flight run_native calls hold references, and the LAST
//     release dlclose()s the object.  LRU eviction under churn
//     therefore actually returns the resident .so mappings: the number
//     of open modules is bounded by the kernel cap plus live kernel
//     handles (modules_opened / modules_open / modules_closed in
//     CompileStats).  Evicting a kernel while another thread executes
//     it is safe — the executor's reference keeps the module mapped
//     until its call returns; only then does the mapping go away.
//   * JitKernel — per-schedule handle: compile (or cache-hit) at
//     construction, then run() executes the fused chain natively with
//     thread-pool block parallelism and per-slot scratch arenas,
//     mirroring exec/interpreter's execution geometry.  The instance
//     pins its module, so a kernel outlives any registry eviction.
//
// Toolchain detection: `MCFUSER_JIT_CXX` env var, else the compiler CMake
// configured the library with (MCF_JIT_CXX), else `c++` on PATH.  When no
// working compiler exists (or under sanitizer builds, where uninstrumented
// JIT objects would poison the ASan/UBSan gate) everything degrades
// gracefully: JitKernel construction fails with a reason and ExecBackend's
// cascade starts on its interpreter rung (measure/backend.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dag/schedule.hpp"
#include "tensor/tensor.hpp"

namespace mcf {
namespace jit {

/// Resolved host toolchain.  ok() == false carries the reason (no
/// compiler found, sanitizer build, ...).
struct Toolchain {
  std::string cxx;     ///< compiler executable; empty when unavailable
  std::string reason;  ///< why unavailable; empty when ok
  [[nodiscard]] bool ok() const noexcept { return !cxx.empty(); }
};

/// Re-reads the environment on every call (tests override
/// MCFUSER_JIT_CXX / MCFUSER_JIT_CACHE_DIR per backend instance).
[[nodiscard]] Toolchain detect_toolchain();

/// Kernel-cache directory: $MCFUSER_JIT_CACHE_DIR, else
/// $XDG_CACHE_HOME/mcfuser/jit, else $HOME/.cache/mcfuser/jit, else
/// /tmp/mcfuser-jit-<uid>.
[[nodiscard]] std::string cache_dir();

/// Hash of what a native kernel's speed depends on besides its schedule:
/// the CPU fingerprint, compile flags, link libraries and emitter version
/// every kernel key folds in.  Keys wall-clock tuning records by host.
[[nodiscard]] std::uint64_t host_key();

/// Process-wide compilation counters (monotonic; report deltas).
/// Surfaced in GraphFusionReport::to_json and the CLI --json output.
struct CompileStats {
  std::int64_t tus_compiled = 0;      ///< compiler invocations
  std::int64_t kernels_compiled = 0;  ///< kernels lowered+compiled fresh
  std::int64_t mem_hits = 0;          ///< resolved from the in-process map
  std::int64_t disk_hits = 0;         ///< resolved from the on-disk cache
  std::int64_t failures = 0;          ///< compile/dlopen/dlsym failures
  std::int64_t evictions = 0;         ///< in-memory LRU entries dropped
  std::int64_t modules_opened = 0;    ///< dlopen()s performed (counter)
  std::int64_t modules_closed = 0;    ///< dlclose()s on last release (counter)
  std::int64_t modules_open = 0;      ///< currently resident modules (gauge)
  double compile_wall_s = 0.0;        ///< wall time inside the compiler
  [[nodiscard]] std::int64_t cache_hits() const noexcept {
    return mem_hits + disk_hits;
  }
  /// Counter deltas over an interval: snapshot().since(earlier_snapshot).
  /// `modules_open` is a gauge, not a counter: the delta keeps the
  /// CURRENT open count (matching how worker-pool `active` is reported),
  /// so the accounting identity `opened == open + closed` only holds on
  /// absolute snapshots, not on deltas.
  [[nodiscard]] CompileStats since(const CompileStats& before) const noexcept {
    CompileStats d;
    d.tus_compiled = tus_compiled - before.tus_compiled;
    d.kernels_compiled = kernels_compiled - before.kernels_compiled;
    d.mem_hits = mem_hits - before.mem_hits;
    d.disk_hits = disk_hits - before.disk_hits;
    d.failures = failures - before.failures;
    d.evictions = evictions - before.evictions;
    d.modules_opened = modules_opened - before.modules_opened;
    d.modules_closed = modules_closed - before.modules_closed;
    d.modules_open = modules_open;
    d.compile_wall_s = compile_wall_s - before.compile_wall_s;
    return d;
  }
};

[[nodiscard]] CompileStats stats_snapshot();

/// Entry point of a compiled kernel (see CppKernelSource in codegen.hpp):
/// executes thread blocks [block_begin, block_end) into `out` using
/// `scratch` (cpp_kernel_scratch_floats(s) floats) as the tile arena.
using KernelFn = void (*)(const float* a, const float* const* weights,
                          float* out, float* scratch, long long block_begin,
                          long long block_end);

/// A dlopen'd kernel translation unit with refcounted lifetime: the last
/// ModuleRef release dlclose()s the shared object, so function pointers
/// resolved from a module are valid ONLY while a reference is held.
/// Construction/destruction maintain the process-wide module counters
/// (CompileStats::modules_opened / modules_open / modules_closed).
class JitModule {
 public:
  explicit JitModule(void* handle) noexcept;
  ~JitModule();
  JitModule(const JitModule&) = delete;
  JitModule& operator=(const JitModule&) = delete;
  [[nodiscard]] void* handle() const noexcept { return handle_; }

 private:
  void* handle_;
};

using ModuleRef = std::shared_ptr<const JitModule>;

/// A resolved entry point plus the module reference that keeps it
/// executable.  Keep `module` alive for as long as `fn` may run —
/// dropping the last reference unmaps the code out from under it.
struct ResolvedKernel {
  KernelFn fn = nullptr;
  ModuleRef module;
  [[nodiscard]] bool ok() const noexcept { return fn != nullptr; }
};

/// Resolves (compiling at most once) the native kernel for one schedule.
/// Thread-safe; !ok() with `error` filled when the toolchain is
/// unavailable or compilation fails.
[[nodiscard]] ResolvedKernel resolve_kernel(const Schedule& s,
                                            const std::string& gpu_key,
                                            const Toolchain& tc,
                                            std::string* error);

/// Test hook: swaps the in-memory kernel map and negative cache for
/// fresh ones bounded at `cap` entries each (0 = unbounded), dropping
/// every cached entry point — modules close as their last references
/// go.  The environment-latched default (MCFUSER_JIT_KERNEL_CAP) is
/// untouched; pass it back via a fresh call to restore.
void set_kernel_cap_for_testing(std::size_t cap);

/// A compiled kernel located on disk WITHOUT loading it into this
/// process: the cache key, the shared-object path and the entry symbol.
/// This is what crosses the sandbox process boundary (exec/sandbox.hpp)
/// — the isolated worker dlopen()s the path itself, so a kernel that
/// crashes on load or on first run never touches the host address space.
struct KernelArtifact {
  std::uint64_t key = 0;  ///< digest-keyed cache identity (crash cache key)
  std::string so_path;    ///< empty when resolution failed
  std::string symbol;
  std::string error;  ///< why resolution failed; empty when ok
  [[nodiscard]] bool ok() const noexcept { return !so_path.empty(); }
};

/// Resolves (compiling at most once) the on-disk artifact for one
/// schedule.  Thread-safe.  Unlike resolve_kernel this never dlopen()s.
[[nodiscard]] KernelArtifact resolve_artifact(const Schedule& s,
                                              const std::string& gpu_key,
                                              const Toolchain& tc);

/// Drops every cached trace of `key` — the in-memory entry-point and
/// negative-cache entries AND the on-disk `<key>.idx` file — so the next
/// resolve recompiles.  Used when a worker finds the cached .so poisoned
/// (truncated write, foreign-ISA restore): evict + recompile once instead
/// of failing the measurement.  The .so itself stays (other kernels may
/// share the TU); the recompile republishes it via tmp+rename.  Returns
/// whether anything was removed.
bool invalidate_kernel(std::uint64_t key);

/// Batched form: compiles every not-yet-cached kernel of `batch` in ONE
/// translation unit / compiler invocation (the tuner calls this once per
/// measurement wave).  Individual failures are recorded in the stats and
/// surface later through resolve_kernel.
void prepare_kernels(std::span<const Schedule* const> batch,
                     const std::string& gpu_key, const Toolchain& tc);

/// Executes a resolved kernel over all blocks of `s` (Interpreter::run's
/// tensor contract) through run_blocks.  `threads` caps the fan-out:
/// <= 0 cuts the blocks into up to 4 x pool concurrency() contiguous
/// ranges that the calling thread and the pool workers claim as each
/// frees up, 1 runs single-threaded on the calling thread, T > 1 cuts
/// min(T, n_blocks) ranges so at most T threads take part (per-block work
/// is independent, so results are bit-identical for every T).  `scratch`
/// is the caller-owned per-slot workspace: arenas allocate lazily on
/// first use and are REUSED across calls, so repeat invocations (sampling
/// loops) pay no allocation.  Concurrent callers must pass distinct
/// scratch vectors.  The caller must hold a ModuleRef for `fn`'s module
/// for the duration of the call.
void run_compiled(KernelFn fn, const Schedule& s, const Tensor& a,
                  std::span<const Tensor> weights, Tensor& out,
                  std::vector<std::vector<float>>& scratch, int threads = 0);

/// The one block fan-out, shared by run_compiled and the sandbox worker:
/// runs `fn` over blocks [0, n_blocks) in contiguous ranges across the
/// global pool with one `scratch_floats` arena per slot, cut as
/// run_compiled documents for `threads`.
void run_blocks(KernelFn fn, const float* a, const float* const* weights,
                float* out, std::int64_t n_blocks, std::size_t scratch_floats,
                std::vector<std::vector<float>>& scratch, int threads);

}  // namespace jit

/// One schedule, compiled to native code and runnable.  Construction
/// resolves the kernel through the digest-keyed cache; ok() == false
/// carries the reason (no toolchain / compile failure) and run() must not
/// be called.  run() matches Interpreter::run's tensor contract
/// (rank-3 batch-major input/weights/output) and executes blocks across
/// the global thread pool; the per-slot scratch arenas live in the
/// kernel and are reused across run() calls, so concurrent run() on ONE
/// instance is not supported (use one JitKernel per thread — the
/// compiled code itself is shared through the cache either way).
class JitKernel {
 public:
  /// The schedule is stored by value (it is a small value type), so a
  /// temporary is safe to pass.
  explicit JitKernel(Schedule schedule, const std::string& gpu_key = "");

  [[nodiscard]] bool ok() const noexcept { return fn_ != nullptr; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] const Schedule& schedule() const noexcept { return s_; }

  /// `threads` caps the block fan-out (see jit::run_compiled); 0 = full
  /// pool concurrency.
  void run(const Tensor& a, std::span<const Tensor> weights, Tensor& out,
           int threads = 0) const;

 private:
  Schedule s_;
  jit::KernelFn fn_ = nullptr;
  jit::ModuleRef module_;  ///< pins the .so mapping across evictions
  std::string error_;
  mutable std::vector<std::vector<float>> scratch_;  ///< per-slot arenas
};

}  // namespace mcf

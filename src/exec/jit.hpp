// JIT native-codegen execution subsystem — the repo's analogue of the
// paper's Triton -> PTX -> runtime-module path (§V), targeting the host
// CPU through the host C++ toolchain.
//
// exec/codegen lowers a Schedule into a tile-size-specialized C++ kernel
// (constant extents, `__restrict`, SIMD pragmas); this file is the only
// code that turns those sources into loaded machine code, in the engine's
// process and in a sandbox worker alike:
//
//   * one resolution path (resolve_artifact) — the lowering check, the
//     static verifier gate, the negative cache, the `<key>.idx` on-disk
//     index, then a compile.  It PUBLISHES kernels on disk and loads
//     nothing; prepare_kernels runs the same path for a whole measurement
//     wave and compiles every missing kernel into ONE shared object
//     (`-O3 -march=native`, so the JIT'd code uses the full vector ISA
//     even when the library itself is built generic).  The object is
//     built from up to P part sources, P = ThreadPool::global().size():
//     part 0 holds the kernel bodies, which call the prelude's tile
//     routines (mcf_gemm_tile, mcf_softmax_tile) through `extern
//     template` declarations, and parts 1..P-1 hold the routines'
//     explicit instantiations, dealt round-robin.  The parts compile at
//     once under one deadline, then one link:
//
//       FLAGS = -std=c++17 -O3 -march=native -fopenmp-simd -fno-math-errno
//               -fno-trapping-math -fPIC -shared -nodefaultlibs
//       $CXX FLAGS -c -o tu_<hash>.tmp.<pid>.<n>.p<j>.o
//                        tu_<hash>.tmp.<pid>.<n>.p<j>.cpp     (each part j)
//       $CXX FLAGS -o tu_<hash>.so.tmp.<pid>.<n> <the part objects> -lc
//
//     With P = 1 the one part instantiates the routines itself.  On
//     success the sources and objects are removed; a failed compile keeps
//     its sources as tu_<hash>.p<j>.cpp and names them in its diagnostic.
//     A source includes no header: cpp_kernel_prelude() declares the few
//     libc functions the kernels call, because in C++ mode <math.h> and
//     <stdlib.h> drag in libstdc++'s <cmath> and <cstdlib>, whose parse
//     was ~40% of a cold compile.  GCC binds the declarations to the same
//     builtins, so the machine code is what the headers gave.  The
//     helpers the kernels call follow verbatim from
//     exec/kernel_prelude.inc, the file the interpreter compiles.  Nothing
//     but libc is linked: the kernels call nothing in libstdc++, libm or
//     libgcc_s, and scanning them was nearly half the link.
//   * digest-keyed on-disk cache — kernels are keyed by
//     schedule_structure_digest (which already folds the tiles) + the gpu
//     key + the emitted source + the compile line; a `<key>.idx` file maps
//     the key to its shared object and symbol, so recompiles are free
//     across tuner generations, engine calls and processes.  The on-disk
//     directory has no automatic eviction (it is bounded by the distinct
//     schedules a deployment tunes, and `rm -rf` is always safe); the
//     IN-MEMORY loaded-kernel map and negative cache are LRU-bounded
//     (MCFUSER_JIT_KERNEL_CAP, default 4096 entries each); an evicted
//     key re-loads from disk with one dlopen/dlsym.
//   * one loader (load_artifact) — the registry's refcounted module
//     lifecycle: every dlopen'd TU is owned by a shared JitModule handle;
//     registry entries, held ResolvedKernels and in-flight runs hold
//     references, and the LAST release dlclose()s the object.  LRU
//     eviction under churn therefore actually returns the resident .so
//     mappings: the number of open modules is bounded by the kernel cap
//     plus live kernel handles (modules_opened / modules_open /
//     modules_closed in CompileStats).  Evicting a kernel while another
//     thread executes it is safe — the executor's reference keeps the
//     module mapped until its call returns.  resolve_kernel is the path
//     plus this one load; a sandbox worker loads through it too, so its
//     resident modules obey the same cap.
//
// Toolchain detection: `MCFUSER_JIT_CXX` env var, else the compiler CMake
// configured the library with (MCF_JIT_CXX), else `c++` on PATH.  When no
// working compiler exists (or under sanitizer builds, where uninstrumented
// JIT objects would poison the ASan/UBSan gate) everything degrades
// gracefully: resolution fails with a reason, CompiledKernel::run_native
// returns false and ExecBackend's cascade starts on its interpreter rung
// (measure/backend.hpp).
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
/// Surfaced as EngineStats' `jit` section and as the `jit_compile`
/// delta of GraphFusionReport and the CLI's --json output.
struct CompileStats {
  std::int64_t tus_compiled = 0;      ///< shared objects published
  std::int64_t kernels_compiled = 0;  ///< kernels lowered+compiled fresh
  std::int64_t mem_hits = 0;          ///< resolved from the in-process map
  std::int64_t disk_hits = 0;         ///< resolved from the on-disk cache
  std::int64_t failures = 0;          ///< compile/dlopen/dlsym failures
  std::int64_t evictions = 0;         ///< in-memory LRU entries dropped
  std::int64_t modules_opened = 0;    ///< dlopen()s performed (counter)
  std::int64_t modules_closed = 0;    ///< dlclose()s on last release (counter)
  std::int64_t modules_open = 0;      ///< currently resident modules (gauge)
  double compile_wall_s = 0.0;        ///< wall time of the batch compiles
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
  /// Every field keyed by its name, plus the derived `cache_hits`.
  [[nodiscard]] std::string to_json() const;
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

/// A compiled kernel located on disk WITHOUT loading it: the cache key,
/// the shared-object path and the entry symbol.  This is also what crosses
/// the sandbox process boundary (exec/sandbox.hpp): the host resolves it,
/// the worker loads it, so a kernel that crashes on load or on first run
/// never touches the host address space.
struct KernelArtifact {
  std::uint64_t key = 0;  ///< digest-keyed cache identity (crash cache key)
  std::string so_path;    ///< empty when resolution failed
  std::string symbol;
  std::string error;  ///< why resolution failed; empty when ok
  [[nodiscard]] bool ok() const noexcept { return !so_path.empty(); }
};

/// The one resolution path: lowering check, verifier gate, negative
/// cache, `<key>.idx`, compile (at most once).  Publishes the kernel on
/// disk and never dlopen()s.  Thread-safe; !ok() with `error` filled when
/// the toolchain is unavailable, the schedule is rejected or the compile
/// fails.
[[nodiscard]] KernelArtifact resolve_artifact(const Schedule& s,
                                              const std::string& gpu_key,
                                              const Toolchain& tc);

/// Batched form of the path: compiles every not-yet-published kernel of
/// `batch` into ONE shared object (the tuner calls this once per
/// measurement wave) and loads nothing.  Individual failures
/// are negative-cached and surface later through resolve_artifact.
void prepare_kernels(std::span<const Schedule* const> batch,
                     const std::string& gpu_key, const Toolchain& tc);

/// The registry's loader: the kernel already loaded under `art.key`, else
/// the shared object's module (opened once while any reference lives) and
/// the symbol in it, kept in the LRU-bounded in-memory map.  Compiles
/// nothing, heals nothing and never logs — a sandbox worker calls it
/// before main().  !ok() with `*error` (non-null) filled when the object
/// will not load.
[[nodiscard]] ResolvedKernel load_artifact(const KernelArtifact& art,
                                           std::string* error);

/// resolve_artifact plus one load_artifact; a warm call is one emit plus
/// one in-memory lookup.  An on-disk artifact that will not load (deleted,
/// truncated or foreign-ISA shared object) is dropped and recompiled once.
/// Thread-safe; !ok() with `error` filled on failure.
[[nodiscard]] ResolvedKernel resolve_kernel(const Schedule& s,
                                            const std::string& gpu_key,
                                            const Toolchain& tc,
                                            std::string* error);

/// Drops a bad artifact: its in-memory entries (loaded kernel, negative
/// result) and its `<key>.idx`, so the next resolve recompiles.  Serves a
/// load failure in this process and one a sandbox worker reports.  The
/// .so itself stays (other kernels may share the TU); the recompile
/// republishes it via tmp+rename.  Logs `why`.
void invalidate_kernel(std::uint64_t key, const std::string& why);

/// Test hook: swaps the in-memory kernel map and negative cache for
/// fresh ones bounded at `cap` entries each (0 = unbounded), dropping
/// every cached entry point — modules close as their last references
/// go.  The environment-latched default (MCFUSER_JIT_KERNEL_CAP) is
/// untouched; pass it back via a fresh call to restore.
void set_kernel_cap_for_testing(std::size_t cap);

/// Deterministic inputs of a chain with geometry (batch, m, inner): `a` is
/// [batch, m, inner[0]] filled from `seed`, weight op is
/// [batch, inner[op], inner[op + 1]] filled from seed + 1 + op.  The one
/// place such inputs are built: ExecBackend measures on them in process
/// and a sandbox worker rebuilds the same set from a RunRequest.
struct KernelInputs {
  Tensor a;
  std::vector<Tensor> weights;
  [[nodiscard]] std::size_t bytes() const noexcept;
};
[[nodiscard]] KernelInputs seeded_inputs(std::int64_t batch, std::int64_t m,
                                         std::span<const std::int64_t> inner,
                                         std::uint64_t seed);

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
}  // namespace mcf

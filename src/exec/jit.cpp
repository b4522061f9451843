#include "exec/jit.hpp"

#include <dlfcn.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "exec/codegen.hpp"
#include "measure/backend.hpp"
#include "support/atomic_file.hpp"
#include "support/env.hpp"
#include "support/logging.hpp"
#include "support/lru_map.hpp"
#include "support/mutex.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "verify/verify.hpp"

namespace mcf {
namespace jit {

namespace {

namespace fs = std::filesystem;

/// Bump when the emitted code or ABI changes: stale on-disk kernels from
/// an older emitter must miss, not resolve.  v5: fault-injection seam in
/// the prelude + per-kernel mcf_maybe_fault call (exec/sandbox chaos
/// tests).  v7: the prelude declares its libc functions instead of
/// including headers and the object links against libc alone; kernel
/// bodies and machine code are unchanged (the key already folds the
/// prelude and the command line; the bump records the new TU format).
/// v8: each compute statement calls the prelude's mcf_gemm_tile
/// micro-kernel instead of printing its own GEMM loops.  v9: the v5 seam
/// is gone (the sandbox worker carries out injected faults) and the
/// prelude declares only memcpy and floorf.  v10: the prelude's helpers
/// come verbatim from exec/kernel_prelude.inc, and each epilogue is one
/// call to its mcf_relu, mcf_gelu or mcf_softmax instead of printed loops.
constexpr std::uint64_t kEmitterVersion = 10;

/// Kernels are always compiled at full optimisation for the build
/// machine's vector ISA — the point of the JIT is that the micro-kernel
/// runs -O3 -march=native even when the library itself is built generic.
/// -march=native also picks the micro-kernel's lane count: the prelude
/// reads the ISA macros it defines (16 lanes with AVX-512, 8 with AVX,
/// 4 otherwise), and explicit vector types are not narrowed by the
/// tuning's -mprefer-vector-width, so no width flag is needed here.
/// -fno-math-errno / -fno-trapping-math drop the libm side-effect
/// assumptions that block vectorisation of floorf in the softmax exp
/// (results are unchanged: the kernels never read errno or FP traps);
/// full -ffast-math stays OFF — the online softmax relies on -inf
/// sentinel semantics.  -nodefaultlibs plus kLinkLibs links the object
/// against libc alone: the kernels call nothing from libstdc++, libm or
/// libgcc_s, and scanning them was nearly half the link.
constexpr const char* kCompileFlags =
    "-std=c++17 -O3 -march=native -fopenmp-simd -fno-math-errno "
    "-fno-trapping-math -fPIC -shared -nodefaultlibs";

/// Libraries named after the source on the compiler command line (the
/// linker resolves left to right).
constexpr const char* kLinkLibs = "-lc";

[[nodiscard]] std::string find_on_path(const std::string& name) {
  if (name.find('/') != std::string::npos) {
    return ::access(name.c_str(), X_OK) == 0 ? name : std::string();
  }
  const char* path = env::raw("PATH");
  if (path == nullptr) return {};
  std::istringstream is(path);
  std::string dir;
  while (std::getline(is, dir, ':')) {
    if (dir.empty()) continue;
    const std::string full = dir + "/" + name;
    if (::access(full.c_str(), X_OK) == 0) return full;
  }
  return {};
}

[[nodiscard]] std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

/// In-memory entry cap of the loaded-kernel map and the negative cache
/// (each).  The maps hold only pointers/strings, but under a flood of
/// millions of distinct schedules an unbounded registry is still an OOM
/// vector, and each loaded entry pins its module's mapping — evicted
/// entries re-resolve from the on-disk cache (an idx read, counted as a
/// disk hit, plus a load), so the cap trades a cheap lookup for bounded
/// memory.  A sandbox worker's registry obeys the same cap.
/// MCFUSER_JIT_KERNEL_CAP overrides; 0 = unbounded.
[[nodiscard]] std::size_t kernel_map_cap() {
  static const std::size_t cap = env::size("MCFUSER_JIT_KERNEL_CAP", 4096);
  return cap;
}

/// Process-wide module counters.  They live OUTSIDE the registry lock on
/// purpose: LruMap eviction runs inside insert() while the caller holds
/// `Registry::mu`, and dropping an evicted entry may run ~JitModule —
/// which must therefore never re-enter the registry.  Atomics make the
/// destructor lock-free; stats_snapshot() folds them into CompileStats.
std::atomic<std::int64_t> g_modules_opened{0};
std::atomic<std::int64_t> g_modules_closed{0};

/// Process-wide kernel registry: loaded entry points and negative
/// results (both LRU-bounded by kernel_map_cap(); support/lru_map.hpp),
/// weak per-path module handles (a path's module is shared while ANY
/// strong reference exists — registry entry, held ResolvedKernel,
/// in-flight run — and dlclose()d by ~JitModule on last release), and the
/// compile counters.  All members require holding `mu`.
struct Registry {
  Mutex mu{"jit.registry"};
  LruMap<std::uint64_t, ResolvedKernel> fns MCF_GUARDED_BY(mu);
  LruMap<std::uint64_t, std::string> failed MCF_GUARDED_BY(mu);  ///< key -> reason
  /// so path -> module (weak: the map itself must not pin mappings open,
  /// or eviction could never return memory).  Expired entries are pruned
  /// lazily on the next dlopen.
  std::unordered_map<std::string, std::weak_ptr<const JitModule>> handles
      MCF_GUARDED_BY(mu);
  CompileStats stats MCF_GUARDED_BY(mu);
  /// Evictions accumulated in maps replaced by set_kernel_cap_for_testing
  /// (LruMap counters reset when the maps are swapped).
  std::int64_t evictions_base MCF_GUARDED_BY(mu) = 0;

  Registry()
      : fns(LruMap<std::uint64_t, ResolvedKernel>::Limits{kernel_map_cap(), 0}),
        failed(
            LruMap<std::uint64_t, std::string>::Limits{kernel_map_cap(), 0}) {}

  static Registry& instance() {
    static Registry r;
    return r;
  }

  /// Mirror the LRU eviction counters into the public stats snapshot
  /// (call after any insert).
  void sync_evictions_locked() MCF_REQUIRES(mu) {
    stats.evictions =
        evictions_base +
        static_cast<std::int64_t>(fns.evictions() + failed.evictions());
  }
};

/// One emitted kernel plus its cache identity.  The key folds the
/// structure digest (chain shape key, statement tree, tiles), the gpu
/// key, the compile line, the emitter version AND a hash of the full
/// emitted source (prelude included) — so an emitter change can never
/// serve stale native code from the persistent cache, version bump or
/// not.  Emission costs microseconds; resolving is dominated by either
/// the compile (cold) or the kernel run (warm), so hashing the source
/// on every key derivation is free in context.
struct EmittedKernel {
  std::uint64_t key = 0;
  std::string symbol;
  std::string code;
};

/// Identity of the machine the kernels are compiled FOR: -march=native
/// objects are only valid on a CPU with the same ISA extensions, and the
/// cache directory can be shared across machines (network homes, CI
/// cache restores onto heterogeneous runners).  Model name + feature
/// flags is a conservative over-approximation of the ISA; non-Linux
/// hosts fall back to an empty fingerprint (same-machine caching only).
[[nodiscard]] const std::string& host_cpu_fingerprint() {
  static const std::string fp = [] {
    std::string model;
    std::string flags;
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (model.empty() && line.rfind("model name", 0) == 0) model = line;
      if (flags.empty() && line.rfind("flags", 0) == 0) flags = line;
      if (!model.empty() && !flags.empty()) break;
    }
    return model + "|" + flags;
  }();
  return fp;
}

[[nodiscard]] EmittedKernel emit_keyed(const Schedule& s,
                                       const std::string& gpu_key) {
  std::uint64_t h = schedule_structure_digest(s);
  h = hash_combine(h, hash_string(gpu_key));
  h = hash_combine(h, hash_string(kCompileFlags));
  h = hash_combine(h, hash_string(kLinkLibs));
  h = hash_combine(h, hash_string(host_cpu_fingerprint()));
  h = hash_combine(h, kEmitterVersion);
  // The symbol must not depend on the source (the source contains it);
  // derive it from the pre-source key, then finish the key.
  EmittedKernel out;
  out.symbol = "mcf_k" + hex64(h);
  out.code = emit_cpp_kernel(s, out.symbol).code;
  h = hash_combine(h, hash_string(cpp_kernel_prelude()));
  out.key = hash_combine(h, hash_string(out.code));
  return out;
}

/// POSIX-shell single quoting for paths embedded in the popen command
/// (an apostrophe in $HOME or MCFUSER_JIT_CXX must stay data).
[[nodiscard]] std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') out += "'\\''";
    else out += c;
  }
  out += "'";
  return out;
}

/// Hard wall-clock deadline for one compiler invocation, in seconds.
/// Re-read per invocation (tests vary it); 0 disables the deadline.
/// A hung $CXX (broken wrapper script, NFS stall, runaway template
/// instantiation) must fail the measurement wave, not stall it forever.
[[nodiscard]] double compile_timeout_s() {
  return env::real("MCFUSER_JIT_COMPILE_TIMEOUT_S", 120.0, 0.0, 1e9);
}

struct CommandResult {
  bool spawned = false;    ///< fork/exec machinery itself worked
  bool timed_out = false;  ///< killed at the deadline
  int exit_code = 0;
  int term_signal = 0;
  std::string output;  ///< merged stdout+stderr
};

/// Runs `cmd` through /bin/sh with stdout+stderr captured and a hard
/// wall-clock deadline: on expiry the whole process group is SIGKILLed
/// and reaped (the child setpgid()s itself; both sides race-proof it).
/// The popen() this replaces blocked in fgets with no way out.
[[nodiscard]] CommandResult run_command_deadline(const std::string& cmd,
                                                 double deadline_s) {
  CommandResult r;
  // O_CLOEXEC atomically (dup2 onto 1/2 clears it in the child): a sandbox
  // worker exec'd by another thread mid-compile must not inherit the write
  // end, or the read below waits for that worker to exit instead of the
  // compiler (in practice: until the compile deadline).
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return r;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return r;
  }
  if (pid == 0) {
    ::setpgid(0, 0);
    ::dup2(fds[1], 1);
    ::dup2(fds[1], 2);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execl("/bin/sh", "sh", "-c", cmd.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::setpgid(pid, pid);  // mirror the child's call: whoever runs first wins
  ::close(fds[1]);
  r.spawned = true;
  const auto t0 = std::chrono::steady_clock::now();
  char buf[512];
  for (;;) {
    int timeout_ms = -1;
    if (deadline_s > 0) {
      const double left =
          deadline_s - std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      if (left <= 0) {
        r.timed_out = true;
        break;
      }
      timeout_ms = static_cast<int>(left * 1000.0) + 1;
    }
    struct pollfd pfd {
      fds[0], POLLIN, 0
    };
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr == 0) {
      r.timed_out = true;
      break;
    }
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      r.output.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF (compiler exited) or unrecoverable read error
  }
  ::close(fds[0]);
  if (r.timed_out) ::kill(-pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(status)) {
    r.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    r.term_signal = WTERMSIG(status);
  }
  return r;
}

constexpr const char* kNotLowerable =
    "schedule is not lowerable (invalid or Rule-2 incomplete)";

[[nodiscard]] bool lowerable(const Schedule& s) {
  return s.valid() && s.consume_complete();
}

/// Negative-caches `key` with `why` and counts a compile/load failure.
void record_failure(std::uint64_t key, std::string why) {
  Registry& reg = Registry::instance();
  const LockGuard lock(reg.mu);
  reg.stats.failures += 1;
  (void)reg.failed.insert(key, std::move(why));
  reg.sync_evictions_locked();
}

/// The negative cache, then the `<key>.idx` file: ok() when `ek` is
/// published on disk, error set when it failed before, neither (not
/// settled) when it still needs a compile.  An idx whose shared object is
/// gone (partial cache wipe, foreign cleanup) is dropped, so the compile
/// republishes both instead of every resolve probing the dangling entry.
[[nodiscard]] KernelArtifact published(const EmittedKernel& ek) {
  KernelArtifact art;
  art.key = ek.key;
  art.symbol = ek.symbol;
  {
    Registry& reg = Registry::instance();
    const LockGuard lock(reg.mu);
    if (const std::string* why = reg.failed.find(ek.key)) {
      art.error = *why;
      return art;
    }
  }
  const fs::path dir = cache_dir();
  std::ifstream idx(dir / (hex64(ek.key) + ".idx"));
  std::string so_name;
  std::string symbol;
  if (!(idx >> so_name >> symbol)) return art;
  const fs::path so = dir / so_name;
  std::error_code ec;
  if (!fs::exists(so, ec)) {
    invalidate_kernel(ek.key, "shared object " + so_name + " missing");
    return art;
  }
  art.so_path = so.string();
  art.symbol = std::move(symbol);
  return art;
}

[[nodiscard]] bool settled(const KernelArtifact& art) {
  return art.ok() || !art.error.empty();
}

/// The resolution path up to the compile: the verifier gate, then
/// published(), counting a disk hit when the idx answers.  A schedule the
/// static analyzer proves out-of-bounds is never handed to the compiler,
/// and the gate runs BEFORE the cache probe, so even a poisoned disk
/// cache cannot hand back a kernel it rejects.
[[nodiscard]] KernelArtifact probe(const Schedule& s, const EmittedKernel& ek) {
  Registry& reg = Registry::instance();
  if (verify::verify_enabled()) {
    if (std::string verr = verify::verify_gate_error(s); !verr.empty()) {
      const LockGuard lock(reg.mu);
      (void)reg.failed.insert(ek.key, verr);
      reg.sync_evictions_locked();
      KernelArtifact art;
      art.key = ek.key;
      art.error = std::move(verr);
      return art;
    }
  }
  KernelArtifact art = published(ek);
  if (art.ok()) {
    const LockGuard lock(reg.mu);
    ++reg.stats.disk_hits;
  }
  return art;
}

/// One compiler invocation over `pending` (caller holds the compile
/// mutex).  On success publishes the shared object plus one idx file per
/// kernel and returns empty; on failure returns the diagnostic WITHOUT
/// touching the negative cache — the caller decides (a multi-kernel
/// batch retries kernels individually first, so one broken kernel
/// cannot poison its wave-mates).  All intermediate files carry a
/// per-invocation unique suffix and are renamed into place, so
/// concurrent PROCESSES sharing the cache directory never observe each
/// other's partial writes.
[[nodiscard]] std::string compile_tu_locked(
    const std::vector<EmittedKernel>& pending, const Toolchain& tc) {
  Registry& reg = Registry::instance();
  std::string source = cpp_kernel_prelude();
  std::uint64_t tu_hash = kEmitterVersion;
  for (const EmittedKernel& p : pending) {
    source += p.code;
    source += "\n";
    tu_hash = hash_combine(tu_hash, p.key);
  }

  std::error_code ec;
  const fs::path dir = cache_dir();
  fs::create_directories(dir, ec);
  static std::atomic<std::uint64_t> invocation{0};
  const std::string unique = std::to_string(::getpid()) + "." +
                             std::to_string(invocation.fetch_add(1));
  const std::string tu_name = "tu_" + hex64(tu_hash);
  const fs::path cpp_path = dir / (tu_name + ".cpp");
  // The temporary source must keep the .cpp extension — the compiler
  // picks the input language from it.
  const fs::path cpp_tmp = dir / (tu_name + ".tmp." + unique + ".cpp");
  const fs::path so_path = dir / (tu_name + ".so");
  const fs::path so_tmp = dir / (tu_name + ".so.tmp." + unique);

  std::string fail;
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::ofstream out(cpp_tmp);
    out << source;
    if (!out) fail = "cannot write " + cpp_tmp.string();
  }
  if (fail.empty()) {
    const std::string cmd = shell_quote(tc.cxx) + " " + kCompileFlags +
                            " -o " + shell_quote(so_tmp.string()) + " " +
                            shell_quote(cpp_tmp.string()) + " " + kLinkLibs;
    const double deadline = compile_timeout_s();
    const CommandResult res = run_command_deadline(cmd, deadline);
    if (!res.spawned) {
      fail = "cannot invoke compiler: " + tc.cxx;
    } else if (res.timed_out) {
      std::ostringstream os;
      os << "compile timed out after " << deadline << "s (" << tc.cxx
         << " killed; raise MCFUSER_JIT_COMPILE_TIMEOUT_S if the machine is "
            "just slow)";
      fail = os.str();
    } else if (res.exit_code != 0 || res.term_signal != 0) {
      fail = "compile failed (" + tc.cxx + "): " +
             res.output.substr(0,
                               std::min<std::size_t>(res.output.size(), 2000));
    }
  }
  if (fail.empty()) {
    fs::rename(so_tmp, so_path, ec);
    if (ec) fail = "cannot publish " + so_path.string() + ": " + ec.message();
  }
  // The source is kept (renamed into place) for debuggability; losing a
  // rename race to a concurrent process is harmless — contents match.
  fs::rename(cpp_tmp, cpp_path, ec);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (fail.empty()) {
    // Per-kernel index entry: key -> (shared object, symbol), how every
    // resolve — in this process or a later one — finds the kernel.
    // Published atomically for the same cross-process consistency; a
    // failed write fails this resolve and the next one recompiles.
    for (const EmittedKernel& p : pending) {
      (void)write_file_atomic((dir / (hex64(p.key) + ".idx")).string(),
                              tu_name + ".so " + p.symbol + "\n");
    }
  } else {
    fs::remove(so_tmp, ec);
  }

  const LockGuard lock(reg.mu);
  reg.stats.compile_wall_s += wall;
  if (!fail.empty()) return fail;
  reg.stats.tus_compiled += 1;
  reg.stats.kernels_compiled += static_cast<std::int64_t>(pending.size());
  // The rename above replaced the file at so_path with a NEW inode: a
  // memoized module for that path (from a previous publish of the same
  // TU name) still maps the old object.  Drop the weak entry so the next
  // load dlopen()s the fresh object — existing strong references keep
  // the old module alive and executable until they release.
  reg.handles.erase(so_path.string());
  return {};
}

/// Compiles all pending kernels in ONE translation unit / compiler
/// invocation.  When a multi-kernel TU fails, its members recompile
/// individually so only genuinely broken kernels get negative-cached —
/// valid wave-mates must not silently degrade to the interpreter.
///
/// Concurrency: a process-wide mutex serializes compilation (two
/// threads racing to compile the same key would otherwise clobber the
/// shared TU paths and negative-cache a corrupted compile), and after
/// taking it every kernel a racing compile published (or failed) is
/// dropped from the batch.
void compile_batch_tu(std::vector<EmittedKernel> pending, const Toolchain& tc) {
  static Mutex compile_mu{"jit.compile"};
  const LockGuard compile_lock(compile_mu);
  std::erase_if(pending,
                [](const EmittedKernel& p) { return settled(published(p)); });
  if (pending.empty()) return;

  std::string fail = compile_tu_locked(pending, tc);
  if (fail.empty()) return;
  if (pending.size() == 1) {
    record_failure(pending.front().key, std::move(fail));
    return;
  }
  // Isolate the offender: one TU per kernel.
  for (const EmittedKernel& p : pending) {
    fail = compile_tu_locked({p}, tc);
    if (!fail.empty()) record_failure(p.key, std::move(fail));
  }
}

/// The whole resolution path for an emitted, lowerable schedule: probe(),
/// then a compile when nothing is published yet.  `compiled` (nullable)
/// is set when this call compiled: loading the kernel one just built is
/// no cache hit, and an artifact that will not load right after its
/// compile is a failure, not a stale cache entry.
[[nodiscard]] KernelArtifact resolve_emitted(const Schedule& s,
                                             const EmittedKernel& ek,
                                             const Toolchain& tc,
                                             bool* compiled) {
  KernelArtifact art = probe(s, ek);
  if (settled(art)) return art;
  compile_batch_tu({ek}, tc);
  art = published(ek);
  if (!settled(art)) {
    art.error = "kernel artifact did not resolve after compilation";
  }
  if (compiled != nullptr) *compiled = true;
  return art;
}

/// The loaded kernel for `key`, counted as an in-memory hit; !ok() when
/// none is loaded.
[[nodiscard]] ResolvedKernel find_loaded(std::uint64_t key) {
  Registry& reg = Registry::instance();
  const LockGuard lock(reg.mu);
  const ResolvedKernel* rk = reg.fns.find(key);
  if (rk == nullptr) return {};
  ++reg.stats.mem_hits;
  return *rk;
}

}  // namespace

Toolchain detect_toolchain() {
#ifdef MCF_SANITIZE_BUILD
  return Toolchain{
      "", "sanitizer build: uninstrumented jit objects would evade the "
          "ASan/UBSan gate"};
#else
  if (const char* env = env::raw("MCFUSER_JIT_CXX")) {
    const std::string resolved = find_on_path(env);
    if (!resolved.empty()) return Toolchain{resolved, ""};
    return Toolchain{"", "MCFUSER_JIT_CXX ('" + std::string(env) +
                             "') is not an executable compiler"};
  }
#ifdef MCF_JIT_CXX
  if (::access(MCF_JIT_CXX, X_OK) == 0) return Toolchain{MCF_JIT_CXX, ""};
#endif
  const std::string fallback = find_on_path("c++");
  if (!fallback.empty()) return Toolchain{fallback, ""};
  return Toolchain{"",
                   "no host C++ compiler found (set MCFUSER_JIT_CXX or "
                   "install one on PATH)"};
#endif
}

std::string cache_dir() {
  if (const std::string dir = env::str("MCFUSER_JIT_CACHE_DIR", "");
      !dir.empty()) {
    return dir;
  }
  if (const std::string xdg = env::str("XDG_CACHE_HOME", ""); !xdg.empty()) {
    return xdg + "/mcfuser/jit";
  }
  if (const std::string home = env::str("HOME", ""); !home.empty()) {
    return home + "/.cache/mcfuser/jit";
  }
  return "/tmp/mcfuser-jit-" + std::to_string(::getuid());
}

std::uint64_t host_key() {
  std::uint64_t h = hash_string(host_cpu_fingerprint());
  h = hash_combine(h, hash_string(kCompileFlags));
  h = hash_combine(h, hash_string(kLinkLibs));
  return hash_combine(h, kEmitterVersion);
}

CompileStats stats_snapshot() {
  Registry& reg = Registry::instance();
  CompileStats s;
  {
    const LockGuard lock(reg.mu);
    s = reg.stats;
  }
  // Module counters are process-global atomics (~JitModule may run while
  // reg.mu is held, so they live outside the lock); fold them here.
  // Load `closed` first: racing closes between the two loads can only
  // make the derived gauge err HIGH, never negative.
  s.modules_closed = g_modules_closed.load(std::memory_order_acquire);
  s.modules_opened = g_modules_opened.load(std::memory_order_acquire);
  s.modules_open = s.modules_opened - s.modules_closed;
  return s;
}

JitModule::JitModule(void* handle) noexcept : handle_(handle) {
  g_modules_opened.fetch_add(1, std::memory_order_acq_rel);
}

JitModule::~JitModule() {
  // May run under Registry::mu (LRU eviction inside insert) — must not
  // touch the registry, only the lock-free counters.
  ::dlclose(handle_);
  g_modules_closed.fetch_add(1, std::memory_order_acq_rel);
}

void set_kernel_cap_for_testing(std::size_t cap) {
  Registry& reg = Registry::instance();
  const LockGuard lock(reg.mu);
  reg.evictions_base +=
      static_cast<std::int64_t>(reg.fns.evictions() + reg.failed.evictions());
  reg.fns = LruMap<std::uint64_t, ResolvedKernel>(
      LruMap<std::uint64_t, ResolvedKernel>::Limits{cap, 0});
  reg.failed = LruMap<std::uint64_t, std::string>(
      LruMap<std::uint64_t, std::string>::Limits{cap, 0});
}

KernelArtifact resolve_artifact(const Schedule& s, const std::string& gpu_key,
                                const Toolchain& tc) {
  if (!tc.ok() || !lowerable(s)) {
    KernelArtifact art;
    art.error = !tc.ok() ? tc.reason : kNotLowerable;
    return art;
  }
  return resolve_emitted(s, emit_keyed(s, gpu_key), tc, nullptr);
}

void prepare_kernels(std::span<const Schedule* const> batch,
                     const std::string& gpu_key, const Toolchain& tc) {
  if (!tc.ok()) return;
  std::vector<EmittedKernel> pending;
  for (const Schedule* s : batch) {
    if (s == nullptr || !lowerable(*s)) continue;
    EmittedKernel ek = emit_keyed(*s, gpu_key);
    if (std::any_of(pending.begin(), pending.end(),
                    [&](const EmittedKernel& p) { return p.key == ek.key; })) {
      continue;
    }
    if (settled(probe(*s, ek))) continue;
    pending.push_back(std::move(ek));
  }
  compile_batch_tu(std::move(pending), tc);
}

ResolvedKernel load_artifact(const KernelArtifact& art, std::string* error) {
  if (ResolvedKernel rk = find_loaded(art.key); rk.ok()) return rk;
  Registry& reg = Registry::instance();
  const LockGuard lock(reg.mu);
  ModuleRef module;
  if (const auto it = reg.handles.find(art.so_path); it != reg.handles.end()) {
    module = it->second.lock();
  }
  if (module == nullptr) {
    // Lazy prune: dlopen is the slow path anyway, so sweep out weak
    // entries whose modules have since closed (keeps the map bounded by
    // the RESIDENT module count, not by every path ever loaded).
    std::erase_if(reg.handles,
                  [](const auto& kv) { return kv.second.expired(); });
    void* handle = ::dlopen(art.so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr) {
      const char* why = ::dlerror();
      *error = "dlopen failed: " + std::string(why != nullptr ? why : "?");
      return {};
    }
    module = std::make_shared<const JitModule>(handle);
    reg.handles[art.so_path] = module;
  }
  void* sym = ::dlsym(module->handle(), art.symbol.c_str());
  if (sym == nullptr) {
    *error = "symbol " + art.symbol + " missing from " + art.so_path;
    return {};
  }
  ResolvedKernel rk{reinterpret_cast<KernelFn>(sym), std::move(module)};
  (void)reg.fns.insert(art.key, rk);
  reg.sync_evictions_locked();
  return rk;
}

ResolvedKernel resolve_kernel(const Schedule& s, const std::string& gpu_key,
                              const Toolchain& tc, std::string* error) {
  std::string err = !tc.ok() ? tc.reason : !lowerable(s) ? kNotLowerable : "";
  if (err.empty()) {
    const EmittedKernel ek = emit_keyed(s, gpu_key);
    // A kernel loaded in this process passed the gate when it was loaded.
    if (ResolvedKernel rk = find_loaded(ek.key); rk.ok()) return rk;
    for (bool retried = false;; retried = true) {
      bool compiled = false;
      const KernelArtifact art = resolve_emitted(s, ek, tc, &compiled);
      if (!art.ok()) {
        err = art.error;
        break;
      }
      if (ResolvedKernel rk = load_artifact(art, &err); rk.ok()) return rk;
      if (compiled || retried) {
        record_failure(art.key, err);
        break;
      }
      // A stale on-disk artifact (deleted, truncated or foreign-ISA
      // shared object) costs one recompile, not a hard failure.
      invalidate_kernel(art.key, err);
    }
  }
  if (error != nullptr) *error = std::move(err);
  return {};
}

void invalidate_kernel(std::uint64_t key, const std::string& why) {
  Registry& reg = Registry::instance();
  {
    const LockGuard lock(reg.mu);
    (void)reg.fns.erase(key);
    (void)reg.failed.erase(key);
  }
  std::error_code ec;
  fs::remove(fs::path(cache_dir()) / (hex64(key) + ".idx"), ec);
  MCF_LOG(Warn) << "jit: cached artifact for key " << hex64(key)
                << " is unusable (" << why << "); dropped, recompiling";
}

std::size_t KernelInputs::bytes() const noexcept {
  std::size_t total = static_cast<std::size_t>(a.numel()) * sizeof(float);
  for (const Tensor& w : weights) {
    total += static_cast<std::size_t>(w.numel()) * sizeof(float);
  }
  return total;
}

KernelInputs seeded_inputs(std::int64_t batch, std::int64_t m,
                           std::span<const std::int64_t> inner,
                           std::uint64_t seed) {
  KernelInputs in;
  in.a = Tensor(Shape{batch, m, inner.front()});
  in.a.fill_random(seed);
  in.weights.reserve(inner.size() - 1);
  for (std::size_t op = 0; op + 1 < inner.size(); ++op) {
    Tensor w(Shape{batch, inner[op], inner[op + 1]});
    w.fill_random(seed + 1 + op);
    in.weights.push_back(std::move(w));
  }
  return in;
}

void run_compiled(KernelFn fn, const Schedule& s, const Tensor& a,
                  std::span<const Tensor> weights, Tensor& out,
                  std::vector<std::vector<float>>& scratch, int threads) {
  MCF_CHECK(fn != nullptr) << "run_compiled needs a resolved kernel";
  const ChainSpec& chain = s.chain();
  MCF_CHECK(static_cast<int>(weights.size()) == chain.num_ops())
      << "need one weight tensor per op";
  MCF_CHECK(a.shape().rank() == 3 && out.shape().rank() == 3)
      << "jit tensors are rank-3 (batch, rows, cols)";
  MCF_CHECK(a.shape()[0] == chain.batch() && out.shape()[0] == chain.batch())
      << "batch mismatch";
  MCF_CHECK(a.shape()[1] == chain.m() && a.shape()[2] == chain.inner().front())
      << "input shape mismatch";
  MCF_CHECK(out.shape()[1] == chain.m() &&
            out.shape()[2] == chain.inner().back())
      << "output shape mismatch";

  std::vector<const float*> wptrs;
  wptrs.reserve(weights.size());
  for (const Tensor& w : weights) wptrs.push_back(w.data().data());
  run_blocks(fn, a.data().data(), wptrs.data(), out.data().data(),
             s.num_blocks(),
             static_cast<std::size_t>(cpp_kernel_scratch_floats(s)), scratch,
             threads);
}

void run_blocks(KernelFn fn, const float* a, const float* const* weights,
                float* out, std::int64_t n_blocks, std::size_t scratch_floats,
                std::vector<std::vector<float>>& scratch, int threads) {
  // Blocks write disjoint output tiles, so contiguous block ranges fan
  // out across the pool; one lazily-allocated, caller-owned scratch
  // arena per worker slot — the interpreter's execution geometry, minus
  // per-call allocation (the arenas persist across sampling repeats).
  // Uncapped, 4 ranges per slot let the threads that start first take
  // over the share of a worker that wakes late, as a GPU hands blocks to
  // whichever SM frees up; capped at T, T ranges keep the run on at most
  // T threads.  Per-block work is independent, so the OUTPUT is
  // bit-identical for every range count.
  ThreadPool& pool = ThreadPool::global();
  if (scratch.size() < pool.concurrency()) scratch.resize(pool.concurrency());
  const std::int64_t want =
      threads > 0 ? threads : 4 * static_cast<std::int64_t>(pool.concurrency());
  const std::int64_t n_ranges =
      std::max<std::int64_t>(1, std::min<std::int64_t>(want, n_blocks));
  pool.parallel_for_slots(n_ranges, [&](unsigned slot, std::int64_t r) {
    std::vector<float>& sc = scratch[slot];
    if (sc.size() != scratch_floats) sc.assign(scratch_floats, 0.0f);
    const std::int64_t begin = r * n_blocks / n_ranges;
    const std::int64_t end = (r + 1) * n_blocks / n_ranges;
    if (begin < end) fn(a, weights, out, sc.data(), begin, end);
  });
}

}  // namespace jit
}  // namespace mcf

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
constexpr std::uint64_t kEmitterVersion = 7;

/// Kernels are always compiled at full optimisation for the build
/// machine's vector ISA — the point of the JIT is that the micro-kernel
/// runs -O3 -march=native even when the library itself is built generic.
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

/// In-memory entry cap of the resolved-kernel map and the negative cache
/// (each).  The maps hold only pointers/strings, but under a flood of
/// millions of distinct schedules an unbounded registry is still an OOM
/// vector — evicted entries re-resolve from the on-disk cache (a dlsym,
/// counted as a disk hit), so the cap trades a cheap lookup for bounded
/// memory.  MCFUSER_JIT_KERNEL_CAP overrides; 0 = unbounded.
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

/// Process-wide kernel registry: resolved entry points and negative
/// results (both LRU-bounded by kernel_map_cap(); support/lru_map.hpp),
/// weak per-path module handles (a path's module is shared while ANY
/// strong reference exists — registry entry, JitKernel, in-flight run —
/// and dlclose()d by ~JitModule on last release), and the compile
/// counters.  All members require holding `mu`.
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

/// dlopen (module memoized per path while alive, caller holds the
/// registry lock) + dlsym.  Returns the entry point together with the
/// ModuleRef that keeps it executable; !ok() on failure.
[[nodiscard]] ResolvedKernel load_symbol_locked(Registry& reg,
                                                const std::string& so_path,
                                                const std::string& symbol,
                                                std::string* error) {
  ModuleRef module;
  if (const auto it = reg.handles.find(so_path); it != reg.handles.end()) {
    module = it->second.lock();
  }
  if (module == nullptr) {
    // Lazy prune: dlopen is the slow path anyway, so sweep out weak
    // entries whose modules have since closed (keeps the map bounded by
    // the RESIDENT module count, not by every path ever loaded).
    std::erase_if(reg.handles,
                  [](const auto& kv) { return kv.second.expired(); });
    void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr) {
      if (error != nullptr) {
        const char* why = ::dlerror();
        *error = "dlopen failed: " + std::string(why != nullptr ? why : "?");
      }
      return {};
    }
    module = std::make_shared<const JitModule>(handle);
    reg.handles[so_path] = module;
  }
  void* sym = ::dlsym(module->handle(), symbol.c_str());
  if (sym == nullptr) {
    if (error != nullptr) {
      *error = "symbol " + symbol + " missing from " + so_path;
    }
    return {};
  }
  return ResolvedKernel{reinterpret_cast<KernelFn>(sym), std::move(module)};
}

/// One compiler invocation over `pending` (caller holds the compile
/// mutex).  On success publishes entry points + per-kernel idx files
/// and returns empty; on failure returns the diagnostic WITHOUT
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

  const LockGuard lock(reg.mu);
  reg.stats.compile_wall_s += wall;
  if (!fail.empty()) {
    fs::remove(so_tmp, ec);
    return fail;
  }
  reg.stats.tus_compiled += 1;
  // The rename above replaced the file at so_path with a NEW inode: a
  // memoized module for that path (from a previous publish of the same
  // TU name) still maps the old object.  Drop the weak entry so this
  // batch dlopen()s the fresh object — existing strong references keep
  // the stale module alive and executable until they release.
  reg.handles.erase(so_path.string());
  for (const EmittedKernel& p : pending) {
    std::string err;
    ResolvedKernel rk = load_symbol_locked(reg, so_path.string(), p.symbol, &err);
    if (!rk.ok()) {
      reg.stats.failures += 1;
      (void)reg.failed.insert(p.key, std::move(err));
      reg.sync_evictions_locked();
      continue;
    }
    reg.stats.kernels_compiled += 1;
    (void)reg.fns.insert(p.key, std::move(rk));
    reg.sync_evictions_locked();
    // Per-kernel index entry: key -> (shared object, symbol), so any
    // later process resolves this kernel without recompiling.  Published
    // atomically for the same cross-process consistency; a failed write
    // only costs a later recompile.
    (void)write_file_atomic((dir / (hex64(p.key) + ".idx")).string(),
                            tu_name + ".so " + p.symbol + "\n");
  }
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
/// taking it every already-resolved kernel is dropped from the batch.
void compile_batch_tu(std::vector<EmittedKernel> pending, const Toolchain& tc) {
  static Mutex compile_mu{"jit.compile"};
  const LockGuard compile_lock(compile_mu);
  Registry& reg = Registry::instance();
  {
    const LockGuard lock(reg.mu);
    std::erase_if(pending, [&](const EmittedKernel& p) {
      return reg.fns.contains(p.key) || reg.failed.contains(p.key);
    });
  }
  if (pending.empty()) return;

  std::string fail = compile_tu_locked(pending, tc);
  if (fail.empty()) return;
  if (pending.size() > 1) {
    // Isolate the offender: one TU per kernel.
    for (const EmittedKernel& p : pending) {
      fail = compile_tu_locked({p}, tc);
      if (!fail.empty()) {
        const LockGuard lock(reg.mu);
        reg.stats.failures += 1;
        (void)reg.failed.insert(p.key, fail);
        reg.sync_evictions_locked();
      }
    }
    return;
  }
  const LockGuard lock(reg.mu);
  reg.stats.failures += 1;
  (void)reg.failed.insert(pending.front().key, std::move(fail));
  reg.sync_evictions_locked();
}

/// Host-side stale-artifact healing (the in-process mirror of the
/// sandbox worker's poisoned-artifact path): a `<key>.idx` pointing at a
/// deleted, truncated or otherwise unloadable `tu_*.so` must cost ONE
/// recompile, not surface a hard dlopen failure or poison the negative
/// cache.  Removes the idx so no process keeps probing the corpse; the
/// recompile republishes both files via tmp+rename.
void heal_stale_artifact(std::uint64_t key, const std::string& why) {
  std::error_code ec;
  fs::remove(fs::path(cache_dir()) / (hex64(key) + ".idx"), ec);
  MCF_LOG(Warn) << "jit: cached artifact for key " << hex64(key)
                << " is stale (" << why << "); evicted, recompiling";
}

/// In-memory or on-disk hit; !ok() on miss.  `miss_reason` (nullable)
/// receives a previously recorded compile failure.  `count_hits` is
/// false on the lookup right after a fresh compile — resolving the
/// kernel one just built is not a cache hit.
[[nodiscard]] ResolvedKernel try_cached(std::uint64_t key,
                                        std::string* miss_reason,
                                        bool count_hits = true) {
  Registry& reg = Registry::instance();
  {
    const LockGuard lock(reg.mu);
    if (const ResolvedKernel* rk = reg.fns.find(key)) {
      if (count_hits) ++reg.stats.mem_hits;
      return *rk;
    }
    if (const std::string* why = reg.failed.find(key)) {
      if (miss_reason != nullptr) *miss_reason = *why;
      return {};
    }
  }
  // Disk probe outside the lock (filesystem I/O).
  const fs::path dir = cache_dir();
  std::ifstream idx(dir / (hex64(key) + ".idx"));
  std::string so_name;
  std::string symbol;
  if (!(idx >> so_name >> symbol)) return {};
  const fs::path so_path = dir / so_name;
  std::error_code ec;
  if (!fs::exists(so_path, ec)) {
    // idx survived but its shared object did not (partial cache wipe,
    // foreign cleanup): heal instead of probing the dangling entry on
    // every future resolve.
    heal_stale_artifact(key, "shared object " + so_name + " missing");
    return {};
  }

  std::string err;
  ResolvedKernel rk;
  {
    const LockGuard lock(reg.mu);
    if (const ResolvedKernel* racing = reg.fns.find(key)) {
      ++reg.stats.mem_hits;
      return *racing;
    }
    rk = load_symbol_locked(reg, so_path.string(), symbol, &err);
    if (rk.ok()) {
      ++reg.stats.disk_hits;
      (void)reg.fns.insert(key, rk);
      reg.sync_evictions_locked();
      return rk;
    }
    // Unloadable object (truncated write, foreign-ISA restore) or a TU
    // that no longer exports this symbol: make sure the next dlopen sees
    // the republished file, not a memoized stale module.
    reg.handles.erase(so_path.string());
  }
  heal_stale_artifact(key, err.empty() ? "unloadable shared object" : err);
  return {};
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

ResolvedKernel resolve_kernel(const Schedule& s, const std::string& gpu_key,
                              const Toolchain& tc, std::string* error) {
  if (!tc.ok()) {
    if (error != nullptr) *error = tc.reason;
    return {};
  }
  EmittedKernel ek = emit_keyed(s, gpu_key);
  // Pre-compile safety gate (src/verify/): a schedule the static
  // analyzer can prove out-of-bounds is never handed to the compiler —
  // and the check runs BEFORE the cache probe, so even a poisoned disk
  // cache cannot hand back a kernel the verifier rejects.
  if (verify::verify_enabled()) {
    if (std::string verr = verify::verify_gate_error(s); !verr.empty()) {
      Registry& reg = Registry::instance();
      const LockGuard lock(reg.mu);
      (void)reg.failed.insert(ek.key, verr);
      reg.sync_evictions_locked();
      if (error != nullptr) *error = std::move(verr);
      return {};
    }
  }
  std::string fail;
  if (ResolvedKernel rk = try_cached(ek.key, &fail); rk.ok()) return rk;
  if (!fail.empty()) {
    if (error != nullptr) *error = fail;
    return {};
  }
  const std::uint64_t key = ek.key;
  compile_batch_tu({std::move(ek)}, tc);
  if (ResolvedKernel rk = try_cached(key, &fail, /*count_hits=*/false); rk.ok()) {
    return rk;
  }
  if (error != nullptr) {
    *error = fail.empty() ? "kernel did not resolve after compilation" : fail;
  }
  return {};
}

KernelArtifact resolve_artifact(const Schedule& s, const std::string& gpu_key,
                                const Toolchain& tc) {
  KernelArtifact a;
  if (!tc.ok()) {
    a.error = tc.reason;
    return a;
  }
  if (!s.valid() || !s.consume_complete()) {
    a.error = "schedule is not lowerable (invalid or Rule-2 incomplete)";
    return a;
  }
  EmittedKernel ek = emit_keyed(s, gpu_key);
  a.key = ek.key;
  a.symbol = ek.symbol;
  // Same pre-compile safety gate as resolve_kernel: the sandbox workers
  // must never be handed an artifact the verifier rejects, cached or not.
  if (verify::verify_enabled()) {
    if (std::string verr = verify::verify_gate_error(s); !verr.empty()) {
      Registry& vreg = Registry::instance();
      const LockGuard lock(vreg.mu);
      (void)vreg.failed.insert(a.key, verr);
      vreg.sync_evictions_locked();
      a.error = std::move(verr);
      return a;
    }
  }
  Registry& reg = Registry::instance();
  const fs::path dir = cache_dir();
  const auto read_idx = [&]() -> bool {
    std::ifstream idx(dir / (hex64(a.key) + ".idx"));
    std::string so_name;
    std::string symbol;
    if (!(idx >> so_name >> symbol)) return false;
    const fs::path so = dir / so_name;
    std::error_code ec;
    if (!fs::exists(so, ec)) return false;
    a.so_path = so.string();
    a.symbol = symbol;
    return true;
  };
  {
    const LockGuard lock(reg.mu);
    if (const std::string* why = reg.failed.find(a.key)) {
      a.error = *why;
      return a;
    }
  }
  if (read_idx()) {
    const LockGuard lock(reg.mu);
    ++reg.stats.disk_hits;
    return a;
  }
  {
    // The artifact resolves through the idx file, never the in-memory fn
    // map — a stale fn entry (its idx removed by invalidate_kernel) would
    // make compile_batch_tu skip the recompile that recreates the idx.
    const LockGuard lock(reg.mu);
    (void)reg.fns.erase(a.key);
  }
  compile_batch_tu({std::move(ek)}, tc);
  {
    const LockGuard lock(reg.mu);
    if (const std::string* why = reg.failed.find(a.key)) {
      a.error = *why;
      return a;
    }
  }
  if (!read_idx()) a.error = "kernel artifact did not resolve after compilation";
  return a;
}

bool invalidate_kernel(std::uint64_t key) {
  Registry& reg = Registry::instance();
  bool removed = false;
  {
    const LockGuard lock(reg.mu);
    removed = reg.fns.erase(key);
    removed = reg.failed.erase(key) || removed;
  }
  std::error_code ec;
  removed =
      fs::remove(fs::path(cache_dir()) / (hex64(key) + ".idx"), ec) || removed;
  return removed;
}

void prepare_kernels(std::span<const Schedule* const> batch,
                     const std::string& gpu_key, const Toolchain& tc) {
  if (!tc.ok()) return;
  std::vector<EmittedKernel> pending;
  std::vector<std::uint64_t> seen;
  for (const Schedule* s : batch) {
    if (s == nullptr || !s->valid() || !s->consume_complete()) continue;
    EmittedKernel ek = emit_keyed(*s, gpu_key);
    if (std::find(seen.begin(), seen.end(), ek.key) != seen.end()) continue;
    seen.push_back(ek.key);
    if (verify::verify_enabled()) {
      if (std::string verr = verify::verify_gate_error(*s); !verr.empty()) {
        Registry& reg = Registry::instance();
        const LockGuard lock(reg.mu);
        (void)reg.failed.insert(ek.key, std::move(verr));
        reg.sync_evictions_locked();
        continue;
      }
    }
    if (try_cached(ek.key, nullptr).ok()) continue;
    {
      Registry& reg = Registry::instance();
      const LockGuard lock(reg.mu);
      if (reg.failed.contains(ek.key)) continue;
    }
    pending.push_back(std::move(ek));
  }
  compile_batch_tu(std::move(pending), tc);
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

// ---- JitKernel --------------------------------------------------------------

JitKernel::JitKernel(Schedule schedule, const std::string& gpu_key)
    : s_(std::move(schedule)) {
  if (!s_.valid()) {
    error_ = "schedule has no legal statement placement";
    return;
  }
  if (!s_.consume_complete()) {
    error_ = "schedule consumes partial tiles (Rule-2 structure)";
    return;
  }
  jit::ResolvedKernel rk =
      jit::resolve_kernel(s_, gpu_key, jit::detect_toolchain(), &error_);
  fn_ = rk.fn;
  // The kernel pins its module: registry eviction (or a cap change) can
  // never unmap code a live JitKernel may still run.
  module_ = std::move(rk.module);
}

void JitKernel::run(const Tensor& a, std::span<const Tensor> weights,
                    Tensor& out, int threads) const {
  MCF_CHECK(fn_ != nullptr) << "JitKernel::run on a failed kernel: " << error_;
  jit::run_compiled(fn_, s_, a, weights, out, scratch_, threads);
}

}  // namespace mcf

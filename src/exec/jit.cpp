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
#include "support/json.hpp"
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
/// v11: the softmax epilogue calls mcf_softmax_tile<...>, and a kernel's
/// shared object links from parts compiled apart: the bodies, which call
/// the tile routines through `extern template` declarations, and their
/// explicit instantiations.
constexpr std::uint64_t kEmitterVersion = 11;

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
/// sentinel semantics.  -nodefaultlibs plus kLinkLibs links the objects
/// against libc alone: the kernels call nothing from libstdc++, libm or
/// libgcc_s, and scanning them was nearly half the link.  Every step runs
/// with the same flags: each part compiles with them plus `-c` (which
/// ignores the link options), and the link repeats them.
constexpr const char* kCompileFlags =
    "-std=c++17 -O3 -march=native -fopenmp-simd -fno-math-errno "
    "-fno-trapping-math -fPIC -shared -nodefaultlibs";

/// Libraries named after the objects on the link line (the linker
/// resolves left to right).
constexpr const char* kLinkLibs = "-lc";

#ifndef MCF_SANITIZE_BUILD
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
#endif

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
  std::vector<std::string> instantiations;  ///< CppKernelSource's
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
  CppKernelSource src = emit_cpp_kernel(s, "mcf_k" + hex64(h));
  h = hash_combine(h, hash_string(cpp_kernel_prelude()));
  return EmittedKernel{hash_combine(h, hash_string(src.code)),
                       std::move(src.symbol), std::move(src.code),
                       std::move(src.instantiations)};
}

/// Hard wall-clock deadline for one batch compile (its parts and the
/// link), in seconds.  Re-read per batch (tests vary it); 0 disables the
/// deadline.  A hung $CXX (broken wrapper script, NFS stall, runaway
/// template instantiation) must fail the measurement wave, not stall it
/// forever.
[[nodiscard]] double compile_timeout_s() {
  return env::real("MCFUSER_JIT_COMPILE_TIMEOUT_S", 120.0, 0.0, 1e9);
}

using Clock = std::chrono::steady_clock;

struct CommandResult {
  bool spawned = false;    ///< fork/exec/poll machinery itself worked
  bool timed_out = false;  ///< killed at the deadline
  int failed = -1;         ///< index of the first command that failed
  int exit_code = 0;       ///< of command `failed`
  int term_signal = 0;     ///< of command `failed`
  std::string output;      ///< merged stdout+stderr of command `failed`
  [[nodiscard]] bool ok() const noexcept {
    return spawned && !timed_out && failed < 0;
  }
};

/// Runs every argv of `cmds` at once (argv[0] is the executable's path),
/// each in its own process group with stdout+stderr captured, polling all
/// of their pipes against one wall-clock `deadline`.  The first command to
/// fail, or the deadline, SIGKILLs every process group still running (the
/// child setpgid()s itself; both sides race-proof it), and every child is
/// reaped before the call returns.
[[nodiscard]] CommandResult run_commands(
    const std::vector<std::vector<std::string>>& cmds,
    Clock::time_point deadline) {
  struct Child {
    pid_t pid = -1;
    int fd = -1;  ///< read end of its output pipe; -1 once reaped
    std::string output;
  };
  CommandResult r;
  r.spawned = true;
  std::vector<Child> kids(cmds.size());
  for (std::size_t i = 0; i < cmds.size(); ++i) {
    // Built before fork(): the child of a threaded process may only make
    // async-signal-safe calls.
    std::vector<char*> argv;
    for (const std::string& a : cmds[i]) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    // O_CLOEXEC atomically (dup2 onto 1/2 clears it in the child): a
    // sandbox worker exec'd by another thread mid-compile must not inherit
    // the write end, or the read below waits for that worker to exit
    // instead of the compiler (in practice: until the compile deadline).
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      r.spawned = false;
      break;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      r.spawned = false;
      break;
    }
    if (pid == 0) {
      ::setpgid(0, 0);
      ::dup2(fds[1], 1);
      ::dup2(fds[1], 2);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::setpgid(pid, pid);  // mirror the child's call: whoever runs first wins
    ::close(fds[1]);
    kids[i].pid = pid;
    kids[i].fd = fds[0];
  }
  std::vector<pollfd> pfds;
  std::vector<std::size_t> polled;  // kids index of each pfds entry
  char buf[4096];
  while (r.spawned && r.failed < 0) {
    pfds.clear();
    polled.clear();
    for (std::size_t i = 0; i < kids.size(); ++i) {
      if (kids[i].fd < 0) continue;
      pfds.push_back({kids[i].fd, POLLIN, 0});
      polled.push_back(i);
    }
    if (pfds.empty()) break;  // every command exited
    // Poll in slices of at most a minute: an int of milliseconds.
    std::int64_t timeout_ms = 60'000;
    if (deadline != Clock::time_point::max()) {
      const std::int64_t left =
          std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now())
              .count();
      if (left <= 0) {
        r.timed_out = true;
        break;
      }
      timeout_ms = std::min(timeout_ms, left);
    }
    if (::poll(pfds.data(), pfds.size(), static_cast<int>(timeout_ms)) < 0) {
      if (errno == EINTR) continue;
      r.spawned = false;
      break;
    }
    for (std::size_t j = 0; j < pfds.size(); ++j) {
      if (pfds[j].revents == 0) continue;
      Child& k = kids[polled[j]];
      const ssize_t n = ::read(k.fd, buf, sizeof(buf));
      if (n > 0) {
        k.output.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      // EOF (the command exited) or an unrecoverable read error: reap it;
      // the first failure ends the run.
      ::close(k.fd);
      k.fd = -1;
      int status = 0;
      while (::waitpid(k.pid, &status, 0) < 0 && errno == EINTR) {
      }
      const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 0;
      const int sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
      if ((code != 0 || sig != 0) && r.failed < 0) {
        r.failed = static_cast<int>(polled[j]);
        r.exit_code = code;
        r.term_signal = sig;
        r.output = std::move(k.output);
      }
    }
  }
  for (Child& k : kids) {
    if (k.fd < 0) continue;  // reaped at its EOF, or never started
    ::kill(-k.pid, SIGKILL);
    ::close(k.fd);
    int status = 0;
    while (::waitpid(k.pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  return r;
}

/// `$CXX kCompileFlags` as the head of an argv.
[[nodiscard]] std::vector<std::string> compiler_argv(const Toolchain& tc) {
  std::vector<std::string> argv{tc.cxx};
  std::istringstream flags(kCompileFlags);
  for (std::string f; flags >> f;) argv.push_back(std::move(f));
  return argv;
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

/// The sources of one batch compile, at most `max_parts` of them: part 0
/// holds the kernel bodies and an `extern template` declaration of every
/// prelude tile routine they call; parts 1.. hold the explicit
/// instantiations of those routines, sorted and dealt round-robin, so the
/// optimiser works through them on parallel compilers.  With one part the
/// bodies instantiate the routines implicitly.
[[nodiscard]] std::vector<std::string> part_sources(
    const std::vector<EmittedKernel>& pending, std::size_t max_parts) {
  std::vector<std::string> inst;
  for (const EmittedKernel& p : pending) {
    inst.insert(inst.end(), p.instantiations.begin(), p.instantiations.end());
  }
  std::sort(inst.begin(), inst.end());
  inst.erase(std::unique(inst.begin(), inst.end()), inst.end());
  const std::size_t n_parts =
      1 + std::min(std::max<std::size_t>(max_parts, 1) - 1, inst.size());
  std::vector<std::string> parts(n_parts, cpp_kernel_prelude());
  for (std::size_t j = 0; n_parts > 1 && j < inst.size(); ++j) {
    parts[0] += "extern template " + inst[j] + ";\n";
    parts[1 + j % (n_parts - 1)] += "template " + inst[j] + ";\n";
  }
  for (const EmittedKernel& p : pending) {
    parts[0] += p.code;
    parts[0] += "\n";
  }
  return parts;
}

/// The diagnostic of a failed `step` ("compile" or "link") of `parts`
/// commands.
[[nodiscard]] std::string step_error(const CommandResult& res,
                                     const Toolchain& tc, const char* step,
                                     std::size_t parts, double timeout_s) {
  std::ostringstream os;
  if (!res.spawned) {
    os << "cannot invoke compiler: " << tc.cxx;
  } else if (res.timed_out) {
    os << "compile timed out after " << timeout_s << "s (" << tc.cxx
       << " killed; raise MCFUSER_JIT_COMPILE_TIMEOUT_S if the machine is "
          "just slow)";
  } else {
    os << step << " failed (" << tc.cxx;
    if (parts > 1) os << ", part " << res.failed << " of " << parts;
    if (res.term_signal != 0) os << ", signal " << res.term_signal;
    else os << ", exit " << res.exit_code;
    os << "): " << res.output.substr(0, 2000);
  }
  return os.str();
}

/// One batch compile of `pending` into one shared object (caller holds
/// the compile mutex): its part_sources() compile concurrently with `-c`,
/// one per pool thread at most (ThreadPool::global().size(), the kernel
/// fan-out's width), under one deadline, then one link.  On success
/// publishes the shared object plus one idx file per kernel, removes the
/// sources and objects and returns empty; on failure returns the
/// diagnostic, naming the part sources it keeps as tu_<hash>.p<j>.cpp,
/// WITHOUT touching the negative cache — the caller decides (a
/// multi-kernel batch retries kernels individually first, so one broken
/// kernel cannot poison its wave-mates).  All intermediate files carry a
/// per-invocation unique suffix and are renamed into place, so concurrent
/// PROCESSES sharing the cache directory never observe each other's
/// partial writes.
[[nodiscard]] std::string compile_tu_locked(
    const std::vector<EmittedKernel>& pending, const Toolchain& tc) {
  Registry& reg = Registry::instance();
  std::uint64_t tu_hash = kEmitterVersion;
  for (const EmittedKernel& p : pending) tu_hash = hash_combine(tu_hash, p.key);
  const std::vector<std::string> parts =
      part_sources(pending, ThreadPool::global().size());

  std::error_code ec;
  const fs::path dir = cache_dir();
  fs::create_directories(dir, ec);
  static std::atomic<std::uint64_t> invocation{0};
  const std::string unique = std::to_string(::getpid()) + "." +
                             std::to_string(invocation.fetch_add(1));
  const std::string tu_name = "tu_" + hex64(tu_hash);
  const fs::path so_path = dir / (tu_name + ".so");
  const fs::path so_tmp = dir / (tu_name + ".so.tmp." + unique);
  // Part j's temporary source and object; the source must keep the .cpp
  // extension — the compiler picks the input language from it.
  const auto part_tmp = [&](std::size_t j, const char* ext) {
    return (dir / (tu_name + ".tmp." + unique + ".p" + std::to_string(j) + ext))
        .string();
  };

  std::string fail;
  const auto t0 = Clock::now();
  const double timeout_s = compile_timeout_s();
  const Clock::time_point deadline =
      timeout_s > 0 ? t0 + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(timeout_s))
                    : Clock::time_point::max();
  std::vector<std::vector<std::string>> compiles;
  std::vector<std::string> link = compiler_argv(tc);
  link.insert(link.end(), {"-o", so_tmp.string()});
  for (std::size_t j = 0; j < parts.size() && fail.empty(); ++j) {
    std::ofstream out(part_tmp(j, ".cpp"));
    out << parts[j];
    if (!out) fail = "cannot write " + part_tmp(j, ".cpp");
    compiles.push_back(compiler_argv(tc));
    compiles.back().insert(compiles.back().end(),
                           {"-c", "-o", part_tmp(j, ".o"), part_tmp(j, ".cpp")});
    link.push_back(part_tmp(j, ".o"));
  }
  link.push_back(kLinkLibs);
  if (fail.empty()) {
    const CommandResult res = run_commands(compiles, deadline);
    if (!res.ok()) fail = step_error(res, tc, "compile", parts.size(), timeout_s);
  }
  if (fail.empty()) {
    const CommandResult res = run_commands({link}, deadline);
    if (!res.ok()) fail = step_error(res, tc, "link", 1, timeout_s);
  }
  if (fail.empty()) {
    fs::rename(so_tmp, so_path, ec);
    if (ec) fail = "cannot publish " + so_path.string() + ": " + ec.message();
  }
  fs::remove(so_tmp, ec);
  // A source is kept only for a failed compile, which is when someone
  // reads it; losing a rename race to a concurrent process is harmless —
  // contents match.
  std::string kept;
  for (std::size_t j = 0; j < parts.size(); ++j) {
    fs::remove(part_tmp(j, ".o"), ec);
    if (fail.empty()) {
      fs::remove(part_tmp(j, ".cpp"), ec);
      continue;
    }
    const fs::path src = dir / (tu_name + ".p" + std::to_string(j) + ".cpp");
    fs::rename(part_tmp(j, ".cpp"), src, ec);
    if (!ec) kept += " " + src.string();
  }
  if (!kept.empty()) fail += "\nsources kept:" + kept;
  const double wall =
      std::chrono::duration<double>(Clock::now() - t0).count();
  if (fail.empty()) {
    // Per-kernel index entry: key -> (shared object, symbol), how every
    // resolve — in this process or a later one — finds the kernel.
    // Published atomically for the same cross-process consistency; a
    // failed write fails this resolve and the next one recompiles.
    for (const EmittedKernel& p : pending) {
      (void)write_file_atomic((dir / (hex64(p.key) + ".idx")).string(),
                              tu_name + ".so " + p.symbol + "\n");
    }
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

/// Compiles all pending kernels into ONE shared object (one TU, built in
/// parts).  When a multi-kernel TU fails, its members recompile
/// individually so only genuinely broken kernels get negative-cached —
/// valid wave-mates must not silently degrade to the interpreter.
///
/// Concurrency: a process-wide mutex serializes compilation (two
/// threads racing to compile the same key would otherwise clobber the
/// shared TU paths and negative-cache a corrupted compile), so a process
/// runs at most one batch's parts — pool size() compilers — at once; and
/// after taking it every kernel a racing compile published (or failed) is
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
  MCF_LOG(Warn) << "jit: a TU of " << pending.size()
                << " kernels failed; compiling them one per TU (" << fail << ")";
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

std::string CompileStats::to_json() const {
  return JsonWriter().object()
      .field("tus_compiled", tus_compiled)
      .field("kernels_compiled", kernels_compiled)
      .field("cache_hits", cache_hits()).field("mem_hits", mem_hits)
      .field("disk_hits", disk_hits).field("failures", failures)
      .field("evictions", evictions).field("modules_opened", modules_opened)
      .field("modules_closed", modules_closed)
      .field("modules_open", modules_open)
      .field("compile_wall_s", compile_wall_s)
      .end().str();
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

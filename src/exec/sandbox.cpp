#include "exec/sandbox.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/jit.hpp"
#include "support/env.hpp"
#include "support/framing.hpp"
#include "support/logging.hpp"
#include "support/lru_map.hpp"
#include "support/mutex.hpp"
#include "tensor/tensor.hpp"

extern char** environ;

namespace mcf {
namespace sandbox {

namespace {

using framing::Deadline;
using framing::FrameReader;
using framing::FrameWriter;
using framing::IoStatus;

constexpr std::uint32_t kMagic = 0x4D434657;  // "MCFW"
/// v3: RunRequest no longer carries a block fan-out cap (v2's `threads`);
/// workers always run the full-pool fan-out, as in-process measurement
/// does.  v4: a trailing u8 carries RunRequest::fault.  Host and workers
/// re-exec the same binary, so a version mismatch only means a corrupted
/// stream — rejected, never skewed.
constexpr std::uint32_t kProtocolVersion = 4;

/// Frames are small (a request is a path + a dozen integers; a response
/// is a handful of doubles) — anything larger is a corrupted stream.
/// The cap is the process-wide MCFUSER_FRAME_MAX_BYTES knob (default
/// 1 MiB), shared with the net front-end.
[[nodiscard]] std::size_t max_frame_bytes() {
  return framing::default_max_frame_bytes();
}

/// The distinct classification for cap violations (satellite of the
/// hardening PR): "frame too large: N > cap", same phrasing in the
/// sandbox and net paths so log greps find both.
[[nodiscard]] std::string frame_too_large_reason(std::uint32_t announced) {
  return "frame too large: " + std::to_string(announced) + " > " +
         std::to_string(max_frame_bytes());
}

enum WireStatus : std::uint8_t {
  kOk = 0,
  kLoadFailed = 1,  ///< dlopen or dlsym failed: the artifact is poisoned
  kGarbageOutput = 3,
  kBadRequest = 4,
};

// ---- process-wide stats + crash negative-cache ------------------------------

/// Crash negative-cache entry cap (LRU).
constexpr std::size_t kCrashCacheCap = 4096;

struct GlobalState {
  /// Innermost of the sandbox pair: WorkerPool code takes State::mu
  /// first, GlobalState::mu second, never the reverse.
  Mutex mu{"sandbox.global"};
  WorkerStats stats MCF_GUARDED_BY(mu);
  LruMap<std::uint64_t, CrashEntry> crash MCF_GUARDED_BY(mu);

  GlobalState()
      : crash(LruMap<std::uint64_t, CrashEntry>::Limits{kCrashCacheCap, 0}) {}

  static GlobalState& instance() {
    static GlobalState g;
    return g;
  }
};

// ---- wire format ------------------------------------------------------------
// Little-endian, length-prefixed frames via support/framing.hpp (the
// codec was born here and extracted once the net front-end needed it);
// the MCFW payload layout below is pinned bit-identical by the chaos
// suite.

[[nodiscard]] const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGKILL: return "SIGKILL";
    case SIGABRT: return "SIGABRT";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case SIGBUS: return "SIGBUS";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    default: return nullptr;
  }
}

[[nodiscard]] std::string describe_exit(int status) {
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    if (const char* name = signal_name(sig)) {
      return std::string("worker killed by ") + name;
    }
    return "worker killed by signal " + std::to_string(sig);
  }
  if (WIFEXITED(status)) {
    return "worker exited with status " + std::to_string(WEXITSTATUS(status));
  }
  return "worker died (unrecognised wait status)";
}

// ---- request/response codecs ------------------------------------------------

[[nodiscard]] std::string encode_request(const RunRequest& req) {
  FrameWriter w;
  w.u32(kMagic);
  w.u32(kProtocolVersion);
  w.u64(req.key);
  w.str(req.so_path);
  w.str(req.symbol);
  w.i64(req.batch);
  w.i64(req.m);
  w.u32(static_cast<std::uint32_t>(req.inner.size()));
  for (const std::int64_t d : req.inner) w.i64(d);
  w.i64(req.n_blocks);
  w.i64(req.scratch_floats);
  w.u32(static_cast<std::uint32_t>(req.warmup < 0 ? 0 : req.warmup));
  w.u32(static_cast<std::uint32_t>(req.repeats < 1 ? 1 : req.repeats));
  w.u64(req.data_seed);
  w.u8(static_cast<std::uint8_t>(req.fault));
  return w.framed();
}

[[nodiscard]] bool decode_request(const std::string& payload, RunRequest* req,
                                  std::string* why) {
  FrameReader r(payload.data(), payload.size());
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t n_inner = 0;
  std::uint32_t warmup = 0;
  std::uint32_t repeats = 0;
  std::uint8_t fault = 0;
  if (!r.u32(&magic) || magic != kMagic) {
    *why = "bad magic";
    return false;
  }
  if (!r.u32(&version) || version != kProtocolVersion) {
    *why = "protocol version mismatch";
    return false;
  }
  bool ok = r.u64(&req->key) && r.str(&req->so_path) && r.str(&req->symbol) &&
            r.i64(&req->batch) && r.i64(&req->m) && r.u32(&n_inner);
  if (ok && n_inner > 64) ok = false;  // a chain has a handful of ops
  if (ok) {
    req->inner.resize(n_inner);
    for (std::int64_t& d : req->inner) ok = ok && r.i64(&d);
  }
  ok = ok && r.i64(&req->n_blocks) && r.i64(&req->scratch_floats) &&
       r.u32(&warmup) && r.u32(&repeats) && r.u64(&req->data_seed) &&
       r.u8(&fault);
  if (!ok) {
    *why = "truncated request";
    return false;
  }
  if (fault > static_cast<std::uint8_t>(Fault::Garbage)) {
    *why = "unknown fault " + std::to_string(fault);
    return false;
  }
  req->fault = static_cast<Fault>(fault);
  req->warmup = static_cast<int>(warmup);
  req->repeats = static_cast<int>(repeats);
  if (req->batch < 1 || req->m < 1 || req->inner.size() < 2 ||
      req->n_blocks < 1 || req->scratch_floats < 0) {
    *why = "invalid geometry";
    return false;
  }
  for (const std::int64_t d : req->inner) {
    if (d < 1) {
      *why = "invalid geometry";
      return false;
    }
  }
  return true;
}

struct WireResponse {
  std::uint8_t status = kBadRequest;
  std::string reason;
  std::vector<double> samples;
};

[[nodiscard]] std::string encode_response(const WireResponse& resp) {
  FrameWriter w;
  w.u32(kMagic);
  w.u8(resp.status);
  w.str(resp.reason);
  w.u32(static_cast<std::uint32_t>(resp.samples.size()));
  for (const double s : resp.samples) w.f64(s);
  return w.framed();
}

[[nodiscard]] bool decode_response(const std::string& payload,
                                   WireResponse* resp) {
  FrameReader r(payload.data(), payload.size());
  std::uint32_t magic = 0;
  std::uint32_t n_samples = 0;
  if (!r.u32(&magic) || magic != kMagic) return false;
  if (!r.u8(&resp->status) || !r.str(&resp->reason) || !r.u32(&n_samples)) {
    return false;
  }
  if (n_samples > 4096) return false;
  resp->samples.resize(n_samples);
  for (double& s : resp->samples) {
    if (!r.f64(&s)) return false;
  }
  return true;
}

// ---- spawning ---------------------------------------------------------------

void ignore_sigpipe_once() {
  // A write to a crashed worker's pipe must surface as EPIPE, not kill
  // the host.  Installed once, process-wide (documented side effect of
  // constructing a WorkerPool).
  static const int installed = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return 0;
  }();
  (void)installed;
}

/// fork/exec of /proc/self/exe with MCFUSER_SANDBOX_WORKER=1; the child
/// sees the request pipe on fd 3 and the response pipe on fd 4.  Returns
/// the pid and the host-side pipe ends, or -1 with `err` set.
[[nodiscard]] pid_t spawn_worker(int* req_wr, int* resp_rd, std::string* err) {
  // Pre-build the environment: post-fork allocation is not async-signal
  // safe.  Strip any inherited worker flag first so the value is ours.
  std::vector<std::string> env_store;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "MCFUSER_SANDBOX_WORKER=", 23) == 0) continue;
    env_store.emplace_back(*e);
  }
  env_store.emplace_back("MCFUSER_SANDBOX_WORKER=1");
  std::vector<char*> envp;
  envp.reserve(env_store.size() + 1);
  for (std::string& e : env_store) envp.push_back(e.data());
  envp.push_back(nullptr);
  static const char* argv0 = "mcfuser-sandbox-worker";
  char* const argv[] = {const_cast<char*>(argv0), nullptr};

  // O_CLOEXEC atomically: a concurrently spawned sibling must not
  // inherit these pipes (its copy of a request fd would keep a dead
  // worker's pipe readable forever).
  int req[2];
  int resp[2];
  if (::pipe2(req, O_CLOEXEC) != 0) {
    *err = std::strerror(errno);
    return -1;
  }
  if (::pipe2(resp, O_CLOEXEC) != 0) {
    *err = std::strerror(errno);
    ::close(req[0]);
    ::close(req[1]);
    return -1;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    *err = std::strerror(errno);
    ::close(req[0]);
    ::close(req[1]);
    ::close(resp[0]);
    ::close(resp[1]);
    return -1;
  }
  if (pid == 0) {
    // Child: land the pipe ends on fds 3/4 (via temporaries above the
    // target range so the dup2s cannot collide), then re-exec ourselves.
    const int rfd = ::fcntl(req[0], F_DUPFD_CLOEXEC, 5);
    const int wfd = ::fcntl(resp[1], F_DUPFD_CLOEXEC, 5);
    if (rfd < 0 || wfd < 0 || ::dup2(rfd, 3) < 0 || ::dup2(wfd, 4) < 0) {
      ::_exit(126);
    }
    ::execve("/proc/self/exe", argv, envp.data());
    ::_exit(127);
  }
  ::close(req[0]);
  ::close(resp[1]);
  *req_wr = req[1];
  *resp_rd = resp[0];
  return pid;
}

}  // namespace

// ---- public: availability, options, stats, crash cache ----------------------

Fault injected_fault(std::string_view tag) {
  using Mode = std::pair<std::string_view, Fault>;
  static constexpr Mode kModes[] = {{"segv", Fault::Segv},
                                    {"kill", Fault::Kill},
                                    {"hang", Fault::Hang},
                                    {"garbage", Fault::Garbage}};
  const std::string directive = env::str("MCFUSER_JIT_FAULT", "");
  for (std::string_view rest = directive; !rest.empty();) {
    const std::string_view entry = rest.substr(0, rest.find(','));
    rest.remove_prefix(std::min(rest.size(), entry.size() + 1));
    const std::size_t at = entry.find('@');
    const Mode* mode =
        std::ranges::find(kModes, entry.substr(0, at), &Mode::first);
    if (mode == std::end(kModes)) {
      MCF_LOG(Warn) << "ignoring MCFUSER_JIT_FAULT entry '" << entry
                    << "' (want segv|kill|hang|garbage[@substr])";
      continue;
    }
    // An empty substr is found in every tag.
    if (at == std::string_view::npos ||
        tag.find(entry.substr(at + 1)) != std::string_view::npos) {
      return mode->second;
    }
  }
  return Fault::None;
}

Availability availability() {
#ifdef MCF_SANITIZE_BUILD
  return Availability{false,
                      "sanitizer build: uninstrumented sandbox workers would "
                      "evade the ASan/UBSan gate"};
#else
  if (const char* w = env::raw("MCFUSER_SANDBOX_WORKER");
      w != nullptr && *w != '\0') {
    return Availability{false, "already inside a sandbox worker"};
  }
  if (!env::bool_flag("MCFUSER_SANDBOX", true)) {
    return Availability{false, "disabled by MCFUSER_SANDBOX=0"};
  }
  if (::access("/proc/self/exe", X_OK) != 0) {
    return Availability{false,
                        "/proc/self/exe is not executable (non-Linux host?)"};
  }
  return Availability{true, ""};
#endif
}

PoolOptions default_pool_options() {
  PoolOptions opt;
  opt.workers = static_cast<int>(
      env::int64("MCFUSER_SANDBOX_WORKERS", opt.workers, 1, 64));
  opt.deadline_s =
      env::real("MCFUSER_SANDBOX_DEADLINE_S", opt.deadline_s, 0.0, 1e9);
  opt.max_retries = static_cast<int>(
      env::int64("MCFUSER_SANDBOX_RETRIES", opt.max_retries, 0, 16));
  return opt;
}

WorkerStats stats_snapshot() {
  GlobalState& g = GlobalState::instance();
  const LockGuard lock(g.mu);
  return g.stats;
}

std::optional<CrashEntry> crash_cache_lookup(std::uint64_t key) {
  GlobalState& g = GlobalState::instance();
  const LockGuard lock(g.mu);
  if (const CrashEntry* hit = g.crash.find(key)) {
    ++g.stats.negative_hits;
    return *hit;
  }
  return std::nullopt;
}

void crash_cache_insert(std::uint64_t key, MeasureFailKind kind,
                        std::string reason) {
  GlobalState& g = GlobalState::instance();
  const LockGuard lock(g.mu);
  (void)g.crash.insert(key, CrashEntry{kind, std::move(reason)});
}

bool crash_cache_evict(std::uint64_t key) {
  GlobalState& g = GlobalState::instance();
  const LockGuard lock(g.mu);
  return g.crash.erase(key);
}

// ---- WorkerPool -------------------------------------------------------------

struct WorkerPool::Worker {
  pid_t pid = -1;
  int req_fd = -1;
  int resp_fd = -1;
  bool busy = false;
};

struct WorkerPool::State {
  Mutex mu{"sandbox.pool"};
  CondVar cv;
  /// The Worker objects themselves (busy flag included) are also guarded
  /// by mu — Worker is declared before State, so the annotation can only
  /// live here.
  std::vector<std::unique_ptr<Worker>> workers MCF_GUARDED_BY(mu);
  /// Deaths not yet replaced: the next spawn counts as a respawn.
  int deaths_pending MCF_GUARDED_BY(mu) = 0;
};

WorkerPool::WorkerPool(PoolOptions opt)
    : opt_(opt), state_(std::make_unique<State>()) {
  if (opt_.workers < 1) opt_.workers = 1;
  if (opt_.max_retries < 0) opt_.max_retries = 0;
  ignore_sigpipe_once();
}

WorkerPool::~WorkerPool() {
  GlobalState& g = GlobalState::instance();
  const LockGuard lock(state_->mu);
  for (auto& w : state_->workers) {
    if (w->pid <= 0) continue;
    ::close(w->req_fd);  // EOF: a healthy worker exits its loop cleanly
    ::close(w->resp_fd);
    ::kill(w->pid, SIGKILL);  // a wedged one is killed
    int status = 0;
    while (::waitpid(w->pid, &status, 0) < 0 && errno == EINTR) {
    }
    const LockGuard glock(g.mu);
    --g.stats.active;
  }
  state_->workers.clear();
}

namespace {

/// Kills (optionally), reaps and closes one worker process; returns the
/// wait description ("worker killed by SIGSEGV", ...).
std::string reap_process(pid_t pid, int req_fd, int resp_fd, bool force_kill) {
  if (force_kill) ::kill(pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  ::close(req_fd);
  ::close(resp_fd);
  GlobalState& g = GlobalState::instance();
  const LockGuard lock(g.mu);
  --g.stats.active;
  return describe_exit(status);
}

}  // namespace

RunResult WorkerPool::run(const RunRequest& req) {
  GlobalState& g = GlobalState::instance();
  const std::string frame = encode_request(req);

  for (int attempt = 0;; ++attempt) {
    // Checkout: an idle live worker, else spawn below the cap, else wait.
    Worker* w = nullptr;
    {
      UniqueLock lock(state_->mu);
      for (;;) {
        for (auto& cand : state_->workers) {
          if (!cand->busy && cand->pid > 0) {
            w = cand.get();
            break;
          }
        }
        if (w != nullptr) break;
        if (static_cast<int>(state_->workers.size()) < opt_.workers) {
          auto fresh = std::make_unique<Worker>();
          std::string err;
          fresh->pid = spawn_worker(&fresh->req_fd, &fresh->resp_fd, &err);
          if (fresh->pid < 0) {
            RunResult fail;
            fail.outcome = RunOutcome::Crashed;
            fail.reason = "cannot spawn sandbox worker: " + err;
            return fail;
          }
          {
            const LockGuard glock(g.mu);
            ++g.stats.spawned;
            ++g.stats.active;
            if (state_->deaths_pending > 0) {
              --state_->deaths_pending;
              ++g.stats.respawned;
            }
          }
          w = state_->workers.emplace_back(std::move(fresh)).get();
          break;
        }
        state_->cv.wait(lock);
      }
      w->busy = true;
    }
    {
      const LockGuard glock(g.mu);
      ++g.stats.requests;
    }

    RunResult out;
    bool worker_dead = false;
    const auto reap = [](Worker& ww) {
      const std::string desc =
          reap_process(ww.pid, ww.req_fd, ww.resp_fd, /*force_kill=*/true);
      ww.pid = -1;
      ww.req_fd = -1;
      ww.resp_fd = -1;
      return desc;
    };
    if (framing::write_all(w->req_fd, frame.data(), frame.size()) !=
        IoStatus::Ok) {
      out.outcome = RunOutcome::Crashed;
      out.reason = reap(*w) + " before the request was delivered";
      worker_dead = true;
    } else {
      const Deadline deadline = framing::deadline_after(opt_.deadline_s);
      const Deadline* dl = opt_.deadline_s > 0 ? &deadline : nullptr;
      std::string payload;
      std::uint32_t announced = 0;
      const IoStatus rs = framing::read_frame(w->resp_fd, &payload,
                                              max_frame_bytes(), dl, &announced);
      WireResponse resp;
      if (rs == IoStatus::Timeout) {
        (void)reap(*w);
        worker_dead = true;
        out.outcome = RunOutcome::TimedOut;
        out.reason = "measurement exceeded the " +
                     std::to_string(opt_.deadline_s) +
                     "s worker deadline (worker killed)";
      } else if (rs == IoStatus::TooLarge) {
        // The stream is desynced past recovery (the oversized payload
        // was never consumed): classify distinctly, then reap.
        out.outcome = RunOutcome::Crashed;
        out.reason = frame_too_large_reason(announced) + " (" + reap(*w) + ")";
        worker_dead = true;
      } else if (rs != IoStatus::Ok) {
        out.outcome = RunOutcome::Crashed;
        out.reason = reap(*w);
        worker_dead = true;
      } else if (!decode_response(payload, &resp)) {
        out.outcome = RunOutcome::Crashed;
        out.reason = "worker protocol error (" + reap(*w) + ")";
        worker_dead = true;
      } else {
        switch (resp.status) {
          case kOk:
            out.outcome = RunOutcome::Ok;
            out.samples = std::move(resp.samples);
            break;
          case kLoadFailed:
            out.outcome = RunOutcome::Failed;
            out.reason = resp.reason;
            out.retryable_load_failure = true;
            break;
          case kGarbageOutput:
          default:
            out.outcome = RunOutcome::Failed;
            out.reason = resp.reason.empty() ? "worker rejected the request"
                                             : resp.reason;
            break;
        }
      }
    }

    {
      const LockGuard lock(state_->mu);
      if (worker_dead) {
        std::erase_if(state_->workers,
                      [&](const std::unique_ptr<Worker>& c) {
                        return c.get() == w;
                      });
        ++state_->deaths_pending;
      } else {
        w->busy = false;
      }
      state_->cv.notify_all();
    }

    if (out.outcome == RunOutcome::Crashed) {
      const LockGuard glock(g.mu);
      ++g.stats.crashes;
    } else if (out.outcome == RunOutcome::TimedOut) {
      const LockGuard glock(g.mu);
      ++g.stats.timeouts;
    }
    // Bounded retry-with-respawn on crash only: a kernel that hung once
    // would burn another full deadline for nothing.
    if (out.outcome == RunOutcome::Crashed && attempt < opt_.max_retries &&
        !out.reason.starts_with("cannot spawn")) {
      continue;
    }
    return out;
  }
}

// ---- worker side ------------------------------------------------------------

int worker_main(int request_fd, int response_fd) {
  ::signal(SIGPIPE, SIG_IGN);
  // Per-geometry seeded inputs, memoized across the requests of one
  // worker lifetime.
  std::unordered_map<std::string, jit::KernelInputs> inputs;
  std::vector<std::vector<float>> scratch;

  for (;;) {
    std::string payload;
    std::uint32_t announced = 0;
    const IoStatus rs = framing::read_frame(request_fd, &payload,
                                            max_frame_bytes(), nullptr,
                                            &announced);
    if (rs == IoStatus::Eof) return 0;  // host closed the pipe: clean exit
    if (rs == IoStatus::TooLarge) {
      // The unread payload leaves the stream desynced: answer with the
      // distinct classification so the peer can log it, then exit (the
      // host respawns; a direct-loopback test reads the response).
      WireResponse resp;
      resp.status = kBadRequest;
      resp.reason = frame_too_large_reason(announced);
      const std::string out_frame = encode_response(resp);
      (void)framing::write_all(response_fd, out_frame.data(),
                               out_frame.size());
      return 1;
    }
    if (rs != IoStatus::Ok) return 1;

    RunRequest req;
    WireResponse resp;
    std::string why;
    if (!decode_request(payload, &req, &why)) {
      resp.status = kBadRequest;
      resp.reason = "bad request: " + why;
    } else {
      // The jit's own loader: refcounted modules in an LRU map bounded by
      // MCFUSER_JIT_KERNEL_CAP, so a long-lived worker's mappings stay
      // bounded.  `rk` pins the module for the whole request.
      const jit::ResolvedKernel rk = jit::load_artifact(
          jit::KernelArtifact{req.key, req.so_path, req.symbol, {}}, &why);
      if (!rk.ok()) {
        resp.status = kLoadFailed;
        resp.reason = "worker load failed: " + why;
      } else {
        std::string key = std::to_string(req.data_seed) + ":" +
                          std::to_string(req.batch) + "x" +
                          std::to_string(req.m);
        for (const std::int64_t d : req.inner) key += "x" + std::to_string(d);
        auto it = inputs.find(key);
        if (it == inputs.end()) {
          if (inputs.size() >= 8) inputs.clear();  // crude bound; inputs
                                                   // rebuild deterministically
          it = inputs
                   .emplace(key, jit::seeded_inputs(req.batch, req.m, req.inner,
                                                    req.data_seed))
                   .first;
        }
        const jit::KernelInputs& in = it->second;
        Tensor out(Shape{req.batch, req.m, req.inner.back()});

        std::vector<const float*> wptrs;
        wptrs.reserve(in.weights.size());
        for (const Tensor& t : in.weights) wptrs.push_back(t.data().data());
        const auto run_once = [&] {
          jit::run_blocks(rk.fn, in.a.data().data(), wptrs.data(),
                          out.data().data(), req.n_blocks,
                          static_cast<std::size_t>(req.scratch_floats),
                          scratch, /*threads=*/0);
        };
        // A fault the host asked for: the process-level ones replace the
        // runs, garbage poisons the output after them.
        if (req.fault == Fault::Segv) ::raise(SIGSEGV);
        if (req.fault == Fault::Kill) ::raise(SIGKILL);
        while (req.fault == Fault::Hang) ::pause();
        for (int i = 0; i < req.warmup; ++i) run_once();
        resp.samples.reserve(static_cast<std::size_t>(req.repeats));
        for (int i = 0; i < req.repeats; ++i) {
          const auto t0 = std::chrono::steady_clock::now();
          run_once();
          resp.samples.push_back(std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - t0)
                                     .count());
        }
        if (req.fault == Fault::Garbage) std::ranges::fill(out.data(), NAN);
        // Garbage detection: a kernel that "succeeds" with non-finite
        // output is as useless as a crash and must fail loudly.
        bool finite = true;
        for (const float v : out.data()) {
          if (!std::isfinite(v)) {
            finite = false;
            break;
          }
        }
        if (finite) {
          resp.status = kOk;
        } else {
          resp.status = kGarbageOutput;
          resp.reason = "kernel produced non-finite output";
          resp.samples.clear();
        }
      }
    }
    const std::string out_frame = encode_response(resp);
    if (framing::write_all(response_fd, out_frame.data(), out_frame.size()) !=
        IoStatus::Ok) {
      return 1;
    }
  }
}

namespace {

/// Early worker takeover: a re-exec'd binary with MCFUSER_SANDBOX_WORKER
/// set and the pipe fds in place never reaches main() — it IS the
/// measurement loop.  Runs at static-init time, so worker_main sticks to
/// construction-order-safe facilities (no iostream globals, no logging).
struct WorkerProcessEntry {
  WorkerProcessEntry() {
    const char* flag = env::raw("MCFUSER_SANDBOX_WORKER");
    if (flag == nullptr || *flag == '\0') return;
    if (::fcntl(3, F_GETFD) < 0 || ::fcntl(4, F_GETFD) < 0) return;
    ::_exit(worker_main(3, 4));
  }
};
const WorkerProcessEntry worker_process_entry;

}  // namespace

}  // namespace sandbox
}  // namespace mcf

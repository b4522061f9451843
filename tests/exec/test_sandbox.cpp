// Crash-isolated measurement workers (exec/sandbox.hpp): sandboxed
// timings agree with the in-process jit path, the host never maps a
// sandboxed kernel and a worker's mappings stay bounded by the jit's
// kernel cap, worker deaths are
// classified with the fatal signal's name, hung kernels die at the
// per-request deadline, garbage output fails loudly, the crash
// negative-cache serves known-bad digests without spawning processes
// (and retries after eviction), a poisoned on-disk kernel heals through
// evict + recompile, and the FusionEngine survives a chaos flood of
// SIGSEGV/SIGKILL/hang kernels with its accounting identity intact.
//
// Every fault is injected deterministically through MCFUSER_JIT_FAULT:
// the host resolves the directive per request (sandbox::injected_fault,
// whose grammar is pinned without a fork in every lane) and the worker
// carries the fault out (sandbox::worker_main), refusing a fault byte it
// does not know.  The emitted kernels hold no fault code, and the
// in-process rungs never ask for a fault, so the host process never
// executes one.
#include "exec/sandbox.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "exec/codegen.hpp"
#include "exec/jit.hpp"
#include "gpu/spec.hpp"
#include "exec/program.hpp"
#include "ir/expr.hpp"
#include "measure/backend.hpp"
#include "search/tuning_cache.hpp"
#include "support/framing.hpp"
#include "tensor/tensor.hpp"

namespace mcf {
namespace {

// ---- fixtures ---------------------------------------------------------------

/// Static storage: the Schedule keeps a ChainSpec pointer.
const ChainSpec& gelu_chain() {
  static const ChainSpec c("sbx-gelu", 2, 96, {48, 96, 48},
                           {Epilogue::Gelu, Epilogue::None});
  return c;
}
/// ~64x the work of gelu_chain(): rank checks between the two are robust
/// to wall-clock noise.
const ChainSpec& big_chain() {
  static const ChainSpec c("sbx-gelu-big", 2, 384, {192, 384, 192},
                           {Epilogue::Gelu, Epilogue::None});
  return c;
}

Schedule schedule_for(const ChainSpec& c) {
  return build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                        std::vector<std::int64_t>{32, 16, 32, 16});
}

/// A gpu key no other process, test or (persisted) cache run ever used:
/// keys the jit disk cache AND the crash negative-cache, so each test is
/// isolated from every other by construction.
std::string unique_key(const char* prefix) {
  std::random_device rd;
  return std::string(prefix) + "-" + std::to_string(::getpid()) + "-" +
         std::to_string((static_cast<std::uint64_t>(rd()) << 32) ^ rd());
}

GpuSpec unique_gpu(const char* prefix) {
  GpuSpec g = a100();
  g.name = unique_key(prefix);
  return g;
}

/// Sets an environment variable for the enclosing scope, restoring the
/// previous value (or absence) on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    if (const char* old = ::getenv(name)) old_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// Empty when sandboxed measurement can run here; otherwise why not
/// (sanitizer build, no toolchain, ...) — tests GTEST_SKIP on it.
std::string sandbox_skip_reason() {
  const sandbox::Availability avail = sandbox::availability();
  if (!avail.ok) return avail.reason;
  const jit::Toolchain tc = jit::detect_toolchain();
  if (!tc.ok()) return tc.reason;
  return "";
}

/// Pids of this process's live sandbox workers (children re-exec'd with
/// argv[0] "mcfuser-sandbox-worker").
std::vector<pid_t> worker_pids() {
  std::vector<pid_t> out;
  for (const auto& e : std::filesystem::directory_iterator("/proc")) {
    const std::string pid = e.path().filename();
    if (pid.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream cmdline(e.path() / "cmdline");
    std::string argv0;
    if (!std::getline(cmdline, argv0, '\0') ||
        argv0 != "mcfuser-sandbox-worker") {
      continue;
    }
    std::ifstream status(e.path() / "status");
    for (std::string line; std::getline(status, line);) {
      if (line.rfind("PPid:", 0) != 0) continue;
      if (std::stoi(line.substr(5)) == ::getpid()) {
        out.push_back(std::stoi(pid));
      }
      break;
    }
  }
  return out;
}

/// The distinct jit kernel objects (tu_*.so) mapped into process `pid`.
std::set<std::string> mapped_kernel_objects(pid_t pid) {
  std::set<std::string> out;
  std::ifstream maps("/proc/" + std::to_string(pid) + "/maps");
  for (std::string line; std::getline(maps, line);) {
    const std::size_t path = line.find('/');
    if (path == std::string::npos) continue;
    const std::string file = line.substr(line.rfind('/') + 1);
    if (file.starts_with("tu_") && file.ends_with(".so")) {
      out.insert(line.substr(path));
    }
  }
  return out;
}

ExecBackendOptions fast_options(double deadline_s = 10.0,
                                int max_retries = 1) {
  ExecBackendOptions opt;
  opt.preset = ExecRung::Sandbox;
  opt.warmup = 1;
  opt.repeats = 2;
  opt.pool.workers = 1;
  opt.pool.deadline_s = deadline_s;
  opt.pool.max_retries = max_retries;
  return opt;
}

// ---- availability / options -------------------------------------------------

TEST(Sandbox, AvailabilityAndPoolOptionsReadTheEnvironment) {
  // Whether the environment could sandbox at all BEFORE we poke it —
  // under sanitizer builds availability() reports the sanitizer reason
  // and the env-specific assertions below do not apply.
  const bool sandbox_possible = sandbox::availability().ok;
  {
    const ScopedEnv off("MCFUSER_SANDBOX", "0");
    const sandbox::Availability a = sandbox::availability();
    EXPECT_FALSE(a.ok);
    if (sandbox_possible) {
      EXPECT_NE(a.reason.find("MCFUSER_SANDBOX"), std::string::npos)
          << a.reason;
    }
  }
  {
    const ScopedEnv w("MCFUSER_SANDBOX_WORKERS", "3");
    const ScopedEnv d("MCFUSER_SANDBOX_DEADLINE_S", "2.5");
    const ScopedEnv r("MCFUSER_SANDBOX_RETRIES", "0");
    const sandbox::PoolOptions opt = sandbox::default_pool_options();
    EXPECT_EQ(opt.workers, 3);
    EXPECT_DOUBLE_EQ(opt.deadline_s, 2.5);
    EXPECT_EQ(opt.max_retries, 0);
  }
  {
    // Invalid values keep the defaults instead of poisoning the pool.
    const ScopedEnv w("MCFUSER_SANDBOX_WORKERS", "banana");
    EXPECT_EQ(sandbox::default_pool_options().workers,
              sandbox::PoolOptions{}.workers);
  }
}

TEST(Sandbox, InjectedFaultFollowsTheDirectiveGrammar) {
  // A pure call (no fork, no jit): runs in every lane, sanitizers included.
  using sandbox::Fault;
  const std::string gelu = chain_cache_key(gelu_chain());
  const std::string big = chain_cache_key(big_chain());
  const auto fault_for = [](const std::string& directive,
                            const std::string& tag) {
    const ScopedEnv env("MCFUSER_JIT_FAULT", directive);
    return sandbox::injected_fault(tag);
  };
  {
    const ScopedEnv env("MCFUSER_JIT_FAULT", "");
    EXPECT_EQ(sandbox::injected_fault(gelu), Fault::None);
    ::unsetenv("MCFUSER_JIT_FAULT");
    EXPECT_EQ(sandbox::injected_fault(gelu), Fault::None);
  }
  // No `@`: every chain.
  EXPECT_EQ(fault_for("segv", gelu), Fault::Segv);
  EXPECT_EQ(fault_for("segv", big), Fault::Segv);
  // `@substr`: only the chains whose key contains it.
  const std::string big_only = big.substr(0, big.find('x'));  // "b2m384"
  ASSERT_EQ(gelu.find(big_only), std::string::npos);
  EXPECT_EQ(fault_for("kill@" + big_only, big), Fault::Kill);
  EXPECT_EQ(fault_for("kill@" + big_only, gelu), Fault::None);
  // An empty substr matches every chain.
  EXPECT_EQ(fault_for("garbage@", gelu), Fault::Garbage);
  EXPECT_EQ(fault_for("garbage@", big), Fault::Garbage);
  // An unknown mode is skipped, loudly.
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(fault_for("bogus,hang", gelu), Fault::Hang);
  const std::string warned = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(warned.find("'bogus'"), std::string::npos) << warned;
  // The first matching entry wins.
  EXPECT_EQ(fault_for("kill@" + big_only + ",segv", big), Fault::Kill);
  EXPECT_EQ(fault_for("kill@" + big_only + ",segv", gelu), Fault::Segv);
}

TEST(Sandbox, InProcessCallersNeverRunAFault) {
  // Only the sandbox rung resolves a fault: under a match-all directive
  // the in-process rungs and run_native still measure and run cleanly,
  // and the kernel TU carries no code that could read the directive.
  const ScopedEnv fault("MCFUSER_JIT_FAULT", "segv");
  EXPECT_EQ(cpp_kernel_prelude().find("getenv"), std::string::npos);

  const GpuSpec gpu = unique_gpu("sbx-in-process");
  const Schedule s = schedule_for(gelu_chain());
  for (const char* preset : {"jit", "interp"}) {
    const auto backend = BackendRegistry::instance().create(preset, gpu);
    ASSERT_NE(backend, nullptr) << preset;
    const KernelMeasurement m = backend->measure(s);
    EXPECT_TRUE(m.ok) << preset << ": " << m.fail_reason;
  }

  const CompiledKernel kernel(s, gpu);
  ASSERT_TRUE(kernel.ok()) << kernel.error();
  const ChainSpec& c = s.chain();
  const jit::KernelInputs in =
      jit::seeded_inputs(c.batch(), c.m(), c.inner(), 1);
  Tensor out(Shape{c.batch(), c.m(), c.inner().back()});
  // run_native answers false only when there is no toolchain (sanitizer
  // lanes); it never faults.
  const jit::Toolchain tc = jit::detect_toolchain();
  EXPECT_EQ(kernel.run_native(in.a, in.weights, out), tc.ok()) << tc.reason;
}

TEST(Sandbox, WorkerRefusesOversizedFrameWithDistinctReason) {
  // Direct loopback into worker_main over plain pipes (no fork, no
  // dlopen — runs in every lane, sanitizer builds included): a frame
  // announcing more than the MCFUSER_FRAME_MAX_BYTES cap must be
  // answered with the distinct "frame too large" classification
  // (kBadRequest on the wire) before the worker exits non-zero.
  int req[2] = {-1, -1};
  int resp[2] = {-1, -1};
  ASSERT_EQ(::pipe(req), 0);
  ASSERT_EQ(::pipe(resp), 0);

  int rc = -1;
  std::thread worker([&] { rc = sandbox::worker_main(req[0], resp[1]); });

  // The length prefix alone is the attack: announce past any
  // configurable cap (the knob maxes out at 1 GiB) and send nothing.
  const std::uint32_t huge = 0x7FFFFFFF;
  ASSERT_EQ(framing::write_all(req[1], &huge, sizeof(huge)),
            framing::IoStatus::Ok);

  std::string payload;
  const framing::Deadline dl = framing::deadline_after(10.0);
  ASSERT_EQ(framing::read_frame(resp[0], &payload, 1 << 20, &dl),
            framing::IoStatus::Ok);
  worker.join();
  EXPECT_EQ(rc, 1);  // the desynced stream is fatal to the worker

  // Hand-decode the MCFW response: u32 magic, u8 status, str reason.
  framing::FrameReader r(payload);
  std::uint32_t magic = 0;
  std::uint8_t status = 0;
  std::string reason;
  ASSERT_TRUE(r.u32(&magic));
  EXPECT_EQ(magic, 0x4D434657u);  // "MCFW"
  ASSERT_TRUE(r.u8(&status));
  EXPECT_EQ(status, 4u);  // kBadRequest
  ASSERT_TRUE(r.str(&reason));
  EXPECT_NE(reason.find("frame too large: 2147483647 > "), std::string::npos)
      << reason;

  ::close(req[0]);
  ::close(req[1]);
  ::close(resp[0]);
  ::close(resp[1]);
}

TEST(Sandbox, WorkerRejectsAnUnknownFaultAsABadRequest) {
  // Direct loopback (no fork, no dlopen): a fault byte past
  // Fault::Garbage is answered as a bad request and never carried out.
  int req[2] = {-1, -1};
  int resp[2] = {-1, -1};
  ASSERT_EQ(::pipe(req), 0);
  ASSERT_EQ(::pipe(resp), 0);
  std::thread worker([&] { (void)sandbox::worker_main(req[0], resp[1]); });

  // An MCFW v4 request, field by field.
  framing::FrameWriter w;
  w.u32(0x4D434657u);  // "MCFW"
  w.u32(4);            // protocol version
  w.u64(1);            // key
  w.str("/nonexistent/tu.so");
  w.str("kernel");
  w.i64(1);  // batch
  w.i64(8);  // m
  w.u32(2);  // inner dims
  w.i64(8);
  w.i64(8);
  w.i64(1);  // n_blocks
  w.i64(0);  // scratch floats
  w.u32(0);  // warmup
  w.u32(1);  // repeats
  w.u64(1);  // data seed
  w.u8(static_cast<std::uint8_t>(sandbox::Fault::Garbage) + 1);
  const std::string frame = w.framed();
  ASSERT_EQ(framing::write_all(req[1], frame.data(), frame.size()),
            framing::IoStatus::Ok);

  std::string payload;
  const framing::Deadline dl = framing::deadline_after(10.0);
  ASSERT_EQ(framing::read_frame(resp[0], &payload, 1 << 20, &dl),
            framing::IoStatus::Ok);
  ::close(req[1]);  // EOF ends the worker's loop
  worker.join();

  framing::FrameReader r(payload);
  std::uint32_t magic = 0;
  std::uint8_t status = 0;
  std::string reason;
  ASSERT_TRUE(r.u32(&magic));
  ASSERT_TRUE(r.u8(&status));
  EXPECT_EQ(status, 4u);  // kBadRequest
  ASSERT_TRUE(r.str(&reason));
  EXPECT_EQ(reason, "bad request: unknown fault 5");

  ::close(req[0]);
  ::close(resp[0]);
  ::close(resp[1]);
}

// ---- agreement with the in-process jit path ---------------------------------

TEST(Sandbox, SandboxedTimingsAgreeWithInProcessJit) {
  if (const std::string why = sandbox_skip_reason(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  const GpuSpec gpu = unique_gpu("sbx-agree");
  const ExecBackend iso(gpu, fast_options());
  ASSERT_EQ(iso.top_rung(), ExecRung::Sandbox) << iso.fallback_reason();
  const ExecBackend inproc(gpu);

  const Schedule small = schedule_for(gelu_chain());
  const Schedule big = schedule_for(big_chain());

  const KernelMeasurement iso_small = iso.measure(small);
  const KernelMeasurement iso_big = iso.measure(big);
  const KernelMeasurement jit_small = inproc.measure(small);
  const KernelMeasurement jit_big = inproc.measure(big);
  for (const KernelMeasurement* m :
       {&iso_small, &iso_big, &jit_small, &jit_big}) {
    ASSERT_TRUE(m->ok) << m->fail_reason;
    EXPECT_GT(m->time_s, 0.0);
  }
  EXPECT_EQ(iso_small.n_blocks, jit_small.n_blocks);

  // Same artifact, same execution geometry, same trimmed-mean estimator:
  // the two paths must rank a ~64x work gap identically and land in the
  // same wall-clock ballpark (loose bound — CI machines are shared).
  EXPECT_LT(iso_small.time_s, iso_big.time_s);
  EXPECT_LT(jit_small.time_s, jit_big.time_s);
  const double ratio = iso_big.time_s / jit_big.time_s;
  EXPECT_GT(ratio, 1.0 / 10.0) << iso_big.time_s << " vs " << jit_big.time_s;
  EXPECT_LT(ratio, 10.0) << iso_big.time_s << " vs " << jit_big.time_s;
}

// ---- address spaces ---------------------------------------------------------

TEST(Sandbox, HostMapsNoSandboxedKernel) {
  if (const std::string why = sandbox_skip_reason(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  const ExecBackend backend(unique_gpu("sbx-host-maps"), fast_options());
  ASSERT_EQ(backend.top_rung(), ExecRung::Sandbox) << backend.fallback_reason();
  const Schedule s = schedule_for(gelu_chain());
  const std::vector<const Schedule*> wave = {&s};

  const jit::CompileStats before = jit::stats_snapshot();
  backend.prepare_batch(wave);
  const KernelMeasurement m = backend.measure(s);
  ASSERT_TRUE(m.ok) << m.fail_reason;
  const jit::CompileStats d = jit::stats_snapshot().since(before);
  EXPECT_EQ(d.tus_compiled, 1);    // the host compiled the kernel...
  EXPECT_EQ(d.modules_opened, 0);  // ...and only the worker loaded it
}

TEST(Sandbox, WorkerMappingsAreBoundedByTheKernelCap) {
  if (const std::string why = sandbox_skip_reason(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  // Latch this process's own cap first: only the worker spawned below
  // reads the low one.
  (void)jit::stats_snapshot();
  constexpr std::size_t kCap = 2;
  const ScopedEnv cap("MCFUSER_JIT_KERNEL_CAP", std::to_string(kCap));
  const ExecBackend backend(unique_gpu("sbx-kernel-cap"), fast_options());
  ASSERT_EQ(backend.top_rung(), ExecRung::Sandbox) << backend.fallback_reason();

  // Five distinct kernels through one worker, each measured on its own so
  // each compiles to its own shared object.
  std::vector<ChainSpec> chains;
  for (int i = 1; i <= 5; ++i) {
    chains.emplace_back("sbx-cap-" + std::to_string(i), 1, 32 * i,
                        std::vector<std::int64_t>{48, 96, 48},
                        std::vector<Epilogue>{Epilogue::Gelu, Epilogue::None});
  }
  for (const ChainSpec& c : chains) {
    const KernelMeasurement m = backend.measure(schedule_for(c));
    ASSERT_TRUE(m.ok) << m.fail_reason;
  }
  const std::vector<pid_t> pids = worker_pids();
  ASSERT_EQ(pids.size(), 1u);
  const std::set<std::string> mapped = mapped_kernel_objects(pids.front());
  EXPECT_GE(mapped.size(), 1u);  // the probe sees the worker's kernels...
  EXPECT_LE(mapped.size(), kCap) << "one worker kept " << mapped.size()
                                 << " kernel objects mapped";
}

// ---- crash classification ---------------------------------------------------

TEST(Sandbox, SegfaultingKernelIsClassifiedWithSignalName) {
  if (const std::string why = sandbox_skip_reason(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  const ScopedEnv fault("MCFUSER_JIT_FAULT", "segv");
  const sandbox::WorkerStats before = sandbox::stats_snapshot();
  const ExecBackend backend(unique_gpu("sbx-segv"), fast_options());
  const KernelMeasurement m = backend.measure(schedule_for(gelu_chain()));
  EXPECT_FALSE(m.ok);
  EXPECT_EQ(m.fail_kind, MeasureFailKind::WorkerCrashed);
  EXPECT_NE(m.fail_reason.find("SIGSEGV"), std::string::npos) << m.fail_reason;
  const sandbox::WorkerStats d = sandbox::stats_snapshot().since(before);
  // max_retries=1: the crash was retried once on a fresh worker (a
  // respawn), then recorded.
  EXPECT_GE(d.crashes, 2);
  EXPECT_GE(d.respawned, 1);
}

TEST(Sandbox, SigkilledWorkerIsClassified) {
  if (const std::string why = sandbox_skip_reason(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  const ScopedEnv fault("MCFUSER_JIT_FAULT", "kill");
  const ExecBackend backend(unique_gpu("sbx-kill"), fast_options());
  const KernelMeasurement m = backend.measure(schedule_for(gelu_chain()));
  EXPECT_FALSE(m.ok);
  EXPECT_EQ(m.fail_kind, MeasureFailKind::WorkerCrashed);
  EXPECT_NE(m.fail_reason.find("SIGKILL"), std::string::npos) << m.fail_reason;
}

TEST(Sandbox, HungKernelIsKilledAtTheDeadline) {
  if (const std::string why = sandbox_skip_reason(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  const ScopedEnv fault("MCFUSER_JIT_FAULT", "hang");
  const sandbox::WorkerStats before = sandbox::stats_snapshot();
  const ExecBackend backend(unique_gpu("sbx-hang"),
                            fast_options(/*deadline_s=*/0.5));
  const KernelMeasurement m = backend.measure(schedule_for(gelu_chain()));
  EXPECT_FALSE(m.ok);
  EXPECT_EQ(m.fail_kind, MeasureFailKind::WorkerTimeout);
  EXPECT_NE(m.fail_reason.find("deadline"), std::string::npos) << m.fail_reason;
  const sandbox::WorkerStats d = sandbox::stats_snapshot().since(before);
  // Timeouts are never retried: exactly one deadline was burned.
  EXPECT_EQ(d.timeouts, 1);
}

TEST(Sandbox, GarbageOutputFailsTheMeasurement) {
  if (const std::string why = sandbox_skip_reason(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  const ScopedEnv fault("MCFUSER_JIT_FAULT", "garbage");
  const ExecBackend backend(unique_gpu("sbx-garbage"), fast_options());
  const KernelMeasurement m = backend.measure(schedule_for(gelu_chain()));
  EXPECT_FALSE(m.ok);
  EXPECT_EQ(m.fail_kind, MeasureFailKind::Generic);
  EXPECT_NE(m.fail_reason.find("non-finite"), std::string::npos)
      << m.fail_reason;
}

// ---- crash negative-cache ---------------------------------------------------

TEST(Sandbox, CrashNegativeCacheServesWithoutSpawningAndRetriesAfterEvict) {
  if (const std::string why = sandbox_skip_reason(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  const GpuSpec gpu = unique_gpu("sbx-negcache");
  const Schedule s = schedule_for(gelu_chain());
  const ExecBackend backend(gpu, fast_options());

  {
    const ScopedEnv fault("MCFUSER_JIT_FAULT", "segv");
    const KernelMeasurement first = backend.measure(s);
    ASSERT_FALSE(first.ok);
    ASSERT_EQ(first.fail_kind, MeasureFailKind::WorkerCrashed);
  }

  // Fault seam now off — but the digest is negative-cached: the repeat
  // measurement is served from the cache with NO worker traffic at all.
  const sandbox::WorkerStats before = sandbox::stats_snapshot();
  const KernelMeasurement cached = backend.measure(s);
  EXPECT_FALSE(cached.ok);
  EXPECT_EQ(cached.fail_kind, MeasureFailKind::WorkerCrashed);
  EXPECT_NE(cached.fail_reason.find("(crash-cache)"), std::string::npos)
      << cached.fail_reason;
  const sandbox::WorkerStats d = sandbox::stats_snapshot().since(before);
  EXPECT_EQ(d.requests, 0);
  EXPECT_EQ(d.spawned, 0);
  EXPECT_GE(d.negative_hits, 1);

  // Eviction re-arms the digest; with the fault seam off the kernel now
  // measures cleanly.
  const jit::KernelArtifact art =
      jit::resolve_artifact(s, gpu.name, jit::detect_toolchain());
  ASSERT_TRUE(art.ok()) << art.error;
  EXPECT_TRUE(sandbox::crash_cache_evict(art.key));
  const KernelMeasurement healed = backend.measure(s);
  EXPECT_TRUE(healed.ok) << healed.fail_reason;
  EXPECT_GT(healed.time_s, 0.0);
}

// ---- poisoned disk-cache healing --------------------------------------------

TEST(Sandbox, PoisonedKernelArtifactHealsViaEvictAndRecompile) {
  if (const std::string why = sandbox_skip_reason(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  const GpuSpec gpu = unique_gpu("sbx-poison");
  const Schedule s = schedule_for(gelu_chain());
  const jit::Toolchain tc = jit::detect_toolchain();

  // Compile the artifact, then poison the cached .so on disk (the moral
  // equivalent of a truncated write or a foreign-ISA cache restore).
  // Replace via rename — a NEW inode — never by truncating in place:
  // compilation dlopen()ed the original into this process, and
  // truncating a live mapping turns its pages into SIGBUS mines.
  const jit::KernelArtifact art = jit::resolve_artifact(s, gpu.name, tc);
  ASSERT_TRUE(art.ok()) << art.error;
  {
    const std::string tmp = art.so_path + ".poison";
    std::ofstream os(tmp, std::ios::trunc | std::ios::binary);
    os << "this is not a shared object";
    os.close();
    ASSERT_EQ(std::rename(tmp.c_str(), art.so_path.c_str()), 0);
  }

  const jit::CompileStats before = jit::stats_snapshot();
  const ExecBackend backend(gpu, fast_options());
  const KernelMeasurement m = backend.measure(s);
  // The dlopen failure was healed in-line: evict, recompile once, retry.
  EXPECT_TRUE(m.ok) << m.fail_reason;
  EXPECT_GT(m.time_s, 0.0);
  const jit::CompileStats d = jit::stats_snapshot().since(before);
  EXPECT_GE(d.tus_compiled, 1);
}

// ---- engine chaos flood -----------------------------------------------------

TEST(Sandbox, EngineSurvivesChaosFloodWithAccountingIntact) {
  if (const std::string why = sandbox_skip_reason(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  // Distinct shapes so each chain's fault mode targets it (the fault
  // seam matches on chain_cache_key, which folds shape + epilogues).
  const ChainSpec ok1("chaos-ok", 2, 96, {48, 96, 48},
                      {Epilogue::Gelu, Epilogue::None});
  const ChainSpec ok2("chaos-ok2", 1, 96, {48, 96, 48},
                      {Epilogue::Gelu, Epilogue::None});
  const ChainSpec segv("chaos-segv", 1, 64, {32, 64, 32});
  const ChainSpec kill("chaos-kill", 1, 80, {40, 80, 40});
  const ChainSpec hang("chaos-hang", 1, 32, {16, 32, 16});
  const ChainSpec garbage("chaos-garbage", 1, 48, {24, 48, 24});

  const ScopedEnv fault("MCFUSER_JIT_FAULT",
                        "segv@" + chain_cache_key(segv) + ",kill@" +
                            chain_cache_key(kill) + ",hang@" +
                            chain_cache_key(hang) + ",garbage@" +
                            chain_cache_key(garbage));
  const ScopedEnv deadline("MCFUSER_SANDBOX_DEADLINE_S", "0.6");
  const ScopedEnv workers("MCFUSER_SANDBOX_WORKERS", "2");
  const ScopedEnv retries("MCFUSER_SANDBOX_RETRIES", "0");

  FusionEngineOptions opts;
  opts.backend = "jit-isolated";
  opts.jobs = 2;
  opts.tuner.population = 8;
  opts.tuner.topk = 2;
  opts.tuner.min_generations = 1;
  opts.tuner.max_generations = 2;
  const sandbox::WorkerStats before = sandbox::stats_snapshot();
  FusionEngine engine(unique_gpu("chaos"), opts);

  // Flood: every ticket is in flight at once; two of the six chains are
  // healthy and must complete Ok REGARDLESS of the carnage around them.
  std::vector<FusionTicket> tickets;
  for (const ChainSpec* c : {&ok1, &segv, &kill, &hang, &garbage, &ok2}) {
    tickets.push_back(engine.submit(*c));
  }
  for (auto& t : tickets) t.wait();

  const FusionResult& r_ok1 = tickets[0].get();
  const FusionResult& r_segv = tickets[1].get();
  const FusionResult& r_kill = tickets[2].get();
  const FusionResult& r_hang = tickets[3].get();
  const FusionResult& r_garbage = tickets[4].get();
  const FusionResult& r_ok2 = tickets[5].get();

  EXPECT_EQ(r_ok1.status, FusionStatus::Ok) << r_ok1.reason;
  EXPECT_EQ(r_ok2.status, FusionStatus::Ok) << r_ok2.reason;
  EXPECT_GT(r_ok1.time_s(), 0.0);

  EXPECT_EQ(r_segv.status, FusionStatus::WorkerCrashed) << r_segv.reason;
  EXPECT_NE(r_segv.reason.find("SIGSEGV"), std::string::npos) << r_segv.reason;
  EXPECT_EQ(r_kill.status, FusionStatus::WorkerCrashed) << r_kill.reason;
  EXPECT_NE(r_kill.reason.find("SIGKILL"), std::string::npos) << r_kill.reason;
  EXPECT_EQ(r_hang.status, FusionStatus::WorkerTimeout) << r_hang.reason;
  EXPECT_NE(r_hang.reason.find("deadline"), std::string::npos) << r_hang.reason;
  EXPECT_EQ(r_garbage.status, FusionStatus::MeasureFailed) << r_garbage.reason;
  EXPECT_NE(r_garbage.reason.find("non-finite"), std::string::npos)
      << r_garbage.reason;

  // Accounting identity: every submission landed in exactly one terminal
  // bucket, and the worker-health mirror saw the carnage.
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.rejected +
                                 stats.cancelled + stats.deadline_exceeded);
  const sandbox::WorkerStats d = sandbox::stats_snapshot().since(before);
  EXPECT_GE(d.crashes, 2);
  EXPECT_GE(d.timeouts, 1);
  EXPECT_GE(d.spawned, 1);
  EXPECT_GE(stats.sandbox.crashes, d.crashes);
}

}  // namespace
}  // namespace mcf

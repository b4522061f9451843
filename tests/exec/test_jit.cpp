// JIT native codegen: numeric agreement against the interpreter on gelu
// and attention chains and in every vector-width branch of the prelude's
// micro-kernel, kernel-cache behaviour (hit on second compile, one TU per
// batch), the part compile (at most one compiler per pool thread; a
// failed part fails the batch, kills the other parts and keeps its
// sources), the compile timeout, the compiler pipe's close-on-exec and
// the header-free kernel source.  ctest also runs the Jit and JitCompile
// cases with one pool thread (exec_test_jit_one_worker), where a kernel
// compiles as one part.  The interpreter runs the same epilogue helpers
// (exec/kernel_prelude.inc), so the independent check of their numerics
// is the tensor/ops oracle, which tests/exec/test_interpreter.cpp holds
// both paths to.  The execution backend's fallback when no host compiler
// exists is pinned by the cascade table in tests/measure/test_backends.cpp.
#include "exec/jit.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "exec/codegen.hpp"
#include "exec/interpreter.hpp"
#include "exec/program.hpp"
#include "ir/expr.hpp"
#include "measure/backend.hpp"
#include "support/thread_pool.hpp"
#include "tensor/tensor.hpp"

namespace mcf {
namespace {

/// Chains the issue pins the agreement test on.  Static storage: the
/// Schedule keeps a ChainSpec pointer.
const ChainSpec& gelu_chain() {
  static const ChainSpec c("jit-gelu", 2, 96, {48, 96, 48},
                           {Epilogue::Gelu, Epilogue::None});
  return c;
}
const ChainSpec& attention_chain() {
  static const ChainSpec c = ChainSpec::attention("jit-attn", 2, 64, 64, 32, 32);
  return c;
}

/// A gpu key no other process or (persisted) cache run ever used: makes
/// "this resolve is a fresh compile" assertable even over a warm on-disk
/// cache (CI persists the cache dir across runs).
std::string unique_key(const char* prefix) {
  std::random_device rd;
  return std::string(prefix) + "-" + std::to_string(::getpid()) + "-" +
         std::to_string((static_cast<std::uint64_t>(rd()) << 32) ^ rd());
}

/// Writes an executable shell script with `body` at `path`; returns `path`.
std::string write_script(const std::string& path, const std::string& body) {
  std::ofstream(path) << "#!/bin/sh\n" << body;
  ::chmod(path.c_str(), 0755);
  return path;
}

/// A fresh directory for the scope, removed with everything in it on the
/// way out: MCFUSER_JIT_CACHE_DIR points at its `cache` subdirectory
/// meanwhile (the previous setting comes back), and file() names scratch
/// files beside the cache (wrapper compilers, logs).
class ScopedCacheDir {
 public:
  explicit ScopedCacheDir(const std::string& tag)
      : root_(::testing::TempDir() + "mcf_" + tag + "_" +
              std::to_string(::getpid())),
        path_(root_ + "/cache") {
    if (const char* prior = std::getenv("MCFUSER_JIT_CACHE_DIR")) {
      prior_ = prior;
      had_prior_ = true;
    }
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
    ::setenv("MCFUSER_JIT_CACHE_DIR", path_.c_str(), 1);
  }
  ~ScopedCacheDir() {
    std::filesystem::remove_all(root_);
    if (had_prior_) ::setenv("MCFUSER_JIT_CACHE_DIR", prior_.c_str(), 1);
    else ::unsetenv("MCFUSER_JIT_CACHE_DIR");
  }
  ScopedCacheDir(const ScopedCacheDir&) = delete;
  ScopedCacheDir& operator=(const ScopedCacheDir&) = delete;

  /// The kernel cache directory.
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::string file(const std::string& name) const {
    return root_ + "/" + name;
  }
  /// The names of the files in the kernel cache directory, sorted.
  [[nodiscard]] std::vector<std::string> files() const {
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(path_, ec)) {
      out.push_back(e.path().filename().string());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::string root_;
  std::string path_;
  std::string prior_;
  bool had_prior_ = false;
};

/// Pipes (past the standard streams) open without FD_CLOEXEC at the
/// moment this process forks, as seen by a pthread_atfork prepare handler
/// (it runs in the forking thread) while
/// CompilerPipeIsCloseOnExecWhenTheCompilerForks arms it.
std::atomic<bool> g_fork_probe_armed{false};
std::vector<std::string> g_inheritable_pipes;

void probe_inheritable_pipes() {
  if (!g_fork_probe_armed) return;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    const int fd = std::stoi(entry.path().filename());
    if (fd <= 2) continue;  // the standard streams are meant to be inherited
    std::error_code ec;
    const std::string target = std::filesystem::read_symlink(entry.path(), ec);
    if (ec || target.rfind("pipe:", 0) != 0) continue;
    const int flags = ::fcntl(fd, F_GETFD);
    if (flags >= 0 && (flags & FD_CLOEXEC) == 0) {
      g_inheritable_pipes.push_back(entry.path().string() + " -> " + target);
    }
  }
}

/// One schedule per emitter path on the CppEmitter.GoldenSourceDigests
/// shapes (tests/exec/test_codegen.cpp): exact and fringe tiles — the
/// fringe's column tiles 24 and 28 leave micro-kernel column tails — and
/// every epilogue.
struct GoldenCase {
  const char* tag;
  Schedule s;
};
std::vector<GoldenCase> golden_cases() {
  static const ChainSpec exact = ChainSpec::gemm_chain("g-exact", 1, 128, 128, 64, 64);
  static const ChainSpec fringe = ChainSpec::gemm_chain("g-fringe", 2, 96, 80, 48, 56);
  static const ChainSpec relu("g-relu", 2, 64, {32, 64, 32}, {Epilogue::Relu, Epilogue::None});
  static const ChainSpec gelu("g-gelu", 1, 80, {48, 72, 40}, {Epilogue::Gelu, Epilogue::None});
  static const ChainSpec softmax = ChainSpec::attention("g-attn", 2, 64, 72, 32, 32);
  const auto deep = [](const ChainSpec& c, std::vector<std::int64_t> tiles) {
    return build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}), tiles);
  };
  std::vector<GoldenCase> cases;
  cases.push_back({"exact", deep(exact, {32, 32, 32, 32})});
  cases.push_back({"fringe", deep(fringe, {40, 48, 28, 24})});
  cases.push_back({"relu", deep(relu, {32, 32, 32, 32})});
  cases.push_back({"gelu", deep(gelu, {32, 48, 24, 40})});
  cases.push_back({"softmax", deep(softmax, {24, 64, 16, 16})});
  return cases;
}

void run_both_and_compare(const Schedule& s,
                          const jit::Toolchain& tc = jit::detect_toolchain(),
                          const std::string& gpu_key = "a100") {
  const ChainSpec& c = s.chain();
  const jit::KernelInputs in =
      jit::seeded_inputs(c.batch(), c.m(), c.inner(), 301);
  Tensor out_interp(Shape{c.batch(), c.m(), c.inner().back()});
  Tensor out_jit(Shape{c.batch(), c.m(), c.inner().back()});
  (void)Interpreter(s).run(in.a, in.weights, out_interp);

  std::string err;
  const jit::ResolvedKernel kernel = jit::resolve_kernel(s, gpu_key, tc, &err);
  ASSERT_TRUE(kernel.ok()) << err;
  std::vector<std::vector<float>> scratch;
  jit::run_compiled(kernel.fn, s, in.a, in.weights, out_jit, scratch);
  // The issue's gate: <= 1e-4 relative tolerance (1e-5 absolute floor
  // for near-zero elements; jit uses FMA contraction, interp does not).
  EXPECT_TRUE(allclose(out_jit, out_interp, 1e-4, 1e-5))
      << c.name() << ": max rel diff " << max_rel_diff(out_jit, out_interp);
}

TEST(Jit, MatchesInterpreterOnGeluChain) {
  if (!jit::detect_toolchain().ok()) {
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  const ChainSpec& c = gelu_chain();
  // Deep and flat expressions, divisible and fringe tiles.
  run_both_and_compare(build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                      std::vector<std::int64_t>{32, 16, 32, 16}));
  run_both_and_compare(build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                      std::vector<std::int64_t>{48, 48, 48, 48}));
  run_both_and_compare(build_schedule(c, make_flat_expr(c, {0, 2}, {1, 3}),
                                      std::vector<std::int64_t>{32, 16, 32, 48}));
}

TEST(Jit, MatchesInterpreterOnAttentionChain) {
  if (!jit::detect_toolchain().ok()) {
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  const ChainSpec& c = attention_chain();
  run_both_and_compare(build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                      std::vector<std::int64_t>{32, 32, 32, 32}));
  run_both_and_compare(build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                      std::vector<std::int64_t>{16, 32, 16, 32}));
}

TEST(Jit, SecondCompileIsACacheHit) {
  const jit::Toolchain tc = jit::detect_toolchain();
  if (!tc.ok()) GTEST_SKIP() << "jit unavailable: " << tc.reason;
  const ChainSpec& c = gelu_chain();
  const Schedule s = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{48, 16, 48, 16});
  const std::string gpu_key = unique_key("cache-hit-test");

  const jit::CompileStats s0 = jit::stats_snapshot();
  std::string err;
  const jit::ResolvedKernel first = jit::resolve_kernel(s, gpu_key, tc, &err);
  ASSERT_TRUE(first.ok()) << err;
  const jit::CompileStats after_first = jit::stats_snapshot().since(s0);
  EXPECT_EQ(after_first.kernels_compiled, 1);
  EXPECT_EQ(after_first.tus_compiled, 1);
  EXPECT_GT(after_first.compile_wall_s, 0.0);

  const jit::ResolvedKernel second = jit::resolve_kernel(s, gpu_key, tc, &err);
  ASSERT_TRUE(second.ok()) << err;
  const jit::CompileStats after_second =
      jit::stats_snapshot().since(s0).since(after_first);
  EXPECT_EQ(after_second.kernels_compiled, 0);
  EXPECT_EQ(after_second.tus_compiled, 0);
  EXPECT_EQ(after_second.cache_hits(), 1);
}

TEST(Jit, BatchCompilesOneTranslationUnitPerWave) {
  if (!jit::detect_toolchain().ok()) {
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  GpuSpec gpu = a100();
  gpu.name = unique_key("batch-tu-test");
  const ExecBackend backend(gpu);
  ASSERT_EQ(backend.top_rung(), ExecRung::Native) << backend.fallback_reason();

  const ChainSpec& c = gelu_chain();
  const Schedule s1 = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                     std::vector<std::int64_t>{32, 16, 32, 16});
  const Schedule s2 = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                     std::vector<std::int64_t>{48, 48, 48, 48});
  const Schedule s3 = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                     std::vector<std::int64_t>{96, 16, 96, 48});
  const std::vector<const Schedule*> wave = {&s1, &s2, &s3};

  const jit::CompileStats s0 = jit::stats_snapshot();
  backend.prepare_batch(wave);
  const jit::CompileStats prep = jit::stats_snapshot().since(s0);
  EXPECT_EQ(prep.tus_compiled, 1);  // the whole wave in ONE invocation
  EXPECT_EQ(prep.kernels_compiled, 3);

  // The wave's measure() calls then resolve without compiling.
  for (const Schedule* s : wave) {
    const KernelMeasurement m = backend.measure(*s);
    EXPECT_TRUE(m.ok) << m.fail_reason;
    EXPECT_GT(m.time_s, 0.0);
  }
  const jit::CompileStats meas = jit::stats_snapshot().since(s0).since(prep);
  EXPECT_EQ(meas.tus_compiled, 0);
  EXPECT_EQ(meas.kernels_compiled, 0);
  EXPECT_EQ(meas.cache_hits(), 3);
}

TEST(CompiledKernel, NativeRunMatchesInterpreterRun) {
  // The deploy-side surface: a fused kernel out of the engine pipeline
  // executes natively (or reports false so callers fall back to run()).
  const ChainSpec& c = attention_chain();
  const CompiledKernel kernel(
      build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                     std::vector<std::int64_t>{32, 32, 32, 32}),
      a100());
  ASSERT_TRUE(kernel.ok()) << kernel.error();

  const jit::KernelInputs in =
      jit::seeded_inputs(c.batch(), c.m(), c.inner(), 401);
  Tensor out_interp(Shape{c.batch(), c.m(), c.inner().back()});
  Tensor out_native(Shape{c.batch(), c.m(), c.inner().back()});
  (void)kernel.run(in.a, in.weights, out_interp);

  if (!jit::detect_toolchain().ok()) {
    EXPECT_FALSE(kernel.run_native(in.a, in.weights, out_native));
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  ASSERT_TRUE(kernel.run_native(in.a, in.weights, out_native));
  EXPECT_TRUE(allclose(out_native, out_interp, 1e-4, 1e-5))
      << "max rel diff " << max_rel_diff(out_native, out_interp);
}

TEST(JitCompile, TimeoutKillsHungCompiler) {
  // A wedged compiler process (distcc stall, NFS hang, miscompiled
  // plugin) must not hang the tuner forever: every part's invocation is
  // killed at MCFUSER_JIT_COMPILE_TIMEOUT_S, reaped, and surfaced as a
  // compile failure.
  if (!jit::detect_toolchain().ok()) {
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  const std::string stem =
      "/tmp/mcfuser-hung-cxx-" + std::to_string(::getpid());
  const std::string pids = stem + ".pids";
  const std::string script =
      write_script(stem + ".sh", "echo $$ >> '" + pids + "'\nexec sleep 600\n");
  ::setenv("MCFUSER_JIT_CXX", script.c_str(), 1);
  ::setenv("MCFUSER_JIT_COMPILE_TIMEOUT_S", "1", 1);

  const ChainSpec& c = gelu_chain();
  const Schedule s = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{32, 16, 32, 16});
  const auto t0 = std::chrono::steady_clock::now();
  std::string error;
  const jit::ResolvedKernel rk =
      jit::resolve_kernel(s, unique_key("hung-cxx"), jit::detect_toolchain(),
                          &error);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  ::unsetenv("MCFUSER_JIT_CXX");
  ::unsetenv("MCFUSER_JIT_COMPILE_TIMEOUT_S");
  ::unlink(script.c_str());

  EXPECT_FALSE(rk.ok());
  EXPECT_NE(error.find("timed out"), std::string::npos) << error;
  EXPECT_LT(wall, 60.0);  // killed at ~1s, nowhere near the 600s sleep
  // No compiler outlives the call: each one was killed AND reaped.
  std::vector<pid_t> started;
  std::ifstream in(pids);
  for (pid_t pid = 0; in >> pid;) started.push_back(pid);
  ::unlink(pids.c_str());
  EXPECT_FALSE(started.empty());
  EXPECT_LE(started.size(), ThreadPool::global().size());
  for (const pid_t pid : started) {
    errno = 0;
    EXPECT_EQ(::kill(pid, 0), -1) << "compiler " << pid << " still exists";
    EXPECT_EQ(errno, ESRCH) << "compiler " << pid;
  }
}

TEST(JitCompile, FirstFailedPartKillsTheOthers) {
  // The kernel bodies' part fails at once while every instantiation part
  // hangs: the failure ends the compile well before the deadline, and no
  // hung compiler outlives the call.
  const jit::Toolchain native = jit::detect_toolchain();
  if (!native.ok()) GTEST_SKIP() << "jit unavailable: " << native.reason;
  const ScopedCacheDir dir("jit_first_failure");
  const std::string pids = dir.file("pids");
  jit::Toolchain tc = native;
  tc.cxx = write_script(
      dir.file("cxx.sh"),
      "for a; do case \"$a\" in *.cpp) if grep -q '^extern \"C\" void' "
      "\"$a\"; then echo injected body failure; exit 1; fi; echo $$ >> '" +
          pids + "'; exec sleep 30;; esac; done\nexec '" + native.cxx +
          "' \"$@\"\n");
  ::setenv("MCFUSER_JIT_COMPILE_TIMEOUT_S", "120", 1);
  const ChainSpec& c = attention_chain();
  const Schedule s = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{32, 32, 32, 32});
  const auto t0 = std::chrono::steady_clock::now();
  std::string error;
  const jit::ResolvedKernel rk =
      jit::resolve_kernel(s, unique_key("first-failure"), tc, &error);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ::unsetenv("MCFUSER_JIT_COMPILE_TIMEOUT_S");

  EXPECT_FALSE(rk.ok());
  EXPECT_NE(error.find("injected body failure"), std::string::npos) << error;
  EXPECT_LT(wall, 15.0);  // the hung parts were killed, not waited for
  std::ifstream in(pids);
  for (pid_t pid = 0; in >> pid;) {
    errno = 0;
    EXPECT_EQ(::kill(pid, 0), -1) << "compiler " << pid << " still exists";
    EXPECT_EQ(errno, ESRCH) << "compiler " << pid;
  }
}

TEST(JitCompile, CompilerPipeIsCloseOnExecWhenTheCompilerForks) {
  // Every fd without close-on-exec survives into whatever this process
  // execs next — e.g. a sandbox worker another thread spawns while a
  // compile is in flight.  Holding the compiler's output pipe, that
  // worker would make the compile read until the worker exits instead of
  // the compiler: in practice until MCFUSER_JIT_COMPILE_TIMEOUT_S.
  if (!jit::detect_toolchain().ok()) {
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  static const int registered =
      ::pthread_atfork(probe_inheritable_pipes, nullptr, nullptr);
  ASSERT_EQ(registered, 0);
  const std::string script = write_script(
      "/tmp/mcfuser-failing-cxx-" + std::to_string(::getpid()) + ".sh",
      "exit 1\n");
  ::setenv("MCFUSER_JIT_CXX", script.c_str(), 1);

  const ChainSpec& c = gelu_chain();
  const Schedule s = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{32, 16, 32, 16});
  const jit::CompileStats before = jit::stats_snapshot();
  g_fork_probe_armed = true;
  std::string error;
  (void)jit::resolve_kernel(s, unique_key("cloexec"), jit::detect_toolchain(),
                            &error);
  g_fork_probe_armed = false;
  ::unsetenv("MCFUSER_JIT_CXX");
  ::unlink(script.c_str());

  EXPECT_EQ(jit::stats_snapshot().since(before).failures, 1);  // it forked
  EXPECT_TRUE(g_inheritable_pipes.empty()) << g_inheritable_pipes.front();
}

/// Distinct-tile schedules of gelu_chain() until their kernels call more
/// prelude tile routines than `workers` (or the tile menu runs out).
std::vector<Schedule> wave_wider_than(unsigned workers) {
  const ChainSpec& c = gelu_chain();
  std::vector<Schedule> wave;
  std::vector<std::string> inst;
  for (const std::int64_t tm : {16, 32, 48, 96}) {
    for (const std::int64_t tk : {16, 48}) {
      for (const std::int64_t tn : {16, 32, 96}) {
        if (inst.size() > workers) return wave;
        Schedule s = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                    std::vector<std::int64_t>{tm, tk, tn, 16});
        if (!s.valid() || !s.consume_complete()) continue;
        for (std::string& d : emit_cpp_kernel(s, "probe").instantiations) {
          if (std::find(inst.begin(), inst.end(), d) == inst.end()) {
            inst.push_back(std::move(d));
          }
        }
        wave.push_back(std::move(s));
      }
    }
  }
  return wave;
}

TEST(JitCompile, PartsCompileConcurrentlyUpToThePoolSize) {
  // A wave's kernel bodies and its tile-routine instantiations compile as
  // parts, side by side, one compiler per pool thread at most, and link
  // into ONE shared object.
  const jit::Toolchain native = jit::detect_toolchain();
  if (!native.ok()) GTEST_SKIP() << "jit unavailable: " << native.reason;
  const unsigned workers = ThreadPool::global().size();
  const ScopedCacheDir dir("jit_parts");
  const std::string log = dir.file("compilers.log");
  jit::Toolchain tc = native;
  tc.cxx = write_script(dir.file("cxx.sh"),
                        "echo start >> '" + log + "'\n'" + native.cxx +
                            "' \"$@\"\nrc=$?\necho end >> '" + log +
                            "'\nexit $rc\n");
  const std::vector<Schedule> wave = wave_wider_than(workers);
  std::vector<const Schedule*> batch;
  for (const Schedule& s : wave) batch.push_back(&s);

  const jit::CompileStats s0 = jit::stats_snapshot();
  jit::prepare_kernels(batch, unique_key("parts"), tc);
  const jit::CompileStats prep = jit::stats_snapshot().since(s0);
  EXPECT_EQ(prep.failures, 0);
  EXPECT_EQ(prep.tus_compiled, 1);
  EXPECT_EQ(prep.kernels_compiled, static_cast<std::int64_t>(wave.size()));
  std::int64_t shared_objects = 0;
  for (const std::string& f : dir.files()) {
    shared_objects += f.rfind("tu_", 0) == 0 && f.ends_with(".so");
  }
  EXPECT_EQ(shared_objects, 1);

  // Each line is one compiler's start or end, in the order they happened.
  std::ifstream in(log);
  int running = 0, widest = 0, started = 0;
  for (std::string event; in >> event;) {
    running += event == "start" ? 1 : -1;
    started += event == "start";
    widest = std::max(widest, running);
  }
  EXPECT_EQ(running, 0);
  EXPECT_GE(started, 2);  // at least one part and the link
  EXPECT_LE(widest, static_cast<int>(workers));
  if (workers >= 2) EXPECT_GE(widest, 2);
}

TEST(JitCompile, FailedPartFailsTheBatchAndKeepsItsSources) {
  // A compiler that fails on the part instantiating mcf_softmax_tile (with
  // one part, the part calling it) fails the whole kernel: nothing is
  // published, no temporary or object file stays behind, and the part
  // sources are kept and named in the diagnostic.  A successful compile
  // leaves only its shared object and index entries.
  const jit::Toolchain native = jit::detect_toolchain();
  if (!native.ok()) GTEST_SKIP() << "jit unavailable: " << native.reason;
  const ScopedCacheDir dir("jit_failed_part");
  const std::string pattern = ThreadPool::global().size() >= 2
                                  ? "^template void mcf_softmax_tile<"
                                  : "mcf_softmax_tile<[0-9]";
  jit::Toolchain tc = native;
  tc.cxx = write_script(
      dir.file("cxx.sh"),
      "for a; do case \"$a\" in *.cpp) if grep -q '" + pattern +
          "' \"$a\"; then echo injected part failure; exit 1; fi;; esac; "
          "done\nexec '" +
          native.cxx + "' \"$@\"\n");
  const std::string gpu_key = unique_key("failed-part");
  const auto is_source = [](const std::string& f) { return f.ends_with(".cpp"); };

  const ChainSpec& c = gelu_chain();
  const Schedule gelu = build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                                       std::vector<std::int64_t>{32, 16, 32, 16});
  std::string error;
  ASSERT_TRUE(jit::resolve_kernel(gelu, gpu_key, tc, &error).ok()) << error;
  const std::vector<std::string> published = dir.files();
  for (const std::string& f : published) {
    EXPECT_TRUE((f.rfind("tu_", 0) == 0 && f.ends_with(".so")) ||
                f.ends_with(".idx"))
        << f;
  }

  const ChainSpec& a = attention_chain();
  const Schedule attn = build_schedule(a, make_deep_expr(a, {0, 3, 2, 1}),
                                       std::vector<std::int64_t>{32, 32, 32, 32});
  const jit::CompileStats s0 = jit::stats_snapshot();
  EXPECT_FALSE(jit::resolve_kernel(attn, gpu_key, tc, &error).ok());
  EXPECT_EQ(jit::stats_snapshot().since(s0).failures, 1);
  EXPECT_NE(error.find("injected part failure"), std::string::npos) << error;
  EXPECT_NE(error.find("sources kept:"), std::string::npos) << error;
  std::vector<std::string> after = dir.files();
  std::vector<std::string> kept;
  std::copy_if(after.begin(), after.end(), std::back_inserter(kept), is_source);
  std::erase_if(after, is_source);
  EXPECT_EQ(after, published);  // no .so, .idx, .o or *.tmp.* file added
  ASSERT_FALSE(kept.empty());
  for (const std::string& f : kept) {
    EXPECT_NE(f.find(".p"), std::string::npos) << f;
    EXPECT_EQ(f.find(".tmp."), std::string::npos) << f;
    EXPECT_NE(error.find(dir.path() + "/" + f), std::string::npos)
        << f << " is not named in: " << error;
  }
}

/// The -march values that select each of the prelude micro-kernel's lane
/// counts on x86-64: the host's own (16 lanes with AVX-512), then 8 (AVX)
/// and 4 (SSE2).  Elsewhere only the host's own.
std::vector<std::string> vector_width_marches() {
#if defined(__x86_64__)
  return {"native", "x86-64-v3", "x86-64"};
#else
  return {"native"};
#endif
}

TEST(JitCompile, KernelSourceNeedsNoSystemHeader) {
  // The prelude declares the libc functions a TU calls instead of
  // including their headers, which cost most of a cold compile.  A kernel
  // that calls anything undeclared fails to parse without the system
  // include path — in every vector-width branch of the micro-kernel.
  const jit::Toolchain tc = jit::detect_toolchain();
  if (!tc.ok()) GTEST_SKIP() << "jit unavailable: " << tc.reason;
  for (const std::string& march : vector_width_marches()) {
    for (const GoldenCase& c : golden_cases()) {
      const std::string src = ::testing::TempDir() + "mcf_noinc_" + c.tag +
                              "_" + march + ".cpp";
      const std::string log = src + ".log";
      std::ofstream(src) << cpp_kernel_prelude()
                         << emit_cpp_kernel(c.s, "noinc_kernel").code;
      const std::string cmd = tc.cxx + " -std=c++17 -fsyntax-only -nostdinc -march=" +
                              march + " " + src + " >" + log + " 2>&1";
      const int status = std::system(cmd.c_str());
      std::stringstream diag;
      diag << std::ifstream(log).rdbuf();
      EXPECT_EQ(status, 0) << c.tag << " -march=" << march << ":\n" << diag.str();
    }
  }
}

TEST(JitCompile, EveryVectorWidthMatchesTheInterpreter) {
  // The micro-kernel's lane count comes from the compiler's ISA macros, so
  // a host only ever compiles its own branch.  A wrapper compiler that
  // appends an older -march (the last one wins) compiles the others.
  // The kernel key does not fold the compiler, so each branch gets its
  // own cache directory and gpu key.
#if !defined(__x86_64__)
  GTEST_SKIP() << "the wrapper compilers name x86-64 ISA levels";
#endif
  const jit::Toolchain native = jit::detect_toolchain();
  if (!native.ok()) GTEST_SKIP() << "jit unavailable: " << native.reason;
  const std::vector<GoldenCase> cases = golden_cases();
  std::vector<const Schedule*> batch;
  for (const GoldenCase& c : cases) batch.push_back(&c.s);
  for (const std::string& march : vector_width_marches()) {
    SCOPED_TRACE("-march=" + march);
    const ScopedCacheDir dir("vector_width_" + march);
    jit::Toolchain tc = native;
    if (march != "native") {
      tc.cxx = write_script(dir.file("cxx.sh"), "exec '" + native.cxx +
                                                    "' \"$@\" -march=" +
                                                    march + "\n");
    }
    const std::string gpu_key = unique_key(("vector-width-" + march).c_str());
    jit::prepare_kernels(batch, gpu_key, tc);  // one TU per branch
    for (const GoldenCase& c : cases) {
      SCOPED_TRACE(c.tag);
      run_both_and_compare(c.s, tc, gpu_key);
    }
  }
}

}  // namespace
}  // namespace mcf

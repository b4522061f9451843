// JIT native codegen: numeric agreement against the interpreter on gelu
// and attention chains and in every vector-width branch of the prelude's
// micro-kernel, kernel-cache behaviour (hit on second compile, one TU per
// batch), the compile timeout, the compiler pipe's close-on-exec and the
// header-free kernel source.  The interpreter runs the same epilogue
// helpers (exec/kernel_prelude.inc), so the independent check of their
// numerics is the tensor/ops oracle, which tests/exec/test_interpreter.cpp
// holds both paths to.  The execution backend's fallback when no host
// compiler exists is pinned by the cascade table in
// tests/measure/test_backends.cpp.
#include "exec/jit.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <pthread.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "exec/codegen.hpp"
#include "exec/interpreter.hpp"
#include "exec/program.hpp"
#include "ir/expr.hpp"
#include "measure/backend.hpp"
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
  // plugin) must not hang the tuner forever: the invocation is killed at
  // MCFUSER_JIT_COMPILE_TIMEOUT_S and surfaced as a compile failure.
  if (!jit::detect_toolchain().ok()) {
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  const std::string script =
      "/tmp/mcfuser-hung-cxx-" + std::to_string(::getpid()) + ".sh";
  {
    std::ofstream os(script);
    os << "#!/bin/sh\nsleep 600\n";
  }
  ::chmod(script.c_str(), 0755);
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
  const std::string script =
      "/tmp/mcfuser-failing-cxx-" + std::to_string(::getpid()) + ".sh";
  {
    std::ofstream os(script);
    os << "#!/bin/sh\nexit 1\n";
  }
  ::chmod(script.c_str(), 0755);
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
  const char* prior = std::getenv("MCFUSER_JIT_CACHE_DIR");
  const std::string saved_dir = prior != nullptr ? prior : "";
  const std::string stem = ::testing::TempDir() + "mcf_vector_width_" +
                           std::to_string(::getpid()) + "_";
  const std::vector<GoldenCase> cases = golden_cases();
  std::vector<const Schedule*> batch;
  for (const GoldenCase& c : cases) batch.push_back(&c.s);
  for (const std::string& march : vector_width_marches()) {
    SCOPED_TRACE("-march=" + march);
    jit::Toolchain tc = native;
    if (march != "native") {
      tc.cxx = stem + march + ".sh";
      std::ofstream(tc.cxx) << "#!/bin/sh\nexec '" << native.cxx
                            << "' \"$@\" -march=" << march << "\n";
      ::chmod(tc.cxx.c_str(), 0755);
    }
    ::setenv("MCFUSER_JIT_CACHE_DIR", (stem + march).c_str(), 1);
    const std::string gpu_key = unique_key(("vector-width-" + march).c_str());
    jit::prepare_kernels(batch, gpu_key, tc);  // one TU per branch
    for (const GoldenCase& c : cases) {
      SCOPED_TRACE(c.tag);
      run_both_and_compare(c.s, tc, gpu_key);
    }
    std::filesystem::remove_all(stem + march);
    if (march != "native") ::unlink(tc.cxx.c_str());
  }
  if (prior != nullptr) {
    ::setenv("MCFUSER_JIT_CACHE_DIR", saved_dir.c_str(), 1);
  } else {
    ::unsetenv("MCFUSER_JIT_CACHE_DIR");
  }
}

}  // namespace
}  // namespace mcf

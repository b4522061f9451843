// JIT module lifecycle: refcounted dlopen handles stay bounded by the
// kernel cap under churn, eviction mid-execution is safe (an in-flight
// run pins its module), stale on-disk artifacts heal with one recompile,
// multicore run_native is bit-identical for every thread count, and the
// opened == open + closed accounting identity holds across the stats
// surfaces (CompileStats, EngineStats, GraphFusionReport::to_json).
#include "exec/jit.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "exec/interpreter.hpp"
#include "exec/program.hpp"
#include "gpu/spec.hpp"
#include "ir/expr.hpp"
#include "tensor/tensor.hpp"

namespace mcf {
namespace {

namespace fs = std::filesystem;

/// Static storage: the Schedule keeps a ChainSpec pointer.
const ChainSpec& gelu_chain() {
  static const ChainSpec c("jitlc-gelu", 2, 96, {48, 96, 48},
                           {Epilogue::Gelu, Epilogue::None});
  return c;
}

Schedule gelu_schedule() {
  const ChainSpec& c = gelu_chain();
  return build_schedule(c, make_deep_expr(c, {0, 3, 2, 1}),
                        std::vector<std::int64_t>{32, 16, 32, 16});
}

/// A gpu key no other process or (persisted) cache run ever used, so
/// "this resolve is a fresh compile" stays assertable over a warm cache.
std::string unique_key(const char* prefix) {
  std::random_device rd;
  return std::string(prefix) + "-" + std::to_string(::getpid()) + "-" +
         std::to_string((static_cast<std::uint64_t>(rd()) << 32) ^ rd());
}

/// The environment-latched production cap (MCFUSER_JIT_KERNEL_CAP
/// default) — what set_kernel_cap_for_testing must be restored to.
constexpr std::size_t kDefaultCap = 4096;

jit::KernelInputs gelu_inputs() {
  const ChainSpec& c = gelu_chain();
  return jit::seeded_inputs(c.batch(), c.m(), c.inner(), 501);
}

Tensor gelu_out() {
  const ChainSpec& c = gelu_chain();
  return Tensor(Shape{c.batch(), c.m(), c.inner().back()});
}

/// Redirects the on-disk kernel cache to a private temp dir for the
/// healing tests (so deleting artifacts can't race other tests sharing
/// the user-level cache) and restores the environment on destruction.
class ScopedCacheDir {
 public:
  ScopedCacheDir() {
    char tmpl[] = "/tmp/mcf-jit-lifecycle-XXXXXX";
    char* got = ::mkdtemp(tmpl);
    dir_ = (got != nullptr) ? got : "/tmp";
    if (const char* old = std::getenv("MCFUSER_JIT_CACHE_DIR")) old_ = old;
    ::setenv("MCFUSER_JIT_CACHE_DIR", dir_.c_str(), 1);
  }
  ~ScopedCacheDir() {
    if (old_.empty()) {
      ::unsetenv("MCFUSER_JIT_CACHE_DIR");
    } else {
      ::setenv("MCFUSER_JIT_CACHE_DIR", old_.c_str(), 1);
    }
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::string old_;
};

/// Every tu_*.so currently published in `dir`.
std::vector<fs::path> shared_objects(const std::string& dir) {
  std::vector<fs::path> out;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".so") out.push_back(e.path());
  }
  return out;
}

TEST(JitLifecycle, ChurnKeepsOpenModulesBoundedByKernelCap) {
  if (!jit::detect_toolchain().ok()) {
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  const jit::Toolchain tc = jit::detect_toolchain();
  const Schedule s = gelu_schedule();

  // 12 distinct gpu keys through a 4-entry registry: every wave of
  // resolves evicts, and each eviction must dlclose (nothing else holds
  // the module).  256 iterations = the issue's churn chain.
  constexpr std::size_t kCap = 4;
  std::vector<std::string> keys;
  for (int i = 0; i < 12; ++i) {
    keys.push_back(unique_key(("churn-" + std::to_string(i)).c_str()));
  }
  jit::set_kernel_cap_for_testing(kCap);
  const jit::CompileStats before = jit::stats_snapshot();
  for (int it = 0; it < 256; ++it) {
    std::string err;
    const jit::ResolvedKernel rk = jit::resolve_kernel(
        s, keys[static_cast<std::size_t>(it) % keys.size()], tc, &err);
    ASSERT_TRUE(rk.ok()) << err;
    // rk's module reference drops here; the registry entry (if still
    // resident) is the only remaining owner.
  }
  const jit::CompileStats after = jit::stats_snapshot();
  jit::set_kernel_cap_for_testing(kDefaultCap);

  // Cycling 12 keys through 4 slots must have closed modules...
  EXPECT_GT(after.modules_closed, before.modules_closed);
  // ...and the resident set never outgrows the cap (plus whatever this
  // process already had open before the churn).
  EXPECT_LE(after.modules_open,
            before.modules_open + static_cast<std::int64_t>(kCap));
  // Absolute accounting identity.
  EXPECT_EQ(after.modules_opened, after.modules_open + after.modules_closed);
}

TEST(JitLifecycle, EvictionDuringExecutionIsSafe) {
  if (!jit::detect_toolchain().ok()) {
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  const jit::Toolchain tc = jit::detect_toolchain();
  const Schedule s = gelu_schedule();
  const jit::KernelInputs in = gelu_inputs();
  Tensor ref = gelu_out();
  (void)Interpreter(s).run(in.a, in.weights, ref);

  // The held kernel pins its module; a cap-1 registry plus a churner
  // thread then guarantees the kernel's REGISTRY entry is evicted while
  // runs are in flight.  The run must keep executing the mapped code
  // and producing correct output — the dlclose happens only when this
  // ResolvedKernel goes away.
  std::string err;
  const jit::ResolvedKernel kernel =
      jit::resolve_kernel(s, unique_key("evict-victim"), tc, &err);
  ASSERT_TRUE(kernel.ok()) << err;
  jit::set_kernel_cap_for_testing(1);

  std::atomic<bool> stop{false};
  std::thread churner([&] {
    const std::string k1 = unique_key("evict-churn-a");
    const std::string k2 = unique_key("evict-churn-b");
    while (!stop.load(std::memory_order_relaxed)) {
      std::string err;
      (void)jit::resolve_kernel(s, k1, tc, &err);
      (void)jit::resolve_kernel(s, k2, tc, &err);
    }
  });

  Tensor out = gelu_out();
  std::vector<std::vector<float>> scratch;
  for (int i = 0; i < 50; ++i) {
    jit::run_compiled(kernel.fn, s, in.a, in.weights, out, scratch);
    ASSERT_TRUE(allclose(out, ref, 1e-4, 1e-5))
        << "iteration " << i << ": max rel diff " << max_rel_diff(out, ref);
  }
  stop.store(true, std::memory_order_relaxed);
  churner.join();
  jit::set_kernel_cap_for_testing(kDefaultCap);
}

TEST(JitLifecycle, DeletedSharedObjectHealsWithOneRecompile) {
  if (!jit::detect_toolchain().ok()) {
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  const jit::Toolchain tc = jit::detect_toolchain();
  const ScopedCacheDir cache;
  const Schedule s = gelu_schedule();
  const std::string key = unique_key("heal-deleted");

  std::string err;
  {
    const jit::ResolvedKernel rk = jit::resolve_kernel(s, key, tc, &err);
    ASSERT_TRUE(rk.ok()) << err;
  }
  const std::vector<fs::path> sos = shared_objects(cache.dir());
  ASSERT_FALSE(sos.empty());
  for (const fs::path& so : sos) fs::remove(so);
  // Drop the in-memory entry so the next resolve goes back to disk,
  // finds the idx pointing at a deleted .so, and must heal.
  jit::set_kernel_cap_for_testing(kDefaultCap);

  const jit::CompileStats s0 = jit::stats_snapshot();
  const jit::ResolvedKernel healed = jit::resolve_kernel(s, key, tc, &err);
  EXPECT_TRUE(healed.ok()) << err;
  const jit::CompileStats d = jit::stats_snapshot().since(s0);
  EXPECT_EQ(d.tus_compiled, 1);  // exactly one healing recompile
  EXPECT_EQ(d.failures, 0);      // and it is not negative-cached
}

TEST(JitLifecycle, TruncatedSharedObjectHealsWithOneRecompile) {
  if (!jit::detect_toolchain().ok()) {
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  const jit::Toolchain tc = jit::detect_toolchain();
  const ScopedCacheDir cache;
  const Schedule s = gelu_schedule();
  const std::string key = unique_key("heal-truncated");

  std::string err;
  {
    const jit::ResolvedKernel rk = jit::resolve_kernel(s, key, tc, &err);
    ASSERT_TRUE(rk.ok()) << err;
  }
  const std::vector<fs::path> sos = shared_objects(cache.dir());
  ASSERT_FALSE(sos.empty());
  for (const fs::path& so : sos) {
    // Replace, don't truncate in place: an in-place truncation of a
    // still-mmapped object is OS-level UB (SIGBUS on the live mapping).
    // The realistic corruption — a crashed writer, a partial copy — is a
    // fresh inode with garbage bytes at the published path.
    fs::remove(so);
    std::ofstream garbage(so);
    garbage << "not an elf\n";
  }
  jit::set_kernel_cap_for_testing(kDefaultCap);

  const jit::CompileStats s0 = jit::stats_snapshot();
  const jit::ResolvedKernel healed = jit::resolve_kernel(s, key, tc, &err);
  EXPECT_TRUE(healed.ok()) << err;
  const jit::CompileStats d = jit::stats_snapshot().since(s0);
  EXPECT_EQ(d.tus_compiled, 1);
  EXPECT_EQ(d.failures, 0);
}

TEST(JitLifecycle, RunNativeIsBitIdenticalForEveryThreadCount) {
  const ChainSpec& c = gelu_chain();
  const CompiledKernel kernel(gelu_schedule(), a100());
  ASSERT_TRUE(kernel.ok()) << kernel.error();
  const jit::KernelInputs in = gelu_inputs();

  if (!jit::detect_toolchain().ok()) {
    GTEST_SKIP() << "jit unavailable: " << jit::detect_toolchain().reason;
  }
  Tensor base = gelu_out();
  ASSERT_TRUE(kernel.run_native(in.a, in.weights, base, 1));
  for (const int t : {0, 2, 3, 4, 7, 16}) {
    Tensor out = gelu_out();
    ASSERT_TRUE(kernel.run_native(in.a, in.weights, out, t));
    // Chunked fan-out must not change the result AT ALL: each block's
    // arithmetic is unchanged, only which thread runs it moves.
    EXPECT_TRUE(allclose(out, base, 0.0, 0.0))
        << "threads=" << t << " for chain " << c.name();
  }
}

TEST(JitLifecycle, AccountingIdentityAcrossStatsSurfaces) {
  // CompileStats: the absolute snapshot obeys opened == open + closed.
  const jit::CompileStats s = jit::stats_snapshot();
  EXPECT_EQ(s.modules_opened, s.modules_open + s.modules_closed);
  EXPECT_GE(s.modules_open, 0);

  // EngineStats carries an absolute snapshot, so the identity holds there
  // too, and its JSON nests the snapshot's own to_json().
  const FusionEngine engine(a100());
  const EngineStats es = engine.stats();
  EXPECT_EQ(es.jit.modules_opened, es.jit.modules_open + es.jit.modules_closed);
  EXPECT_NE(es.to_json().find("\"jit\":{\"tus_compiled\":"), std::string::npos);

  // GraphFusionReport::to_json exposes them to dashboards.
  GraphFusionReport rep;
  rep.jit_compile = s;
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"modules_opened\":"), std::string::npos);
  EXPECT_NE(json.find("\"modules_open\":"), std::string::npos);
  EXPECT_NE(json.find("\"modules_closed\":"), std::string::npos);
}

}  // namespace
}  // namespace mcf

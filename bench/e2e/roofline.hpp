// Host roofline probe: STREAM-triad bandwidth and register-resident FMA
// peak of THIS host's CPU — measurements of the machine the jit kernels
// run on, not of the simulated GPU.  Both loops fan out across the
// process-wide worker pool, like run_native does.  The bench is built
// with -march=native, the same ISA the jit compiles kernels for.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "harness.hpp"
#include "support/thread_pool.hpp"

namespace mcf::e2e {

struct HostRoofline {
  double stream_gbps = 0.0;  ///< triad a = b + s*c, 12 bytes per element
  double fma_gflops = 0.0;   ///< fp32, 2 flops per fused multiply-add
};

namespace detail {

using f32x16 = float __attribute__((vector_size(64)));

/// 12 independent accumulators hide the FMA latency; the result feeds a
/// sink so the loop cannot be folded away.
inline float fma_loop(std::int64_t iters) {
  f32x16 acc[12];
  for (int k = 0; k < 12; ++k) acc[k] = f32x16{} + 1e-3f * static_cast<float>(k + 1);
  const f32x16 mul = f32x16{} + 1.0000001f;
  const f32x16 add = f32x16{} + 1e-7f;
  for (std::int64_t it = 0; it < iters; ++it) {
#pragma GCC unroll 12
    for (int k = 0; k < 12; ++k) acc[k] = acc[k] * mul + add;
  }
  f32x16 s{};
  for (const f32x16& a : acc) s += a;
  float r = 0.0f;
  for (int i = 0; i < 16; ++i) r += s[i];
  return r;
}

}  // namespace detail

/// Best of 5 repetitions of each loop (96 MiB triad working set).
[[nodiscard]] inline HostRoofline probe_host() {
  ThreadPool& pool = ThreadPool::global();
  const auto parts = static_cast<std::int64_t>(pool.concurrency());
  constexpr std::int64_t kN = std::int64_t{8} << 20;
  std::vector<float> a(kN, 0.0f);
  std::vector<float> b(kN, 1.0f);
  std::vector<float> c(kN, 2.0f);
  constexpr std::int64_t kFmaIters = 4'000'000;
  std::vector<float> sink(static_cast<std::size_t>(parts), 0.0f);
  HostRoofline best;
  for (int rep = 0; rep < 5; ++rep) {
    auto t0 = Clock::now();
    pool.parallel_for(parts, [&](std::int64_t p) {
      const std::int64_t lo = p * kN / parts;
      const std::int64_t hi = (p + 1) * kN / parts;
      for (std::int64_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0f * c[i];
    });
    const double triad_s = seconds_between(t0, Clock::now());
    best.stream_gbps = std::max(best.stream_gbps, 12.0 * kN / triad_s / 1e9);
    t0 = Clock::now();
    pool.parallel_for(parts, [&](std::int64_t p) {
      sink[static_cast<std::size_t>(p)] += detail::fma_loop(kFmaIters);
    });
    const double fma_s = seconds_between(t0, Clock::now());
    best.fma_gflops = std::max(
        best.fma_gflops, static_cast<double>(parts) * kFmaIters * 12 * 16 * 2 / fma_s / 1e9);
  }
  volatile float keep = sink[0] + a[kN / 2];
  (void)keep;
  return best;
}

}  // namespace mcf::e2e

// Chain cases shared by every workload: seeded inputs for a 2-op
// ChainSpec, the numerics oracle (the unfused tensor/ops reference of its
// epilogue via gemm_chain_reference, and the one output check the
// benchmark uses), and the timing of a compiled kernel on them.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exec/program.hpp"
#include "harness.hpp"
#include "ir/chain.hpp"
#include "support/rng.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace mcf::e2e {

/// tests/exec/test_interpreter.cpp's fused-vs-reference tolerance.
inline constexpr double kRtol = 1e-3;
inline constexpr double kAtol = 1e-4;

[[nodiscard]] inline bool matches(const Tensor& out, const Tensor& ref) {
  return allclose(out, ref, kRtol, kAtol);
}

[[nodiscard]] inline ops::ChainEpilogue reference_epilogue(Epilogue e) {
  switch (e) {
    case Epilogue::Relu:
      return ops::ChainEpilogue::Relu;
    case Epilogue::Gelu:
      return ops::ChainEpilogue::Gelu;
    case Epilogue::OnlineSoftmax:
      return ops::ChainEpilogue::Softmax;
    case Epilogue::None:
      break;
  }
  return ops::ChainEpilogue::None;
}

/// One chain with its seeded inputs and an output buffer.
struct ChainCase {
  ChainSpec chain;
  Tensor a;
  std::vector<Tensor> weights;
  Tensor out;
};

/// Seeded inputs (rank-3, batch-major, values in [-1, 1]).  The data
/// seed mixes the benchmark seed with the chain name, so every chain of a
/// run gets its own data.
[[nodiscard]] inline ChainCase make_case(const ChainSpec& chain, std::uint64_t seed) {
  const std::uint64_t s = hash_combine(seed, hash_string(chain.name()));
  const auto& d = chain.inner();
  ChainCase c{chain, Tensor(Shape{chain.batch(), chain.m(), d.front()}), {},
              Tensor(Shape{chain.batch(), chain.m(), d.back()})};
  c.a.fill_random(s);
  for (int op = 0; op < chain.num_ops(); ++op) {
    const auto i = static_cast<std::size_t>(op);
    Tensor w(Shape{chain.batch(), d[i], d[i + 1]});
    w.fill_random(hash_combine(s, i + 1));
    c.weights.push_back(std::move(w));
  }
  return c;
}

/// The unfused tensor/ops output for the case's inputs.
[[nodiscard]] inline Tensor reference(const ChainCase& c) {
  Tensor ref(c.out.shape());
  ops::gemm_chain_reference(c.a, c.weights[0], c.weights[1], ref,
                            reference_epilogue(c.chain.epilogue(0)),
                            c.chain.softmax_scale());
  return ref;
}

/// Median seconds of `runs` run_native calls after one warm-up; `threads`
/// caps the block fan-out as in run_native (0 = the whole pool).
[[nodiscard]] inline double kernel_seconds(const CompiledKernel& k, ChainCase& c,
                                           int threads, int runs) {
  std::vector<double> t;
  for (int i = 0; i <= runs; ++i) {
    const auto t0 = Clock::now();
    (void)k.run_native(c.a, c.weights, c.out, threads);
    if (i > 0) t.push_back(seconds_between(t0, Clock::now()));
  }
  return median(std::move(t));
}

/// True when the case's output matches its reference.
[[nodiscard]] inline bool output_correct(const ChainCase& c) {
  return matches(c.out, reference(c));
}

}  // namespace mcf::e2e

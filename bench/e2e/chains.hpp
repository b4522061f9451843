// The chains the workloads run: a seeded generator of 2-op chains
// (fuse-cold, serve-sim) and the fixed paper rows of kernels-hot.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "graph/mixer.hpp"
#include "graph/partitioner.hpp"
#include "ir/chain.hpp"
#include "support/rng.hpp"
#include "workloads/suites.hpp"

namespace mcf::e2e {

/// Seeded chains M x d -> 2d -> d with M in {256,512,768,1024}, d in
/// {64,128,196,256}, batch 1-4 and an epilogue from {attention softmax,
/// GeLU, ReLU, none}.  196 brings non-power-of-two extents and fringe
/// tiles.  The draw is stratified: each block of 16 chains holds every
/// (M, d) pair once, and every 4 consecutive chains hold each M, each d
/// and each epilogue once, so a run that gets through only a few chains
/// still sees the whole mix and its latency does not hinge on the seed.
/// Chains are distinct; names encode the shape.
[[nodiscard]] inline std::vector<ChainSpec> generate_chains(std::uint64_t seed,
                                                            std::size_t count) {
  constexpr std::array<std::int64_t, 4> kM{256, 512, 768, 1024};
  constexpr std::array<std::int64_t, 4> kD{64, 128, 196, 256};
  constexpr std::array<Epilogue, 4> kEpi{Epilogue::OnlineSoftmax, Epilogue::Gelu,
                                         Epilogue::Relu, Epilogue::None};
  Rng rng = make_rng(seed);
  std::vector<ChainSpec> out;
  std::set<std::tuple<std::int64_t, std::int64_t, std::int64_t, int>> seen;
  std::array<int, 4> pm{0, 1, 2, 3};
  std::array<int, 4> pd{0, 1, 2, 3};
  std::array<int, 4> pe{0, 1, 2, 3};
  for (std::size_t i = 0; out.size() < count; ++i) {
    if (i % 16 == 0) {
      std::shuffle(pm.begin(), pm.end(), rng);
      std::shuffle(pd.begin(), pd.end(), rng);
      std::shuffle(pe.begin(), pe.end(), rng);
    }
    const std::size_t j = i % 4;
    const std::size_t b = (i / 4) % 4;
    const std::int64_t m = kM[static_cast<std::size_t>(pm[j])];
    const std::int64_t d = kD[static_cast<std::size_t>(pd[(j + b) % 4])];
    const int e = pe[(j + 2 * b) % 4];
    const auto batch = static_cast<std::int64_t>(1 + rng() % 4);
    if (!seen.emplace(batch, m, d, e).second) continue;
    const Epilogue epi = kEpi[static_cast<std::size_t>(e)];
    const std::string name = "gen" + std::to_string(out.size()) + "-b" +
                             std::to_string(batch) + "m" + std::to_string(m) +
                             "d" + std::to_string(d) + "-" + epilogue_name(epi);
    if (epi == Epilogue::OnlineSoftmax) {
      out.push_back(ChainSpec::attention(name, batch, m, 2 * d, d, d));
    } else {
      out.emplace_back(name, batch, m, std::vector<std::int64_t>{d, 2 * d, d},
                       std::vector<Epilogue>{epi, Epilogue::None});
    }
  }
  return out;
}

/// kernels-hot: Table II rows G1, G3, G4, G7, G8, Table III rows S1, S4,
/// S7, S8 and the Mixer-Small token-mixing chain (fc1 -> GeLU -> fc2 over
/// 196 patches) as the partitioner extracts it from the model graph.
[[nodiscard]] inline std::vector<ChainSpec> hot_chains(const GpuSpec& gpu) {
  std::vector<ChainSpec> out;
  const auto pick = [&out](const std::vector<ChainSpec>& suite,
                           std::initializer_list<const char*> names) {
    for (const char* n : names) {
      for (const ChainSpec& c : suite) {
        if (c.name() == n) out.push_back(c);
      }
    }
  };
  pick(gemm_chain_suite(), {"G1", "G3", "G4", "G7", "G8"});
  pick(attention_suite(), {"S1", "S4", "S7", "S8"});
  MixerConfig mixer = mixer_small();
  mixer.layers = 1;
  const ChainSpec token = partition_mbci(build_mixer(mixer), gpu).mbci.at(0).chain;
  out.emplace_back("mixer", token.batch(), token.m(), token.inner(),
                   std::vector<Epilogue>{token.epilogue(0), token.epilogue(1)},
                   token.softmax_scale());
  return out;
}

}  // namespace mcf::e2e

// Helper for tools/check_jit_identity.sh: tunes the benchmark's seed-1
// fuse-cold chains and its ten kernels-hot chains with the default engine
// (simulator backend, so the winners do not depend on the host or the
// commit), compiles each winner through its first run_native into a cold
// jit cache directory of its own, and prints one line per chain:
//
//   <index> <chain name> <FNV-1a of the output's bytes>
//
// Build it against the library of the checkout under test:
//
//   c++ -std=c++20 -O2 -I<dir>/src -I<dir>/bench/e2e \
//       tools/jit_identity_dump.cpp <dir>/build/libmcfuser.a -lpthread -ldl
//
// usage: jit_identity_dump CACHE_ROOT N_COLD
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "chains.hpp"
#include "engine/engine.hpp"
#include "oracle.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s CACHE_ROOT N_COLD\n", argv[0]);
    return 2;
  }
  const std::string root = argv[1];
  const std::size_t n_cold = std::stoul(argv[2]);
  const mcf::GpuSpec gpu = mcf::a100();
  std::vector<mcf::ChainSpec> chains = mcf::e2e::generate_chains(1, n_cold);
  for (mcf::ChainSpec& c : mcf::e2e::hot_chains(gpu)) chains.push_back(std::move(c));

  const mcf::FusionEngine engine(gpu);
  int failed = 0;
  for (std::size_t i = 0; i < chains.size(); ++i) {
    char index[16];
    std::snprintf(index, sizeof(index), "%03zu", i);
    // jit::cache_dir() re-reads the variable on every compile.
    ::setenv("MCFUSER_JIT_CACHE_DIR", (root + "/" + index).c_str(), 1);
    mcf::e2e::ChainCase c = mcf::e2e::make_case(chains[i], 1);
    const mcf::FusionResult r = engine.fuse(c.chain);
    if (!r.ok() || !r.kernel->run_native(c.a, c.weights, c.out)) {
      std::fprintf(stderr, "%s %s: no native run (%s)\n", index,
                   c.chain.name().c_str(), r.reason.c_str());
      failed = 1;
      continue;
    }
    const std::span<const float> out = c.out.data();
    const std::uint64_t h = mcf::hash_string(std::string_view(
        reinterpret_cast<const char*>(out.data()), out.size_bytes()));
    std::printf("%s %s %016llx\n", index, c.chain.name().c_str(),
                static_cast<unsigned long long>(h));
  }
  return failed;
}

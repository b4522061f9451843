// Bit-identical regression pin for the engine refactor:
// FusionEngine::fuse() must reproduce the pre-engine implementation
// exactly on the fig7 workload family — best tile vector, best
// expression, best measured time (exact double compare), tuning
// measurement count and the full prune funnel.  The golden values below
// were captured from the pre-refactor tree (commit 52d3639) with the
// default options on a100().
#include <gtest/gtest.h>

#include <vector>

#include "engine/engine.hpp"

namespace mcf {
namespace {

struct Golden {
  const char* name;
  int expr_id;
  std::vector<std::int64_t> tiles;
  double best_time_s;
  int measurements;
  int generations;
  double funnel[5];  // original, after_rule1..4
  std::size_t space_size;
};

// Captured pre-PR (see header comment); do NOT regenerate these from a
// tree that already contains the engine — that would defeat the pin.
const std::vector<Golden>& golden() {
  static const std::vector<Golden> kGolden = {
      {"fig7-mini", 0, {16, 64, 32, 16}, 5.1145922738498446e-06, 16, 3,
       {26624, 5120, 3584, 528, 528}, 528},
      {"fig7-mini-wide", 0, {16, 32, 64, 16}, 4.9812108136980898e-06, 15, 3,
       {13312, 2560, 2048, 320, 320}, 320},
      {"fig7-mini-attn", 1, {16, 32, 32, 16}, 4.8843710782450023e-06, 15, 3,
       {1664, 320, 256, 144, 144}, 144},
      {"fig7", 2, {32, 512, 32, 256}, 4.5120054682183073e-05, 37, 3,
       {109051904, 20971520, 12845056, 5880, 2262}, 2262},
  };
  return kGolden;
}

ChainSpec chain_for(const std::string& name) {
  if (name == "fig7-mini") return ChainSpec::gemm_chain("fig7-mini", 1, 128, 128, 64, 64);
  if (name == "fig7-mini-wide") return ChainSpec::gemm_chain("fig7-mini-wide", 1, 256, 128, 32, 32);
  if (name == "fig7-mini-attn") return ChainSpec::attention("fig7-mini-attn", 2, 64, 64, 32, 32);
  return ChainSpec::gemm_chain("fig7", 1, 1024, 1024, 512, 512);
}

void expect_matches(const FusionResult& r, const Golden& g) {
  ASSERT_TRUE(r.ok()) << g.name << ": " << r.reason;
  EXPECT_EQ(r.tuned.best.expr_id, g.expr_id) << g.name;
  ASSERT_EQ(r.tuned.best.tiles.size(), g.tiles.size()) << g.name;
  for (std::size_t i = 0; i < g.tiles.size(); ++i) {
    EXPECT_EQ(r.tuned.best.tiles[i], g.tiles[i]) << g.name << " tile " << i;
  }
  // Exact compare: "bit-identical" is the contract, not "close".
  EXPECT_EQ(r.tuned.best_time_s, g.best_time_s) << g.name;
  EXPECT_EQ(r.tuned.stats.measurements, g.measurements) << g.name;
  EXPECT_EQ(r.tuned.stats.generations, g.generations) << g.name;
  EXPECT_EQ(r.funnel.original, g.funnel[0]) << g.name;
  EXPECT_EQ(r.funnel.after_rule1, g.funnel[1]) << g.name;
  EXPECT_EQ(r.funnel.after_rule2, g.funnel[2]) << g.name;
  EXPECT_EQ(r.funnel.after_rule3, g.funnel[3]) << g.name;
  EXPECT_EQ(r.funnel.after_rule4, g.funnel[4]) << g.name;
  EXPECT_EQ(r.space_size, g.space_size) << g.name;
}

TEST(EngineRegression, EngineFuseBitIdenticalToPrePR) {
  const GpuSpec gpu = a100();
  const FusionEngine engine(gpu);
  for (const Golden& g : golden()) {
    expect_matches(engine.fuse(chain_for(g.name)), g);
  }
}

TEST(EngineRegression, AsyncSubmitMatchesSynchronousFuse) {
  const GpuSpec gpu = a100();
  FusionEngineOptions opts;
  opts.jobs = 2;
  FusionEngine engine(gpu, opts);
  std::vector<FusionTicket> tickets;
  for (const Golden& g : golden()) {
    if (std::string(g.name) == "fig7") continue;  // keep the test fast
    tickets.push_back(engine.submit(chain_for(g.name)));
  }
  std::size_t i = 0;
  for (const Golden& g : golden()) {
    if (std::string(g.name) == "fig7") continue;
    expect_matches(tickets[i++].get(), g);
  }
}

}  // namespace
}  // namespace mcf

#include "search/tuning_cache.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "engine/engine.hpp"

namespace mcf {
namespace {

ChainSpec chain() { return ChainSpec::gemm_chain("cc", 1, 512, 256, 64, 64); }

TEST(TuningCache, ChainKeyIsShapeBased) {
  const ChainSpec a = ChainSpec::gemm_chain("first", 1, 512, 256, 64, 64);
  const ChainSpec b = ChainSpec::gemm_chain("second", 1, 512, 256, 64, 64);
  EXPECT_EQ(chain_cache_key(a), chain_cache_key(b));  // names don't matter
  const ChainSpec c = ChainSpec::gemm_chain("third", 1, 512, 256, 64, 128);
  EXPECT_NE(chain_cache_key(a), chain_cache_key(c));
  const ChainSpec d = ChainSpec::attention("attn", 1, 512, 256, 64, 64);
  EXPECT_NE(chain_cache_key(a), chain_cache_key(d));  // epilogues matter
}

TEST(TuningCache, PutGetRoundTrip) {
  TuningCache cache;
  const GpuSpec gpu = a100();
  EXPECT_FALSE(cache.get(chain(), gpu).has_value());
  cache.put(chain(), gpu, CachedSchedule{"b0|2(1)", {64, 64, 64, 64}, 1e-5});
  const auto hit = cache.get(chain(), gpu);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->tiles, (std::vector<std::int64_t>{64, 64, 64, 64}));
  // Different GPU: separate entry.
  EXPECT_FALSE(cache.get(chain(), rtx3080()).has_value());
}

TEST(TuningCache, SaveLoadRoundTrip) {
  const std::string path = "tuning_cache_test.txt";
  {
    TuningCache cache;
    cache.put(chain(), a100(), CachedSchedule{"key", {32, 64, 128, 16}, 2e-5});
    ASSERT_TRUE(cache.save(path));
  }
  TuningCache loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.size(), 1u);
  const auto hit = loaded.get(chain(), a100());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->tiles, (std::vector<std::int64_t>{32, 64, 128, 16}));
  EXPECT_NEAR(hit->time_s, 2e-5, 1e-12);
  std::filesystem::remove(path);
}

TEST(TuningCache, GoldenRoundTripIsByteStable) {
  // save -> load -> save must reproduce the file byte for byte: record
  // order is canonical (sorted map) and times print with full precision.
  const std::string path1 = "tuning_cache_golden_1.txt";
  const std::string path2 = "tuning_cache_golden_2.txt";
  TuningCache cache;
  cache.put(chain(), a100(),
            CachedSchedule{"b0|2(1)", {32, 64, 128, 16}, 1.2345678901234567e-5});
  cache.put(chain(), rtx3080(),
            CachedSchedule{"b0b3|2(1)", {64, 64, 64, 64}, 3.3e-6});
  cache.put(ChainSpec::attention("a", 4, 128, 128, 64, 64), a100(),
            CachedSchedule{"b0|2(1)", {16, 16, 16, 16, 16}, 0.5});
  ASSERT_TRUE(cache.save(path1));
  TuningCache loaded;
  ASSERT_TRUE(loaded.load(path1));
  EXPECT_EQ(loaded.size(), 3u);
  ASSERT_TRUE(loaded.save(path2));
  auto slurp = [](const std::string& p) {
    std::ifstream f(p);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
  };
  EXPECT_EQ(slurp(path1), slurp(path2));
  // All record fields survive, bit-exact time included.
  const auto hit = loaded.get(chain(), a100());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->expr_key, "b0|2(1)");
  EXPECT_EQ(hit->tiles, (std::vector<std::int64_t>{32, 64, 128, 16}));
  EXPECT_EQ(hit->time_s, 1.2345678901234567e-5);
  std::filesystem::remove(path1);
  std::filesystem::remove(path2);
}

TEST(TuningCache, MalformedLinesAreSkippedAndReported) {
  const std::string path = "tuning_cache_malformed.txt";
  {
    TuningCache cache;
    cache.put(chain(), a100(), CachedSchedule{"good", {64, 64, 64, 64}, 1e-5});
    ASSERT_TRUE(cache.save(path));
    std::ofstream f(path, std::ios::app);
    f << "short line\n";                         // too few fields
    f << "key gpu expr 64,notanumber,64 1e-5\n"; // non-numeric tile
    f << "\n";                                   // blank: fine, ignored
    f << "# comment: fine, ignored\n";
  }
  TuningCache loaded;
  EXPECT_FALSE(loaded.load(path));  // malformed lines were skipped
  EXPECT_EQ(loaded.size(), 1u);     // the good record still loads
  EXPECT_TRUE(loaded.get(chain(), a100()).has_value());
  std::filesystem::remove(path);
}

TEST(TuningCache, ResolveRejectsOffGridTiles) {
  // Tiles of 8 divide the dims exactly and pass rules 2-4, but are off
  // the quantum-16 enumeration grid; resolve() must reject them (cached
  // entries can only ever come off the grid, so a miss means the space's
  // options changed under the entry).
  const GpuSpec gpu = a100();
  const ChainSpec c = chain();
  PruneOptions prune;
  prune.smem_limit_bytes = gpu.smem_per_block;
  const SearchSpace space(c, SpaceOptions{}, prune);
  // Start from a real grid candidate and knock one tile off the grid
  // (divisors of the original, so padding stays zero) until the rules
  // still pass but grid membership does not.
  std::optional<CandidateConfig> off_grid;
  for (const CandidateConfig& base : space.candidates()) {
    for (std::size_t l = 0; l < base.tiles.size() && !off_grid; ++l) {
      for (const std::int64_t v : {8, 24, 40, 48}) {
        CandidateConfig probe = base;
        probe.tiles[l] = v;
        if (!space.contains(probe) && space.passes_rules(probe)) {
          off_grid = probe;
          break;
        }
      }
    }
    if (off_grid) break;
  }
  ASSERT_TRUE(off_grid.has_value());
  TuningCache cache;
  cache.put(c, gpu,
            CachedSchedule{space.expressions()[static_cast<std::size_t>(
                                                   off_grid->expr_id)]
                               .structure_key(),
                           {off_grid->tiles.begin(), off_grid->tiles.end()},
                           1e-6});
  EXPECT_FALSE(cache.resolve(c, gpu, space).has_value());
}

// A save killed mid-write must leave a loadable file holding the old or
// the new records, never a torn mix: a forked child saves a large cache
// in a loop and is SIGKILLed at varied delays.
TEST(TuningCache, SaveSurvivesKillMidWrite) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("mcf_cache_kill_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "cache.txt").string();
  TuningCache old_cache;
  TuningCache new_cache;
  // One record per distinct chain shape (m varies).
  for (int i = 0; i < 50; ++i) {
    old_cache.put(ChainSpec::gemm_chain("old", 1, 16 + i, 64, 32, 32), a100(),
                  CachedSchedule{"e", {16, 32}, 1e-6});
  }
  for (int i = 0; i < 40000; ++i) {
    new_cache.put(ChainSpec::gemm_chain("new", 1, 16 + i, 64, 32, 32), a100(),
                  CachedSchedule{"b0b3|2(1)", {64, 128, 64, 32}, 2.5e-5});
  }
  for (int round = 0; round < 16; ++round) {
    ASSERT_TRUE(old_cache.save(path));
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      for (;;) (void)new_cache.save(path);
    }
    ::usleep(static_cast<useconds_t>(500 + (round * 2711) % 40000));
    ::kill(child, SIGKILL);
    int status = 0;
    ::waitpid(child, &status, 0);
    TuningCache loaded;
    EXPECT_TRUE(loaded.load(path)) << "round " << round << ": torn file";
    EXPECT_TRUE(loaded.size() == old_cache.size() ||
                loaded.size() == new_cache.size())
        << "round " << round << ": " << loaded.size() << " records";
  }
  std::filesystem::remove_all(dir);
}

TEST(TuningCache, FailedSaveLeavesNoTempFile) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("mcf_cache_fail_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir / "cache.txt");
  TuningCache cache;
  cache.put(chain(), a100(), CachedSchedule{"key", {32, 64, 128, 16}, 2e-5});
  // The temporary is written, but renaming it onto a directory fails.
  EXPECT_FALSE(cache.save((dir / "cache.txt").string()));
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            1);
  std::filesystem::remove_all(dir);
}

TEST(TuningCache, LoadMissingFileFails) {
  TuningCache cache;
  EXPECT_FALSE(cache.load("does_not_exist.txt"));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TuningCache, FuseCachedSkipsTuningOnHit) {
  const GpuSpec gpu = a100();
  const FusionEngine fuser(gpu);
  TuningCache cache;
  const FusionResult first = fuser.fuse_cached(chain(), cache);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first.tuned.stats.measurements, 0);
  EXPECT_EQ(cache.size(), 1u);

  const FusionResult second = fuser.fuse_cached(chain(), cache);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.tuned.stats.measurements, 0);  // no tuning
  // The cached kernel reproduces the tuned one.
  EXPECT_EQ(second.tuned.best.tiles, first.tuned.best.tiles);
  EXPECT_NEAR(second.tuned.best_time_s, first.tuned.best_time_s,
              0.05 * first.tuned.best_time_s);
}

TEST(TuningCache, StaleEntryFallsBackToTuning) {
  const GpuSpec gpu = a100();
  const FusionEngine fuser(gpu);
  TuningCache cache;
  // Poison the cache with tiles of the wrong arity.
  cache.put(chain(), gpu, CachedSchedule{"b0b3|2(1)", {64, 64}, 1e-6});
  const FusionResult r = fuser.fuse_cached(chain(), cache);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.tuned.stats.measurements, 0);  // had to tune
}

TEST(TuningCache, ResolveRejectsRuleViolations) {
  const GpuSpec gpu = a100();
  const ChainSpec c = chain();
  PruneOptions prune;
  prune.smem_limit_bytes = gpu.smem_per_block;
  const SearchSpace space(c, SpaceOptions{}, prune);
  TuningCache cache;
  // Tiles that pad a power-of-two dimension violate rule 3.
  cache.put(c, gpu,
            CachedSchedule{space.expressions().front().structure_key(),
                           {48, 48, 48, 48},
                           1e-6});
  EXPECT_FALSE(cache.resolve(c, gpu, space).has_value());
}

}  // namespace
}  // namespace mcf

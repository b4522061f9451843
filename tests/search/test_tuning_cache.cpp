// The tuning-cache file and the engine's result store behind it: the
// record codec (round trip, malformed and truncated lines, atomic save),
// records keyed by the GPU and backend that measured them, stale records
// falling back to tuning, and a hit answering with the recorded time.
#include "search/tuning_cache.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "engine/engine.hpp"
#include "measure/backend.hpp"

namespace mcf {
namespace {

ChainSpec chain() { return ChainSpec::gemm_chain("cc", 1, 512, 256, 64, 64); }

/// A per-test scratch path (removed by the caller).
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "mcf_store_" + std::to_string(::getpid()) +
         "_" + name;
}

std::string slurp(const std::string& p) {
  std::ifstream f(p);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// The well-formed records of `path`, in file order.
std::vector<TuningRecord> read_records(const std::string& path) {
  std::vector<std::string> lines;
  (void)read_tuning_cache(path, &lines);
  std::vector<TuningRecord> records;
  for (const std::string& line : lines) {
    if (auto r = parse_tuning_record(line)) records.push_back(std::move(*r));
  }
  return records;
}

/// Rewrites every record of `path` through `edit` (the file keeps its
/// header, so the edited records are what a loading engine sees).
template <typename F>
void edit_records(const std::string& path, F edit) {
  std::vector<std::string> out;
  for (TuningRecord& r : read_records(path)) {
    edit(r);
    out.push_back(format_tuning_record(r));
  }
  ASSERT_TRUE(write_tuning_cache(path, std::move(out)));
}

/// The simulator under another registry name, counting measure() calls.
class CountingBackend : public MeasureBackend {
 public:
  CountingBackend(std::string name, const GpuSpec& gpu)
      : name_(std::move(name)), sim_(gpu) {}
  [[nodiscard]] std::string_view name() const noexcept override { return name_; }
  [[nodiscard]] const GpuSpec& spec() const noexcept override { return sim_.spec(); }
  [[nodiscard]] bool deterministic() const noexcept override { return true; }
  [[nodiscard]] KernelMeasurement measure(
      const Schedule& s, const MeasureOptions& options) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return sim_.measure(s, options);
  }
  [[nodiscard]] KernelMeasurement measure_raw(
      double bytes, double flops, std::int64_t n_blocks,
      std::int64_t smem_bytes, double mem_eff, double comp_eff,
      double stmt_trips, const MeasureOptions& options) const override {
    return sim_.measure_raw(bytes, flops, n_blocks, smem_bytes, mem_eff,
                            comp_eff, stmt_trips, options);
  }
  [[nodiscard]] int calls() const noexcept {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  std::string name_;
  SimulatorBackend sim_;
  mutable std::atomic<int> calls_{0};
};

FusionEngineOptions with_backend(std::shared_ptr<MeasureBackend> backend) {
  FusionEngineOptions o;
  o.tuner.backend = std::move(backend);
  return o;
}

/// Tunes chain() on a fresh a100 engine and saves the store to `path`.
FusionResult tune_and_save(const std::string& path) {
  FusionEngine engine(a100());
  FusionResult r = engine.fuse(chain());
  EXPECT_TRUE(r.ok()) << r.reason;
  EXPECT_TRUE(engine.save_tuning_cache(path));
  return r;
}

/// A rule-passing tile vector of chain() that lies off the quantum-16
/// enumeration grid, with its expression's structure key.
std::optional<std::pair<std::string, std::vector<std::int64_t>>> off_grid_tiles() {
  const GpuSpec gpu = a100();
  PruneOptions prune;
  prune.smem_limit_bytes = gpu.smem_per_block;
  const ChainSpec c = chain();
  const SearchSpace space(c, SpaceOptions{}, prune);
  // Start from a real grid candidate and knock one tile off the grid
  // (divisors of the original, so padding stays zero) until the rules
  // still pass but grid membership does not.
  for (const CandidateConfig& base : space.candidates()) {
    for (std::size_t l = 0; l < base.tiles.size(); ++l) {
      for (const std::int64_t v : {8, 24, 40, 48}) {
        CandidateConfig probe = base;
        probe.tiles[l] = v;
        if (!space.contains(probe) && space.passes_rules(probe)) {
          return std::make_pair(
              space.expressions()[static_cast<std::size_t>(probe.expr_id)]
                  .structure_key(),
              std::vector<std::int64_t>(probe.tiles.begin(), probe.tiles.end()));
        }
      }
    }
  }
  return std::nullopt;
}

// ---- the record codec --------------------------------------------------------

TEST(TuningCache, ChainKeyIsShapeBased) {
  const ChainSpec a = ChainSpec::gemm_chain("first", 1, 512, 256, 64, 64);
  const ChainSpec b = ChainSpec::gemm_chain("second", 1, 512, 256, 64, 64);
  EXPECT_EQ(chain_cache_key(a), chain_cache_key(b));  // names don't matter
  const ChainSpec c = ChainSpec::gemm_chain("third", 1, 512, 256, 64, 128);
  EXPECT_NE(chain_cache_key(a), chain_cache_key(c));
  const ChainSpec d = ChainSpec::attention("attn", 1, 512, 256, 64, 64);
  EXPECT_NE(chain_cache_key(a), chain_cache_key(d));  // epilogues matter
}

TEST(TuningCache, SaveLoadRoundTrip) {
  const std::string path = temp_path("roundtrip.txt");
  const TuningRecord rec{chain_cache_key(chain()), "A100 sim 0 -", "key",
                         {32, 64, 128, 16}, 2e-5};
  ASSERT_TRUE(write_tuning_cache(path, {format_tuning_record(rec)}));
  std::vector<std::string> lines;
  ASSERT_TRUE(read_tuning_cache(path, &lines));
  ASSERT_EQ(lines.size(), 1u);
  const auto loaded = parse_tuning_record(lines[0]);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->chain, rec.chain);
  EXPECT_EQ(loaded->producer, rec.producer);
  EXPECT_EQ(loaded->tiles, (std::vector<std::int64_t>{32, 64, 128, 16}));
  EXPECT_NEAR(loaded->time_s, 2e-5, 1e-12);
  std::filesystem::remove(path);
}

TEST(TuningCache, MalformedLinesAreSkippedAndReported) {
  const std::string path = temp_path("malformed.txt");
  (void)tune_and_save(path);
  {
    std::ofstream f(path, std::ios::app);
    f << "short line\n";                                    // too few fields
    f << "k A100 sim 0 - expr 64,notanumber,64 1e-5\n";     // non-numeric tile
    f << "k A100 sim 0 - expr 64,64 -1\n";                  // non-positive time
    f << "\n";                                              // blank: ignored
    f << "# comment: fine, ignored\n";
  }
  EXPECT_EQ(read_records(path).size(), 1u);  // only the good record parses
  FusionEngine engine(a100());
  EXPECT_FALSE(engine.load_tuning_cache(path));  // malformed lines were skipped
  // ... and the good record still loads.
  EXPECT_EQ(engine.fuse(chain()).tuned.stats.measurements, 0);
  std::filesystem::remove(path);
}

TEST(TuningCache, LoadMissingFileFails) {
  std::vector<std::string> lines;
  EXPECT_FALSE(read_tuning_cache("does_not_exist.txt", &lines));
  EXPECT_TRUE(lines.empty());
  FusionEngine engine(a100());
  EXPECT_FALSE(engine.load_tuning_cache("does_not_exist.txt"));
  EXPECT_EQ(engine.result_cache_size(), 0u);
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
  // One record per distinct chain shape (m varies).
  const auto records = [](int n, const char* expr,
                          std::vector<std::int64_t> tiles, double t) {
    std::vector<std::string> lines;
    for (int i = 0; i < n; ++i) {
      lines.push_back(format_tuning_record(TuningRecord{
          chain_cache_key(ChainSpec::gemm_chain("c", 1, 16 + i, 64, 32, 32)),
          "A100 sim 0 -", expr, tiles, t}));
    }
    return lines;
  };
  const std::vector<std::string> old_lines = records(50, "e", {16, 32}, 1e-6);
  const std::vector<std::string> new_lines =
      records(40000, "b0b3|2(1)", {64, 128, 64, 32}, 2.5e-5);
  for (int round = 0; round < 16; ++round) {
    ASSERT_TRUE(write_tuning_cache(path, old_lines));
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      for (;;) (void)write_tuning_cache(path, new_lines);
    }
    ::usleep(static_cast<useconds_t>(500 + (round * 2711) % 40000));
    ::kill(child, SIGKILL);
    int status = 0;
    ::waitpid(child, &status, 0);
    std::vector<std::string> loaded;
    EXPECT_TRUE(read_tuning_cache(path, &loaded)) << "round " << round << ": torn file";
    EXPECT_TRUE(loaded.size() == old_lines.size() ||
                loaded.size() == new_lines.size())
        << "round " << round << ": " << loaded.size() << " records";
  }
  std::filesystem::remove_all(dir);
}

TEST(TuningCache, FailedSaveLeavesNoTempFile) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("mcf_cache_fail_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir / "cache.txt");
  // The temporary is written, but renaming it onto a directory fails.
  EXPECT_FALSE(write_tuning_cache(
      (dir / "cache.txt").string(),
      {format_tuning_record(TuningRecord{chain_cache_key(chain()),
                                         "A100 sim 0 -", "key",
                                         {32, 64, 128, 16}, 2e-5})}));
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            1);
  std::filesystem::remove_all(dir);
}

// ---- the engine's store behind the file --------------------------------------

TEST(ResultStore, FileHitSkipsTuning) {
  const std::string path = temp_path("hit.txt");
  FusionEngine first_engine(a100());
  const FusionResult first = first_engine.fuse(chain());
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first.tuned.stats.measurements, 0);
  EXPECT_EQ(first_engine.result_cache_size(), 1u);
  ASSERT_TRUE(first_engine.save_tuning_cache(path));

  FusionEngine engine(a100());
  ASSERT_TRUE(engine.load_tuning_cache(path));
  const FusionResult second = engine.fuse(chain());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.tuned.stats.measurements, 0);  // no tuning
  // The stored kernel reproduces the tuned one.
  EXPECT_EQ(second.tuned.best.tiles, first.tuned.best.tiles);
  EXPECT_NEAR(second.tuned.best_time_s, first.tuned.best_time_s,
              0.05 * first.tuned.best_time_s);
  std::filesystem::remove(path);
}

TEST(ResultStore, HitReturnsTheRecordedTime) {
  const std::string path = temp_path("recorded.txt");
  double recorded = 0.0;
  {
    FusionEngine engine(a100(), with_backend(std::make_shared<CountingBackend>(
                                    "counting", a100())));
    const FusionResult r = engine.fuse(chain());
    ASSERT_TRUE(r.ok());
    recorded = r.tuned.best_time_s;
    ASSERT_TRUE(engine.save_tuning_cache(path));
  }
  auto counter = std::make_shared<CountingBackend>("counting", a100());
  FusionEngine engine(a100(), with_backend(counter));
  ASSERT_TRUE(engine.load_tuning_cache(path));
  const FusionResult hit = engine.fuse(chain());
  ASSERT_TRUE(hit.ok());
  // Exact: the time crossed the text format and is never re-measured.
  EXPECT_EQ(hit.tuned.best_time_s, recorded);
  EXPECT_EQ(hit.tuned.stats.measurements, 0);
  EXPECT_EQ(counter->calls(), 0);
  EXPECT_EQ(engine.stats().memo_hits, 1u);
  std::filesystem::remove(path);
}

TEST(ResultStore, RecordsAreKeyedByGpu) {
  const std::string path = temp_path("gpu.txt");
  const FusionResult tuned = tune_and_save(path);
  EXPECT_GT(tuned.tuned.stats.measurements, 0);  // the empty store missed
  FusionEngine same(a100());
  ASSERT_TRUE(same.load_tuning_cache(path));
  const FusionResult hit = same.fuse(chain());
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.tuned.stats.measurements, 0);
  EXPECT_EQ(hit.tuned.best.tiles, tuned.tuned.best.tiles);
  // Different GPU: the record is not its to serve.
  FusionEngine other(rtx3080());
  ASSERT_TRUE(other.load_tuning_cache(path));
  const FusionResult retuned = other.fuse(chain());
  ASSERT_TRUE(retuned.ok());
  EXPECT_GT(retuned.tuned.stats.measurements, 0);
  std::filesystem::remove(path);
}

TEST(ResultStore, ForeignProducerIsNeverServedButKept) {
  const std::string path = temp_path("producer.txt");
  const FusionResult a = tune_and_save(path);

  // B measures with another backend name: A's record must not answer it.
  auto counter = std::make_shared<CountingBackend>("sim-counting", a100());
  FusionEngine b(a100(), with_backend(counter));
  ASSERT_TRUE(b.load_tuning_cache(path));
  const FusionResult rb = b.fuse(chain());
  ASSERT_TRUE(rb.ok());
  EXPECT_GT(counter->calls(), 0);
  EXPECT_GT(rb.tuned.stats.measurements, 0);
  EXPECT_EQ(b.stats().memo_hits, 0u);
  // ... and B reports its own tuning, exactly what a B-only run reports.
  FusionEngine b_alone(a100(), with_backend(std::make_shared<CountingBackend>(
                                   "sim-counting", a100())));
  EXPECT_EQ(rb.tuned.best_time_s, b_alone.fuse(chain()).tuned.best_time_s);
  ASSERT_TRUE(b.save_tuning_cache(path));
  EXPECT_EQ(read_records(path).size(), 2u);

  // A's record survived B's save and still answers A's producer.
  FusionEngine a_again(a100());
  ASSERT_TRUE(a_again.load_tuning_cache(path));
  const FusionResult ra = a_again.fuse(chain());
  ASSERT_TRUE(ra.ok());
  EXPECT_EQ(ra.tuned.stats.measurements, 0);
  EXPECT_EQ(ra.tuned.best_time_s, a.tuned.best_time_s);
  std::filesystem::remove(path);
}

TEST(ResultStore, GoldenRoundTripIsByteStable) {
  // save -> load -> save must reproduce the file byte for byte, the
  // records kept for another producer and the ones not yet looked up
  // included: record order is canonical and times print with full
  // precision.
  const std::string path1 = temp_path("golden_1.txt");
  const std::string path2 = temp_path("golden_2.txt");
  const ChainSpec attn = ChainSpec::attention("a", 4, 128, 128, 64, 64);
  FusionResult tuned;
  {
    FusionEngine a(a100());
    tuned = a.fuse(chain());
    ASSERT_TRUE(tuned.ok() && a.fuse(attn).ok());
    ASSERT_TRUE(a.save_tuning_cache(path1));
    FusionEngine r(rtx3080());
    ASSERT_TRUE(r.load_tuning_cache(path1));
    ASSERT_TRUE(r.fuse(chain()).ok());
    ASSERT_TRUE(r.save_tuning_cache(path1));
  }
  FusionEngine loaded(a100());
  ASSERT_TRUE(loaded.load_tuning_cache(path1));
  ASSERT_TRUE(loaded.save_tuning_cache(path2));
  EXPECT_EQ(slurp(path1), slurp(path2));
  const std::vector<TuningRecord> records = read_records(path2);
  EXPECT_EQ(records.size(), 3u);
  // All record fields survive, bit-exact time included.
  PruneOptions prune;
  prune.smem_limit_bytes = a100().smem_per_block;
  const ChainSpec c = chain();
  const SearchSpace space(c, SpaceOptions{}, prune);
  int matched = 0;
  for (const TuningRecord& rec : records) {
    if (rec.chain != chain_cache_key(c) || rec.producer.rfind("A100 ", 0) != 0) {
      continue;
    }
    ++matched;
    EXPECT_EQ(rec.expr_key,
              space.expressions()[static_cast<std::size_t>(tuned.tuned.best.expr_id)]
                  .structure_key());
    EXPECT_EQ(rec.tiles, std::vector<std::int64_t>(tuned.tuned.best.tiles.begin(),
                                                   tuned.tuned.best.tiles.end()));
    EXPECT_EQ(rec.time_s, tuned.tuned.best_time_s);
  }
  EXPECT_EQ(matched, 1);
  std::filesystem::remove(path1);
  std::filesystem::remove(path2);
}

TEST(ResultStore, StaleEntryFallsBackToTuning) {
  const std::string path = temp_path("stale.txt");
  (void)tune_and_save(path);
  // Poison the record with tiles of the wrong arity.
  edit_records(path, [](TuningRecord& r) { r.tiles = {64, 64}; });
  FusionEngine engine(a100());
  ASSERT_TRUE(engine.load_tuning_cache(path));
  const FusionResult r = engine.fuse(chain());
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.tuned.stats.measurements, 0);  // had to tune
  std::filesystem::remove(path);
}

TEST(ResultStore, ResolveRejectsOffGridTiles) {
  // Tiles of 8 divide the dims exactly and pass rules 2-4, but are off
  // the quantum-16 enumeration grid; the record must not resolve (stored
  // records only ever come off the grid, so a miss means the space's
  // options changed under the record).
  const auto off_grid = off_grid_tiles();
  ASSERT_TRUE(off_grid.has_value());
  const std::string path = temp_path("offgrid.txt");
  (void)tune_and_save(path);
  edit_records(path, [&](TuningRecord& r) {
    r.expr_key = off_grid->first;
    r.tiles = off_grid->second;
  });
  FusionEngine engine(a100());
  ASSERT_TRUE(engine.load_tuning_cache(path));
  const FusionResult r = engine.fuse(chain());
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.tuned.stats.measurements, 0);
  EXPECT_EQ(engine.stats().memo_hits, 0u);
  std::filesystem::remove(path);
}

TEST(ResultStore, ResolveRejectsRuleViolations) {
  const std::string path = temp_path("rules.txt");
  (void)tune_and_save(path);
  // Tiles that pad a power-of-two dimension violate rule 3.
  edit_records(path, [](TuningRecord& r) { r.tiles = {48, 48, 48, 48}; });
  FusionEngine engine(a100());
  ASSERT_TRUE(engine.load_tuning_cache(path));
  const FusionResult r = engine.fuse(chain());
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.tuned.stats.measurements, 0);
  EXPECT_EQ(engine.stats().memo_hits, 0u);
  std::filesystem::remove(path);
}

// ---- damaged files: each still fuses Ok, by tuning ---------------------------

TEST(ResultStore, OldFormatFileLoadsNothing) {
  // A file as the store wrote it before records carried their backend.
  const std::string path = temp_path("oldformat.txt");
  {
    std::ofstream f(path);
    f << "# mcfuser tuning cache: chain gpu expr tiles time_s\n"
      << chain_cache_key(chain()) << " A100 b0b3|2(1) 64,64,64,64 7.0000000000000007e-06\n";
  }
  FusionEngine engine(a100());
  EXPECT_FALSE(engine.load_tuning_cache(path));
  const FusionResult r = engine.fuse(chain());
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.tuned.stats.measurements, 0);
  EXPECT_EQ(engine.stats().memo_hits, 0u);
  std::filesystem::remove(path);
}

TEST(ResultStore, TruncatedLastLineIsDropped) {
  const std::string path = temp_path("truncated.txt");
  const ChainSpec other = ChainSpec::gemm_chain("other", 1, 256, 128, 64, 64);
  {
    FusionEngine engine(a100());
    ASSERT_TRUE(engine.fuse(chain()).ok() && engine.fuse(other).ok());
    ASSERT_TRUE(engine.save_tuning_cache(path));
  }
  const std::vector<TuningRecord> records = read_records(path);
  ASSERT_EQ(records.size(), 2u);
  const std::string cut_digest = records.back().chain;
  // Cut the file inside the last record's time field.
  const std::string text = slurp(path);
  std::filesystem::resize_file(path, text.size() - 4);

  FusionEngine engine(a100());
  EXPECT_FALSE(engine.load_tuning_cache(path));
  for (const ChainSpec& c : {chain(), other}) {
    const FusionResult r = engine.fuse(c);
    ASSERT_TRUE(r.ok()) << c.name();
    if (chain_cache_key(c) == cut_digest) {
      EXPECT_GT(r.tuned.stats.measurements, 0) << c.name();  // tuned
    } else {
      EXPECT_EQ(r.tuned.stats.measurements, 0) << c.name();  // intact record
    }
  }
  std::filesystem::remove(path);
}

TEST(ResultStore, GarbageLinesAreSkipped) {
  const std::string path = temp_path("garbage.txt");
  {
    std::ofstream f(path);
    f << kTuningCacheHeader << "\n"
      << "\x01\x02\x03 binary junk\n"
      << chain_cache_key(chain()) << " A100 sim 0 - expr 64,64,64,64\n"
      << "not a record at all\n";
  }
  FusionEngine engine(a100());
  EXPECT_FALSE(engine.load_tuning_cache(path));
  const FusionResult r = engine.fuse(chain());
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.tuned.stats.measurements, 0);
  std::filesystem::remove(path);
}

TEST(ResultStore, UnwritablePathFailsCleanly) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("mcf_store_unwritable_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir / "cache.txt");
  FusionEngine engine(a100());
  const FusionResult r = engine.fuse(chain());
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.tuned.stats.measurements, 0);
  EXPECT_FALSE(engine.save_tuning_cache((dir / "cache.txt").string()));
  // Only the directory in the way remains: no temporary left behind.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            1);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mcf

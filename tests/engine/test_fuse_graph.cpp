// Graph-level batch fusion: digest dedup (N structurally identical chains
// tune exactly once — asserted via a measure-call counter on the backend),
// result reuse across fuse_graph calls, concurrent tuning of distinct
// chains, and the GraphFusionReport/JSON shape.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "graph/bert.hpp"
#include "graph/mixer.hpp"
#include "measure/backend.hpp"

namespace mcf {
namespace {

/// Decorator that counts measure() calls into the wrapped backend.
class CountingBackend : public MeasureBackend {
 public:
  explicit CountingBackend(std::shared_ptr<MeasureBackend> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "counting"; }
  [[nodiscard]] const GpuSpec& spec() const noexcept override { return inner_->spec(); }
  [[nodiscard]] bool deterministic() const noexcept override {
    return inner_->deterministic();
  }
  [[nodiscard]] KernelMeasurement measure(
      const Schedule& s, const MeasureOptions& options) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_->measure(s, options);
  }
  [[nodiscard]] KernelMeasurement measure_raw(
      double bytes, double flops, std::int64_t n_blocks,
      std::int64_t smem_bytes, double mem_eff, double comp_eff,
      double stmt_trips, const MeasureOptions& options) const override {
    return inner_->measure_raw(bytes, flops, n_blocks, smem_bytes, mem_eff,
                               comp_eff, stmt_trips, options);
  }
  [[nodiscard]] int calls() const noexcept {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<MeasureBackend> inner_;
  mutable std::atomic<int> calls_{0};
};

std::vector<ChainSpec> replicated_chains(int n) {
  std::vector<ChainSpec> chains;
  for (int i = 0; i < n; ++i) {
    // Different names, identical structure: the digest must unify them
    // (graph builders name per-layer chains differently).
    chains.push_back(
        ChainSpec::attention("layer" + std::to_string(i), 4, 128, 128, 64, 64));
  }
  return chains;
}

TEST(FuseGraph, DedupTunesIdenticalChainsExactlyOnce) {
  const GpuSpec gpu = a100();
  constexpr int kCopies = 6;

  // Reference: measure-call cost of tuning this chain once.
  auto single_counter =
      std::make_shared<CountingBackend>(std::make_shared<SimulatorBackend>(gpu));
  {
    FusionEngineOptions opts;
    opts.tuner.backend = single_counter;
    const FusionEngine one(gpu, opts);
    ASSERT_TRUE(one.fuse(replicated_chains(1).front()).ok());
  }
  ASSERT_GT(single_counter->calls(), 0);

  auto counter =
      std::make_shared<CountingBackend>(std::make_shared<SimulatorBackend>(gpu));
  FusionEngineOptions opts;
  opts.tuner.backend = counter;
  opts.jobs = 2;
  FusionEngine engine(gpu, opts);
  const GraphFusionReport rep =
      engine.fuse_chains(replicated_chains(kCopies), "replicated");

  EXPECT_TRUE(rep.all_ok());
  EXPECT_EQ(rep.distinct_chains, 1);
  EXPECT_EQ(rep.tuned_chains, 1);
  ASSERT_EQ(rep.chains.size(), 1u);
  EXPECT_EQ(rep.chains[0].occurrences, kCopies);
  EXPECT_FALSE(rep.chains[0].reused);
  ASSERT_EQ(rep.sub_to_chain.size(), static_cast<std::size_t>(kCopies));
  for (const int idx : rep.sub_to_chain) EXPECT_EQ(idx, 0);
  // The headline assertion: N identical chains cost exactly one tuning
  // run's worth of backend measurements (plus nothing per duplicate).
  EXPECT_EQ(counter->calls(), single_counter->calls());
  EXPECT_EQ(rep.total_measurements, rep.chains[0].result->tuned.stats.measurements);
  // All N subgraphs share the one result object.
  for (const int idx : rep.sub_to_chain) {
    EXPECT_EQ(rep.chains[static_cast<std::size_t>(idx)].result.get(),
              rep.chains[0].result.get());
  }
}

TEST(FuseGraph, EngineMemoMakesSecondCallFree) {
  const GpuSpec gpu = a100();
  auto counter =
      std::make_shared<CountingBackend>(std::make_shared<SimulatorBackend>(gpu));
  FusionEngineOptions opts;
  opts.tuner.backend = counter;
  FusionEngine engine(gpu, opts);

  const GraphFusionReport first =
      engine.fuse_chains(replicated_chains(3), "first");
  EXPECT_EQ(first.tuned_chains, 1);
  const int calls_after_first = counter->calls();
  ASSERT_GT(calls_after_first, 0);

  const GraphFusionReport second =
      engine.fuse_chains(replicated_chains(5), "second");
  EXPECT_TRUE(second.all_ok());
  EXPECT_EQ(second.tuned_chains, 0);
  EXPECT_EQ(second.total_measurements, 0);
  ASSERT_EQ(second.chains.size(), 1u);
  EXPECT_TRUE(second.chains[0].reused);
  EXPECT_EQ(counter->calls(), calls_after_first);  // zero new measurements
  EXPECT_EQ(engine.result_cache_size(), 1u);
}

TEST(FuseGraph, DistinctChainsAllTunedConcurrently) {
  const GpuSpec gpu = a100();
  std::vector<ChainSpec> chains;
  for (int i = 0; i < 4; ++i) {
    chains.push_back(ChainSpec::gemm_chain("g" + std::to_string(i), 1,
                                           128 + 64 * i, 96, 64, 64));
    chains.push_back(ChainSpec::gemm_chain("g" + std::to_string(i) + "_dup", 1,
                                           128 + 64 * i, 96, 64, 64));
  }
  FusionEngineOptions opts;
  opts.jobs = 4;
  FusionEngine engine(gpu, opts);
  const GraphFusionReport rep = engine.fuse_chains(chains, "mixed");
  EXPECT_TRUE(rep.all_ok());
  EXPECT_EQ(rep.distinct_chains, 4);
  EXPECT_EQ(rep.tuned_chains, 4);
  for (const GraphChainReport& c : rep.chains) EXPECT_EQ(c.occurrences, 2);

  // Deduped results equal a synchronous engine's results exactly.
  const FusionEngine serial(gpu);
  for (std::size_t i = 0; i < chains.size(); i += 2) {
    const FusionResult expect = serial.fuse(chains[i]);
    const auto& got =
        *rep.chains[static_cast<std::size_t>(rep.sub_to_chain[i])].result;
    EXPECT_EQ(got.tuned.best_time_s, expect.tuned.best_time_s)
        << chains[i].name();
    EXPECT_EQ(got.tuned.best.tiles, expect.tuned.best.tiles);
  }
}

TEST(FuseGraph, BertGraphDedupsToOneAttentionChain) {
  const GpuSpec gpu = a100();
  FusionEngine engine(gpu);
  const NetGraph g = build_bert(bert_base());  // 12 identical layers
  const GraphFusionReport rep = engine.fuse_graph(g);
  EXPECT_TRUE(rep.all_ok());
  EXPECT_EQ(rep.graph_name, g.name());
  EXPECT_EQ(rep.graph_nodes, g.size());
  EXPECT_EQ(rep.mbci_subgraphs, 12);
  EXPECT_EQ(rep.distinct_chains, 1);
  EXPECT_EQ(rep.tuned_chains, 1);
  EXPECT_EQ(rep.chains[0].occurrences, 12);
}

TEST(FuseGraph, MemoEvictionRetunesBitIdenticallyAndReportsFresh) {
  const GpuSpec gpu = a100();
  FusionEngineOptions opts;
  opts.memo.max_entries = 2;
  FusionEngine engine(gpu, opts);

  const ChainSpec chain_a = ChainSpec::gemm_chain("a", 1, 128, 96, 64, 64);
  const GraphFusionReport first = engine.fuse_chains({chain_a}, "first");
  ASSERT_TRUE(first.all_ok());
  ASSERT_EQ(first.tuned_chains, 1);
  const FusionResult result_a = *first.chains[0].result;

  // Three more distinct digests through a 2-entry memo: A (the least
  // recently used) must fall out.
  const GraphFusionReport flood = engine.fuse_chains(
      {ChainSpec::gemm_chain("b", 1, 160, 96, 64, 64),
       ChainSpec::gemm_chain("c", 1, 192, 96, 64, 64),
       ChainSpec::gemm_chain("d", 1, 224, 96, 64, 64)},
      "flood");
  ASSERT_TRUE(flood.all_ok());
  EXPECT_LE(engine.result_cache_size(), 2u);
  EXPECT_GT(engine.stats().memo_evictions, 0u);

  // The evicted digest re-tunes (fresh, not memo) and the re-tuned
  // result is bit-identical — eviction is a cost, never a behaviour
  // change — and from_cache/reused reporting stays accurate.
  const GraphFusionReport second = engine.fuse_chains({chain_a}, "second");
  ASSERT_TRUE(second.all_ok());
  EXPECT_EQ(second.tuned_chains, 1);
  EXPECT_FALSE(second.chains[0].reused);
  EXPECT_GT(second.total_measurements, 0);
  const FusionResult& retuned = *second.chains[0].result;
  EXPECT_EQ(retuned.tuned.best.expr_id, result_a.tuned.best.expr_id);
  EXPECT_EQ(retuned.tuned.best.tiles, result_a.tuned.best.tiles);
  EXPECT_EQ(retuned.tuned.best_time_s, result_a.tuned.best_time_s);
  EXPECT_EQ(retuned.tuned.stats.measurements, result_a.tuned.stats.measurements);

  // ... and a third call is a memo hit again (A is now the hottest).
  const GraphFusionReport third = engine.fuse_chains({chain_a}, "third");
  EXPECT_EQ(third.tuned_chains, 0);
  EXPECT_TRUE(third.chains[0].reused);
}

TEST(FuseGraph, LruRecencyProtectsRecentlyReusedDigests) {
  const GpuSpec gpu = a100();
  FusionEngineOptions opts;
  opts.memo.max_entries = 2;
  FusionEngine engine(gpu, opts);
  const ChainSpec chain_a = ChainSpec::gemm_chain("a", 1, 128, 96, 64, 64);
  const ChainSpec chain_b = ChainSpec::gemm_chain("b", 1, 160, 96, 64, 64);
  ASSERT_TRUE(engine.fuse_chains({chain_a, chain_b}, "seed").all_ok());
  // Touch A (memo hit refreshes recency), then add a third digest: B —
  // not A — must be the eviction victim.
  EXPECT_EQ(engine.fuse_chains({chain_a}, "touch").tuned_chains, 0);
  ASSERT_TRUE(
      engine
          .fuse_chains({ChainSpec::gemm_chain("c", 1, 192, 96, 64, 64)}, "new")
          .all_ok());
  EXPECT_EQ(engine.fuse_chains({chain_a}, "probe-a").tuned_chains, 0);
  EXPECT_EQ(engine.fuse_chains({chain_b}, "probe-b").tuned_chains, 1);
}

TEST(FuseGraph, MemoByteCapBoundsMemoizedBytes) {
  const GpuSpec gpu = a100();
  FusionEngineOptions opts;
  opts.memo.max_bytes = 1;  // degenerate: at most the newest entry stays
  FusionEngine engine(gpu, opts);
  ASSERT_TRUE(engine
                  .fuse_chains({ChainSpec::gemm_chain("a", 1, 128, 96, 64, 64),
                                ChainSpec::gemm_chain("b", 1, 160, 96, 64, 64)},
                               "bytes")
                  .all_ok());
  // The newest entry is never evicted, so exactly one survives.
  EXPECT_EQ(engine.result_cache_size(), 1u);
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.memo_entries, 1u);
  EXPECT_GT(s.memo_bytes, 0u);
  EXPECT_GE(s.memo_evictions, 1u);
}

TEST(FuseGraph, ReportJsonHasExpectedFields) {
  const GpuSpec gpu = a100();
  FusionEngine engine(gpu);
  const GraphFusionReport rep =
      engine.fuse_chains(replicated_chains(2), "jsontest");
  const std::string json = rep.to_json();
  for (const char* key :
       {"\"graph\":\"jsontest\"", "\"distinct_chains\":1", "\"tuned_chains\":1",
        "\"occurrences\":2", "\"status\":\"ok\"", "\"best_tiles\":[",
        "\"sub_to_chain\":[0,0]", "\"jit_compile\":{\"tus_compiled\":",
        "\"engine\":{\"queued\":", "\"submitted\":", "\"rejected\":",
        "\"memo_entries\":1", "\"memo_evictions\":0",
        "\"jit\":{\"tus_compiled\":", "\"sandbox\":{\"spawned\":",
        "\"name\":\"layer0\"", "\"time_us\":", "\"generations\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  // The simulator backend never jit-compiles: the economy counters are
  // present but all-zero on this engine.
  EXPECT_EQ(rep.jit_compile.tus_compiled, 0);
  EXPECT_EQ(rep.jit_compile.kernels_compiled, 0);
}

TEST(FuseGraph, DifferentSoftmaxScalesGetDistinctDigests) {
  // Same shape, different softmax scale => different computed kernel, so
  // the dedup digest must separate them (chain_cache_key carries the
  // scale for softmax chains).
  const GpuSpec gpu = a100();
  FusionEngine engine(gpu);
  const std::vector<Epilogue> epi = {Epilogue::OnlineSoftmax, Epilogue::None};
  std::vector<ChainSpec> chains = {
      ChainSpec("a", 4, 128, {64, 128, 64}, epi, 0.5f),
      ChainSpec("b", 4, 128, {64, 128, 64}, epi, 0.125f)};
  EXPECT_NE(chain_cache_key(chains[0]), chain_cache_key(chains[1]));
  const GraphFusionReport rep = engine.fuse_chains(chains, "scales");
  EXPECT_TRUE(rep.all_ok());
  EXPECT_EQ(rep.distinct_chains, 2);
  EXPECT_EQ(rep.tuned_chains, 2);
}

TEST(FuseGraph, EmptyChainListYieldsEmptyReport) {
  FusionEngine engine(a100());
  const GraphFusionReport rep = engine.fuse_chains({}, "empty");
  EXPECT_TRUE(rep.all_ok());
  EXPECT_EQ(rep.distinct_chains, 0);
  EXPECT_EQ(rep.tuned_chains, 0);
  EXPECT_TRUE(rep.chains.empty());
}

TEST(FuseGraph, InvalidChainReportedNotAborted) {
  FusionEngine engine(a100());
  std::vector<ChainSpec> chains = {ChainSpec("bad", 0, 128, {64, 64}),
                                   ChainSpec::gemm_chain("ok", 1, 128, 96, 64, 64)};
  const GraphFusionReport rep = engine.fuse_chains(chains, "partial");
  EXPECT_FALSE(rep.all_ok());
  ASSERT_EQ(rep.chains.size(), 2u);
  EXPECT_EQ(rep.chains[0].result->status, FusionStatus::InvalidChain);
  EXPECT_EQ(rep.chains[1].result->status, FusionStatus::Ok);
  // Failures are never memoized: only the Ok digest enters the memo, and
  // a repeat call re-runs the failed chain instead of replaying it.
  EXPECT_EQ(engine.result_cache_size(), 1u);
  const GraphFusionReport again = engine.fuse_chains(chains, "partial2");
  EXPECT_EQ(again.chains[0].result->status, FusionStatus::InvalidChain);
  EXPECT_FALSE(again.chains[0].reused);
  EXPECT_TRUE(again.chains[1].reused);
}

}  // namespace
}  // namespace mcf

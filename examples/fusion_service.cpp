// FusionEngine as a service: asynchronous submission with FusionTicket
// (wait / ready / progress / cancellation), graph-level batch fusion with
// digest dedup, the structured FusionStatus taxonomy, and admission
// control (bounded queue + load shedding + EngineStats).
//
//   build/examples/fusion_service
#include <cstdio>

#include "engine/engine.hpp"
#include "exec/jit.hpp"
#include "graph/bert.hpp"

int main() {
  using namespace mcf;
  const GpuSpec gpu = a100();

  // One long-lived engine per deployment: it owns the GPU spec, the
  // resolved measurement backend, the worker pool, and the result store
  // every entry point consults before tuning.
  // Production engines bound their queue and memo so a traffic burst
  // sheds load (FusionStatus::Rejected) instead of growing without
  // bound — see docs/api.md "Admission control".
  FusionEngineOptions opts;
  opts.jobs = 4;
  opts.queue.max_queued = 64;
  opts.queue.overflow = OverflowPolicy::Reject;
  opts.memo.max_entries = 1024;
  FusionEngine engine(gpu, opts);

  // --- 1. Async submission: tickets are future-like handles. ---------------
  std::printf("submitting 3 chains asynchronously (jobs=%d)\n", opts.jobs);
  std::vector<FusionTicket> tickets;
  tickets.push_back(engine.submit(ChainSpec::gemm_chain("g_small", 1, 128, 96, 64, 80)));
  tickets.push_back(engine.submit(ChainSpec::attention("attn", 4, 128, 128, 64, 64)));
  tickets.push_back(engine.submit(ChainSpec::gemm_chain("g_wide", 1, 256, 128, 32, 32)));
  for (const FusionTicket& t : tickets) {
    const FusionResult& r = t.get();  // blocks
    const FusionTicket::Progress p = t.progress();
    std::printf("  %-8s -> %-8s %8.2f us  (%d generations, %d measurements)\n",
                t.chain().name().c_str(), fusion_status_name(r.status),
                r.ok() ? r.time_s() * 1e6 : 0.0, p.generations, p.measurements);
  }

  // --- 2. Structured errors: every failure names its layer. ----------------
  const ChainSpec bad("bad", /*batch=*/0, /*m=*/128, {64, 64});
  const FusionResult rbad = engine.fuse(bad);
  std::printf("\ninvalid chain -> %s: %s\n", fusion_status_name(rbad.status),
              rbad.reason.c_str());

  // --- 3. Graph-level batch fusion: dedup + concurrent tuning. -------------
  const NetGraph graph = build_bert(bert_base());
  const GraphFusionReport rep = engine.fuse_graph(graph);
  std::printf("\n%s: %d MBCI subgraphs -> %d distinct chain(s), "
              "%d tuned fresh, %d measurements\n",
              rep.graph_name.c_str(), rep.mbci_subgraphs, rep.distinct_chains,
              rep.tuned_chains, rep.total_measurements);
  for (const GraphChainReport& c : rep.chains) {
    std::printf("  [%s] x%d %s%s\n", c.digest.c_str(), c.occurrences,
                c.result ? fusion_status_name(c.result->status) : "?",
                c.reused ? " (memo)" : "");
  }

  // A second pass over the same graph tunes nothing: the engine's store
  // already holds every digest.
  const GraphFusionReport again = engine.fuse_graph(graph);
  std::printf("second fuse_graph: tuned %d chains (memo hits so far: %llu)\n",
              again.tuned_chains,
              static_cast<unsigned long long>(engine.stats().memo_hits));

  std::printf("\nJSON report:\n%s\n", again.to_json().c_str());

  // --- 3b. Observability: the engine health snapshot. ----------------------
  const EngineStats stats = engine.stats();
  std::printf("\nengine stats: submitted=%llu completed=%llu rejected=%llu "
              "cancelled=%llu memo=%zu entries / %zu bytes (%llu evicted)\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.cancelled),
              stats.memo_entries, stats.memo_bytes,
              static_cast<unsigned long long>(stats.memo_evictions));

  // --- 4. Deploy-side execution: the fused kernel runs natively. -----------
  // FusionResult::kernel executes through the jit subsystem when a host
  // toolchain exists (machine code, digest-cached) and falls back to the
  // functional interpreter otherwise — same numerics either way.
  const FusionResult& deploy = tickets.front().get();
  if (deploy.ok()) {
    const ChainSpec& chain = tickets.front().chain();
    const jit::KernelInputs in =
        jit::seeded_inputs(chain.batch(), chain.m(), chain.inner(), 7);
    Tensor out(Shape{chain.batch(), chain.m(), chain.inner().back()});
    const bool native = deploy.kernel->run_native(in.a, in.weights, out);
    if (!native) (void)deploy.kernel->run(in.a, in.weights, out);
    std::printf("\nexecuted %s via %s: out[0,0,0] = %.4f\n",
                chain.name().c_str(), native ? "jit native code" : "interpreter",
                out.at(0, 0, 0));
  }
  return rep.all_ok() && again.tuned_chains == 0 ? 0 : 1;
}

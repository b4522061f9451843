// Model step: one BERT-Small encoder layer (seq 512, hidden 512, 8
// heads, ffn 2048) followed by one Mixer-Small layer, executed for real.
// partition_mbci finds the two MBCI chains (attention qk -> scale -> mask
// -> softmax -> pv; token fc1 -> GeLU -> fc2), the default engine's
// fuse_chains tunes them and run_native runs them; the glue ops run
// through tensor/ops on seeded weights.  After every 4th fused step the
// same step also runs all-unfused (tensor/ops in place of both fused
// kernels) and the outputs are compared.
//
// kernels-hot's traced run executes it and reports it per layer only:
// the step is tensor/ops GEMMs (the fused kernels are a few percent of
// it), whose speed on the reference host moved by half within an hour
// as other tenants loaded the memory system — too unsteady for an
// end-to-end bound.
#pragma once

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "graph/bert.hpp"
#include "graph/mixer.hpp"
#include "graph/partitioner.hpp"
#include "harness.hpp"
#include "oracle.hpp"
#include "tensor/ops.hpp"

namespace mcf::e2e {

namespace model {

constexpr std::int64_t kSeq = 512;
constexpr std::int64_t kHidden = 512;
constexpr std::int64_t kHeads = 8;
constexpr std::int64_t kHeadDim = kHidden / kHeads;
constexpr std::int64_t kFfn = 2048;
constexpr std::int64_t kPatches = 196;
constexpr std::int64_t kTokenHidden = 256;
constexpr std::int64_t kChannelHidden = 2048;

/// Seeded values in [-1, 1] scaled by 1/sqrt(fan_in), so activations
/// stay O(1) through the layer and softmax is not saturated.
inline Tensor weight(Shape shape, std::int64_t fan_in, std::uint64_t seed) {
  Tensor t(std::move(shape));
  t.fill_random(seed);
  const auto s = static_cast<float>(1.0 / std::sqrt(static_cast<double>(fan_in)));
  for (float& v : t.data()) v *= s;
  return t;
}

/// Weights, inputs and every intermediate of one BERT + Mixer step.
struct Step {
  Tensor x, wq, wk, wv, wo, w1, w2, bq, bk, bv, bo, b1, b2;
  Tensor q, k, v, qh, oh, o, proj, res1, ln1, f1, f2, res2, bert_out;
  std::vector<Tensor> attn_w;  ///< K^T (heads, dim, seq), V (heads, seq, dim)
  Tensor scores, probs, mask;
  Tensor p, cw1, cw2, cb1, cb2;
  std::vector<Tensor> tok_w;  ///< token fc1 (1, 196, 256), fc2 (1, 256, 196)
  Tensor pln, pt, tok_out, tok_mid, tok_back, mres1, mln2, c1, c2, mixer_out;

  explicit Step(std::uint64_t seed)
      : x(weight(Shape{kSeq, kHidden}, 1, hash_combine(seed, 1))),
        wq(weight(Shape{kHidden, kHidden}, kHidden, hash_combine(seed, 2))),
        wk(weight(Shape{kHidden, kHidden}, kHidden, hash_combine(seed, 3))),
        wv(weight(Shape{kHidden, kHidden}, kHidden, hash_combine(seed, 4))),
        wo(weight(Shape{kHidden, kHidden}, kHidden, hash_combine(seed, 5))),
        w1(weight(Shape{kHidden, kFfn}, kHidden, hash_combine(seed, 6))),
        w2(weight(Shape{kFfn, kHidden}, kFfn, hash_combine(seed, 7))),
        bq(weight(Shape{kHidden}, 1, hash_combine(seed, 8))),
        bk(weight(Shape{kHidden}, 1, hash_combine(seed, 9))),
        bv(weight(Shape{kHidden}, 1, hash_combine(seed, 10))),
        bo(weight(Shape{kHidden}, 1, hash_combine(seed, 11))),
        b1(weight(Shape{kFfn}, 1, hash_combine(seed, 12))),
        b2(weight(Shape{kHidden}, 1, hash_combine(seed, 13))),
        q(Shape{kSeq, kHidden}), k(Shape{kSeq, kHidden}), v(Shape{kSeq, kHidden}),
        qh(Shape{kHeads, kSeq, kHeadDim}), oh(Shape{kHeads, kSeq, kHeadDim}),
        o(Shape{kSeq, kHidden}), proj(Shape{kSeq, kHidden}), res1(Shape{kSeq, kHidden}),
        ln1(Shape{kSeq, kHidden}), f1(Shape{kSeq, kFfn}), f2(Shape{kSeq, kHidden}),
        res2(Shape{kSeq, kHidden}), bert_out(Shape{kSeq, kHidden}),
        scores(Shape{kHeads, kSeq, kSeq}), probs(Shape{kHeads, kSeq, kSeq}),
        mask(Shape{kHeads, kSeq, kSeq}, 0.0f),
        p(weight(Shape{kPatches, kHidden}, 1, hash_combine(seed, 14))),
        cw1(weight(Shape{kHidden, kChannelHidden}, kHidden, hash_combine(seed, 17))),
        cw2(weight(Shape{kChannelHidden, kHidden}, kChannelHidden, hash_combine(seed, 18))),
        cb1(weight(Shape{kChannelHidden}, 1, hash_combine(seed, 19))),
        cb2(weight(Shape{kHidden}, 1, hash_combine(seed, 20))),
        pln(Shape{kPatches, kHidden}), pt(Shape{1, kHidden, kPatches}),
        tok_out(Shape{1, kHidden, kPatches}), tok_mid(Shape{1, kHidden, kTokenHidden}),
        tok_back(Shape{kPatches, kHidden}), mres1(Shape{kPatches, kHidden}),
        mln2(Shape{kPatches, kHidden}), c1(Shape{kPatches, kChannelHidden}),
        c2(Shape{kPatches, kHidden}), mixer_out(Shape{kPatches, kHidden}) {
    attn_w.emplace_back(Shape{kHeads, kHeadDim, kSeq});
    attn_w.emplace_back(Shape{kHeads, kSeq, kHeadDim});
    tok_w.push_back(weight(Shape{1, kPatches, kTokenHidden}, kPatches, hash_combine(seed, 15)));
    tok_w.push_back(
        weight(Shape{1, kTokenHidden, kPatches}, kTokenHidden, hash_combine(seed, 16)));
  }
};

/// dst[c][r] = src[r][c] for a rows x cols row-major block.
inline void transpose(const float* src, std::int64_t rows, std::int64_t cols, float* dst) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
  }
}

/// (seq, heads*dim) -> (heads, seq, dim), or (heads, dim, seq) when
/// `transposed` (the K^T operand of the attention chain).
inline void split_heads(const Tensor& in, Tensor& out, bool transposed) {
  const float* src = in.data().data();
  float* dst = out.data().data();
  for (std::int64_t h = 0; h < kHeads; ++h) {
    for (std::int64_t s = 0; s < kSeq; ++s) {
      for (std::int64_t d = 0; d < kHeadDim; ++d) {
        const float val = src[s * kHidden + h * kHeadDim + d];
        if (transposed) {
          dst[(h * kHeadDim + d) * kSeq + s] = val;
        } else {
          dst[(h * kSeq + s) * kHeadDim + d] = val;
        }
      }
    }
  }
}

/// (heads, seq, dim) -> (seq, heads*dim).
inline void merge_heads(const Tensor& in, Tensor& out) {
  const float* src = in.data().data();
  float* dst = out.data().data();
  for (std::int64_t h = 0; h < kHeads; ++h) {
    for (std::int64_t s = 0; s < kSeq; ++s) {
      for (std::int64_t d = 0; d < kHeadDim; ++d) {
        dst[s * kHidden + h * kHeadDim + d] = src[(h * kSeq + s) * kHeadDim + d];
      }
    }
  }
}

}  // namespace model

/// Runs model steps for `seconds` (every step traced) and adds the
/// per-layer metrics and the output checks to `res`.
inline void run_model_step(const RunConfig& cfg, double seconds, Trace& trace,
                           WorkloadResult& res) {
  using namespace model;
  const GpuSpec gpu = a100();
  BertConfig bert = bert_small();
  bert.layers = 1;
  MixerConfig mixer = mixer_small();
  mixer.layers = 1;
  const NetGraph graphs[] = {build_bert(bert), build_mixer(mixer)};
  std::vector<ChainSpec> chains;
  const auto t0 = Clock::now();
  for (const NetGraph& g : graphs) {
    for (const MbciSubgraph& sub : partition_mbci(g, gpu).mbci) chains.push_back(sub.chain);
  }
  res.set("graph.partition_ms", seconds_between(t0, Clock::now()) * 1e3, "ms");
  res.set("graph.mbci_chains", static_cast<double>(chains.size()), "count");
  FusionEngine engine(gpu);
  const GraphFusionReport rep = engine.fuse_chains(chains, "bert-mixer");
  // The results own the ChainSpecs their kernels point at.
  std::shared_ptr<const FusionResult> attn;
  std::shared_ptr<const FusionResult> token;
  float attn_scale = 1.0f;
  for (const GraphChainReport& c : rep.chains) {
    bool ok = c.result->ok();
    if (ok) {
      const ChainSpec& chain = c.result->kernel->schedule().chain();
      ChainCase oc = make_case(chain, cfg.seed);
      ok = c.result->kernel->run_native(oc.a, oc.weights, oc.out) && output_correct(oc);
      if (chain.epilogue(0) == Epilogue::OnlineSoftmax) {
        attn = c.result;
        attn_scale = chain.softmax_scale();
      } else {
        token = c.result;
      }
    }
    res.check(ok, "model step: fused " + c.chain_name);
  }
  if (!attn || !token) {
    res.check(false, "model step: partition_mbci/fuse_chains did not yield both chains");
    return;
  }
  Step s(cfg.seed);

  // One BERT + Mixer step; `fused` picks the fused kernels or their
  // tensor/ops equivalents.  Each op gets a span in `t`.
  const auto step = [&](bool fused, Trace* t, std::int64_t req) {
    const auto op = [&](const char* name, const auto& body) {
      const Trace::Scope span(t, name, req);
      body();
    };
    bool ok = true;
    op("ops.gemm.bert-qkv", [&] {
      ops::gemm(s.x, s.wq, s.q);
      ops::gemm(s.x, s.wk, s.k);
      ops::gemm(s.x, s.wv, s.v);
    });
    op("ops.bias_add", [&] {
      ops::bias_add(s.q, s.bq, s.q);
      ops::bias_add(s.k, s.bk, s.k);
      ops::bias_add(s.v, s.bv, s.v);
    });
    op("glue.layout", [&] {
      split_heads(s.q, s.qh, false);
      split_heads(s.k, s.attn_w[0], true);
      split_heads(s.v, s.attn_w[1], false);
    });
    if (fused) {
      op("exec.attn", [&] { ok = attn->kernel->run_native(s.qh, s.attn_w, s.oh) && ok; });
    } else {
      op("unfused.attn", [&] {
        ops::batched_gemm(s.qh, s.attn_w[0], s.scores);
        ops::add(s.scores, s.mask, s.scores);
        op("ops.softmax", [&] { ops::scaled_softmax(s.scores, attn_scale, s.probs); });
        ops::batched_gemm(s.probs, s.attn_w[1], s.oh);
      });
    }
    op("glue.layout", [&] { merge_heads(s.oh, s.o); });
    op("ops.gemm.bert-out", [&] { ops::gemm(s.o, s.wo, s.proj); });
    op("ops.bias_add", [&] { ops::bias_add(s.proj, s.bo, s.proj); });
    op("ops.add", [&] { ops::add(s.proj, s.x, s.res1); });
    op("ops.layernorm", [&] { ops::layernorm(s.res1, s.ln1); });
    op("ops.gemm.bert-fc1", [&] { ops::gemm(s.ln1, s.w1, s.f1); });
    op("ops.bias_add", [&] { ops::bias_add(s.f1, s.b1, s.f1); });
    op("ops.gelu", [&] { ops::gelu(s.f1, s.f1); });
    op("ops.gemm.bert-fc2", [&] { ops::gemm(s.f1, s.w2, s.f2); });
    op("ops.bias_add", [&] { ops::bias_add(s.f2, s.b2, s.f2); });
    op("ops.add", [&] { ops::add(s.f2, s.ln1, s.res2); });
    op("ops.layernorm", [&] {
      ops::layernorm(s.res2, s.bert_out);
      ops::layernorm(s.p, s.pln);
    });
    op("glue.layout", [&] {
      transpose(s.pln.data().data(), kPatches, kHidden, s.pt.data().data());
    });
    if (fused) {
      op("exec.token_mix",
         [&] { ok = token->kernel->run_native(s.pt, s.tok_w, s.tok_out) && ok; });
    } else {
      op("unfused.token", [&] {
        ops::batched_gemm(s.pt, s.tok_w[0], s.tok_mid);
        ops::gelu(s.tok_mid, s.tok_mid);
        ops::batched_gemm(s.tok_mid, s.tok_w[1], s.tok_out);
      });
    }
    op("glue.layout", [&] {
      transpose(s.tok_out.data().data(), kHidden, kPatches, s.tok_back.data().data());
    });
    op("ops.add", [&] { ops::add(s.tok_back, s.p, s.mres1); });
    op("ops.layernorm", [&] { ops::layernorm(s.mres1, s.mln2); });
    op("ops.gemm.mixer-fc1", [&] { ops::gemm(s.mln2, s.cw1, s.c1); });
    op("ops.bias_add", [&] { ops::bias_add(s.c1, s.cb1, s.c1); });
    op("ops.gelu", [&] { ops::gelu(s.c1, s.c1); });
    op("ops.gemm.mixer-fc2", [&] { ops::gemm(s.c1, s.cw2, s.c2); });
    op("ops.bias_add", [&] { ops::bias_add(s.c2, s.cb2, s.c2); });
    op("ops.add", [&] { ops::add(s.c2, s.mres1, s.mixer_out); });
    return ok;
  };

  std::vector<double> lat;
  std::vector<double> unfused_lat;
  std::vector<std::int64_t> unfused_steps;
  double max_diff = 0.0;
  // Step ids continue past kernels-hot's rounds so their spans stay apart.
  const std::int64_t first = std::int64_t{1} << 40;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  std::int64_t i = 0;
  for (; i == 0 || Clock::now() < deadline; ++i) {
    auto t1 = Clock::now();
    bool ok = step(true, &trace, first + i);
    lat.push_back(seconds_between(t1, Clock::now()));
    if (i % 4 == 3) {
      const Tensor bert_out = s.bert_out;
      const Tensor mixer_out = s.mixer_out;
      const std::int64_t req = 2 * first + i;
      t1 = Clock::now();
      {
        const Trace::Scope sp(&trace, "unfused.step", req);
        ok = step(false, &trace, req) && ok;
      }
      unfused_lat.push_back(seconds_between(t1, Clock::now()));
      unfused_steps.push_back(req);
      max_diff = std::max({max_diff, max_abs_diff(bert_out, s.bert_out),
                           max_abs_diff(mixer_out, s.mixer_out)});
      ok = ok && matches(bert_out, s.bert_out) && matches(mixer_out, s.mixer_out);
    }
    res.check(ok, "model step " + std::to_string(i) + ": kernel failed or fused != unfused");
  }

  const std::vector<Span> spans = trace.spans();
  OpMeans per_step;
  const char* const kFusedSpans[][2] = {
      {"exec.attn", "exec.attn_ms"},
      {"exec.token_mix", "exec.token_mix_ms"},
      {"ops.gemm.bert-qkv", "ops.gemm_ms.bert-qkv"},
      {"ops.gemm.bert-out", "ops.gemm_ms.bert-out"},
      {"ops.gemm.bert-fc1", "ops.gemm_ms.bert-fc1"},
      {"ops.gemm.bert-fc2", "ops.gemm_ms.bert-fc2"},
      {"ops.gemm.mixer-fc1", "ops.gemm_ms.mixer-fc1"},
      {"ops.gemm.mixer-fc2", "ops.gemm_ms.mixer-fc2"},
      {"ops.layernorm", "ops.layernorm_ms"},
      {"ops.gelu", "ops.gelu_ms"},
      {"ops.bias_add", "ops.bias_add_ms"},
      {"ops.add", "ops.add_ms"},
      {"glue.layout", "glue.layout_ms"},
  };
  for (std::int64_t k = 0; k < i; ++k) {
    for (const auto& [span_name, metric] : kFusedSpans) {
      per_step.add(metric, span_time_s(spans, span_name, first + k) * 1e3, "ms");
    }
    per_step.add("model.kernel_frac",
                 (span_time_s(spans, "exec.attn", first + k) +
                  span_time_s(spans, "exec.token_mix", first + k)) /
                     lat[static_cast<std::size_t>(k)],
                 "ratio");
  }
  for (const std::int64_t req : unfused_steps) {
    per_step.add("unfused.attn_ms", span_time_s(spans, "unfused.attn", req) * 1e3, "ms");
    per_step.add("unfused.token_ms", span_time_s(spans, "unfused.token", req) * 1e3, "ms");
    per_step.add("ops.softmax_ms", span_time_s(spans, "ops.softmax", req) * 1e3, "ms");
  }
  per_step.emit(res);
  res.set("model.step_ms", median(lat) * 1e3, "ms");
  res.set("unfused.step_ms", median(unfused_lat) * 1e3, "ms");
  res.set("model.speedup_vs_unfused", median(unfused_lat) / median(lat), "ratio");
  res.set("numerics.max_abs_diff", max_diff, "abs");
}

}  // namespace mcf::e2e

// mcfuser — command-line driver for the fusion engine.
//
//   mcfuser fuse    --m 512 --n 256 --k 64 --h 64 [--batch N]
//                   [--attention | --gelu | --relu] [--gpu a100|rtx3080]
//                   [--backend=sim|interp|jit|jit-isolated]
//                   [--cache FILE] [--emit] [--pseudo] [--json]
//   mcfuser fuse    --graph bert-small|bert-base|bert-large|mixer-small|
//                           mixer-base [--seq L] [--jobs N] [--max-queue N]
//                           [--deadline S] [--json]
//                   whole-graph batch fusion: partition, digest-dedup,
//                   tune distinct chains concurrently (bounded admission
//                   queue, queue-wait deadline), report
//   mcfuser compare <same shape flags>     run every baseline on the chain
//   mcfuser suite   gemm | attention       paper Table II / III sweep
//   mcfuser verify  [--family gemm|attention|bert|mixer|all]
//                   [--max-candidates N] [--mutants N] [--seed N]
//                   [--gpu NAME] [--json]
//                   static bounds-safety sweep (src/verify/): prove every
//                   tuner candidate of the workload matrix in-bounds, and
//                   check the seeded mutation corpus is 100% flagged;
//                   exit 0 only when both hold
//   mcfuser info    [--gpu NAME]           GPU model parameters
//   mcfuser serve   --socket PATH and/or --port N   MCFN socket service
//                   over the engine; SIGTERM/SIGINT drains gracefully
//                   (exit 0 only when the EngineStats accounting identity
//                   held through the drain)
//   mcfuser fuse    --connect ENDPOINT <shape flags>   client mode: tune
//                   the chain through a running server (--stats fetches
//                   the server's stats JSON instead)
//
// Unknown flags are rejected with a usage synopsis and exit code 2.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baselines/ansor_like.hpp"
#include "baselines/bolt_like.hpp"
#include "baselines/chimera_like.hpp"
#include "baselines/flash_like.hpp"
#include "baselines/unfused.hpp"
#include "engine/engine.hpp"
#include "exec/codegen.hpp"
#include "exec/jit.hpp"
#include "graph/bert.hpp"
#include "graph/mixer.hpp"
#include "measure/backend.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "search/space.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "verify/mutate.hpp"
#include "verify/verify.hpp"
#include "workloads/suites.hpp"

namespace {

using namespace mcf;

struct Args {
  std::string command;
  std::string positional;
  /// Tokens parse() could not place: single-dash flags ("-m"), extra
  /// positionals.  Non-empty => usage error.
  std::vector<std::string> stray;
  std::map<std::string, std::string> flags;

  [[nodiscard]] std::int64_t num(const std::string& key, std::int64_t dflt) const {
    const auto it = flags.find(key);
    return it == flags.end() ? dflt : std::stoll(it->second);
  }
  [[nodiscard]] double dbl(const std::string& key, double dflt) const {
    const auto it = flags.find(key);
    return it == flags.end() ? dflt : std::strtod(it->second.c_str(), nullptr);
  }
  [[nodiscard]] std::string str(const std::string& key, std::string dflt) const {
    const auto it = flags.find(key);
    return it == flags.end() ? std::move(dflt) : it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return flags.count(key) != 0;
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string tok = argv[i];
    if (tok.rfind("--", 0) == 0) {
      // Both --key value and --key=value spellings are accepted.  A next
      // token that looks like a negative number ("-4") is a value, not a
      // flag — so `--m -4` reaches ChainSpec validation instead of being
      // silently rewritten to a boolean.
      const std::string body = tok.substr(2);
      const auto is_value = [&](const char* s) {
        return s[0] != '-' ||
               (s[1] != '\0' && std::isdigit(static_cast<unsigned char>(s[1])));
      };
      if (const auto eq = body.find('='); eq != std::string::npos) {
        args.flags[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && is_value(argv[i + 1])) {
        args.flags[body] = argv[++i];
      } else {
        args.flags[body] = "1";
      }
    } else if (tok.size() > 1 && tok[0] == '-' &&
               !std::isdigit(static_cast<unsigned char>(tok[1]))) {
      // Single-dash spelling of a flag ("-m"): a near-certain typo for
      // "--m"; collected for rejection rather than silently ignored.
      args.stray.push_back(std::move(tok));
    } else if (args.positional.empty()) {
      args.positional = tok;
    } else {
      args.stray.push_back(std::move(tok));
    }
  }
  return args;
}

/// Registered measurement backends, "|"-joined — the usage synopsis and
/// the --backend diagnostics enumerate the registry instead of a
/// hard-coded list, so a newly registered backend (e.g. a CUDA one) is
/// reachable and documented with zero CLI changes.
std::string backend_names_joined() {
  std::string out;
  for (const auto& n : BackendRegistry::instance().names()) {
    out += (out.empty() ? "" : "|") + n;
  }
  return out;
}

int usage() {
  const std::string backends = backend_names_joined();
  std::fprintf(stderr,
               "usage: mcfuser <fuse|compare|suite|verify|info|serve> [flags]\n"
               "  fuse    --m M --n N --k K --h H [--batch B] "
               "[--attention|--gelu|--relu] [--gpu NAME] "
               "[--backend=%s] "
               "[--cache FILE] [--emit] "
               "[--pseudo] [--json]\n"
               "  fuse    --graph bert-small|bert-base|bert-large|"
               "mixer-small|mixer-base [--seq L] [--jobs N] [--gpu NAME] "
               "[--backend NAME] "
               "[--max-queue N] [--deadline S] [--json]\n"
               "  fuse    --connect ENDPOINT <shape flags> [--timeout S] "
               "[--retries N] [--stats] [--json]\n"
               "  compare <same shape flags> [--trials T]\n"
               "  suite   gemm|attention [--gpu NAME]\n"
               "  verify  [--family gemm|attention|bert|mixer|all] "
               "[--max-candidates N] [--mutants N] [--seed N] [--gpu NAME] "
               "[--json]\n"
               "  info    [--gpu NAME]\n"
               "  serve   [--socket PATH] [--port N] [--gpu NAME] "
               "[--backend NAME] [--jobs N] "
               "[--max-queue N] [--max-in-flight N] [--deadline S] "
               "[--max-conns N] [--io-timeout S] [--idle-timeout S] "
               "[--request-timeout S] [--drain-deadline S] [--json]\n",
               backends.c_str());
  return 2;
}

/// Rejects flags the command (and, for fuse, the mode) does not
/// understand — exit 2 + synopsis instead of silently ignoring them.
bool validate_flags(const Args& args) {
  static const std::set<std::string> kFuseChain = {
      "m",   "n",       "k",     "h",    "batch", "attention", "gelu",
      "relu", "gpu",    "backend", "cache", "emit", "pseudo",   "json"};
  static const std::set<std::string> kFuseGraph = {
      "graph", "seq",       "jobs",     "gpu",
      "backend", "json",    "max-queue", "deadline"};
  static const std::set<std::string> kFuseConnect = {
      "connect", "m",    "n",       "k",       "h",    "batch", "attention",
      "gelu",    "relu", "timeout", "retries", "stats", "json"};
  static const std::map<std::string, std::set<std::string>> kKnown = {
      {"compare",
       {"m", "n", "k", "h", "batch", "attention", "gelu", "relu", "gpu",
        "trials"}},
      {"suite", {"gpu"}},
      {"verify", {"family", "max-candidates", "mutants", "seed", "gpu", "json"}},
      {"info", {"gpu"}},
      {"serve",
       {"socket", "port", "gpu", "backend", "jobs", "max-queue",
        "max-in-flight", "deadline", "max-conns", "io-timeout", "idle-timeout",
        "request-timeout", "drain-deadline", "json"}},
  };
  if (!args.stray.empty()) {
    std::fprintf(stderr,
                 "mcfuser %s: unrecognized argument '%s' (flags are spelled "
                 "--name)\n\n",
                 args.command.c_str(), args.stray.front().c_str());
    return false;
  }
  // Only `suite` takes a positional (gemm|attention).
  if (!args.positional.empty()) {
    if (args.command != "suite") {
      std::fprintf(stderr, "mcfuser %s: unexpected argument '%s'\n\n",
                   args.command.c_str(), args.positional.c_str());
      return false;
    }
    if (args.positional != "gemm" && args.positional != "attention") {
      std::fprintf(stderr, "mcfuser suite: unknown suite '%s'\n\n",
                   args.positional.c_str());
      return false;
    }
  }
  const std::set<std::string>* allowed = nullptr;
  const char* mode = "";
  if (args.command == "fuse") {
    // Single-chain, graph, and connect mode accept different flags; a
    // shape flag in graph mode (or --seq/--jobs without --graph) would
    // be dead, so it is rejected rather than ignored.
    if (args.has("connect")) {
      allowed = &kFuseConnect;
      mode = " (connect mode)";
    } else {
      allowed = args.has("graph") ? &kFuseGraph : &kFuseChain;
      mode = args.has("graph") ? " (graph mode)" : "";
    }
  } else if (const auto it = kKnown.find(args.command); it != kKnown.end()) {
    allowed = &it->second;
  } else {
    return true;  // unknown command: usage() later
  }
  for (const auto& kv : args.flags) {
    if (allowed->count(kv.first) == 0) {
      std::fprintf(stderr, "mcfuser %s%s: unknown flag '--%s'\n\n",
                   args.command.c_str(), mode, kv.first.c_str());
      return false;
    }
  }
  // Numeric flags must parse as (in-range) integers; a typo like
  // `--seq abc` gets the usage path, not an uncaught std::stoll throw.
  static const std::set<std::string> kNumeric = {
      "m",       "n",         "k",           "h",
      "batch",   "seq",       "jobs",        "trials",
      "max-queue", "port",    "retries",     "max-conns",
      "max-in-flight", "max-candidates", "mutants", "seed"};
  for (const auto& kv : args.flags) {
    if (kNumeric.count(kv.first) == 0) continue;
    errno = 0;
    char* end = nullptr;
    (void)std::strtoll(kv.second.c_str(), &end, 10);
    if (kv.second.empty() || *end != '\0' || errno == ERANGE) {
      std::fprintf(stderr, "mcfuser %s: '--%s' needs an integer, got '%s'\n\n",
                   args.command.c_str(), kv.first.c_str(), kv.second.c_str());
      return false;
    }
  }
  // ... and decimal flags as finite doubles.
  static const std::set<std::string> kDecimal = {
      "deadline",        "timeout",     "io-timeout",
      "idle-timeout",    "request-timeout", "drain-deadline"};
  for (const auto& kv : args.flags) {
    if (kDecimal.count(kv.first) == 0) continue;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(kv.second.c_str(), &end);
    if (kv.second.empty() || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v)) {
      std::fprintf(stderr, "mcfuser %s: '--%s' needs a number, got '%s'\n\n",
                   args.command.c_str(), kv.first.c_str(), kv.second.c_str());
      return false;
    }
  }
  return true;
}

ChainSpec chain_from(const Args& args) {
  const std::int64_t batch = args.num("batch", 1);
  const std::int64_t m = args.num("m", 512);
  const std::int64_t n = args.num("n", 256);
  const std::int64_t k = args.num("k", 64);
  const std::int64_t h = args.num("h", 64);
  if (args.has("attention")) {
    return ChainSpec::attention("cli", batch, m, n, k, h);
  }
  if (args.has("gelu")) {
    return ChainSpec("cli", batch, m, {k, n, h}, {Epilogue::Gelu, Epilogue::None});
  }
  if (args.has("relu")) {
    return ChainSpec("cli", batch, m, {k, n, h}, {Epilogue::Relu, Epilogue::None});
  }
  return ChainSpec::gemm_chain("cli", batch, m, n, k, h);
}

/// The engine's admission flags, shared by `fuse --graph` and `serve`:
/// --jobs, --max-queue, --max-in-flight and --deadline.  Counts are
/// range-checked on the full int64 before the casts below, so a negative
/// or huge value is rejected instead of wrapping to "no bound".  False,
/// after printing the range, when a flag is out of range.
bool admission_flags(const Args& args, FusionEngineOptions* opts) {
  constexpr std::int64_t kMaxJobs = 4096;
  constexpr std::int64_t kMaxQueue = 1 << 20;
  using Bound = std::pair<const char*, std::int64_t>;
  for (const auto& [flag, max] : {Bound{"jobs", kMaxJobs},
                                  Bound{"max-queue", kMaxQueue},
                                  Bound{"max-in-flight", kMaxQueue}}) {
    const std::int64_t v = args.num(flag, 0);
    if (v < 0 || v > max) {
      std::fprintf(stderr, "--%s must be in [0, %lld]\n", flag,
                   static_cast<long long>(max));
      return false;
    }
  }
  if (args.dbl("deadline", 0.0) < 0.0) {
    std::fprintf(stderr, "--deadline must be a non-negative number of seconds\n");
    return false;
  }
  opts->jobs = static_cast<int>(args.num("jobs", 0));
  opts->queue.max_queued = static_cast<std::size_t>(args.num("max-queue", 0));
  opts->queue.max_in_flight =
      static_cast<std::size_t>(args.num("max-in-flight", 0));
  opts->queue.deadline_s = args.dbl("deadline", 0.0);
  return true;
}

/// False + a diagnostic listing the registered backends when `name` is
/// not in the registry (shared by the chain and graph fuse modes).
bool backend_known(const std::string& name) {
  const auto names = BackendRegistry::instance().names();
  if (std::find(names.begin(), names.end(), name) != names.end()) return true;
  std::fprintf(stderr, "unknown --backend '%s'; registered:", name.c_str());
  for (const auto& n : names) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return false;
}

int cmd_fuse_graph(const Args& args, const GpuSpec& gpu) {
  const std::string model = args.str("graph", "bert-base");
  const std::int64_t seq = args.num("seq", 0);
  if (args.has("seq") && seq <= 0) {
    std::fprintf(stderr, "--seq must be a positive length, got %lld\n",
                 static_cast<long long>(seq));
    return 2;
  }
  // Admission control: --max-queue bounds the engine queue (the batch
  // path waits for slots, so memory is bounded without shedding chains);
  // --deadline sheds chains whose queue wait exceeds S seconds
  // (reported as deadline-exceeded, exit 1).
  FusionEngineOptions opts;
  opts.backend = args.str("backend", "");
  if (!admission_flags(args, &opts)) return 2;
  NetGraph g("empty");
  if (model == "bert-small" || model == "bert-base" || model == "bert-large") {
    BertConfig cfg = model == "bert-small"   ? bert_small()
                     : model == "bert-large" ? bert_large()
                                             : bert_base();
    if (seq > 0) cfg.seq_len = seq;
    g = build_bert(cfg);
  } else if (model == "mixer-small" || model == "mixer-base") {
    MixerConfig cfg = model == "mixer-small" ? mixer_small() : mixer_base();
    if (seq > 0) cfg.patches = seq;  // --seq = the token/sequence dimension
    g = build_mixer(cfg);
  } else {
    std::fprintf(stderr, "unknown --graph '%s'\n\n", model.c_str());
    return usage();
  }

  if (!opts.backend.empty() && !backend_known(opts.backend)) return 2;
  FusionEngine engine(gpu, opts);
  const GraphFusionReport rep = engine.fuse_graph(g);

  if (args.has("json")) {
    std::printf("%s\n", rep.to_json().c_str());
  } else {
    std::printf("graph %s on %s: %d nodes, %d MBCI subgraphs, "
                "%d distinct chain(s), %d tuned (%d measurements, %.2fs "
                "tuning wall)\n",
                rep.graph_name.c_str(), gpu.name.c_str(), rep.graph_nodes,
                rep.mbci_subgraphs, rep.distinct_chains, rep.tuned_chains,
                rep.total_measurements, rep.tuning_wall_s);
    Table table;
    table.set_header({"chain", "digest", "x", "status", "time (us)", "source"});
    for (const GraphChainReport& c : rep.chains) {
      table.add_row({c.chain_name, c.digest, std::to_string(c.occurrences),
                     c.result ? fusion_status_name(c.result->status) : "?",
                     c.result && c.result->ok()
                         ? Table::num(c.result->time_s() * 1e6, 2)
                         : "-",
                     c.reused ? "memo" : "tuned"});
    }
    std::printf("%s", table.to_string().c_str());
  }
  return rep.all_ok() ? 0 : 1;
}

/// Client mode: tune the chain through a running `mcfuser serve` (or
/// fetch its stats).  Exit 0 only when the RPC succeeded AND the remote
/// fusion resolved Ok — a Rejected/Cancelled result is exit 1 like the
/// local path.
int cmd_fuse_connect(const Args& args) {
  net::ClientOptions copt;
  copt.request_timeout_s = args.dbl("timeout", 0.0);
  copt.max_retries = static_cast<int>(args.num("retries", 3));
  if (copt.max_retries < 0 || copt.max_retries > 100) {
    std::fprintf(stderr, "--retries must be in [0, 100]\n");
    return 2;
  }
  net::FusionClient client(args.str("connect", ""), copt);

  if (args.has("stats")) {
    std::string json;
    const net::RpcResult res = client.query_stats(&json);
    if (res.status != net::RpcStatus::Ok) {
      std::fprintf(stderr, "mcfuser fuse --connect: %s: %s (%d attempt(s))\n",
                   net::rpc_status_name(res.status), res.detail.c_str(),
                   res.attempts);
      return 1;
    }
    std::printf("%s\n", json.c_str());
    return 0;
  }

  const ChainSpec chain = chain_from(args);
  const net::RpcResult res = client.fuse(chain);
  if (res.status != net::RpcStatus::Ok) {
    std::fprintf(stderr, "mcfuser fuse --connect: %s: %s (%d attempt(s))\n",
                 net::rpc_status_name(res.status), res.detail.c_str(),
                 res.attempts);
    return 1;
  }
  const auto status = static_cast<FusionStatus>(res.response.status);
  if (args.has("json")) {
    std::printf("%s\n", res.response.json.c_str());
  } else if (status == FusionStatus::Ok) {
    std::printf("remote fuse ok: %s -> %.2f us (%d attempt(s))\n",
                chain.to_string().c_str(), res.response.time_s * 1e6,
                res.attempts);
  } else {
    std::fprintf(stderr, "remote fusion failed: %s: %s\n",
                 fusion_status_name(status), res.response.reason.c_str());
  }
  return status == FusionStatus::Ok ? 0 : 1;
}

int cmd_fuse(const Args& args) {
  if (args.has("connect")) return cmd_fuse_connect(args);
  const GpuSpec gpu = gpu_by_name(args.str("gpu", "a100"));
  if (args.has("graph")) return cmd_fuse_graph(args, gpu);
  const ChainSpec chain = chain_from(args);

  FusionEngineOptions opts;
  opts.backend = args.str("backend", "sim");
  if (!backend_known(opts.backend)) return 2;
  const bool json = args.has("json");
  if (json && (args.has("emit") || args.has("pseudo"))) {
    // --json replaces the human-readable output entirely; combining it
    // with a kernel dump would be silently dead, so reject instead.
    std::fprintf(stderr, "--json cannot be combined with --emit/--pseudo\n");
    return 2;
  }
  if (!json) {
    std::printf("fusing %s on %s (backend: %s)\n", chain.to_string().c_str(),
                gpu.name.c_str(), opts.backend.c_str());
  }

  FusionEngine engine(gpu, opts);
  const jit::CompileStats jit_before = jit::stats_snapshot();
  // --cache FILE: the engine's result store, loaded before and saved
  // after.  It answers only records this GPU and backend measured.
  const std::string cache_path = args.str("cache", "");
  if (!cache_path.empty()) (void)engine.load_tuning_cache(cache_path);
  const FusionResult result = engine.fuse(chain);
  if (!cache_path.empty() && !engine.save_tuning_cache(cache_path)) {
    std::fprintf(stderr, "warning: could not write %s\n", cache_path.c_str());
  }
  if (json) {
    JsonWriter w;
    w.object().field("backend", opts.backend);
    result.write_report(w, chain.name());
    w.key("jit_compile")
        .raw(jit::stats_snapshot().since(jit_before).to_json())
        .end();
    std::printf("%s\n", w.str().c_str());
    return result.ok() ? 0 : 1;
  }
  if (!result.ok()) {
    std::fprintf(stderr, "fusion failed: %s: %s\n",
                 fusion_status_name(result.status), result.reason.c_str());
    return 1;
  }
  std::printf("space: %.3g raw -> %zu candidates; tuning: %d measurements\n",
              result.funnel.original, result.space_size,
              result.tuned.stats.measurements);
  std::printf("best measured time (%s): %.2f us (%.1f%% of peak FLOPs)\n",
              opts.backend.c_str(), result.time_s() * 1e6,
              100.0 * chain.total_flops() / result.time_s() / gpu.peak_flops);
  if (args.has("pseudo") || !args.has("emit")) {
    std::printf("\n%s", result.kernel->schedule().to_pseudo().c_str());
  }
  if (args.has("emit")) {
    std::printf("\n%s", emit_kernel_source(result.kernel->schedule(), gpu).c_str());
  }
  return 0;
}

int cmd_compare(const Args& args) {
  const GpuSpec gpu = gpu_by_name(args.str("gpu", "a100"));
  const ChainSpec chain = chain_from(args);
  if (!chain.valid()) {
    // The baselines consume the chain directly (no engine in front), so
    // invalid shapes stop here instead of reaching their arithmetic.
    std::fprintf(stderr, "invalid chain: %s\n",
                 chain.validation_error().c_str());
    return 1;
  }
  std::printf("comparing frameworks on %s (%s)\n\n", chain.to_string().c_str(),
              gpu.name.c_str());
  Table table;
  table.set_header({"framework", "time (us)", "vs PyTorch", "fused"});
  const SubgraphResult pt = UnfusedBaseline(gpu).run(chain);
  auto row = [&](const std::string& name, double t, bool fused) {
    table.add_row({name, Table::num(t * 1e6, 2), Table::num(pt.time_s / t, 2) + "x",
                   fused ? "yes" : "no"});
  };
  row("PyTorch", pt.time_s, false);
  AnsorOptions aopts;
  aopts.trials = static_cast<int>(args.num("trials", 1000));
  const SubgraphResult an = AnsorLikeBaseline(gpu, aopts).run(chain);
  row("Ansor", an.time_s, an.fused);
  const BoltLikeBaseline bolt(gpu);
  if (bolt.supports_gpu()) {
    const SubgraphResult b = bolt.run(chain);
    row("BOLT", b.time_s, b.fused);
  } else {
    table.add_row({"BOLT", "n/a (sm86)", "-", "-"});
  }
  if (chain.num_ops() == 2 && chain.epilogue(0) == Epilogue::OnlineSoftmax) {
    const SubgraphResult f = FlashAttentionLikeBaseline(gpu).run(chain);
    row("FlashAttention", f.time_s, f.fused);
  }
  const SubgraphResult ch = ChimeraLikeBaseline(gpu).run(chain);
  row("MCFuser-Chimera", ch.time_s, ch.fused);
  const FusionResult mc = FusionEngine(gpu).fuse(chain);
  if (mc.ok()) row("MCFuser", mc.time_s(), true);
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_suite(const Args& args) {
  const GpuSpec gpu = gpu_by_name(args.str("gpu", "a100"));
  const bool attention = args.positional == "attention";
  const auto suite = attention ? attention_suite() : gemm_chain_suite();
  Table table(std::string(attention ? "Table III" : "Table II") + " suite on " +
              gpu.name);
  table.set_header({"workload", "shape", "PyTorch (us)", "MCFuser (us)",
                    "speedup"});
  const FusionEngine engine(gpu);
  for (const ChainSpec& chain : suite) {
    const double pt = UnfusedBaseline(gpu).run(chain).time_s;
    const FusionResult mc = engine.fuse(chain);
    if (!mc.ok()) {
      std::fprintf(stderr, "%s: %s: %s\n", chain.name().c_str(),
                   fusion_status_name(mc.status), mc.reason.c_str());
      return 1;
    }
    table.add_row({chain.name(), chain.to_string(), Table::num(pt * 1e6, 1),
                   Table::num(mc.time_s() * 1e6, 1),
                   Table::num(pt / mc.time_s(), 2) + "x"});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

/// Self-pipe for the drain signals: the async-signal-handler writes one
/// byte; the main thread blocks on the read end and then runs the
/// (thread-context-only) server.stop().
int g_signal_pipe[2] = {-1, -1};

extern "C" void on_drain_signal(int) {
  const unsigned char byte = 1;
  (void)!::write(g_signal_pipe[1], &byte, 1);
}

int cmd_serve(const Args& args) {
  if (!args.has("socket") && !args.has("port")) {
    std::fprintf(stderr, "mcfuser serve: need --socket PATH and/or --port N "
                         "(--port 0 picks an ephemeral port)\n");
    return 2;
  }
  if (args.has("port") &&
      (args.num("port", 0) < 0 || args.num("port", 0) > 65535)) {
    std::fprintf(stderr, "--port must be in [0, 65535]\n");
    return 2;
  }
  const GpuSpec gpu = gpu_by_name(args.str("gpu", "a100"));
  FusionEngineOptions opts;
  opts.backend = args.str("backend", "sim");
  if (!backend_known(opts.backend)) return 2;
  // A full queue sheds a request as FusionStatus::Rejected (the server
  // calls submit(), which never waits) — the service never blocks or OOMs.
  if (!admission_flags(args, &opts)) return 2;
  FusionEngine engine(gpu, opts);

  net::ServerOptions sopt;
  sopt.unix_path = args.str("socket", "");
  sopt.tcp_port = args.has("port") ? static_cast<int>(args.num("port", 0)) : -1;
  sopt.max_connections = static_cast<int>(args.num("max-conns", 64));
  sopt.io_timeout_s = args.dbl("io-timeout", 10.0);
  sopt.idle_timeout_s = args.dbl("idle-timeout", 60.0);
  sopt.request_timeout_s = args.dbl("request-timeout", 300.0);
  sopt.drain_deadline_s = args.dbl("drain-deadline", 10.0);
  net::FusionServer server(engine, sopt);
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "mcfuser serve: %s\n", err.c_str());
    return 1;
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "mcfuser serve: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction sa {};
  sa.sa_handler = on_drain_signal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  if (!sopt.unix_path.empty()) {
    std::fprintf(stderr, "mcfuser serve: listening on unix:%s\n",
                 sopt.unix_path.c_str());
  }
  if (sopt.tcp_port >= 0) {
    std::fprintf(stderr, "mcfuser serve: listening on 127.0.0.1:%d\n",
                 server.port());
  }
  std::fprintf(stderr, "mcfuser serve: backend %s on %s; SIGTERM drains\n",
               opts.backend.c_str(), gpu.name.c_str());

  unsigned char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::fprintf(stderr, "mcfuser serve: draining (deadline %.1fs)...\n",
               sopt.drain_deadline_s);
  server.stop();

  // The exit code certifies the accounting identity: every admitted
  // request resolved into exactly one terminal bucket even if the drain
  // interrupted a flood.
  const EngineStats st = engine.stats();
  const net::ServerStats ss = server.stats();
  const bool identity_ok = st.submitted == st.completed + st.rejected +
                                               st.cancelled +
                                               st.deadline_exceeded;
  if (args.has("json")) {
    const std::string doc = JsonWriter().object()
        .field("identity_ok", identity_ok)
        .key("engine").raw(st.to_json())
        .key("server").raw(ss.to_json())
        .end().str();
    std::printf("%s\n", doc.c_str());
  } else {
    std::fprintf(stderr,
                 "mcfuser serve: drained; %llu conns, %llu requests "
                 "(%llu ok, %llu shed); identity %s\n",
                 static_cast<unsigned long long>(ss.accepted),
                 static_cast<unsigned long long>(ss.requests),
                 static_cast<unsigned long long>(ss.requests_ok),
                 static_cast<unsigned long long>(ss.requests_shed),
                 identity_ok ? "ok" : "BROKEN");
  }
  if (!identity_ok) {
    std::fprintf(stderr,
                 "mcfuser serve: accounting identity broken (submitted != "
                 "completed + rejected + cancelled + deadline_exceeded): %s\n",
                 st.to_json().c_str());
  }
  return identity_ok ? 0 : 1;
}

/// The verify sweep's workload matrix: the paper's evaluation families
/// plus the end-to-end model chains, mirroring what the conformance tests
/// tune.  Every chain is paired with its pruned tuner candidate grid so
/// the sweep proves safety for the schedules the tuner can actually emit.
std::vector<ChainSpec> verify_family_chains(const std::string& family) {
  std::vector<ChainSpec> chains;
  const bool all = family == "all";
  if (all || family == "gemm") {
    for (auto& c : gemm_chain_suite()) chains.push_back(std::move(c));
  }
  if (all || family == "attention") {
    for (auto& c : attention_suite()) chains.push_back(std::move(c));
  }
  if (all || family == "bert") {
    for (const BertConfig& cfg : {bert_small(), bert_base(), bert_large()}) {
      chains.push_back(bert_attention_chain(cfg, cfg.seq_len));
    }
  }
  if (all || family == "mixer") {
    // Token-mixing MLP as an MBCI chain (graph/mixer.hpp): the
    // transposed patch matmul pair with the GeLU epilogue in between.
    for (const MixerConfig& cfg : {mixer_small(), mixer_base()}) {
      chains.emplace_back(cfg.name + "-token", /*batch=*/1, cfg.channels,
                          std::vector<std::int64_t>{cfg.patches,
                                                    cfg.token_hidden,
                                                    cfg.patches},
                          std::vector<Epilogue>{Epilogue::Gelu});
    }
  }
  return chains;
}

int cmd_verify(const Args& args) {
  const GpuSpec gpu = gpu_by_name(args.str("gpu", "a100"));
  const std::string family = args.str("family", "all");
  if (family != "all" && family != "gemm" && family != "attention" &&
      family != "bert" && family != "mixer") {
    std::fprintf(stderr, "mcfuser verify: unknown family '%s'\n\n",
                 family.c_str());
    return 2;
  }
  const auto max_candidates =
      static_cast<std::size_t>(std::max<std::int64_t>(
          1, args.num("max-candidates", 8)));
  const auto max_mutants = static_cast<std::size_t>(
      std::max<std::int64_t>(0, args.num("mutants", 4)));
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 42));
  const bool json = args.has("json");

  const std::vector<ChainSpec> chains = verify_family_chains(family);
  PruneOptions prune;
  prune.smem_limit_bytes = gpu.smem_per_block;

  std::size_t candidates_checked = 0;
  std::size_t violations = 0;
  std::size_t mutants_total = 0;
  std::size_t mutants_flagged = 0;
  JsonWriter doc;
  doc.object().field("gpu", gpu.name).field("family", family);
  doc.key("chains").array();
  for (const ChainSpec& chain : chains) {
    const SearchSpace space(chain, SpaceOptions{}, prune);
    const auto& cands = space.candidates();
    // Even spread over the candidate grid: first, last, and evenly spaced
    // interior points — corner-heavy tilings (the fringe paths) live at
    // the ends of the grid.
    const std::size_t take = std::min(max_candidates, cands.size());
    std::size_t chain_checked = 0;
    std::size_t chain_violations = 0;
    std::size_t chain_mut_total = 0;
    std::size_t chain_mut_flagged = 0;
    std::vector<std::string> reports;  ///< JSON of each unsafe candidate
    for (std::size_t i = 0; i < take; ++i) {
      const std::size_t idx =
          take <= 1 ? 0 : i * (cands.size() - 1) / (take - 1);
      const Schedule s = space.schedule_for(cands[idx]);
      const verify::VerifyReport report = verify::verify_schedule(s);
      ++chain_checked;
      if (!report.safe()) {
        ++chain_violations;
        reports.push_back(report.to_json());
      }
      for (const verify::Mutant& m :
           verify::mutation_corpus(s, seed, max_mutants)) {
        ++chain_mut_total;
        const verify::VerifyReport mr = verify::verify_schedule(m.schedule);
        if (!mr.safe()) {
          ++chain_mut_flagged;
        } else {
          std::fprintf(stderr,
                       "mcfuser verify: MISSED mutant '%s' (%s) on %s\n",
                       m.name.c_str(), m.detail.c_str(),
                       chain.name().c_str());
        }
      }
    }
    candidates_checked += chain_checked;
    violations += chain_violations;
    mutants_total += chain_mut_total;
    mutants_flagged += chain_mut_flagged;
    if (json) {
      doc.object().field("name", chain.name())
          .field("shape", chain.to_string()).field("grid", cands.size())
          .field("checked", chain_checked)
          .field("violations", chain_violations)
          .field("mutants", chain_mut_total)
          .field("mutants_flagged", chain_mut_flagged)
          .key("reports").array();
      for (const std::string& r : reports) doc.raw(r);
      doc.end().end();
    } else {
      std::printf("%-14s %-28s grid %-8zu checked %-3zu violations %-2zu "
                  "mutants %zu/%zu flagged\n",
                  chain.name().c_str(), chain.to_string().c_str(),
                  cands.size(), chain_checked, chain_violations,
                  chain_mut_flagged, chain_mut_total);
    }
  }

  const bool clean = violations == 0 && mutants_flagged == mutants_total;
  if (json) {
    doc.end().field("candidates_checked", candidates_checked)
        .field("violations", violations).field("mutants", mutants_total)
        .field("mutants_flagged", mutants_flagged).field("clean", clean)
        .end();
    std::printf("%s\n", doc.str().c_str());
  } else {
    std::printf("verify: %zu candidates across %zu chains, %zu violations; "
                "%zu/%zu mutants flagged -> %s\n",
                candidates_checked, chains.size(), violations,
                mutants_flagged, mutants_total, clean ? "CLEAN" : "UNSAFE");
  }
  return clean ? 0 : 1;
}

int cmd_info(const Args& args) {
  const GpuSpec gpu = gpu_by_name(args.str("gpu", "a100"));
  std::printf("%s: %d SMs, %.0f TFLOPS fp16 TC, %.0f GB/s DRAM, "
              "%lld KiB smem/block, %lld MiB L2 @ %.1f TB/s\n",
              gpu.name.c_str(), gpu.num_sms, gpu.peak_flops / 1e12,
              gpu.mem_bandwidth / 1e9,
              static_cast<long long>(gpu.smem_per_block / 1024),
              static_cast<long long>(gpu.l2_bytes / (1024 * 1024)),
              gpu.l2_bandwidth / 1e12);
  std::printf("P/W = %.1f FLOP/byte (MBCI threshold)\n", gpu.flops_per_byte());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (!validate_flags(args)) return usage();
  if (args.command == "fuse") return cmd_fuse(args);
  if (args.command == "compare") return cmd_compare(args);
  if (args.command == "suite") return cmd_suite(args);
  if (args.command == "verify") return cmd_verify(args);
  if (args.command == "info") return cmd_info(args);
  if (args.command == "serve") return cmd_serve(args);
  return usage();
}

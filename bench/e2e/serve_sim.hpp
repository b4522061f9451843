// serve-sim: the wire, admission and search-CPU path.  An in-process
// net::FusionServer on a Unix socket runs the `mcfuser serve` defaults
// (simulator backend, jobs = 0) with max_queued 64.  Open loop: 4 sender
// threads with the default FusionClient send at 100 req/s, then at 300
// req/s; then 4 closed-loop clients measure capacity.  Requests are
// drawn Zipf(1.1) from a pool of 256 generated chains, so they repeat;
// in fuse-cold they never do.  The pool and its popularity order are the
// same in every run (the latency a run sees hinges on which chains are
// most popular); the seed draws the request sequence.  Latency counts
// from each request's scheduled send time.  Nothing is compiled or
// executed.
#pragma once

#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "chains.hpp"
#include "engine/engine.hpp"
#include "harness.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "traced_fuse.hpp"

namespace mcf::e2e {

namespace serve {

constexpr int kClients = 4;
constexpr std::size_t kPool = 256;
constexpr std::uint64_t kPoolSeed = 0;

/// Zipf(s) ranks over [0, n): rank r has weight 1 / (r+1)^s.
inline std::vector<std::size_t> zipf_draws(std::uint64_t seed, std::size_t n, double s,
                                           std::size_t count) {
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = acc;
  }
  Rng rng = make_rng(hash_combine(seed, 0x5a49));
  std::uniform_real_distribution<double> u(0.0, acc);
  std::vector<std::size_t> out(count);
  for (auto& d : out) {
    d = static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u(rng)) -
                                 cdf.begin());
  }
  return out;
}

/// One finished request.
struct Sample {
  double lat_s = 0.0;   ///< from the scheduled send time to the response
  double late_s = 0.0;  ///< how late the generator sent it
  bool traced = false;
};

/// Requests of one phase plus what the checks saw.
struct Phase {
  std::vector<Sample> samples;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t attempts = 0;  ///< connection attempts, summed
  double wall_s = 0.0;

  /// Latencies of all requests, or of the traced / untraced ones.
  [[nodiscard]] std::vector<double> latencies(std::optional<bool> traced = {}) const {
    std::vector<double> v;
    for (const Sample& s : samples) {
      if (!traced || s.traced == *traced) v.push_back(s.lat_s);
    }
    return v;
  }
};

/// Sends pool[draws[first + k]] for k = 0, 1, ... from kClients threads.
/// `rate` > 0: open loop, request k is due at start + k / rate.
/// `rate` == 0: closed loop, each thread sends its next request when the
/// previous one returns.  Stops issuing at `seconds` or when the draws
/// run out.
inline Phase run_phase(const std::string& endpoint, const std::vector<ChainSpec>& pool,
                       const std::vector<std::size_t>& draws, std::size_t first,
                       double rate, double seconds, Trace* trace) {
  Phase ph;
  Mutex mu{"e2e.serve-phase"};
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto stop = start + std::chrono::duration<double>(seconds);
  const auto sender = [&] {
    net::FusionClient client(endpoint);
    for (;;) {
      const std::size_t k = next.fetch_add(1);
      if (first + k >= draws.size()) return;
      auto due = Clock::now();
      if (rate > 0) {
        due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(static_cast<double>(k) / rate));
        std::this_thread::sleep_until(due);
      }
      if (due >= stop) return;
      const auto req = static_cast<std::int64_t>(first + k);
      const bool traced = traced_op(trace != nullptr, first + k);
      const auto sent = Clock::now();
      net::RpcResult r;
      {
        const Trace::Scope span(traced ? trace : nullptr, "net.rpc", req);
        r = client.fuse(pool[draws[first + k]]);
      }
      const auto done = Clock::now();
      const bool ok = r.status == net::RpcStatus::Ok &&
                      r.response.status == static_cast<std::uint8_t>(FusionStatus::Ok);
      const LockGuard lk(mu);
      ++ph.attempted;
      ph.attempts += r.attempts;
      if (!ok) {
        ++ph.failed;
        std::fprintf(stderr, "bench_e2e: request %lld: %s %s\n",
                     static_cast<long long>(req), net::rpc_status_name(r.status),
                     r.detail.c_str());
        continue;
      }
      ph.samples.push_back(Sample{seconds_between(due, done),
                                  seconds_between(due, sent), traced});
    }
  };
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < kClients; ++i) threads.emplace_back(sender);
  }
  ph.wall_s = seconds_between(start, Clock::now());
  return ph;
}

}  // namespace serve

inline WorkloadResult run_serve_sim(const RunConfig& cfg, Trace& trace) {
  using namespace serve;
  WorkloadResult res;
  const GpuSpec gpu = a100();
  std::vector<ChainSpec> pool;
  std::unique_ptr<FusionEngine> engine;
  std::unique_ptr<net::FusionServer> server;
  const std::string sock = cfg.scratch + "/serve.sock";
  const std::string endpoint = "unix:" + sock;
  // Set-up: pool, engine, server, and a warm-up pass over the 64 most
  // popular chains so lazy worker and pool start-up is not timed.
  const std::vector<double> setup = time_setup(cfg.setup_reps, [&] {
    server.reset();
    engine.reset();
    pool = generate_chains(kPoolSeed, kPool);
    FusionEngineOptions o;
    o.backend = "sim";
    o.queue.max_queued = 64;
    o.queue.overflow = OverflowPolicy::Reject;
    engine = std::make_unique<FusionEngine>(gpu, o);
    net::ServerOptions so;
    so.unix_path = sock;
    server = std::make_unique<net::FusionServer>(*engine, so);
    std::string err;
    if (!server->start(&err)) {
      res.check(false, "server start: " + err);
      return;
    }
    std::vector<std::size_t> warm(64);
    for (std::size_t i = 0; i < warm.size(); ++i) warm[i] = i;
    const Phase w = run_phase(endpoint, pool, warm, 0, 0.0, 1e9, nullptr);
    res.check(w.failed == 0 && w.attempted == 64, "warm-up requests");
  });
  if (res.failed > 0) return res;

  // Phase lengths as shares of the run; a traced run also replays
  // requests in process (no wire) for engine.fuse_ms.
  const double r100_share = cfg.trace ? 0.35 : 0.4;
  const double r300_share = 0.25;
  const double closed_share = cfg.trace ? 0.25 : 0.35;
  const std::size_t n_draws = static_cast<std::size_t>(cfg.seconds * 1000) + 1024;
  const std::vector<std::size_t> draws = zipf_draws(cfg.seed, kPool, 1.1, n_draws);

  std::vector<EngineStats> polled;
  std::jthread poller([&](const std::stop_token& stop) {
    while (!stop.stop_requested()) {
      polled.push_back(engine->stats());
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  Trace* t = cfg.trace ? &trace : nullptr;
  const Phase r100 = run_phase(endpoint, pool, draws, 0, 100.0, r100_share * cfg.seconds, t);
  auto used = static_cast<std::size_t>(r100.attempted);
  const Phase r300 = run_phase(endpoint, pool, draws, used, 300.0, r300_share * cfg.seconds, t);
  used += static_cast<std::size_t>(r300.attempted);
  const Phase closed =
      run_phase(endpoint, pool, draws, used, 0.0, closed_share * cfg.seconds, nullptr);
  used += static_cast<std::size_t>(closed.attempted);
  poller.request_stop();
  poller.join();

  for (const Phase* ph : {&r100, &r300, &closed}) {
    res.attempted += ph->attempted;
    res.failed += ph->failed;
  }
  const double capacity = static_cast<double>(closed.samples.size()) / closed.wall_s;
  if (!cfg.trace) {
    server->stop();
    set_end_to_end(res, r100.latencies(), capacity, setup);
    return res;
  }

  // In-process replay of the r100 request sequence: the engine's work
  // without the wire, through the traced fuse path.
  const auto timed = std::make_shared<TimedBackend>(engine->backend(), trace);
  OpMeans layers;
  std::vector<double> fuse_s;
  double ledger_stages = 0.0;
  const auto deadline = Clock::now() + std::chrono::duration<double>(0.15 * cfg.seconds);
  for (std::size_t k = 0; k < draws.size() && (k == 0 || Clock::now() < deadline); ++k) {
    const auto req = static_cast<std::int64_t>(used + k);
    timed->begin_request(req);
    TracedFuse f;
    {
      const Trace::Scope span(&trace, "engine.fuse", req);
      f = traced_fuse(*engine, timed, trace, pool[draws[k]], req);
    }
    res.check(f.error.empty(), "in-process replay: " + f.error);
    const std::vector<Span> spans = trace.spans();
    ledger_stages += add_fuse_layers(layers, spans, req, f, *timed);
    fuse_s.push_back(span_time_s(spans, "engine.fuse", req));
  }
  server->stop();
  layers.emit(res);

  const auto tail = [](const Phase& ph, double q) { return percentile(ph.latencies(), q) * 1e3; };
  const auto late = [](const Phase& ph, double q) {
    std::vector<double> v;
    for (const Sample& s : ph.samples) v.push_back(s.late_s);
    return percentile(v, q) * 1e3;
  };
  res.set("serve.r100.p90_ms", tail(r100, 0.90), "ms");
  res.set("serve.r300.p50_ms", tail(r300, 0.50), "ms");
  res.set("serve.r300.p99_ms", tail(r300, 0.99), "ms");
  res.set("gen.late_p90_ms.r100", late(r100, 0.90), "ms");
  res.set("gen.late_p99_ms.r300", late(r300, 0.99), "ms");
  res.set("engine.fuse_ms", median(fuse_s) * 1e3, "ms");
  res.set("net.overhead_ms", tail(r100, 0.5) - median(fuse_s) * 1e3, "ms");
  res.set("ledger.residual_frac", 1.0 - ledger_stages / sum(fuse_s), "ratio");
  res.set("client.attempts_mean",
          static_cast<double>(r100.attempts + r300.attempts + closed.attempts) /
              static_cast<double>(used),
          "count");
  const net::ServerStats ss = server->stats();
  res.set("server.accepted", static_cast<double>(ss.accepted), "count");
  res.set("server.protocol_errors", static_cast<double>(ss.protocol_errors), "count");
  res.set("server.io_timeouts", static_cast<double>(ss.io_timeouts), "count");
  const EngineStats es = engine->stats();
  res.set("engine.rejected", static_cast<double>(es.rejected), "count");
  res.set("engine.deadline_exceeded", static_cast<double>(es.deadline_exceeded), "count");
  std::size_t queued_max = 0;
  std::vector<double> busy;
  for (const EngineStats& s : polled) {
    queued_max = std::max(queued_max, s.queued);
    busy.push_back(static_cast<double>(s.busy) /
                   static_cast<double>(std::max(1u, std::thread::hardware_concurrency())));
  }
  res.set("engine.queued_max", static_cast<double>(queued_max), "count");
  res.set("engine.busy_frac", mean(busy), "ratio");
  std::unordered_set<std::size_t> seen;
  std::size_t repeats = 0;
  for (std::size_t k = 0; k < used; ++k) repeats += seen.insert(draws[k]).second ? 0 : 1;
  res.set("serve.repeat_frac", static_cast<double>(repeats) / static_cast<double>(used),
          "ratio");
  std::vector<double> all = r100.latencies();
  for (const double x : r300.latencies()) all.push_back(x);
  set_trace_common(res, all, r100.latencies(true), r100.latencies(false));
  return res;
}

}  // namespace mcf::e2e

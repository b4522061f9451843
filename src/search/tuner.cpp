#include "search/tuner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "measure/backend.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"

namespace mcf {

namespace {

constexpr double kFailedTime = 1e9;
constexpr double kFailedThreshold = 1e8;

}  // namespace

Tuner::Tuner(const SearchSpace& space, GpuSpec gpu, TunerOptions options)
    : space_(space),
      gpu_(std::move(gpu)),
      opt_(options),
      model_(gpu_),
      backend_(options.backend ? options.backend
                               : std::make_shared<SimulatorBackend>(gpu_)),
      rng_(make_rng(options.seed)) {
  if (opt_.num_threads > 0) {
    own_pool_ = std::make_unique<ThreadPool>(
        static_cast<unsigned>(opt_.num_threads));
  }
  // One rehash up front instead of many mid-run (the cache grows to
  // roughly the number of distinct candidates the search visits).
  cache_.reserve(std::min<std::size_t>(space.candidates().size(), 8192));
}

ThreadPool& Tuner::pool() {
  return own_pool_ ? *own_pool_ : ThreadPool::global();
}

double Tuner::estimate(const CandidateConfig& c) {
  EvalEntry& e = cache_[candidate_key(c)];
  if (e.has_est) return e.est;
  if (!e.sched) e.sched.emplace(space_.schedule_for(c));
  ++stats_.estimates;
  if (opt_.progress) {
    opt_.progress->estimates.fetch_add(1, std::memory_order_relaxed);
  }
  e.est = model_.estimate(*e.sched).time_s;
  e.has_est = true;
  return e.est;
}

std::vector<double> Tuner::estimate_batch(std::span<const CandidateConfig> cs) {
  const std::size_t n = cs.size();
  std::vector<EvalEntry*> entries(n);
  std::vector<std::size_t> miss;  // first occurrence of each unestimated key
  {
    std::unordered_set<std::uint64_t> miss_keys;
    miss_keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = candidate_key(cs[i]);
      EvalEntry& e = cache_[key];
      entries[i] = &e;
      if (!e.has_est && miss_keys.insert(key).second) miss.push_back(i);
    }
  }
  // Parallel phase: pure per-candidate work (schedule build + volume
  // analysis) into distinct cache entries — the map itself is not mutated,
  // so no lock is needed and the outcome is thread-count independent.
  pool().parallel_for(static_cast<std::int64_t>(miss.size()), [&](std::int64_t j) {
    EvalEntry* e = entries[miss[static_cast<std::size_t>(j)]];
    if (!e->sched) {
      e->sched.emplace(
          space_.schedule_for(cs[miss[static_cast<std::size_t>(j)]]));
    }
  });
  std::vector<const Schedule*> scheds;
  scheds.reserve(miss.size());
  for (const std::size_t i : miss) scheds.push_back(&*entries[i]->sched);
  const std::vector<AnalyticalEstimate> ests =
      model_.estimate_batch(scheds, &pool());
  for (std::size_t j = 0; j < miss.size(); ++j) {
    EvalEntry* e = entries[miss[j]];
    e->est = ests[j].time_s;
    e->has_est = true;
  }
  stats_.estimates += static_cast<int>(miss.size());
  if (opt_.progress) {
    opt_.progress->estimates.fetch_add(static_cast<int>(miss.size()),
                                       std::memory_order_relaxed);
  }

  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = entries[i]->est;
  return out;
}

void Tuner::measure_batch(std::span<const CandidateConfig> cs,
                          std::span<const std::uint64_t> keys) {
  // Serial phase: resolve entries and dedup the not-yet-measured ones.
  std::vector<std::size_t> fresh;
  std::vector<EvalEntry*> fresh_entries;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    EvalEntry& e = cache_[keys[i]];
    if (e.measured) continue;
    if (std::find(fresh_entries.begin(), fresh_entries.end(), &e) !=
        fresh_entries.end()) {
      continue;  // duplicate candidate in this wave
    }
    fresh.push_back(i);
    fresh_entries.push_back(&e);
  }
  // Parallel phase 1: make sure every wave member has its schedule built
  // (most were stashed by the estimate pass already).
  pool().parallel_for(static_cast<std::int64_t>(fresh.size()), [&](std::int64_t j) {
    EvalEntry* e = fresh_entries[static_cast<std::size_t>(j)];
    if (!e->sched) {
      e->sched.emplace(space_.schedule_for(cs[fresh[static_cast<std::size_t>(j)]]));
    }
  });
  // Batched backend preparation: one call per measurement wave, so a
  // compiling backend (jit) amortises the whole wave into a single
  // translation unit (one shared object).
  if (!fresh_entries.empty()) {
    std::vector<const Schedule*> wave_scheds;
    wave_scheds.reserve(fresh_entries.size());
    for (EvalEntry* e : fresh_entries) wave_scheds.push_back(&*e->sched);
    backend_->prepare_batch(wave_scheds, opt_.measure);
  }
  // Parallel phase 2: backends promise concurrency-safe measure(); each
  // wave member writes only its own cache entry.
  pool().parallel_for(static_cast<std::int64_t>(fresh.size()), [&](std::int64_t j) {
    EvalEntry* e = fresh_entries[static_cast<std::size_t>(j)];
    const KernelMeasurement m = backend_->measure(*e->sched, opt_.measure);
    e->meas_ok = m.ok;
    e->meas_time = m.ok ? m.time_s : kFailedTime;
    e->fail_note = m.ok ? std::string() : m.fail_reason;
    e->fail_kind = m.ok ? MeasureFailKind::None : m.fail_kind;
  });
  // Serial phase: commit in wave (= rank) order so stats and the Fig. 11
  // scatter data are identical for any thread count.
  for (EvalEntry* e : fresh_entries) {
    e->measured = true;
    ++stats_.measurements;
    if (!e->meas_ok) {
      ++stats_.compile_failures;
      const MeasureFailKind kind = e->fail_kind == MeasureFailKind::None
                                       ? MeasureFailKind::Generic
                                       : e->fail_kind;
      // Rank-upgrade: a worker crash/timeout anywhere in the run outranks
      // an (earlier-committed) generic failure — a gate-infeasible
      // candidate must not mask that the rest crashed sandbox workers.
      // A verifier rejection sits between the two: it is a property of
      // the schedule (like Generic) but names a proven safety bug, which
      // must not be buried under an ordinary infeasibility reason.
      const auto rank = [](MeasureFailKind k) {
        if (k == MeasureFailKind::WorkerCrashed ||
            k == MeasureFailKind::WorkerTimeout) {
          return 2;
        }
        return k == MeasureFailKind::VerifyRejected ? 1 : 0;
      };
      if (first_fail_reason_.empty() || rank(kind) > rank(first_fail_kind_)) {
        first_fail_reason_ =
            e->fail_note.empty() ? "measurement failed" : e->fail_note;
        first_fail_kind_ = kind;
      }
    } else {
      est_meas_.emplace_back(e->est, e->meas_time);
    }
  }
  if (opt_.progress) {
    opt_.progress->measurements.fetch_add(
        static_cast<int>(fresh_entries.size()), std::memory_order_relaxed);
  }
}

void Tuner::drop_stashed_schedules() {
  for (auto& [key, e] : cache_) e.sched.reset();
}

CandidateConfig Tuner::random_candidate() {
  const auto& cands = space_.candidates();
  MCF_CHECK(!cands.empty()) << "empty search space";
  std::uniform_int_distribution<std::size_t> pick(0, cands.size() - 1);
  return cands[pick(rng_)];
}

CandidateConfig Tuner::mutate(const CandidateConfig& parent) {
  const auto& chain = space_.chain();
  for (int attempt = 0; attempt < 8; ++attempt) {
    CandidateConfig c = parent;
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    if (coin(rng_) < opt_.expr_mutation_prob &&
        space_.expressions().size() > 1) {
      std::uniform_int_distribution<int> pick(
          0, static_cast<int>(space_.expressions().size()) - 1);
      c.expr_id = pick(rng_);
    } else {
      // Move one loop's tile to a neighbouring option.
      std::uniform_int_distribution<int> pick_loop(0, chain.num_loops() - 1);
      const int l = pick_loop(rng_);
      const auto& opts = space_.tile_options_r3()[static_cast<std::size_t>(l)];
      if (opts.size() < 2) continue;
      const auto cur = std::find(opts.begin(), opts.end(),
                                 c.tiles[static_cast<std::size_t>(l)]);
      std::size_t idx = cur == opts.end()
                            ? 0
                            : static_cast<std::size_t>(cur - opts.begin());
      const bool up = coin(rng_) < 0.5;
      if (up && idx + 1 < opts.size()) ++idx;
      else if (!up && idx > 0) --idx;
      else continue;
      c.tiles[static_cast<std::size_t>(l)] = opts[idx];
    }
    // Rules verdict via grid membership — no schedule build (the schedule
    // is built once later, in the parallel estimate phase).
    if (space_.contains(c)) return c;
  }
  return random_candidate();
}

TunedResult Tuner::run() {
  const auto t_start = std::chrono::steady_clock::now();
  auto lap = [prev = t_start]() mutable {
    const auto now = std::chrono::steady_clock::now();
    const double dt = std::chrono::duration<double>(now - prev).count();
    prev = now;
    return dt;
  };
  TunedResult result;
  auto cancelled = [&] {
    return opt_.progress && opt_.progress->cancel_requested();
  };
  // Every exit path reports the real wall-clock spent — failed and
  // cancelled runs burn time too, and the engine's tuning-economy
  // counters must not undercount exactly the expensive failures.
  auto stamp_wall = [&] {
    stats_.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t_start)
                              .count();
  };
  const auto& cands = space_.candidates();
  if (cands.empty()) {
    MCF_LOG(Warn) << "tuner: empty search space for " << space_.chain().name();
    result.fail_reason = "empty search space";
    stamp_wall();
    result.stats = stats_;
    return result;
  }
  if (cancelled()) {
    result.cancelled = true;
    result.fail_reason = "cancelled before tuning started";
    stamp_wall();
    result.stats = stats_;
    return result;
  }

  // Line 1: initial population — stratified by expression class (every
  // sub-tiling structure gets equal sampling density, so a restricted
  // subspace is never searched more densely than the full space), half
  // analytically screened, half random.  The oversampled draws are scored
  // in one parallel batch; ties break on draw order (seed-stable).
  const int n = std::min<int>(opt_.population, static_cast<int>(cands.size()));
  std::vector<CandidateConfig> population;
  // Estimates ride along with the population so survivors are never
  // re-scored: only fresh mutants (NaN slots) enter the next batch.
  constexpr double kUnscored = -1.0;
  std::vector<double> pop_est;
  {
    std::vector<std::vector<std::size_t>> by_expr(space_.expressions().size());
    for (std::size_t i = 0; i < cands.size(); ++i) {
      by_expr[static_cast<std::size_t>(cands[i].expr_id)].push_back(i);
    }
    std::size_t nonempty = 0;
    for (const auto& b : by_expr) nonempty += b.empty() ? 0 : 1;
    const int quota = std::max(1, n / 2 / std::max<int>(1, static_cast<int>(nonempty)));
    // Serial RNG draws (bucket boundaries recorded), one batched scoring.
    std::vector<CandidateConfig> draws;
    std::vector<std::size_t> bucket_begin;
    for (const auto& bucket : by_expr) {
      if (bucket.empty()) continue;
      bucket_begin.push_back(draws.size());
      std::uniform_int_distribution<std::size_t> pick(0, bucket.size() - 1);
      const int oversample =
          std::min<int>(8 * quota, static_cast<int>(bucket.size()));
      for (int i = 0; i < oversample; ++i) {
        draws.push_back(cands[bucket[pick(rng_)]]);
      }
    }
    bucket_begin.push_back(draws.size());
    const std::vector<double> draw_est = estimate_batch(draws);
    population.reserve(static_cast<std::size_t>(n));
    for (std::size_t b = 0; b + 1 < bucket_begin.size(); ++b) {
      std::vector<std::pair<double, std::size_t>> local;
      local.reserve(bucket_begin[b + 1] - bucket_begin[b]);
      for (std::size_t i = bucket_begin[b]; i < bucket_begin[b + 1]; ++i) {
        local.emplace_back(draw_est[i], i);
      }
      std::sort(local.begin(), local.end());
      for (int i = 0; i < quota && i < static_cast<int>(local.size()); ++i) {
        if (static_cast<int>(population.size()) >= n) break;
        population.push_back(draws[local[static_cast<std::size_t>(i)].second]);
        pop_est.push_back(local[static_cast<std::size_t>(i)].first);
      }
    }
    while (static_cast<int>(population.size()) < n) {
      population.push_back(random_candidate());
      pop_est.push_back(kUnscored);
    }
  }
  stats_.seed_seconds += lap();

  double best_t = kFailedTime;
  CandidateConfig best_cand;
  KernelMeasurement best_meas;

  // Hoisted per-generation working vectors (reserved once).
  std::vector<std::pair<double, std::size_t>> scored;
  std::vector<double> weights;
  scored.reserve(population.size());
  weights.reserve(population.size());

  for (int gen = 0; gen < opt_.max_generations; ++gen) {
    if (cancelled()) {
      result.cancelled = true;
      result.fail_reason = "cancelled during generation " +
                           std::to_string(stats_.generations);
      stamp_wall();
      result.stats = stats_;
      return result;
    }
    ++stats_.generations;
    if (opt_.progress) {
      opt_.progress->generations.fetch_add(1, std::memory_order_relaxed);
    }
    // Lines 5-6: estimate the whole population in one parallel batch and
    // sort by the analytical model; equal estimates keep population order
    // (index tie-break), so the ranking is thread-count independent.
    (void)lap();
    {
      // Batch-score only the unscored slots (fresh mutants / randoms).
      std::vector<CandidateConfig> need_cs;
      std::vector<std::size_t> need_idx;
      for (std::size_t i = 0; i < population.size(); ++i) {
        if (pop_est[i] == kUnscored) {
          need_cs.push_back(population[i]);
          need_idx.push_back(i);
        }
      }
      const std::vector<double> need_est = estimate_batch(need_cs);
      for (std::size_t j = 0; j < need_idx.size(); ++j) {
        pop_est[need_idx[j]] = need_est[j];
      }
    }
    scored.clear();
    for (std::size_t i = 0; i < population.size(); ++i) {
      scored.emplace_back(pop_est[i], i);
    }
    std::sort(scored.begin(), scored.end());
    stats_.estimate_seconds += lap();

    // Lines 7-9: measure the top-k in concurrent waves, tracking the
    // generation's best.  Known lowering failures (the paper's
    // quadrant-II candidates, rejected during PTX compilation) don't use
    // up top-k slots: the selection walks further down the analytical
    // ranking.  Results are committed in rank order, so the outcome
    // matches a serial walk measuring one candidate at a time (modulo a
    // few extra cached measurements at the wave tail).
    double top1_t = kFailedTime;
    CandidateConfig top1_cand;
    const int k = std::min<int>(opt_.topk, static_cast<int>(scored.size()));
    int taken = 0;
    const std::size_t attempt_cap =
        std::min<std::size_t>(scored.size(), 4u * static_cast<std::size_t>(k));
    // Every ranked candidate is queued — cached or fresh — and committed
    // strictly in rank order at flush time; only the fresh queue members
    // actually hit the simulator (concurrently).  A flush fires as soon
    // as the queue *could* fill the remaining top-k slots (queued cached
    // successes count toward that), and unconditionally at the end — so
    // the set of candidates measured is exactly the prefix a serial walk
    // measuring one candidate at a time would have measured.
    std::vector<std::size_t> wave;  // queued positions, in rank order
    std::vector<CandidateConfig> wave_cs;
    std::vector<std::uint64_t> wave_keys;
    int wave_fresh = 0;      // queued, needs measuring
    int wave_cached_ok = 0;  // queued, already measured, takes a slot
    auto flush = [&] {
      if (wave.empty()) return;
      measure_batch(wave_cs, wave_keys);
      for (std::size_t idx = 0; idx < wave.size(); ++idx) {
        const EvalEntry& e = cache_[wave_keys[idx]];
        if (e.meas_time >= kFailedThreshold) continue;  // failure: no slot
        ++taken;
        if (e.meas_time < top1_t) {
          top1_t = e.meas_time;
          top1_cand = population[scored[wave[idx]].second];
        }
      }
      wave.clear();
      wave_cs.clear();
      wave_keys.clear();
      wave_fresh = 0;
      wave_cached_ok = 0;
    };
    for (std::size_t pos = 0; pos < attempt_cap && taken < k; ++pos) {
      const CandidateConfig& c = population[scored[pos].second];
      const std::uint64_t key = candidate_key(c);
      const EvalEntry& e = cache_[key];
      wave.push_back(pos);
      wave_cs.push_back(c);
      wave_keys.push_back(key);
      if (!e.measured) {
        ++wave_fresh;
      } else if (e.meas_time < kFailedThreshold) {
        ++wave_cached_ok;
      }
      if (wave_fresh >= k - taken - wave_cached_ok) flush();
    }
    flush();
    stats_.measure_seconds += lap();

    // Lines 10-12: convergence — stop once a generation's best measured
    // candidate no longer improves the incumbent by more than epsilon.
    const double improvement = (best_t - top1_t) / std::max(best_t, 1e-12);
    if (top1_t < best_t) {
      best_t = top1_t;
      best_cand = top1_cand;
    }
    if (best_t < kFailedThreshold && gen + 1 >= opt_.min_generations &&
        improvement < opt_.epsilon) {
      break;
    }

    // Line 17: next population, fitness-weighted mutation with elitism
    // (the incumbent always survives so the search can refine around it).
    // Schedules stashed for this generation are dropped first: mutation
    // refills the stash with next generation's children.
    drop_stashed_schedules();
    weights.clear();
    for (const auto& [est_t, idx] : scored) {
      weights.push_back(1.0 / std::max(est_t, 1e-12));
    }
    // scored is sorted by estimate; the weight list is aligned with it.
    std::discrete_distribution<std::size_t> pick(weights.begin(), weights.end());
    std::vector<CandidateConfig> next;
    std::vector<double> next_est;
    next.reserve(population.size());
    next_est.reserve(population.size());
    if (best_t < kFailedThreshold) {
      next.push_back(best_cand);
      next_est.push_back(estimate(best_cand));
      next.push_back(mutate(best_cand));
      next_est.push_back(kUnscored);
    }
    while (next.size() < population.size()) {
      const auto& parent = population[scored[pick(rng_)].second];
      next.push_back(mutate(parent));
      next_est.push_back(kUnscored);
    }
    population = std::move(next);
    pop_est = std::move(next_est);
    stats_.mutate_seconds += lap();
  }

  // Refinement: hill-climb over the single-step tile neighbours of the
  // winner (estimate-filtered, measuring only promising moves).
  if (best_t < kFailedThreshold) {
    bool improved = true;
    int refine_rounds = 0;
    while (improved && refine_rounds++ < 4) {
      // Refinement is part of tuning: a cancel here reports Cancelled
      // rather than returning a silently-truncated (timing-dependent)
      // refinement as Ok.
      if (cancelled()) {
        result.cancelled = true;
        result.fail_reason = "cancelled during refinement";
        stamp_wall();
        result.stats = stats_;
        return result;
      }
      improved = false;
      const CandidateConfig base = best_cand;
      const double base_est = estimate(base);  // hoisted out of the move loop
      std::vector<CandidateConfig> moves;
      // Expression sweep: the winner's tiles under every other structure.
      for (int e = 0; e < static_cast<int>(space_.expressions().size()); ++e) {
        if (e == base.expr_id) continue;
        CandidateConfig c = base;
        c.expr_id = e;
        moves.push_back(std::move(c));
      }
      // Single-step tile moves.
      for (int l = 0; l < space_.chain().num_loops(); ++l) {
        const auto& opts = space_.tile_options_r3()[static_cast<std::size_t>(l)];
        const auto cur = std::find(opts.begin(), opts.end(),
                                   base.tiles[static_cast<std::size_t>(l)]);
        if (cur == opts.end()) continue;
        const std::size_t idx = static_cast<std::size_t>(cur - opts.begin());
        for (const int dir : {-1, +1}) {
          if ((dir < 0 && idx == 0) || (dir > 0 && idx + 1 >= opts.size())) continue;
          CandidateConfig c = base;
          c.tiles[static_cast<std::size_t>(l)] = opts[idx + static_cast<std::size_t>(dir)];
          moves.push_back(std::move(c));
        }
      }
      // Rules, estimates, then one concurrent measurement wave over the
      // promising moves; folding in move order keeps the outcome
      // deterministic for any thread count.
      std::vector<CandidateConfig> promising;
      std::vector<std::uint64_t> promising_keys;
      for (auto& c : moves) {
        if (!space_.contains(c)) continue;
        if (estimate(c) > 1.2 * base_est) continue;  // clearly worse
        promising_keys.push_back(candidate_key(c));
        promising.push_back(std::move(c));
      }
      measure_batch(promising, promising_keys);
      for (std::size_t i = 0; i < promising.size(); ++i) {
        const EvalEntry& e = cache_[promising_keys[i]];
        if (e.meas_time < best_t) {
          best_t = e.meas_time;
          best_cand = promising[i];
          improved = true;
        }
      }
      drop_stashed_schedules();
    }
  }

  if (best_t >= kFailedThreshold) {
    MCF_LOG(Warn) << "tuner: no measurable candidate for "
                  << space_.chain().name();
    result.fail_reason = first_fail_reason_.empty()
                             ? "no candidate measured successfully"
                             : "no candidate measured successfully (first "
                               "failure: " + first_fail_reason_ + ")";
    result.fail_kind = first_fail_kind_;
    stamp_wall();
    result.stats = stats_;
    return result;
  }
  // Re-measure the winner to fill the full measurement record.
  const Schedule s = space_.schedule_for(best_cand);
  best_meas = backend_->measure(s, opt_.measure);
  drop_stashed_schedules();

  result.ok = true;
  result.best = best_cand;
  result.best_time_s = best_t;
  result.best_measurement = best_meas;
  stamp_wall();
  result.stats = stats_;
  result.est_vs_measured = std::move(est_meas_);
  return result;
}

}  // namespace mcf

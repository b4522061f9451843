// Minimal work-stealing-free thread pool used by the functional interpreter
// (one task per simulated thread block), the jit's block fan-out, the
// reference tensor ops, and the tuner's batched candidate evaluation.
//
// Design notes (C++ Core Guidelines CP.*): the pool owns its threads (RAII),
// tasks are plain std::function<void()>, parallel_for blocks until all
// chunks complete and rethrows the first captured exception.
//
// Fan-out: a call cuts its range into chunks that threads claim from an
// atomic counter.  The calling thread claims chunks too, so a call never
// waits for a worker to wake, and the pool wakes one worker per helper it
// can use (at most chunks - 1), not all of them.
//
// Worker slots: every pool worker has a fixed index in [0, size()); a
// caller from outside the pool uses slot size() on every call, whether it
// drains beside the workers or runs the whole range inline (a one-chunk
// call, a one-worker pool).  Nested calls from inside a chunk run inline
// on the slot of the thread that runs that chunk.  parallel_for_slots
// hands the slot to the body so callers can keep per-worker scratch state
// — at most one task runs per slot at any time within a single
// parallel_for_slots call.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "support/mutex.hpp"

namespace mcf {

class ThreadPool {
 public:
  /// Spawns `threads` workers.  0 means: the MCF_NUM_THREADS environment
  /// variable if set, otherwise hardware concurrency (at least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Number of distinct worker slots a parallel_for_slots call can touch:
  /// the pool workers plus the calling thread.
  [[nodiscard]] unsigned concurrency() const noexcept { return size() + 1; }

  /// Runs body(i) for i in [0, n) across the pool and the calling thread;
  /// blocks until done.  Chunked adaptively (up to 4 chunks per slot, at
  /// least `grain` items per chunk); rethrows the first exception raised
  /// by any chunk.  A call of c chunks runs on at most c threads.
  void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& body,
                    std::int64_t grain = 1);

  /// Like parallel_for, but hands the body the executing worker slot
  /// (< concurrency()).  Within one call, no two concurrently running
  /// chunks share a slot, so slot-indexed scratch needs no locking.
  void parallel_for_slots(
      std::int64_t n,
      const std::function<void(unsigned, std::int64_t)>& body,
      std::int64_t grain = 1);

  /// Map-reduce over [0, n): each slot folds into its own accumulator
  /// (seeded with `identity`), then the per-slot partials are combined in
  /// ascending slot order on the calling thread.  Deterministic whenever
  /// `combine` is associative and commutative over the map results (true
  /// for exact sums, counters, min/max); floating-point sums that round
  /// may differ run-to-run under different chunk placements.
  ///   map(slot, i, acc): fold index i into acc (slot < concurrency(),
  ///                      for callers that also keep per-slot scratch)
  ///   combine(into, from)
  template <typename T, typename Map, typename Combine>
  [[nodiscard]] T parallel_for_reduce(std::int64_t n, T identity, Map&& map,
                                      Combine&& combine, std::int64_t grain = 1) {
    struct alignas(64) Slot {
      T value;
    };
    std::vector<Slot> slots(concurrency(), Slot{identity});
    parallel_for_slots(
        n,
        [&](unsigned slot, std::int64_t i) { map(slot, i, slots[slot].value); },
        grain);
    T total = std::move(identity);
    for (auto& s : slots) combine(total, s.value);
    return total;
  }

  /// Process-wide pool (lazily constructed; sized per MCF_NUM_THREADS or
  /// hardware concurrency).
  static ThreadPool& global();

 private:
  void worker_loop(unsigned index);

  std::vector<std::thread> workers_;
  Mutex mutex_{"pool.queue"};
  std::queue<std::function<void()>> tasks_ MCF_GUARDED_BY(mutex_);
  CondVar cv_;
  bool stop_ MCF_GUARDED_BY(mutex_) = false;
};

}  // namespace mcf

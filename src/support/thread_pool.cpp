#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "support/env.hpp"
#include "support/logging.hpp"

namespace mcf {

namespace {

/// Identity of the pool slot running the current thread (nullptr outside
/// any pool).  Set for good on a worker, and on a calling thread only
/// while it drains its own call's chunks: nested parallel_for calls from
/// inside a chunk run inline on that slot instead of waiting on the queue
/// their own thread occupies.
struct WorkerIdentity {
  const ThreadPool* pool = nullptr;
  unsigned index = 0;
};
thread_local WorkerIdentity t_worker;

unsigned env_thread_count() {
  // 512 is far above any sane worker count, far below where std::thread
  // spawning starts failing; 0 ("unset") falls through to hardware
  // concurrency in the constructor.  A malformed or out-of-range value
  // warns and degrades to that default — it never crashes.
  return static_cast<unsigned>(env::int64("MCF_NUM_THREADS", 0, 1, 512));
}

using SlotBody = std::function<void(unsigned, std::int64_t)>;

/// Join state of one parallel_for_slots call.  Heap-held and shared with
/// every helper task, because a helper may run after the call returned:
/// a worker that wakes once all chunks are claimed only bumps `next` and
/// leaves.  `body` belongs to the caller and is dereferenced only under a
/// successful claim — an unfinished chunk keeps the caller waiting, so
/// the body is alive.
struct ForJob {
  ForJob(const SlotBody& b, std::int64_t n_items, std::int64_t n_chunks)
      : body(b), n(n_items), chunks(n_chunks) {}

  /// Claims chunks and runs them on `slot` until none are left.
  void drain(unsigned slot) {
    for (;;) {
      const std::int64_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const std::int64_t lo = c * n / chunks;
      const std::int64_t hi = (c + 1) * n / chunks;
      try {
        for (std::int64_t i = lo; i < hi; ++i) body(slot, i);
      } catch (...) {
        const LockGuard elock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      // Only the last chunk touches the wait mutex.  The waiter's
      // predicate reads `complete`, never the atomic, and the notify
      // happens while the mutex is held: the caller cannot see
      // completion and return (ending `body`'s life) before this thread
      // is done signalling.  Past the increment this thread touches
      // only the heap-held counters — `StackReuseChurn` pins the race a
      // stack-held join state once had here.
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        const LockGuard dlock(done_mutex);
        complete = true;
        done_cv.notify_one();
      }
    }
  }

  /// Blocks until every chunk finished, then rethrows the first error.
  void wait() {
    {
      UniqueLock lock(done_mutex);
      done_cv.wait(lock, [this] {
        done_mutex.assert_held();
        return complete;
      });
    }
    // Every chunk is done, so no thread can touch first_error any more;
    // the analysis doesn't know that — take the (uncontended) lock.
    const LockGuard elock(error_mutex);
    if (first_error) std::rethrow_exception(first_error);
  }

  const SlotBody& body;
  const std::int64_t n;
  const std::int64_t chunks;
  std::atomic<std::int64_t> next{0};  ///< next unclaimed chunk
  std::atomic<std::int64_t> done{0};  ///< chunks finished
  Mutex error_mutex{"pool.for.error"};
  Mutex done_mutex{"pool.for.done"};
  bool complete MCF_GUARDED_BY(done_mutex) = false;  // the ONLY wait signal
  std::exception_ptr first_error MCF_GUARDED_BY(error_mutex);
  CondVar done_cv;
};

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = env_thread_count();
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const LockGuard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(unsigned index) {
  t_worker = WorkerIdentity{this, index};
  for (;;) {
    std::function<void()> task;
    {
      UniqueLock lock(mutex_);
      cv_.wait(lock, [this] {
        mutex_.assert_held();
        return stop_ || !tasks_.empty();
      });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::int64_t n,
                              const std::function<void(std::int64_t)>& body,
                              std::int64_t grain) {
  parallel_for_slots(
      n, [&body](unsigned, std::int64_t i) { body(i); }, grain);
}

void ThreadPool::parallel_for_slots(std::int64_t n, const SlotBody& body,
                                    std::int64_t grain) {
  if (n <= 0) return;
  // Adaptive chunking: enough chunks for balance (4 per slot), never more
  // than one chunk per `grain` items so tiny bodies amortise the claim.
  grain = std::max<std::int64_t>(grain, 1);
  const std::int64_t chunks = std::min<std::int64_t>(
      {n, static_cast<std::int64_t>(concurrency()) * 4,
       std::max<std::int64_t>(1, n / grain)});
  if (chunks <= 1 || size() <= 1 || t_worker.pool != nullptr) {
    // The slot of the thread that runs the body: its own when this call
    // is nested inside one of our chunks, the caller slot size() otherwise.
    const unsigned slot = t_worker.pool == this ? t_worker.index : size();
    for (std::int64_t i = 0; i < n; ++i) body(slot, i);
    return;
  }

  // One helper per worker that can find a chunk the caller has not
  // claimed, each with its own wake: a worker woken with nothing to claim
  // only takes CPU time from the threads running chunks.
  const auto job = std::make_shared<ForJob>(body, n, chunks);
  const std::int64_t helpers =
      std::min<std::int64_t>(static_cast<std::int64_t>(size()), chunks - 1);
  {
    const LockGuard lock(mutex_);
    for (std::int64_t h = 0; h < helpers; ++h) {
      tasks_.push([job] { job->drain(t_worker.index); });
    }
  }
  for (std::int64_t h = 0; h < helpers; ++h) cv_.notify_one();

  // The caller drains on slot size() instead of parking, so chunks never
  // wait for a worker that wakes late — or that is busy elsewhere.
  t_worker = WorkerIdentity{this, size()};
  job->drain(size());
  t_worker = WorkerIdentity{};
  job->wait();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace mcf

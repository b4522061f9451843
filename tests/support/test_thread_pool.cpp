#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mcf {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForSingleItemRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(1, [&](std::int64_t) { count++; });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(8);
  std::vector<std::int64_t> contrib(10000, 0);
  pool.parallel_for(10000, [&](std::int64_t i) { contrib[static_cast<std::size_t>(i)] = i; });
  const auto total = std::accumulate(contrib.begin(), contrib.end(), std::int64_t{0});
  EXPECT_EQ(total, 10000LL * 9999 / 2);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool& pool = ThreadPool::global();
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::int64_t) {
    ThreadPool::global().parallel_for(8, [&](std::int64_t) { count++; });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::int64_t i) {
                          if (i == 31) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(ThreadPool, SlotsAreInRangeAndCoverEveryIndex) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(500);
  std::atomic<bool> slot_ok{true};
  pool.parallel_for_slots(500, [&](unsigned slot, std::int64_t i) {
    if (slot >= pool.concurrency()) slot_ok = false;
    hits[static_cast<std::size_t>(i)]++;
  });
  EXPECT_TRUE(slot_ok.load());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SlotsAreExclusiveWhileRunning) {
  // No two concurrently running chunks may share a slot: per-slot scratch
  // must be safe without locks.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> active(pool.concurrency());
  std::atomic<bool> exclusive{true};
  pool.parallel_for_slots(256, [&](unsigned slot, std::int64_t) {
    if (active[slot].fetch_add(1) != 0) exclusive = false;
    active[slot].fetch_sub(1);
  });
  EXPECT_TRUE(exclusive.load());
}

TEST(ThreadPool, ParallelForReduceSumsExactly) {
  ThreadPool pool(4);
  const auto total = pool.parallel_for_reduce<std::int64_t>(
      10000, 0,
      [](unsigned, std::int64_t i, std::int64_t& acc) { acc += i; },
      [](std::int64_t& into, const std::int64_t& from) { into += from; });
  EXPECT_EQ(total, 10000LL * 9999 / 2);
}

TEST(ThreadPool, ParallelForReduceEmptyRangeIsIdentity) {
  ThreadPool pool(2);
  const auto total = pool.parallel_for_reduce<int>(
      0, 0,
      [](unsigned, std::int64_t, int&) { FAIL() << "body ran on empty range"; },
      [](int& into, const int& from) { into += from; });
  EXPECT_EQ(total, 0);
}

TEST(ThreadPool, GrainLimitsChunkCount) {
  // With grain >= n the whole range must run as one chunk (inline, on the
  // caller slot) — observable via the slot handed to the body.
  ThreadPool pool(4);
  std::vector<unsigned> slots(64, 1234u);
  pool.parallel_for_slots(
      64, [&](unsigned slot, std::int64_t i) { slots[static_cast<std::size_t>(i)] = slot; },
      64);
  for (const unsigned s : slots) EXPECT_EQ(s, pool.size());
}

TEST(ThreadPool, StackReuseChurn) {
  // Pins a TSan finding: a non-final chunk used to read the completion
  // target from the stack-allocated ForState AFTER its own done counter
  // increment — past that increment the final chunk can complete, wake
  // the caller, and let the NEXT parallel_for reuse the same stack
  // bytes, so the straggler read raced the successor's construction.
  // Back-to-back tiny calls from alternating stack depths maximise the
  // frame reuse; the race itself is caught by the CI TSan lane running
  // this test.
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(3, [&](std::int64_t i) { total += i; }, 1);
    [&]() noexcept {  // different frame offset for the ForState
      pool.parallel_for(2, [&](std::int64_t i) { total += i; }, 1);
    }();
  }
  EXPECT_EQ(total.load(), 200 * (3 + 1));
}

TEST(ThreadPool, NestedCallReusesWorkerSlot) {
  ThreadPool pool(4);
  std::atomic<bool> ok{true};
  pool.parallel_for_slots(8, [&](unsigned outer_slot, std::int64_t) {
    pool.parallel_for_slots(4, [&](unsigned inner_slot, std::int64_t) {
      if (inner_slot != outer_slot) ok = false;
    });
  });
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPool, CallerRunsChunksWhileWorkersAreBusy) {
  // The caller drains its own call's chunks on slot size(): with every
  // worker held on a gate, the call must still run every index, all on
  // the caller slot, before a watchdog opens the gate.  A caller that
  // parks until a worker takes its chunks cannot return before then.
  ThreadPool pool(2);
  std::atomic<bool> gate_open{false};
  std::atomic<unsigned> workers_held{0};
  std::thread holder([&] {
    pool.parallel_for_slots(pool.concurrency(), [&](unsigned slot, std::int64_t) {
      if (slot < pool.size()) workers_held.fetch_add(1);
      while (!gate_open.load()) std::this_thread::yield();
    });
  });
  std::thread watchdog([&] {
    for (int i = 0; i < 200 && !gate_open.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    gate_open = true;
  });
  while (workers_held.load() < pool.size() && !gate_open.load()) {
    std::this_thread::yield();
  }

  std::vector<unsigned> slots(8, 1234u);
  std::vector<char> ran_while_held(8, 0);
  pool.parallel_for_slots(8, [&](unsigned slot, std::int64_t i) {
    slots[static_cast<std::size_t>(i)] = slot;
    ran_while_held[static_cast<std::size_t>(i)] = gate_open.load() ? 0 : 1;
  });
  gate_open = true;
  watchdog.join();
  holder.join();
  EXPECT_EQ(workers_held.load(), pool.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], pool.size()) << "index " << i;
    EXPECT_TRUE(ran_while_held[i]) << "index " << i << " ran after the watchdog";
  }
}

TEST(ThreadPool, ChunkCountCapsParticipatingThreads) {
  // A call of c chunks runs on at most c threads: jit::run_compiled's
  // `threads = T` cap rests on this.
  ThreadPool pool(4);
  for (std::int64_t chunks = 1; chunks <= 6; ++chunks) {
    std::mutex mu;
    std::set<std::thread::id> ids;
    std::set<unsigned> slots;
    pool.parallel_for_slots(chunks, [&](unsigned slot, std::int64_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      const std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
      slots.insert(slot);
    });
    EXPECT_LE(ids.size(), static_cast<std::size_t>(chunks)) << "chunks=" << chunks;
    EXPECT_EQ(slots.size(), ids.size()) << "chunks=" << chunks;
    for (const unsigned s : slots) EXPECT_LT(s, pool.concurrency());
  }
}

}  // namespace
}  // namespace mcf

// FusionEngine unit tests: the FusionStatus taxonomy (every failure layer
// mapped and carrying a reason), ticket lifecycle (submit / ready / wait /
// progress / cancel), deterministic results under concurrent submission,
// admission control (bounded queue, overflow policies, deadlines), the
// shutdown drain, and a many-producer stress suite (the ASan/UBSan CI
// config exercises all the threading).
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "measure/backend.hpp"

namespace mcf {
namespace {

ChainSpec small_chain(const std::string& name = "q") {
  return ChainSpec::gemm_chain(name, 2, 128, 96, 64, 80);
}

/// Small search budget: admission/stress tests care about queue
/// mechanics, not search quality.
FusionEngineOptions cheap_options() {
  FusionEngineOptions o;
  o.tuner.population = 16;
  o.tuner.topk = 2;
  o.tuner.min_generations = 1;
  o.tuner.max_generations = 2;
  return o;
}

/// Backend whose measure() blocks until release(): deterministic control
/// over worker occupancy (a "running" job stays running exactly as long
/// as the test needs).
class GatedBackend : public MeasureBackend {
 public:
  explicit GatedBackend(GpuSpec spec) : sim_(std::move(spec)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "gated"; }
  [[nodiscard]] const GpuSpec& spec() const noexcept override { return sim_.spec(); }
  [[nodiscard]] bool deterministic() const noexcept override { return true; }

  [[nodiscard]] KernelMeasurement measure(
      const Schedule& s, const MeasureOptions& options) const override {
    {
      std::unique_lock<std::mutex> lk(mu_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lk, [&] { return open_; });
    }
    return sim_.measure(s, options);
  }
  [[nodiscard]] KernelMeasurement measure_raw(
      double bytes, double flops, std::int64_t n_blocks,
      std::int64_t smem_bytes, double mem_eff, double comp_eff,
      double stmt_trips, const MeasureOptions& options) const override {
    return sim_.measure_raw(bytes, flops, n_blocks, smem_bytes, mem_eff,
                            comp_eff, stmt_trips, options);
  }

  /// Blocks until some measure() call is inside the gate (the job
  /// holding it is provably running, not queued).
  void wait_entered() const {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return entered_; });
  }
  /// Timed variant: false when nothing entered within `seconds` (tests
  /// that could otherwise hang use this and skip instead).
  [[nodiscard]] bool wait_entered_for(double seconds) const {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, std::chrono::duration<double>(seconds),
                        [&] { return entered_; });
  }
  void release() const {
    std::lock_guard<std::mutex> lk(mu_);
    open_ = true;
    cv_.notify_all();
  }
  /// Re-arms the gate: the next measure() blocks again.
  void close() const {
    std::lock_guard<std::mutex> lk(mu_);
    open_ = false;
    entered_ = false;
  }

 private:
  TimingSimulator sim_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool entered_ = false;
  mutable bool open_ = false;
};

/// Backend whose every measurement fails — drives the MeasureFailed path.
class FailingBackend : public MeasureBackend {
 public:
  explicit FailingBackend(GpuSpec spec) : sim_(std::move(spec)) {}
  [[nodiscard]] std::string_view name() const noexcept override { return "failing"; }
  [[nodiscard]] const GpuSpec& spec() const noexcept override { return sim_.spec(); }
  [[nodiscard]] bool deterministic() const noexcept override { return true; }
  [[nodiscard]] KernelMeasurement measure(
      const Schedule&, const MeasureOptions&) const override {
    KernelMeasurement m;
    m.ok = false;
    m.fail_reason = "injected backend failure";
    return m;
  }
  [[nodiscard]] KernelMeasurement measure_raw(
      double bytes, double flops, std::int64_t n_blocks,
      std::int64_t smem_bytes, double mem_eff, double comp_eff,
      double stmt_trips, const MeasureOptions& options) const override {
    return sim_.measure_raw(bytes, flops, n_blocks, smem_bytes, mem_eff,
                            comp_eff, stmt_trips, options);
  }

 private:
  TimingSimulator sim_;
};

TEST(FusionStatusTest, NamesAreStable) {
  EXPECT_STREQ(fusion_status_name(FusionStatus::Ok), "ok");
  EXPECT_STREQ(fusion_status_name(FusionStatus::InvalidChain), "invalid-chain");
  EXPECT_STREQ(fusion_status_name(FusionStatus::InfeasibleSpace),
               "infeasible-space");
  EXPECT_STREQ(fusion_status_name(FusionStatus::PruneEmpty), "prune-empty");
  EXPECT_STREQ(fusion_status_name(FusionStatus::MeasureFailed),
               "measure-failed");
  EXPECT_STREQ(fusion_status_name(FusionStatus::Cancelled), "cancelled");
  EXPECT_STREQ(fusion_status_name(FusionStatus::Rejected), "rejected");
  EXPECT_STREQ(fusion_status_name(FusionStatus::DeadlineExceeded),
               "deadline-exceeded");
  EXPECT_STREQ(overflow_policy_name(OverflowPolicy::Reject), "reject");
  EXPECT_STREQ(overflow_policy_name(OverflowPolicy::Block), "block");
  EXPECT_STREQ(overflow_policy_name(OverflowPolicy::ReplaceOldest),
               "replace-oldest");
}

TEST(FusionEngineTest, FusesAndReportsOk) {
  const FusionEngine engine(a100());
  const FusionResult r = engine.fuse(small_chain());
  EXPECT_EQ(r.status, FusionStatus::Ok);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.reason.empty());
  ASSERT_TRUE(r.kernel.has_value());
  EXPECT_GT(r.time_s(), 0.0);
}

TEST(FusionEngineTest, InvalidChainNamesOffendingField) {
  const FusionEngine engine(a100());
  const FusionResult r = engine.fuse(ChainSpec("bad", 0, 128, {64, 64}));
  EXPECT_EQ(r.status, FusionStatus::InvalidChain);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.reason.find("batch"), std::string::npos) << r.reason;

  const FusionResult r2 = engine.fuse(ChainSpec("bad2", 1, 128, {64, -3}));
  EXPECT_EQ(r2.status, FusionStatus::InvalidChain);
  EXPECT_NE(r2.reason.find("inner[1]"), std::string::npos) << r2.reason;
}

TEST(FusionEngineTest, InfeasibleSpaceWhenNoExpressions) {
  FusionEngineOptions opts;
  opts.space.include_flat = false;
  opts.space.include_deep = false;  // no tiling expressions at all
  const FusionEngine engine(a100(), opts);
  const FusionResult r = engine.fuse(small_chain());
  EXPECT_EQ(r.status, FusionStatus::InfeasibleSpace);
  EXPECT_FALSE(r.reason.empty());
}

TEST(FusionEngineTest, PruneEmptyCarriesFunnel) {
  // A GPU with essentially no shared memory: rule 4 prunes everything.
  GpuSpec tiny = a100();
  tiny.name = "tiny-smem";
  tiny.smem_per_block = 16;
  const FusionEngine engine(tiny);
  const FusionResult r = engine.fuse(small_chain());
  EXPECT_EQ(r.status, FusionStatus::PruneEmpty);
  EXPECT_GT(r.funnel.original, 0.0);
  EXPECT_EQ(r.space_size, 0u);
  EXPECT_NE(r.reason.find("pruning left 0"), std::string::npos) << r.reason;
}

TEST(FusionEngineTest, MeasureFailedCarriesBackendReason) {
  FusionEngineOptions opts;
  opts.tuner.backend = std::make_shared<FailingBackend>(a100());
  const FusionEngine engine(a100(), opts);
  const FusionResult r = engine.fuse(small_chain());
  EXPECT_EQ(r.status, FusionStatus::MeasureFailed);
  EXPECT_NE(r.reason.find("injected backend failure"), std::string::npos)
      << r.reason;
}

TEST(FusionEngineTest, PreCancelledProgressYieldsCancelled) {
  const FusionEngine engine(a100());
  auto progress = std::make_shared<TuningProgress>();
  progress->request_cancel();
  const FusionResult r = engine.fuse(small_chain(), progress);
  EXPECT_EQ(r.status, FusionStatus::Cancelled);
  EXPECT_FALSE(r.reason.empty());
}

TEST(FusionTicketTest, EmptyTicketIsInert) {
  FusionTicket t;
  EXPECT_FALSE(t.valid());
  EXPECT_FALSE(t.ready());
  EXPECT_FALSE(t.cancel());
  const FusionTicket::Progress p = t.progress();
  EXPECT_FALSE(p.started);
  EXPECT_FALSE(p.done);
}

TEST(FusionTicketTest, SubmitWaitReadyAndProgress) {
  FusionEngineOptions opts;
  opts.jobs = 1;
  FusionEngine engine(a100(), opts);
  FusionTicket t = engine.submit(small_chain("async"));
  ASSERT_TRUE(t.valid());
  EXPECT_EQ(t.chain().name(), "async");
  t.wait();
  EXPECT_TRUE(t.ready());
  EXPECT_TRUE(t.wait_for(0.0));
  const FusionResult& r = t.get();
  EXPECT_EQ(r.status, FusionStatus::Ok);
  const FusionTicket::Progress p = t.progress();
  EXPECT_TRUE(p.started);
  EXPECT_TRUE(p.done);
  // Counters mirror the tuner's stats.
  EXPECT_EQ(p.generations, r.tuned.stats.generations);
  EXPECT_EQ(p.measurements, r.tuned.stats.measurements);
  EXPECT_EQ(p.estimates, r.tuned.stats.estimates);
  EXPECT_GT(p.measurements, 0);
}

TEST(FusionTicketTest, CancelQueuedJob) {
  FusionEngineOptions opts;
  opts.jobs = 1;  // one worker: the second submission must queue
  FusionEngine engine(a100(), opts);
  // Occupy the only worker with a deliberately large chain, then cancel a
  // queued job.  Even if the worker reaches the second job first, the
  // cancel lands within its first tuning generation — either way the
  // result must be Cancelled.
  FusionTicket busy =
      engine.submit(ChainSpec::gemm_chain("busy", 1, 1024, 1024, 512, 512));
  FusionTicket victim =
      engine.submit(ChainSpec::gemm_chain("victim", 1, 1024, 1024, 512, 512));
  EXPECT_TRUE(victim.cancel());
  const FusionResult& r = victim.get();
  EXPECT_EQ(r.status, FusionStatus::Cancelled);
  EXPECT_FALSE(r.reason.empty());
  // The occupied job is unaffected.
  EXPECT_EQ(busy.get().status, FusionStatus::Ok);
}

TEST(FusionTicketTest, CancelAfterCompletionReturnsFalseAndKeepsResult) {
  FusionEngineOptions opts;
  opts.jobs = 1;
  FusionEngine engine(a100(), opts);
  FusionTicket t = engine.submit(small_chain());
  t.wait();
  const FusionResult before = t.get();
  ASSERT_EQ(before.status, FusionStatus::Ok);
  // A finished job is untouchable: cancel() reports false and the stored
  // result is bit-identical afterwards.
  EXPECT_FALSE(t.cancel());
  const FusionResult& after = t.get();
  EXPECT_EQ(after.status, FusionStatus::Ok);
  EXPECT_EQ(after.tuned.best_time_s, before.tuned.best_time_s);
  EXPECT_EQ(after.tuned.best.tiles, before.tuned.best.tiles);
  EXPECT_EQ(after.reason, before.reason);
  // Double-cancel on a finished job stays false, stays a no-op.
  EXPECT_FALSE(t.cancel());
  EXPECT_EQ(t.get().status, FusionStatus::Ok);
}

TEST(FusionTicketTest, DoubleCancelBeforeCompletionIsIdempotent) {
  FusionEngineOptions opts = cheap_options();
  opts.jobs = 1;
  auto gated = std::make_shared<GatedBackend>(a100());
  opts.tuner.backend = gated;
  FusionEngine engine(a100(), opts);
  FusionTicket busy = engine.submit(small_chain("busy"));
  gated->wait_entered();
  FusionTicket victim = engine.submit(small_chain("victim"));
  // Both cancels land before the queued job finishes: both register.
  EXPECT_TRUE(victim.cancel());
  EXPECT_TRUE(victim.cancel());
  gated->release();
  EXPECT_EQ(victim.get().status, FusionStatus::Cancelled);
  EXPECT_EQ(busy.get().status, FusionStatus::Ok);
  // ... and cancelling the now-finished job flips to false.
  EXPECT_FALSE(victim.cancel());
  EXPECT_EQ(victim.get().status, FusionStatus::Cancelled);
}

TEST(FusionTicketTest, WaitForDegenerateInputsContract) {
  FusionEngineOptions opts = cheap_options();
  opts.jobs = 1;
  auto gated = std::make_shared<GatedBackend>(a100());
  opts.tuner.backend = gated;
  FusionEngine engine(a100(), opts);
  FusionTicket t = engine.submit(small_chain("slow"));
  gated->wait_entered();
  // Unfinished job: <= 0, NaN and tiny waits all answer false (and the
  // non-positive/NaN cases poll without sleeping).
  EXPECT_FALSE(t.wait_for(0.0));
  EXPECT_FALSE(t.wait_for(-1.0));
  EXPECT_FALSE(t.wait_for(-std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(t.wait_for(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(t.wait_for(1e-6));
  gated->release();
  // +inf must behave like wait() (not overflow the clock arithmetic).
  EXPECT_TRUE(t.wait_for(std::numeric_limits<double>::infinity()));
  // Finished job: every spelling reports completion immediately.
  EXPECT_TRUE(t.wait_for(0.0));
  EXPECT_TRUE(t.wait_for(-3.0));
  EXPECT_TRUE(t.wait_for(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_TRUE(t.wait_for(std::numeric_limits<double>::max()));
  EXPECT_EQ(t.get().status, FusionStatus::Ok);
}

TEST(FusionEngineTest, ConcurrentSubmissionsMatchSynchronousResults) {
  // The acceptance gate for --jobs scaling: N distinct chains submitted
  // at once across 4 workers produce exactly the results the synchronous
  // path produces (per-chain determinism is independent of concurrency).
  const GpuSpec gpu = a100();
  std::vector<ChainSpec> chains;
  for (int i = 0; i < 6; ++i) {
    chains.push_back(ChainSpec::gemm_chain("c" + std::to_string(i), 1,
                                           128 + 32 * i, 96, 64, 64));
  }
  const FusionEngine serial(gpu);
  std::vector<FusionResult> expected;
  for (const ChainSpec& c : chains) expected.push_back(serial.fuse(c));

  FusionEngineOptions opts;
  opts.jobs = 4;
  FusionEngine engine(gpu, opts);
  std::vector<FusionTicket> tickets;
  for (const ChainSpec& c : chains) tickets.push_back(engine.submit(c));
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const FusionResult& got = tickets[i].get();
    ASSERT_EQ(got.status, expected[i].status) << chains[i].name();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.tuned.best.expr_id, expected[i].tuned.best.expr_id);
    EXPECT_EQ(got.tuned.best_time_s, expected[i].tuned.best_time_s);
    EXPECT_EQ(got.tuned.stats.measurements,
              expected[i].tuned.stats.measurements);
  }
}

// ---- admission control ------------------------------------------------------

TEST(FusionEngineAdmission, RejectPolicyShedsWhenQueueFull) {
  FusionEngineOptions opts = cheap_options();
  opts.jobs = 1;
  opts.queue.max_queued = 1;  // one waiting job max
  opts.queue.overflow = OverflowPolicy::Reject;
  auto gated = std::make_shared<GatedBackend>(a100());
  opts.tuner.backend = gated;
  FusionEngine engine(a100(), opts);

  FusionTicket busy = engine.submit(small_chain("busy"));
  gated->wait_entered();  // the only worker is provably occupied
  FusionTicket queued = engine.submit(small_chain("queued"));
  FusionTicket shed = engine.submit(small_chain("shed"));
  // The shed ticket is valid and already terminal — no waiting involved.
  ASSERT_TRUE(shed.valid());
  EXPECT_TRUE(shed.ready());
  EXPECT_EQ(shed.get().status, FusionStatus::Rejected);
  EXPECT_NE(shed.get().reason.find("admission queue full"), std::string::npos)
      << shed.get().reason;
  EXPECT_FALSE(shed.progress().started);

  FusionTicket tried = engine.try_submit(small_chain("tried"));
  EXPECT_EQ(tried.get().status, FusionStatus::Rejected);

  gated->release();
  EXPECT_EQ(busy.get().status, FusionStatus::Ok);
  EXPECT_EQ(queued.get().status, FusionStatus::Ok);

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.rejected, 2u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.cancelled + s.deadline_exceeded, 0u);
}

TEST(FusionEngineAdmission, MaxInFlightCountsRunningJobs) {
  FusionEngineOptions opts = cheap_options();
  opts.jobs = 1;
  opts.queue.max_in_flight = 1;  // the running job IS the capacity
  opts.queue.overflow = OverflowPolicy::Reject;
  auto gated = std::make_shared<GatedBackend>(a100());
  opts.tuner.backend = gated;
  FusionEngine engine(a100(), opts);

  FusionTicket busy = engine.submit(small_chain("busy"));
  gated->wait_entered();
  // Queue is empty, but queued + running == 1 >= max_in_flight.
  FusionTicket shed = engine.submit(small_chain("shed"));
  EXPECT_EQ(shed.get().status, FusionStatus::Rejected);
  gated->release();
  EXPECT_EQ(busy.get().status, FusionStatus::Ok);
}

TEST(FusionEngineAdmission, ReplaceOldestEvictsTheOldestQueuedJob) {
  FusionEngineOptions opts = cheap_options();
  opts.jobs = 1;
  opts.queue.max_queued = 1;
  opts.queue.overflow = OverflowPolicy::ReplaceOldest;
  auto gated = std::make_shared<GatedBackend>(a100());
  opts.tuner.backend = gated;
  FusionEngine engine(a100(), opts);

  FusionTicket busy = engine.submit(small_chain("busy"));
  gated->wait_entered();
  FusionTicket oldest = engine.submit(small_chain("oldest"));
  FusionTicket newest = engine.submit(small_chain("newest"));
  // The newcomer displaced the oldest queued job, which resolves as
  // Rejected immediately (its waiters never hang on a job nobody runs).
  EXPECT_TRUE(oldest.ready());
  EXPECT_EQ(oldest.get().status, FusionStatus::Rejected);
  EXPECT_NE(oldest.get().reason.find("replaced"), std::string::npos)
      << oldest.get().reason;
  gated->release();
  EXPECT_EQ(busy.get().status, FusionStatus::Ok);
  EXPECT_EQ(newest.get().status, FusionStatus::Ok);

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.submitted, 3u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.completed, 2u);
}

TEST(FusionEngineAdmission, QueueWaitDeadlineShedsWithoutTuning) {
  FusionEngineOptions opts = cheap_options();
  opts.jobs = 1;
  opts.queue.deadline_s = 0.5;
  auto gated = std::make_shared<GatedBackend>(a100());
  opts.tuner.backend = gated;
  FusionEngine engine(a100(), opts);

  FusionTicket busy = engine.submit(small_chain("busy"));
  // The deadline is engine-wide, so on a pathologically loaded machine
  // even 'busy' could be shed before reaching the gate; skip rather
  // than hang on the gate forever.
  if (!gated->wait_entered_for(60.0)) {
    gated->release();
    ASSERT_EQ(busy.get().status, FusionStatus::DeadlineExceeded);
    GTEST_SKIP() << "machine too loaded to start a job within 0.5s";
  }
  FusionTicket victim = engine.submit(small_chain("victim"));
  // Hold the worker past the victim's queue-wait deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  gated->release();
  EXPECT_EQ(busy.get().status, FusionStatus::Ok);
  const FusionResult& r = victim.get();
  EXPECT_EQ(r.status, FusionStatus::DeadlineExceeded);
  EXPECT_NE(r.reason.find("deadline"), std::string::npos) << r.reason;
  // Shed at pick-up: the job never started, never measured.
  const FusionTicket::Progress p = victim.progress();
  EXPECT_FALSE(p.started);
  EXPECT_EQ(p.measurements, 0);
  EXPECT_EQ(engine.stats().deadline_exceeded, 1u);
}

TEST(FusionEngineAdmission, GenerousDeadlineDoesNotShed) {
  // 1000s: a real (far) deadline.  1e12s: past the clock-arithmetic
  // overflow guard, treated as "no deadline" (UBSan would flag the
  // naive duration_cast).
  for (const double deadline : {1000.0, 1e12}) {
    FusionEngineOptions opts = cheap_options();
    opts.jobs = 1;
    opts.queue.deadline_s = deadline;
    FusionEngine engine(a100(), opts);
    FusionTicket t = engine.submit(small_chain("fine"));
    EXPECT_EQ(t.get().status, FusionStatus::Ok) << deadline;
    EXPECT_EQ(engine.stats().deadline_exceeded, 0u) << deadline;
  }
}

TEST(FusionEngineTest, DestructionResolvesQueuedTicketsAsCancelled) {
  auto gated = std::make_shared<GatedBackend>(a100());
  std::vector<FusionTicket> tickets;
  std::thread releaser;
  {
    FusionEngineOptions opts = cheap_options();
    opts.jobs = 1;
    opts.tuner.backend = gated;
    FusionEngine engine(a100(), opts);
    tickets.push_back(engine.submit(small_chain("busy")));
    gated->wait_entered();
    for (int i = 0; i < 3; ++i) {
      tickets.push_back(engine.submit(small_chain("q" + std::to_string(i))));
    }
    // The destructor below sets stop_ first, THEN the releaser lets the
    // running job finish — so the backlog is provably drained under
    // shutdown, not raced to completion.
    releaser = std::thread([gated] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      gated->release();
    });
  }  // ~FusionEngine: must resolve every outstanding ticket, never hang
  releaser.join();
  // The running job completed normally; the queued backlog resolved as
  // Cancelled without starting.  Ticket state outlives the engine (the
  // ASan CI config turns any use-after-free here into a failure).
  ASSERT_EQ(tickets.size(), 4u);
  EXPECT_TRUE(tickets[0].ready());
  EXPECT_EQ(tickets[0].get().status, FusionStatus::Ok);
  for (std::size_t i = 1; i < tickets.size(); ++i) {
    EXPECT_TRUE(tickets[i].ready()) << i;
    const FusionResult& r = tickets[i].get();
    EXPECT_EQ(r.status, FusionStatus::Cancelled) << i;
    EXPECT_NE(r.reason.find("shutting down"), std::string::npos) << r.reason;
    EXPECT_FALSE(tickets[i].progress().started) << i;
  }
}

TEST(FusionEngineTest, DestructionUnblocksBlockPolicySubmitters) {
  // A submitter blocked on a full queue under the Block policy must be
  // woken by engine destruction, resolve its ticket as Cancelled, and
  // never touch the dead engine (the ASan CI config gates the latter).
  auto gated = std::make_shared<GatedBackend>(a100());
  FusionTicket blocked_ticket;
  std::vector<FusionTicket> tickets;
  std::thread blocked_submitter;
  std::thread releaser;
  {
    FusionEngineOptions opts = cheap_options();
    opts.jobs = 1;
    opts.queue.max_queued = 1;
    opts.queue.overflow = OverflowPolicy::Block;
    opts.tuner.backend = gated;
    FusionEngine engine(a100(), opts);
    tickets.push_back(engine.submit(small_chain("busy")));
    gated->wait_entered();
    tickets.push_back(engine.submit(small_chain("queued")));  // queue now full
    blocked_submitter = std::thread([&] {
      blocked_ticket = engine.submit(small_chain("blocked"));
    });
    // Positive handshake: stats().admitting counts admission calls in
    // progress, and the only one left is the blocked submitter — once
    // it shows up it has provably passed the shutdown check, so the
    // destructor below cannot trip it into an MCF_CHECK abort.
    while (engine.stats().admitting == 0) {
      std::this_thread::yield();
    }
    releaser = std::thread([gated] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      gated->release();
    });
  }  // ~FusionEngine: waits for the woken submitter to leave admit()
  blocked_submitter.join();
  releaser.join();
  EXPECT_EQ(tickets[0].get().status, FusionStatus::Ok);  // ran to completion
  EXPECT_EQ(tickets[1].get().status, FusionStatus::Cancelled);
  ASSERT_TRUE(blocked_ticket.valid());
  const FusionResult& r = blocked_ticket.get();
  EXPECT_EQ(r.status, FusionStatus::Cancelled);
  EXPECT_NE(r.reason.find("shutting down"), std::string::npos) << r.reason;
}

// ---- stress: many producers vs a tiny bounded queue -------------------------

TEST(FusionEngineAdmission, StoredDigestIsAnsweredAtAdmission) {
  FusionEngineOptions opts = cheap_options();
  opts.jobs = 1;
  opts.queue.max_queued = 1;
  opts.queue.overflow = OverflowPolicy::Reject;
  auto gated = std::make_shared<GatedBackend>(a100());
  opts.tuner.backend = gated;
  FusionEngine engine(a100(), opts);

  // Tune the digest, then re-arm the gate.
  gated->release();
  ASSERT_EQ(engine.fuse(small_chain("tuned")).status, FusionStatus::Ok);
  gated->close();
  const std::uint64_t hits_before = engine.stats().memo_hits;

  // Fill the only worker and the queue with other digests.
  FusionTicket busy = engine.submit(ChainSpec::gemm_chain("busy", 1, 128, 96, 64, 80));
  gated->wait_entered();
  FusionTicket queued = engine.submit(ChainSpec::gemm_chain("queued", 3, 128, 96, 64, 80));
  FusionTicket shed = engine.submit(ChainSpec::gemm_chain("shed", 4, 128, 96, 64, 80));
  EXPECT_EQ(shed.get().status, FusionStatus::Rejected);  // the queue is full

  // The stored digest, under other names, is answered at admission:
  // resolved at once, never started, never blocked or shed.
  FusionTicket hit = engine.submit(small_chain("again"));
  FusionTicket tried = engine.try_submit(small_chain("tried"));
  for (const FusionTicket* t : {&hit, &tried}) {
    EXPECT_TRUE(t->ready());
    EXPECT_EQ(t->get().status, FusionStatus::Ok);
    EXPECT_EQ(t->get().tuned.stats.measurements, 0);
    EXPECT_FALSE(t->progress().started);
    EXPECT_EQ(&t->get().kernel->schedule().chain(), &t->chain());
  }
  EXPECT_EQ(engine.stats().memo_hits, hits_before + 2);

  gated->release();
  EXPECT_EQ(busy.get().status, FusionStatus::Ok);
  EXPECT_EQ(queued.get().status, FusionStatus::Ok);
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.submitted, 5u);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.submitted,
            s.completed + s.rejected + s.cancelled + s.deadline_exceeded);
}

TEST(FusionEngineStress, ManyProducersTinyQueueEveryTicketResolvesOnce) {
  FusionEngineOptions opts = cheap_options();
  opts.jobs = 2;
  opts.queue.max_queued = 2;
  opts.queue.overflow = OverflowPolicy::Reject;
  FusionEngine engine(a100(), opts);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::vector<FusionTicket>> tickets(kThreads);
  // Queue-bound watchdog: samples stats() concurrently with the flood.
  std::atomic<bool> done{false};
  std::atomic<std::size_t> max_queued_seen{0};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const EngineStats s = engine.stats();
      std::size_t prev = max_queued_seen.load(std::memory_order_relaxed);
      while (s.queued > prev &&
             !max_queued_seen.compare_exchange_weak(prev, s.queued)) {
      }
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // A distinct digest per ticket (the batch dimension differs), so
        // every submission reaches the queue instead of the store.
        ChainSpec c = ChainSpec::gemm_chain(
            "s" + std::to_string(t) + "_" + std::to_string(i),
            1 + t * kPerThread + i, 64 + 16 * (i % 4), 64, 32, 32);
        tickets[static_cast<std::size_t>(t)].push_back(
            (i % 2 == 0) ? engine.submit(std::move(c))
                         : engine.try_submit(std::move(c)));
      }
    });
  }
  for (std::thread& p : producers) p.join();

  int ok = 0;
  int rejected = 0;
  int other = 0;
  for (const auto& per_thread : tickets) {
    for (const FusionTicket& t : per_thread) {
      const FusionResult& r = t.get();  // must never hang (ctest TIMEOUT)
      switch (r.status) {
        case FusionStatus::Ok:
          ++ok;
          break;
        case FusionStatus::Rejected:
          ++rejected;
          EXPECT_FALSE(r.reason.empty());
          break;
        default:
          ++other;  // no Cancelled/DeadlineExceeded configured here
          break;
      }
    }
  }
  done.store(true, std::memory_order_relaxed);
  sampler.join();

  constexpr int kTotal = kThreads * kPerThread;
  EXPECT_EQ(ok + rejected, kTotal);
  EXPECT_EQ(other, 0);
  EXPECT_GT(ok, 0);        // the queue made progress
  EXPECT_GT(rejected, 0);  // ... and genuinely shed load
  EXPECT_LE(max_queued_seen.load(), opts.queue.max_queued);

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(s.completed + s.rejected + s.cancelled + s.deadline_exceeded,
            s.submitted);
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(ok));
  EXPECT_EQ(s.rejected, static_cast<std::uint64_t>(rejected));
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.busy, 0u);
}

TEST(FusionEngineStress, BlockPolicyCompletesEverythingWithinBounds) {
  FusionEngineOptions opts = cheap_options();
  opts.jobs = 2;
  opts.queue.max_queued = 1;
  opts.queue.overflow = OverflowPolicy::Block;
  FusionEngine engine(a100(), opts);

  constexpr int kThreads = 3;
  constexpr int kPerThread = 4;
  std::vector<std::vector<FusionTicket>> tickets(kThreads);
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // A distinct digest per ticket: each one goes through the queue.
        tickets[static_cast<std::size_t>(t)].push_back(engine.submit(
            ChainSpec::gemm_chain("b" + std::to_string(t) + "_" +
                                      std::to_string(i),
                                  1 + t * kPerThread + i, 64 + 16 * (i % 3),
                                  64, 32, 32)));
      }
    });
  }
  for (std::thread& p : producers) p.join();
  for (const auto& per_thread : tickets) {
    for (const FusionTicket& t : per_thread) {
      EXPECT_EQ(t.get().status, FusionStatus::Ok) << t.chain().name();
    }
  }
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(s.completed, s.submitted);  // Block never sheds
  EXPECT_EQ(s.rejected, 0u);
}

TEST(FusionEngineTest, RepeatFuseIsAStoreHit) {
  const FusionEngine engine(a100());
  const FusionResult first = engine.fuse(small_chain());
  ASSERT_EQ(first.status, FusionStatus::Ok);
  EXPECT_GT(first.tuned.stats.measurements, 0);
  const ChainSpec renamed = small_chain("renamed");
  const FusionResult second = engine.fuse(renamed);
  ASSERT_EQ(second.status, FusionStatus::Ok);
  EXPECT_EQ(second.tuned.stats.measurements, 0);  // zero tuning on a hit
  EXPECT_EQ(second.tuned.best.tiles, first.tuned.best.tiles);
  EXPECT_EQ(second.tuned.best_time_s, first.tuned.best_time_s);
  // The hit's kernel is built for the caller's chain.
  EXPECT_EQ(&second.kernel->schedule().chain(), &renamed);
  EXPECT_EQ(engine.stats().memo_hits, 1u);
}

}  // namespace
}  // namespace mcf

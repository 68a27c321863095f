// Storage-path resilience suite: bounded store queues (shedding and
// backpressure), per-policy circuit breakers, disk-fault injection, and the
// shutdown drain ordering. Unit tests drive a StorePolicyRuntime directly;
// end-to-end tests run a MiniCluster (shared SimClock, inline pools, seeded
// fault schedules), so every scenario is deterministic and replayable.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <tuple>

#include "core/mem_manager.hpp"
#include "daemon/store_runtime.hpp"
#include "harness/mini_cluster.hpp"
#include "store/csv_store.hpp"
#include "store/fault_store.hpp"
#include "store/flatfile_store.hpp"
#include "store/memory_store.hpp"
#include "util/thread_pool.hpp"

namespace ldmsxx {
namespace {

namespace fs = std::filesystem;
using harness::MiniCluster;
using harness::MiniClusterOptions;

constexpr DurationNs kTick = 100 * kNsPerMs;

/// Store whose StoreSet blocks until Release(); used to hold a storer
/// thread hostage so queue behaviour is observable deterministically.
class LatchStore final : public Store {
 public:
  const std::string& name() const override { return name_; }

  Status StoreSet(const MetricSet& set) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      entered_ = true;
      entered_cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
    }
    CountRow(set.data_size());
    return Status::Ok();
  }

  Status Flush() override {
    rows_at_flush_ = rows_written();
    ++flushes_;
    return Status::Ok();
  }

  /// Block until a write is parked inside StoreSet.
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait(lock, [this] { return entered_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  std::uint64_t rows_at_flush() const { return rows_at_flush_; }
  std::uint64_t flushes() const { return flushes_; }

 private:
  std::string name_ = "store_latch";
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable entered_cv_;
  bool entered_ = false;
  bool released_ = false;
  std::atomic<std::uint64_t> rows_at_flush_{0};
  std::atomic<std::uint64_t> flushes_{0};
};

class StoreOverloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema("overload");
    schema.AddMetric("seq", MetricType::kU64);
    Status st;
    set_ = MetricSet::Create(mem_, schema, "nid0/overload", "nid0", 7, &st);
    ASSERT_NE(set_, nullptr) << st.ToString();
    log_.set_level(LogLevel::kOff);
  }

  /// Stamp the shared set with a fresh sample and return it.
  MetricSetPtr Sample(std::uint64_t seq) {
    set_->BeginTransaction();
    set_->SetU64(0, seq);
    set_->EndTransaction(static_cast<TimeNs>(seq) * kNsPerSec);
    return set_;
  }

  std::shared_ptr<StorePolicyRuntime> MakeRuntime(StorePolicy policy) {
    if (policy.name.empty()) policy.name = "test";
    return std::make_shared<StorePolicyRuntime>(std::move(policy), &clock_,
                                                &log_, &counters_);
  }

  void Submit(StorePolicyRuntime& runtime, std::uint64_t seq,
              ThreadPool* pool) {
    runtime.Submit(Sample(seq), set_mu_, pool);
  }

  MemManager mem_{1 << 20};
  MetricSetPtr set_;
  std::shared_ptr<std::mutex> set_mu_ = std::make_shared<std::mutex>();
  SimClock clock_{0};
  Logger log_{"test"};
  StoreCounters counters_;
};

// --- bounded queue: shedding policies ---------------------------------------

TEST_F(StoreOverloadTest, DropOldestKeepsFreshestSamples) {
  auto store = std::make_shared<LatchStore>();
  StorePolicy policy(store);
  policy.queue_capacity = 4;
  policy.shed_policy = ShedPolicy::kDropOldest;
  policy.breaker_threshold = 0;
  auto runtime = MakeRuntime(policy);
  ThreadPool pool(1, "storer");

  // First submit is picked up by the drain task and parks inside the store;
  // the next six pile into the capacity-4 queue.
  Submit(*runtime, 0, &pool);
  store->AwaitEntered();
  for (std::uint64_t seq = 1; seq <= 6; ++seq) Submit(*runtime, seq, &pool);

  auto status = runtime->status();
  EXPECT_EQ(status.queue_depth, 4u);
  EXPECT_EQ(status.queue_high_water, 4u);
  EXPECT_EQ(status.shed_samples, 2u);  // seqs 1 and 2 evicted

  store->Release();
  pool.Drain();
  EXPECT_EQ(store->rows_written(), 5u);  // seq 0 + the 4 freshest
  EXPECT_EQ(counters_.shed_samples.load(), 2u);
  EXPECT_EQ(counters_.stores.load(), 5u);
  EXPECT_EQ(runtime->status().queue_depth, 0u);
}

TEST_F(StoreOverloadTest, DropNewestKeepsOldestBacklog) {
  auto store = std::make_shared<LatchStore>();
  StorePolicy policy(store);
  policy.queue_capacity = 4;
  policy.shed_policy = ShedPolicy::kDropNewest;
  policy.breaker_threshold = 0;
  auto runtime = MakeRuntime(policy);
  ThreadPool pool(1, "storer");

  Submit(*runtime, 0, &pool);
  store->AwaitEntered();
  for (std::uint64_t seq = 1; seq <= 6; ++seq) Submit(*runtime, seq, &pool);

  auto status = runtime->status();
  EXPECT_EQ(status.queue_depth, 4u);
  EXPECT_EQ(status.shed_samples, 2u);  // seqs 5 and 6 refused

  store->Release();
  pool.Drain();
  EXPECT_EQ(store->rows_written(), 5u);
}

TEST_F(StoreOverloadTest, BlockModeBackpressuresSubmitterNotUnbounded) {
  auto store = std::make_shared<LatchStore>();
  StorePolicy policy(store);
  policy.queue_capacity = 2;
  policy.shed_policy = ShedPolicy::kBlock;
  policy.breaker_threshold = 0;
  auto runtime = MakeRuntime(policy);
  ThreadPool pool(1, "storer");

  Submit(*runtime, 0, &pool);
  store->AwaitEntered();
  Submit(*runtime, 1, &pool);
  Submit(*runtime, 2, &pool);  // queue now full (capacity 2)

  // The next submit must block until the store unsticks; run it on a side
  // thread and verify it has not completed while the queue is full.
  std::atomic<bool> submitted{false};
  std::thread submitter([&] {
    Submit(*runtime, 3, &pool);
    submitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(submitted.load());
  EXPECT_EQ(runtime->status().queue_depth, 2u);  // memory stayed bounded

  store->Release();
  submitter.join();
  pool.Drain();
  EXPECT_TRUE(submitted.load());
  EXPECT_EQ(store->rows_written(), 4u);  // nothing shed
  EXPECT_EQ(runtime->status().shed_samples, 0u);
}

TEST_F(StoreOverloadTest, ShutdownUnblocksBlockedSubmitter) {
  auto store = std::make_shared<LatchStore>();
  StorePolicy policy(store);
  policy.queue_capacity = 1;
  policy.shed_policy = ShedPolicy::kBlock;
  policy.breaker_threshold = 0;
  auto runtime = MakeRuntime(policy);
  ThreadPool pool(1, "storer");

  Submit(*runtime, 0, &pool);
  store->AwaitEntered();
  Submit(*runtime, 1, &pool);  // fills the queue

  std::thread submitter([&] { Submit(*runtime, 2, &pool); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  runtime->BeginShutdown();  // must release the parked submitter
  submitter.join();

  store->Release();
  pool.Shutdown();
  runtime->DrainInline();
  EXPECT_GE(store->rows_written(), 2u);
}

// --- inline mode (store_threads = 0) ----------------------------------------

TEST_F(StoreOverloadTest, InlineModeWritesThroughWithoutQueueing) {
  auto store = std::make_shared<MemoryStore>();
  StorePolicy policy(store);
  auto runtime = MakeRuntime(policy);

  for (std::uint64_t seq = 0; seq < 10; ++seq) {
    Submit(*runtime, seq, /*pool=*/nullptr);
  }
  EXPECT_EQ(store->RowCount("overload"), 10u);
  auto status = runtime->status();
  EXPECT_EQ(status.queue_depth, 0u);
  EXPECT_EQ(status.queue_high_water, 0u);
  EXPECT_EQ(status.stores, 10u);
}

// --- circuit breaker --------------------------------------------------------

TEST_F(StoreOverloadTest, BreakerTripsQuarantinesAndRecoversWithExactGap) {
  auto inner = std::make_shared<MemoryStore>();
  auto schedule = std::make_shared<StoreFaultSchedule>(11);
  auto store = std::make_shared<FaultInjectingStore>(inner, schedule);
  StorePolicy policy(store);
  policy.breaker_threshold = 3;
  policy.breaker_min_backoff = 100 * kNsPerMs;
  policy.breaker_max_backoff = kNsPerSec;
  auto runtime = MakeRuntime(policy);

  // Three consecutive injected failures trip the breaker.
  schedule->InjectNext(StoreFaultOp::kWrite, StoreFaultKind::kFailWrite, 3);
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    Submit(*runtime, seq, nullptr);
  }
  auto status = runtime->status();
  EXPECT_EQ(status.breaker, BreakerState::kOpen);
  EXPECT_EQ(status.breaker_trips, 1u);
  EXPECT_EQ(status.store_failures, 3u);
  EXPECT_GT(status.current_backoff, 0u);
  EXPECT_EQ(counters_.breaker_trips.load(), 1u);

  // While quarantined every submit is shed and accounted as gap; the store
  // itself is never touched.
  for (std::uint64_t seq = 3; seq < 8; ++seq) {
    Submit(*runtime, seq, nullptr);
  }
  status = runtime->status();
  EXPECT_EQ(status.quarantine_gap, 5u);
  EXPECT_EQ(status.shed_samples, 5u);
  EXPECT_EQ(inner->RowCount("overload"), 0u);

  // After the (jittered, <= 125% of backoff) window, the next submit is the
  // half-open probe; it succeeds, so the breaker closes and the recovery is
  // counted with the exact gap.
  clock_.Advance(2 * kNsPerSec);
  Submit(*runtime, 8, nullptr);
  status = runtime->status();
  EXPECT_EQ(status.breaker, BreakerState::kClosed);
  EXPECT_EQ(status.breaker_recoveries, 1u);
  EXPECT_EQ(status.current_backoff, 0u);
  EXPECT_EQ(status.quarantine_gap, 5u);  // gap frozen at recovery
  EXPECT_EQ(inner->RowCount("overload"), 1u);
  EXPECT_EQ(counters_.breaker_recoveries.load(), 1u);
}

TEST_F(StoreOverloadTest, FailedProbeReopensWithDoubledBackoff) {
  auto inner = std::make_shared<MemoryStore>();
  auto schedule = std::make_shared<StoreFaultSchedule>(12);
  auto store = std::make_shared<FaultInjectingStore>(inner, schedule);
  StorePolicy policy(store);
  policy.breaker_threshold = 2;
  policy.breaker_min_backoff = 100 * kNsPerMs;
  policy.breaker_max_backoff = 10 * kNsPerSec;
  auto runtime = MakeRuntime(policy);

  schedule->InjectNext(StoreFaultOp::kWrite, StoreFaultKind::kFailWrite, 3);
  Submit(*runtime, 0, nullptr);
  Submit(*runtime, 1, nullptr);  // trips (threshold 2)
  const DurationNs first_backoff = runtime->status().current_backoff;
  EXPECT_EQ(first_backoff, 100 * kNsPerMs);

  clock_.Advance(kNsPerSec);
  Submit(*runtime, 2, nullptr);  // probe, fails (third injected fault)
  auto status = runtime->status();
  EXPECT_EQ(status.breaker, BreakerState::kOpen);
  EXPECT_EQ(status.current_backoff, 2 * first_backoff);
  EXPECT_EQ(status.breaker_trips, 1u);  // re-open is not a new trip
  EXPECT_EQ(status.breaker_recoveries, 0u);

  // Healthy store now; next probe closes it.
  clock_.Advance(kNsPerSec);
  Submit(*runtime, 3, nullptr);
  EXPECT_EQ(runtime->status().breaker, BreakerState::kClosed);
  EXPECT_EQ(inner->RowCount("overload"), 1u);
}

TEST_F(StoreOverloadTest, BreakerDisabledKeepsTryingForever) {
  auto inner = std::make_shared<MemoryStore>();
  auto schedule = std::make_shared<StoreFaultSchedule>(13);
  auto store = std::make_shared<FaultInjectingStore>(inner, schedule);
  StorePolicy policy(store);
  policy.breaker_threshold = 0;  // disabled
  auto runtime = MakeRuntime(policy);

  schedule->InjectNext(StoreFaultOp::kWrite, StoreFaultKind::kFailWrite, 20);
  for (std::uint64_t seq = 0; seq < 20; ++seq) Submit(*runtime, seq, nullptr);
  auto status = runtime->status();
  EXPECT_EQ(status.breaker, BreakerState::kClosed);
  EXPECT_EQ(status.store_failures, 20u);
  EXPECT_EQ(status.breaker_trips, 0u);
  Submit(*runtime, 20, nullptr);  // faults exhausted: writes again
  EXPECT_EQ(inner->RowCount("overload"), 1u);
}

// --- policy filters ---------------------------------------------------------

TEST_F(StoreOverloadTest, PolicyFiltersRouteBySchemaAndProducer) {
  LdmsdOptions opts;
  opts.name = "agg";
  opts.worker_threads = 0;
  opts.connection_threads = 0;
  opts.store_threads = 0;
  opts.log_level = LogLevel::kOff;
  Ldmsd daemon(opts);

  auto all = std::make_shared<MemoryStore>();
  auto only_schema = std::make_shared<MemoryStore>();
  auto only_producer = std::make_shared<MemoryStore>();
  auto both = std::make_shared<MemoryStore>();
  auto neither = std::make_shared<MemoryStore>();
  ASSERT_TRUE(daemon.AddStorePolicy({all, "", ""}).ok());
  ASSERT_TRUE(daemon.AddStorePolicy({only_schema, "overload", ""}).ok());
  ASSERT_TRUE(daemon.AddStorePolicy({only_producer, "", "nid0"}).ok());
  ASSERT_TRUE(daemon.AddStorePolicy({both, "overload", "nid0"}).ok());
  ASSERT_TRUE(daemon.AddStorePolicy({neither, "meminfo", "nid9"}).ok());

  daemon.StoreLocalSet(Sample(1));

  // A second set with a different schema and producer.
  Schema other_schema("vmstat");
  other_schema.AddMetric("v", MetricType::kU64);
  Status st;
  auto other = MetricSet::Create(mem_, other_schema, "nid1/vmstat", "nid1",
                                 8, &st);
  ASSERT_NE(other, nullptr);
  other->BeginTransaction();
  other->SetU64(0, 1);
  other->EndTransaction(kNsPerSec);
  daemon.StoreLocalSet(other);

  EXPECT_EQ(all->RowCount("overload"), 1u);
  EXPECT_EQ(all->RowCount("vmstat"), 1u);
  EXPECT_EQ(only_schema->RowCount("overload"), 1u);
  EXPECT_EQ(only_schema->RowCount("vmstat"), 0u);
  EXPECT_EQ(only_producer->RowCount("overload"), 1u);
  EXPECT_EQ(only_producer->RowCount("vmstat"), 0u);
  EXPECT_EQ(both->RowCount("overload"), 1u);
  EXPECT_EQ(both->RowCount("vmstat"), 0u);
  EXPECT_EQ(neither->RowCount("overload"), 0u);
  EXPECT_EQ(neither->RowCount("vmstat"), 0u);
  EXPECT_EQ(daemon.counters().storage.stores.load(), 5u);
}

TEST_F(StoreOverloadTest, PolicyNamesAreUniquified) {
  LdmsdOptions opts;
  opts.worker_threads = 0;
  opts.connection_threads = 0;
  opts.store_threads = 0;
  opts.log_level = LogLevel::kOff;
  Ldmsd daemon(opts);
  auto store = std::make_shared<MemoryStore>();
  ASSERT_TRUE(daemon.AddStorePolicy({store, "", ""}).ok());
  ASSERT_TRUE(daemon.AddStorePolicy({store, "", ""}).ok());
  const auto names = daemon.store_policy_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "store_mem");
  EXPECT_EQ(names[1], "store_mem#2");
  EXPECT_TRUE(daemon.store_policy_status("store_mem#2").known);
  EXPECT_FALSE(daemon.store_policy_status("nope").known);
}

// --- shutdown ordering: drain before Flush ----------------------------------

TEST_F(StoreOverloadTest, StopDrainsQueuedWritesBeforeFlush) {
  LdmsdOptions opts;
  opts.name = "agg";
  opts.worker_threads = 0;
  opts.connection_threads = 0;
  opts.store_threads = 1;
  opts.log_level = LogLevel::kOff;
  Ldmsd daemon(opts);
  ASSERT_TRUE(daemon.Start().ok());

  auto store = std::make_shared<LatchStore>();
  StorePolicy policy(store);
  policy.queue_capacity = 64;
  policy.breaker_threshold = 0;
  ASSERT_TRUE(daemon.AddStorePolicy(std::move(policy)).ok());

  for (std::uint64_t seq = 0; seq < 8; ++seq) {
    daemon.StoreLocalSet(Sample(seq));
  }
  store->AwaitEntered();  // storer thread parked; 7 samples still queued
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    store->Release();
  });
  daemon.Stop();
  releaser.join();

  // Every accepted sample was written before Flush ran.
  EXPECT_EQ(store->rows_written(), 8u);
  EXPECT_GE(store->flushes(), 1u);
  EXPECT_EQ(store->rows_at_flush(), 8u);
}

// --- file stores surface write errors ---------------------------------------

class FileStoreErrorTest : public StoreOverloadTest {
 protected:
  void SetUp() override {
    StoreOverloadTest::SetUp();
    base_ = fs::temp_directory_path() /
            ("overload_err_" + std::to_string(::getpid()));
    fs::create_directories(base_);
    // A regular file where a directory is required: create_directories and
    // every open under it fail, for root and non-root alike.
    std::ofstream(base_ / "blocker").put('x');
    bad_root_ = (base_ / "blocker" / "sub").string();
  }
  void TearDown() override { fs::remove_all(base_); }

  /// A failed write is reported; once the "disk" is repaired (the blocker
  /// file becomes the directory it should be) the store reopens its file on
  /// the next write instead of caching the failure forever (required for
  /// breaker half-open probes to succeed).
  template <typename FileStore>
  void ExpectFailsThenRecovers(FileStore& store) {
    EXPECT_FALSE(store.StoreSet(*Sample(1)).ok());
    EXPECT_EQ(store.rows_written(), 0u);
    EXPECT_GE(store.rows_failed(), 1u);
    fs::remove(base_ / "blocker");
    fs::create_directories(base_ / "blocker");
    EXPECT_TRUE(store.StoreSet(*Sample(2)).ok());
    EXPECT_EQ(store.rows_written(), 1u);
    EXPECT_TRUE(store.Flush().ok());
  }

  fs::path base_;
  std::string bad_root_;
};

TEST_F(FileStoreErrorTest, CsvStoreReportsFailedWrites) {
  CsvStore store({bad_root_, false});
  ExpectFailsThenRecovers(store);
}

TEST_F(FileStoreErrorTest, FlatFileStoreReportsFailedWrites) {
  FlatFileStore store({bad_root_});
  ExpectFailsThenRecovers(store);
}

// --- fault schedule determinism ---------------------------------------------

TEST(StoreFaultScheduleTest, SameSeedSameDecisions) {
  StoreFaultSchedule::Probabilities probs;
  probs.fail_write = 0.2;
  probs.partial_write = 0.1;
  probs.stall = 0.1;
  StoreFaultSchedule a(99, probs);
  StoreFaultSchedule b(99, probs);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(static_cast<int>(a.Draw(StoreFaultOp::kWrite).kind),
              static_cast<int>(b.Draw(StoreFaultOp::kWrite).kind))
        << "draw " << i;
  }
  EXPECT_GT(a.stats().total(), 0u);
}

TEST(StoreFaultScheduleTest, QueuedFaultsConsumedBeforeDraws) {
  StoreFaultSchedule schedule(1);
  schedule.InjectNext(StoreFaultOp::kWrite, StoreFaultKind::kFailWrite, 2);
  schedule.InjectNext(StoreFaultOp::kFlush, StoreFaultKind::kFailFlush);
  EXPECT_EQ(static_cast<int>(schedule.Draw(StoreFaultOp::kWrite).kind),
            static_cast<int>(StoreFaultKind::kFailWrite));
  EXPECT_EQ(static_cast<int>(schedule.Draw(StoreFaultOp::kFlush).kind),
            static_cast<int>(StoreFaultKind::kFailFlush));
  EXPECT_EQ(static_cast<int>(schedule.Draw(StoreFaultOp::kWrite).kind),
            static_cast<int>(StoreFaultKind::kFailWrite));
  // Exhausted and zero probabilities: clean from here on.
  EXPECT_EQ(static_cast<int>(schedule.Draw(StoreFaultOp::kWrite).kind),
            static_cast<int>(StoreFaultKind::kNone));
}

TEST(StoreFaultScheduleTest, DisarmedIsPassthroughAndRetainsQueue) {
  StoreFaultSchedule schedule(1);
  schedule.InjectNext(StoreFaultOp::kWrite, StoreFaultKind::kFailWrite);
  schedule.set_armed(false);
  EXPECT_EQ(static_cast<int>(schedule.Draw(StoreFaultOp::kWrite).kind),
            static_cast<int>(StoreFaultKind::kNone));
  schedule.set_armed(true);
  EXPECT_EQ(static_cast<int>(schedule.Draw(StoreFaultOp::kWrite).kind),
            static_cast<int>(StoreFaultKind::kFailWrite));
}

// --- end to end: dead store quarantined, sibling unaffected -----------------

TEST(StoreOverloadClusterTest, DeadStoreTripsBreakerSiblingKeepsStoring) {
  MiniClusterOptions opts;
  opts.samplers = 1;
  opts.secondary_store = true;
  opts.store_breaker_threshold = 3;
  opts.store_breaker_min_backoff = 300 * kNsPerMs;
  opts.store_breaker_max_backoff = 2 * kNsPerSec;
  MiniCluster cluster(opts);

  cluster.Advance(1 * kNsPerSec);  // healthy steady state
  const std::size_t primary_before = cluster.store(0)->RowCount("chaos");
  const std::size_t secondary_before = cluster.secondary(0)->RowCount("chaos");
  EXPECT_GE(primary_before, 8u);
  EXPECT_EQ(primary_before, secondary_before);

  // The primary store's disk "dies": every write fails for a while.
  cluster.store_faults().InjectNext(StoreFaultOp::kWrite,
                                    StoreFaultKind::kFailWrite, 100);
  cluster.Advance(2 * kNsPerSec);

  auto status = cluster.aggregator(0).store_policy_status("primary");
  ASSERT_TRUE(status.known);
  EXPECT_GE(status.breaker_trips, 1u);
  EXPECT_GT(status.quarantine_gap, 0u);
  // Collection itself never faltered: the sibling stored every cycle.
  const std::size_t secondary_during = cluster.secondary(0)->RowCount("chaos");
  EXPECT_GE(secondary_during, secondary_before + 18u);
  EXPECT_GE(cluster.aggregator(0).counters().updates_ok.load(), 28u);

  // Quarantine bounds the damage: far fewer than 100 faults actually burned
  // a write attempt (probes only).
  EXPECT_LT(cluster.store_faults().stats().failed_writes.load(), 100u);

  // "Disk" recovers: drain the remaining scripted faults, let a probe
  // succeed, and confirm the primary resumes and the breaker closed.
  cluster.store_faults().set_armed(false);
  cluster.Advance(3 * kNsPerSec);
  status = cluster.aggregator(0).store_policy_status("primary");
  EXPECT_EQ(status.breaker, BreakerState::kClosed);
  EXPECT_GE(status.breaker_recoveries, 1u);
  EXPECT_GT(cluster.store(0)->RowCount("chaos"), primary_before);
  // The gap is exact: everything the sibling has that the primary lacks was
  // shed by the queue/breaker, not silently lost.
  const std::size_t primary_after = cluster.store(0)->RowCount("chaos");
  const std::size_t secondary_after = cluster.secondary(0)->RowCount("chaos");
  EXPECT_EQ(secondary_after - primary_after,
            status.quarantine_gap + status.store_failures);
}

// --- end to end: determinism digest -----------------------------------------

struct OverloadDigest {
  std::size_t primary_rows = 0;
  std::size_t secondary_rows = 0;
  std::uint64_t shed = 0;
  std::uint64_t failures = 0;
  std::uint64_t trips = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t gap = 0;
  std::uint64_t injected = 0;

  auto tie() const {
    return std::tie(primary_rows, secondary_rows, shed, failures, trips,
                    recoveries, gap, injected);
  }
};

OverloadDigest OverloadRun(std::uint64_t seed) {
  MiniClusterOptions opts;
  opts.samplers = 2;
  opts.seed = seed;
  opts.secondary_store = true;
  opts.store_breaker_threshold = 3;
  opts.store_breaker_min_backoff = 200 * kNsPerMs;
  opts.store_breaker_max_backoff = kNsPerSec;
  opts.store_faults.fail_write = 0.15;
  MiniCluster cluster(opts);
  cluster.Advance(10 * kNsPerSec);

  OverloadDigest digest;
  digest.primary_rows = cluster.store(0)->RowCount("chaos");
  digest.secondary_rows = cluster.secondary(0)->RowCount("chaos");
  const auto status = cluster.aggregator(0).store_policy_status("primary");
  digest.shed = status.shed_samples;
  digest.failures = status.store_failures;
  digest.trips = status.breaker_trips;
  digest.recoveries = status.breaker_recoveries;
  digest.gap = status.quarantine_gap;
  digest.injected = cluster.store_faults().stats().failed_writes.load();
  return digest;
}

TEST(StoreOverloadClusterTest, SameSeedProducesIdenticalRuns) {
  const OverloadDigest first = OverloadRun(7);
  const OverloadDigest second = OverloadRun(7);
  EXPECT_EQ(first.tie(), second.tie());
  // Non-vacuous: faults fired, the breaker cycled, and data still flowed.
  EXPECT_GT(first.injected, 0u);
  EXPECT_GE(first.trips, 1u);
  EXPECT_GT(first.primary_rows, 0u);
  EXPECT_GT(first.secondary_rows, first.primary_rows);

  const OverloadDigest other = OverloadRun(8);
  EXPECT_NE(first.tie(), other.tie());
}

// --- end to end: slow store must not affect collection ----------------------

TEST(StoreOverloadClusterTest, CollectionRateSurvivesStoreFailures) {
  // Same topology with and without disk faults; with inline pools and a
  // SimClock, identical collection counters prove the storage path cannot
  // push back into collection (the paper's storer-pool isolation).
  auto run = [](double fail_write) {
    MiniClusterOptions opts;
    opts.samplers = 2;
    opts.seed = 21;
    opts.store_faults.fail_write = fail_write;
    MiniCluster cluster(opts);
    cluster.Advance(5 * kNsPerSec);
    return cluster.aggregator(0).counters().updates_ok.load();
  };
  const std::uint64_t healthy = run(0.0);
  const std::uint64_t faulty = run(0.5);
  EXPECT_GT(healthy, 0u);
  EXPECT_EQ(healthy, faulty);
}

}  // namespace
}  // namespace ldmsxx

// Storage-path resilience: the runtime that sits between an aggregator's
// collection threads and each store plugin. The paper's storer pool decouples
// collection from "the speed of the store" (§IV-B); this file adds the two
// mechanisms that keep that decoupling safe when a store misbehaves:
//
//   1. A bounded per-policy write queue. A slow disk used to grow the storer
//      pool's unbounded task queue (one closure per stored sample) until the
//      aggregator fell over; now each policy holds at most queue_capacity
//      samples and sheds per its ShedPolicy, with depth/high-water gauges and
//      shed counters so the overload is visible instead of silent.
//
//   2. A per-policy circuit breaker. After breaker_threshold consecutive
//      StoreSet failures the policy is quarantined: writes are shed (and the
//      gap accounted) instead of burning a storer thread on a dead disk.
//      Retry uses exponential backoff with deterministic ±25% jitter (the
//      same discipline as producer reconnects), and recovery goes through a
//      half-open single probe write so one success — not a timer — closes
//      the breaker. A broken policy never affects its siblings.
//
// Writes are serialized per policy by a single-flight drain task that batches
// up to kDrainBatch samples per trip to the pool, then resubmits itself while
// work remains — so N policies share the storer pool fairly instead of one
// deep queue monopolizing a worker.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/metric_set.hpp"
#include "daemon/decomp/decomp.hpp"
#include "store/store.hpp"
#include "util/clock.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ldmsxx {

/// What to do with a new sample when a policy's write queue is full.
enum class ShedPolicy : std::uint8_t {
  kDropOldest = 0,  // evict the queue head — keep the freshest data (default)
  kDropNewest,      // refuse the new sample — keep the oldest backlog
  kBlock,           // block the submitter until space frees (backpressure)
};

const char* ShedPolicyName(ShedPolicy policy);
/// Parse "drop_oldest" / "drop_newest" / "block"; false on anything else.
bool ParseShedPolicy(const std::string& text, ShedPolicy* out);

enum class BreakerState : std::uint8_t {
  kClosed = 0,  // healthy, writes flow
  kOpen,        // quarantined, writes shed until the backoff window elapses
  kHalfOpen,    // one probe write in flight; its outcome decides the state
};

const char* BreakerStateName(BreakerState state);

/// Routes stored sets to a storage plugin (the `strgp_add` command). The
/// constructor keeps the historical `{store, "schema", "producer"}` shape
/// working; resilience knobs follow with production-sane defaults.
struct StorePolicy {
  StorePolicy() = default;
  StorePolicy(std::shared_ptr<Store> s, std::string schema = "",
              std::string producer = "")
      : store(std::move(s)),
        schema_filter(std::move(schema)),
        producer_filter(std::move(producer)) {}

  std::shared_ptr<Store> store;
  /// Provenance for the cluster registry: the plugin name + the plugin's
  /// own strgp_add arguments (every key but the policy keys this struct
  /// holds) the store was built from, so a restarted daemon can re-make it
  /// through the PluginRegistry. Empty plugin = hand-built store object,
  /// not reconstructible and not recorded.
  std::string plugin;
  std::map<std::string, std::string> plugin_params;
  /// Only store sets whose schema name matches; empty = all.
  std::string schema_filter;
  /// Only store sets from this producer; empty = all.
  std::string producer_filter;
  /// Row-decomposition spec (`strgp_add decomp=...`), compiled once per
  /// schema digest into a flat column plan; empty = store whole sets. Only
  /// meaningful with a row_capable() store — config rejects the rest.
  std::string decomp;
  /// Policy name for logs/control queries; empty = derived from the store.
  std::string name;
  /// Max samples queued ahead of the storer pool; 0 = unbounded (old
  /// behaviour, discouraged).
  std::size_t queue_capacity = 1024;
  ShedPolicy shed_policy = ShedPolicy::kDropOldest;
  /// Consecutive StoreSet failures that trip the breaker; 0 disables it.
  std::uint64_t breaker_threshold = 5;
  /// Quarantine backoff: exponential doubling min→max, ±25% jitter seeded
  /// from the policy name (stable across runs, distinct across policies).
  DurationNs breaker_min_backoff = 100 * kNsPerMs;
  DurationNs breaker_max_backoff = 10 * kNsPerSec;
};

/// Aggregate storage-path counters, shared by every policy of a daemon and
/// surfaced through Ldmsd::Counters (the control socket's `counters` verb).
struct StoreCounters {
  std::atomic<std::uint64_t> stores{0};
  std::atomic<std::uint64_t> store_failures{0};
  /// Samples dropped by full queues or an open breaker.
  std::atomic<std::uint64_t> shed_samples{0};
  std::atomic<std::uint64_t> breaker_trips{0};
  std::atomic<std::uint64_t> breaker_recoveries{0};
};

/// Point-in-time view of one policy (the `strgp_status` verb).
struct StorePolicyStatus {
  bool known = false;
  std::string name;
  std::size_t queue_depth = 0;
  std::size_t queue_high_water = 0;
  std::uint64_t stores = 0;
  std::uint64_t store_failures = 0;
  std::uint64_t shed_samples = 0;
  BreakerState breaker = BreakerState::kClosed;
  std::uint64_t consecutive_failures = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_recoveries = 0;
  /// Samples shed while quarantined, lifetime total across episodes.
  std::uint64_t quarantine_gap = 0;
  /// Current quarantine backoff span; 0 when closed.
  DurationNs current_backoff = 0;
  /// Rows evicted by the store itself (e.g. memory_store's ring cap).
  std::uint64_t store_evictions = 0;
  /// Samples that failed row decomposition (plan compile or derive error).
  std::uint64_t decompose_failures = 0;
};

/// Per-policy storage runtime: bounded queue + breaker + drain scheduling.
/// One instance per AddStorePolicy call; immutable identity, all mutable
/// state behind one mutex. Thread-safe.
class StorePolicyRuntime {
 public:
  /// Samples written per drain-task trip before resubmitting; bounds how
  /// long one policy holds a storer thread while siblings wait.
  static constexpr std::size_t kDrainBatch = 16;

  StorePolicyRuntime(StorePolicy policy, Clock* clock, Logger* log,
                     StoreCounters* counters);

  const std::string& name() const { return policy_.name; }
  const StorePolicy& policy() const { return policy_; }

  /// Does this policy's schema/producer filter accept @p set?
  bool Matches(const MetricSet& set) const;

  /// Submit one sample. With a pool, enqueues (shedding per policy when
  /// full) and schedules the single-flight drain; with pool == nullptr the
  /// write runs inline (deterministic simulations, store_threads = 0). The
  /// breaker is consulted either way. @p set_mu serializes the store write
  /// against concurrent ApplyData on the mirror.
  void Submit(MetricSetPtr set, std::shared_ptr<std::mutex> set_mu,
              ThreadPool* pool);

  /// Write everything still queued, inline on the caller. Used at shutdown
  /// after the storer pool has been joined, so no sample accepted into a
  /// queue is silently lost. Breaker admission still applies.
  void DrainInline();

  /// Wake block-mode submitters and refuse further blocking; queued samples
  /// stay queued for DrainInline.
  void BeginShutdown();

  StorePolicyStatus status() const;

 private:
  struct Pending {
    MetricSetPtr set;
    std::shared_ptr<std::mutex> set_mu;
  };

  /// Breaker admission for one sample; caller holds mu_. Returns false when
  /// the sample must be shed (open breaker, or half-open with a probe
  /// already in flight).
  bool AdmitLocked();
  /// Record a store call's outcome: @p samples written (ok) or not written
  /// (one breaker strike however many they were); caller holds mu_.
  void RecordOutcomeLocked(bool ok, const Status& st,
                           std::uint64_t samples = 1);
  /// Pop-and-write up to kDrainBatch samples; resubmits itself while work
  /// remains. Runs on the storer pool.
  void DrainBatch(ThreadPool* pool);
  /// Write one sample through the store (outside mu_), then record the
  /// outcome (under mu_).
  void WriteOne(const Pending& item);
  /// Does this policy take the batched path (one store call per drain batch
  /// instead of one per sample)? True for decomposing policies and
  /// batch-capable stores; everything else keeps the historical per-sample
  /// WriteOne semantics exactly.
  bool batched() const {
    return decomposer_ != nullptr || policy_.store->batch_capable();
  }
  /// Write @p n samples in one store call: decomposed rows via StoreRows
  /// when the policy has a decomp spec, whole sets via StoreSetBatch
  /// otherwise. One breaker admission per batch; counters move per sample.
  void WriteBatch(const Pending* items, std::size_t n);

  const StorePolicy policy_;
  Clock* clock_;
  Logger* log_;
  StoreCounters* counters_;

  /// Set iff policy_.decomp parsed; Decomposer keeps per-series history for
  /// delta/rate columns, so writes through it serialize on write_mu_.
  std::unique_ptr<Decomposer> decomposer_;
  std::mutex write_mu_;
  RowBatch row_scratch_;             // guarded by write_mu_
  std::uint64_t decompose_failures_ = 0;  // guarded by mu_

  mutable std::mutex mu_;
  std::condition_variable space_cv_;  // block-mode submitters wait here
  std::deque<Pending> queue_;
  std::size_t queue_high_water_ = 0;
  bool draining_ = false;  // a drain task is scheduled or running
  bool stopping_ = false;

  // Breaker state (guarded by mu_).
  BreakerState breaker_ = BreakerState::kClosed;
  std::uint64_t consecutive_failures_ = 0;
  DurationNs backoff_ = 0;
  TimeNs retry_at_ = 0;
  Rng jitter_rng_;

  // Per-policy counters (guarded by mu_; aggregates also go to counters_).
  std::uint64_t stores_ = 0;
  std::uint64_t store_failures_ = 0;
  std::uint64_t shed_samples_ = 0;
  std::uint64_t breaker_trips_ = 0;
  std::uint64_t breaker_recoveries_ = 0;
  std::uint64_t quarantine_gap_ = 0;   // lifetime, across episodes
  std::uint64_t episode_gap_ = 0;      // current/most recent episode
};

}  // namespace ldmsxx

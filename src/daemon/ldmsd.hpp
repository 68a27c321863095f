// ldmsd: the LDMS daemon. "The base LDMS component is the multi-threaded
// ldmsd daemon which is run in either sampler or aggregator mode and
// supports the store functionality when run in aggregator mode" (§IV-B).
// One class covers both modes; behaviour is purely configuration:
//
//   sampler mode    — AddSampler() plugins, Listen() for collectors
//   aggregator mode — AddProducer() targets to pull from, AddStorePolicy()
//                     to persist what arrives; mirrors are re-exported in
//                     the local set registry, which is what makes multi-
//                     level daisy-chained aggregation work.
//
// Thread pools, per the paper: a worker pool runs sampling and collection;
// a separate connection pool runs connection setup so connects hung in
// timeout cannot starve collection; a dedicated storage pool flushes to
// stable storage. Setting a pool's size to 0 runs that work inline, which
// the deterministic simulation mode uses.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/mem_manager.hpp"
#include "core/set_registry.hpp"
#include "daemon/plugin.hpp"
#include "daemon/registry.hpp"
#include "daemon/scheduler.hpp"
#include "daemon/store_runtime.hpp"
#include "store/store.hpp"
#include "transport/registry.hpp"
#include "transport/transport.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace ldmsxx {

class PluginRegistry;

struct LdmsdOptions {
  /// Daemon name; also the default producer name stamped on local sets.
  std::string name = "ldmsd";
  /// Transport plugin + address to listen on; empty transport = no listener.
  std::string listen_transport;
  std::string listen_address;
  /// Metric-set memory pool size (the real ldmsd's -m flag).
  std::size_t set_memory = 1 << 20;
  /// Worker pool (sampling + collection). 0 = run inline.
  std::size_t worker_threads = 2;
  /// Connection-setup pool. 0 = connect inline.
  std::size_t connection_threads = 1;
  /// Storage flush pool. 0 = store inline.
  std::size_t store_threads = 1;
  std::string log_path;
  LogLevel log_level = LogLevel::kWarn;
  /// Time source; nullptr = RealClock.
  Clock* clock = nullptr;
  /// Transport plugins; nullptr = TransportRegistry::Default().
  TransportRegistry* transports = nullptr;
  /// Accept advertise messages by auto-adding the announcing producer.
  bool accept_advertised_producers = false;
  /// Collection interval used for advertised producers.
  DurationNs advertised_interval = kNsPerSec;
  /// Crash-safe cluster registry file; empty = no registry. With one set,
  /// producer/store/tree topology is persisted (atomically) across restarts
  /// and RestoreFromRegistry() can resume the whole configuration with no
  /// config script.
  std::string registry_path;
};

/// Per-sampler schedule (the `start name=X interval=...` command).
struct SamplerConfig {
  DurationNs interval = kNsPerSec;
  DurationNs offset = 0;
  bool synchronous = false;
  PluginParams params;
};

/// One collection target (the `prdcr_add` + `updtr_add` commands). The
/// aggregation schedule cannot be altered once set — restart the producer
/// to change it, matching the paper's stated limitation.
struct ProducerConfig {
  std::string name;
  std::string transport = "local";
  std::string address;
  DurationNs interval = kNsPerSec;
  DurationNs offset = 0;
  bool synchronous = false;
  /// Per-request deadline on this producer's connection; a stalled peer
  /// completes updates with kTimeout instead of wedging a collection thread.
  /// 0 = the transport's default (kDefaultRequestTimeoutNs).
  DurationNs request_timeout = 0;
  /// Reconnect backoff after *failed connect attempts*: exponential doubling
  /// from min to max with deterministic ±25% jitter (seeded per producer, so
  /// a herd of aggregators reconnecting to one restarted peer de-
  /// synchronizes reproducibly). A detected disconnect itself retries on the
  /// next cycle; backoff only grows while the peer stays unreachable.
  /// min = 0 disables gating entirely (retry every collection cycle).
  DurationNs reconnect_min_backoff = 50 * kNsPerMs;
  DurationNs reconnect_max_backoff = 2 * kNsPerSec;
  /// Set instances to collect; empty = discover all via dir().
  std::vector<std::string> set_instances;
  /// With dir()-discovery (set_instances empty), re-run dir+lookup at this
  /// cadence even while mirrors exist, so sets that appear on the peer
  /// *after* the first lookup (a mid-tier aggregator re-serving a repaired
  /// shard, late-starting samplers) are picked up without operator action.
  /// 0 = only the initial discovery (and explicit RefreshProducer() nudges).
  DurationNs rediscover_interval = 0;
  /// Declare delta-capable to the producer (protocol v2): sets that advanced
  /// exactly one transaction arrive as RLE extent deltas instead of full
  /// data chunks. Disable to force the full-chunk path (ablation, or as an
  /// escape hatch against a misbehaving peer).
  bool delta_updates = true;
  /// Standby connections are established (connect + lookup) but not pulled
  /// from until ActivateStandby() — fast failover (§IV-B).
  bool standby = false;
  /// Name of the primary producer this standby covers (bookkeeping only).
  std::string standby_for;
};

class Ldmsd final : public ServiceHandler {
 public:
  /// Aggregate activity counters (CPU/footprint accounting for §IV-D).
  struct Counters {
    std::atomic<std::uint64_t> samples{0};
    std::atomic<std::uint64_t> sample_ns{0};
    std::atomic<std::uint64_t> updates_ok{0};
    std::atomic<std::uint64_t> updates_no_new_data{0};
    std::atomic<std::uint64_t> updates_failed{0};
    /// Per-set pulls issued inside a kUpdateBatchReq frame (every pull is
    /// batched; the counter stays for the pipeline benchmark's breakdown).
    std::atomic<std::uint64_t> updates_batched{0};
    /// Pulls the producer answered with the 5-byte DGN-gate marker (no new
    /// sample), so no data chunk crossed the wire.
    std::atomic<std::uint64_t> updates_unchanged{0};
    /// Pulls answered with a delta payload (changed extents only) instead of
    /// the full data chunk, and the wire bytes that saved versus shipping
    /// the whole chunk.
    std::atomic<std::uint64_t> updates_delta{0};
    std::atomic<std::uint64_t> delta_bytes_saved{0};
    /// Transport bytes (tx+rx) attributable to collect cycles, as reported
    /// by the producer endpoints' stats deltas.
    std::atomic<std::uint64_t> update_bytes_on_wire{0};
    std::atomic<std::uint64_t> update_ns{0};
    std::atomic<std::uint64_t> lookups{0};
    /// Storage-path counters (queue shedding, breaker activity) shared by
    /// every store policy; see StoreCounters.
    StoreCounters storage;
    std::atomic<std::uint64_t> connects_ok{0};
    std::atomic<std::uint64_t> connects_failed{0};
    /// Successful re-establishments of a producer connection that had been
    /// up before (surfaced alongside skipped_firings for churn visibility).
    std::atomic<std::uint64_t> reconnects{0};
    /// Collection cycles that skipped a connect attempt because the
    /// producer's reconnect backoff window had not yet elapsed.
    std::atomic<std::uint64_t> backoff_deferrals{0};
    /// Announce attempts re-fired by AnnounceWithRetry after the current
    /// seed-aggregator target failed (failover re-seeding, ISSUE 9).
    std::atomic<std::uint64_t> announce_retries{0};
  };

  /// Health of one producer connection.
  struct ProducerStatus {
    bool known = false;
    bool connected = false;
    bool active = false;  // standby producers are inactive until failover
    std::uint64_t consecutive_failures = 0;
    std::uint64_t sets_ready = 0;
    /// Times this producer's connection was re-established after a drop.
    std::uint64_t reconnects = 0;
    /// Current backoff span; 0 when the last connect succeeded.
    DurationNs current_backoff = 0;
    /// Batch-protocol accounting for this producer (see Counters).
    std::uint64_t updates_batched = 0;
    std::uint64_t updates_unchanged = 0;
    std::uint64_t updates_delta = 0;
    std::uint64_t delta_bytes_saved = 0;
    std::uint64_t update_bytes_on_wire = 0;
  };

  explicit Ldmsd(LdmsdOptions options);
  ~Ldmsd() override;

  Ldmsd(const Ldmsd&) = delete;
  Ldmsd& operator=(const Ldmsd&) = delete;

  /// Bring up the listener (if configured) and the timer thread when using
  /// a real clock. With a SimClock, use RunUntil() instead of Start().
  Status Start();
  void Stop();

  // --- sampler mode -------------------------------------------------------

  /// Load + config + start a sampling plugin.
  Status AddSampler(SamplerPluginPtr plugin, const SamplerConfig& config);

  /// Change a running sampler's interval on the fly.
  Status SetSamplingInterval(const std::string& plugin_name,
                             DurationNs interval);

  /// Stop a sampler plugin and deregister its sets.
  Status RemoveSampler(const std::string& plugin_name);

  // --- aggregator mode ----------------------------------------------------

  Status AddProducer(const ProducerConfig& config);

  /// Stop collecting from a producer and drop its mirrors (the `prdcr_del`
  /// shape); removes it from the cluster registry too.
  Status RemoveProducer(const std::string& producer_name);

  /// Begin pulling from a standby producer (manual or watchdog failover).
  Status ActivateStandby(const std::string& producer_name);

  /// Stop pulling from a producer (does not drop the connection).
  Status DeactivateProducer(const std::string& producer_name);

  /// Force a dir+lookup on the producer's next collect cycle. Tree repair
  /// uses this to make the root re-discover a shard that moved to a new
  /// leaf without waiting out the rediscover_interval.
  Status RefreshProducer(const std::string& producer_name);

  /// Register a store policy. An empty policy.name is derived from the
  /// store's plugin name and uniquified with a "#N" suffix.
  Status AddStorePolicy(StorePolicy policy);

  /// Run @p set through every matching store policy, as if it had just been
  /// collected (sampler-mode local storage, and tests).
  void StoreLocalSet(const MetricSetPtr& set);

  ProducerStatus producer_status(const std::string& producer_name) const;
  std::vector<std::string> producer_names() const;
  /// The configuration a producer was added with; nullopt when unknown.
  std::optional<ProducerConfig> producer_config(
      const std::string& producer_name) const;

  /// Point-in-time view of one store policy; status.known is false for an
  /// unknown name.
  StorePolicyStatus store_policy_status(const std::string& policy_name) const;
  std::vector<std::string> store_policy_names() const;
  /// A registered policy as configured (store included); nullopt when
  /// unknown.
  std::optional<StorePolicy> store_policy(const std::string& policy_name) const;

  // --- simulation drive ---------------------------------------------------

  /// Deterministically run all schedules up to @p until. Requires
  /// options.clock to be @p sim and pools sized 0 for full determinism.
  void RunUntil(SimClock& sim, TimeNs until) { scheduler_.RunUntil(sim, until); }

  // --- ServiceHandler (requests arriving from peers) ----------------------

  std::vector<std::string> HandleDir() override;
  Status HandleLookup(const std::string& instance,
                      std::vector<std::byte>* metadata) override;
  void HandleAdvertise(const AdvertiseMsg& msg) override;
  std::uint32_t HandleAssignHandle(const std::string& instance) override;
  MetricSetPtr HandleResolveHandle(std::uint32_t handle) override;
  /// Serve a tree-sharded query against this daemon's local tsdb store (the
  /// strgp named in the request). Errors are carried in resp->code so the
  /// root's merge can account the leaf as failed, not the transport.
  void HandleQuery(const QueryRequest& req, QueryResponse* resp) override;

  /// Result of fanning one query out to every producer peer: the merged,
  /// (ts, node)-ordered page plus per-leaf accounting. A leaf whose
  /// transport failed, timed out, or answered a non-zero code counts in
  /// leaves_failed; its rows are simply absent — partial results are the
  /// contract, exactly like `dir` over a degraded tree.
  struct FanoutResult {
    QueryResponse merged;
    std::size_t leaves_ok = 0;
    std::size_t leaves_failed = 0;
  };
  /// Forward @p req to every producer's endpoint (the aggregation-tree
  /// leaves, in deterministic name order) and merge the result pages.
  /// Returns Ok even when some leaves failed; the accounting says so.
  Status FanoutQuery(const QueryRequest& req, FanoutResult* out);

  // --- introspection ------------------------------------------------------

  const std::string& name() const { return options_.name; }
  SetRegistry& sets() { return sets_; }
  const SetRegistry& sets() const { return sets_; }
  MemManager& memory() { return mem_; }
  const Counters& counters() const { return counters_; }
  Logger& log() { return log_; }
  Clock& clock() const { return *clock_; }
  TimerScheduler& scheduler() { return scheduler_; }
  /// Sampling/collection firings skipped because the previous execution was
  /// still in flight (surfaced so operators can spot over-tight intervals).
  std::uint64_t skipped_firings() const { return scheduler_.skipped_total(); }
  /// Attach the aggregation-tree view this daemon roots (not owned); the
  /// tree_status control verb reads it, and the current tree state is
  /// snapshotted into the cluster registry. nullptr = no tree.
  void set_tree(TreeManager* tree) {
    tree_ = tree;
    RecordTreeState();
  }
  /// Like set_tree, but the daemon owns the manager — the shape restart-
  /// resume produces (the restored tree has no external owner).
  void AdoptTree(std::unique_ptr<TreeManager> tree);
  TreeManager* tree() const { return tree_; }
  /// Actual listener address (resolves ephemeral ports).
  std::string listen_address() const;
  /// Announce this daemon to an aggregator and ask it to connect back.
  Status AdvertiseTo(const std::string& transport, const std::string& address);
  /// Self-assembly: announce to a seed aggregator with our torus node id so
  /// it assigns us a leaf in its aggregation tree and persists the
  /// assignment (ISSUE 8 tentpole part 3).
  Status AnnounceTo(const std::string& transport, const std::string& address,
                    std::uint64_t node_id);
  /// One seed-aggregator announce target for AnnounceWithRetry.
  struct AnnounceTarget {
    std::string transport;
    std::string address;
  };
  /// AnnounceTo with failover re-seeding: try @p targets in order (primary
  /// first, standbys after); if every target refuses, keep retrying on the
  /// scheduler with exponential backoff, rotating through the targets, until
  /// one accepts. Each re-fired attempt bumps Counters.announce_retries, so
  /// a sampler stuck re-seeding is visible through the counters verb.
  /// Returns Ok when the first synchronous attempt landed; kDisconnected
  /// (with retries armed) otherwise.
  Status AnnounceWithRetry(std::vector<AnnounceTarget> targets,
                           std::uint64_t node_id,
                           DurationNs min_backoff = 50 * kNsPerMs,
                           DurationNs max_backoff = 2 * kNsPerSec);
  /// Store object behind a named policy (the `query` verb resolves its
  /// strgp name through this); nullptr for an unknown policy.
  std::shared_ptr<Store> store_for_policy(const std::string& policy_name) const;

  // --- cluster registry (crash-safe restart-resume) -----------------------

  /// The attached registry; nullptr when options.registry_path is empty.
  ClusterRegistry* registry() const { return registry_.get(); }
  /// Load the registry file and reconstitute the owned aggregation tree,
  /// then store policies (re-made through @p plugins), then producers — no
  /// config script. Each record goes through its verb's own parser.
  /// Reconnection/lookup re-validation rides the existing collect-cycle
  /// backoff machinery. kUnsupported without a registry.
  Status RestoreFromRegistry(const PluginRegistry& plugins);
  /// Re-snapshot the attached tree (options + down leaves) into the
  /// registry and save. Call after applying repairs (MarkLeafDown/Up).
  void RecordTreeState();
  /// Invoked when an announce-flagged advertise is placed into the tree:
  /// (message, assigned leaf index). The wiring layer (harness/operator
  /// tooling) uses it to add the producer on the assigned leaf daemon.
  /// Without a hook, the announce falls back to local collection.
  using AnnounceHook =
      std::function<void(const AdvertiseMsg&, std::size_t leaf)>;
  void set_announce_hook(AnnounceHook hook) {
    announce_hook_ = std::move(hook);
  }

 private:
  struct SamplerEntry {
    SamplerPluginPtr plugin;
    SamplerConfig config;
    TimerScheduler::TaskId task = 0;
  };

  struct MirrorEntry {
    MetricSetPtr set;
    std::uint64_t last_gn = 0;
    /// Compact handle the producer assigned at lookup for batch-addressed
    /// pulls. Refreshed on every (re-)lookup, since a producer restart
    /// invalidates old handles.
    std::uint32_t handle = kInvalidSetHandle;
    /// Serializes ApplyData against StoreSet.
    std::shared_ptr<std::mutex> mu = std::make_shared<std::mutex>();
  };

  struct Producer {
    ProducerConfig config;
    std::unique_ptr<Endpoint> endpoint;
    std::map<std::string, MirrorEntry> mirrors;
    bool connected = false;
    bool connecting = false;
    bool active = false;
    /// Set when a mirror was dropped (schema change) and must be re-looked
    /// up on the next cycle.
    bool need_lookup = false;
    std::uint64_t consecutive_failures = 0;
    /// True once a connect has ever succeeded; distinguishes reconnects
    /// from the first connection for the reconnect counters.
    bool ever_connected = false;
    std::uint64_t reconnects = 0;
    /// Current exponential backoff span (0 = none) and the earliest time the
    /// next connect attempt may run.
    DurationNs backoff = 0;
    TimeNs next_connect_attempt = 0;
    /// Earliest time the next periodic re-discovery (rediscover_interval)
    /// may run; 0 arms it on the first pull cycle.
    TimeNs next_rediscover = 0;
    /// Deterministic jitter stream, seeded from the producer name.
    Rng jitter_rng{0};
    TimerScheduler::TaskId task = 0;
    /// Batch accounting mirrored into ProducerStatus (guarded by mu).
    std::uint64_t updates_batched = 0;
    std::uint64_t updates_unchanged = 0;
    std::uint64_t updates_delta = 0;
    std::uint64_t delta_bytes_saved = 0;
    std::uint64_t update_bytes_on_wire = 0;
    /// Collect-cycle scratch (guarded by mu): reused across cycles so the
    /// steady-state pull path recycles capacity instead of reallocating.
    std::vector<Endpoint::BatchUpdateSpec> batch_specs;
    std::vector<Endpoint::BatchUpdateResult> batch_results;
    std::vector<std::pair<const std::string, MirrorEntry>*> batch_entries;
    std::mutex mu;  // guards all mutable state above
  };

  using PolicyList = std::vector<std::shared_ptr<StorePolicyRuntime>>;

  void SampleOnce(SamplerEntry& entry);
  /// Save the registry after a mutation, unless restoring (restore saves
  /// once at the end). Caller checked registry_ != nullptr.
  void SaveRegistry();
  Status AdvertiseInternal(const std::string& transport,
                           const std::string& address, bool announce,
                           std::uint64_t node_id);
  void CollectCycle(const std::shared_ptr<Producer>& producer);
  void ConnectProducer(const std::shared_ptr<Producer>& producer);
  /// Grow the backoff window after a failed connect; caller holds producer.mu.
  void ScheduleReconnect(Producer& producer);
  Status LookupSets(Producer& producer);  // caller holds producer.mu
  void StoreMirror(const MirrorEntry& mirror);
  /// Snapshot of the current policy list: copy-on-write, so the hot store
  /// path pays one refcount bump under state_mu_ instead of copying a
  /// vector of policies per stored sample.
  std::shared_ptr<const PolicyList> policies() const {
    std::lock_guard<std::mutex> lock(state_mu_);
    return store_policies_;
  }

  LdmsdOptions options_;
  Logger log_;
  Clock* clock_;
  TransportRegistry* transports_;
  MemManager mem_;
  SetRegistry sets_;

  std::unique_ptr<ThreadPool> workers_;     // may be null (inline)
  std::unique_ptr<ThreadPool> connectors_;  // may be null (inline)
  std::unique_ptr<ThreadPool> storers_;     // may be null (inline)
  TimerScheduler scheduler_;

  std::unique_ptr<Listener> listener_;

  mutable std::mutex state_mu_;  // guards the maps below
  std::map<std::string, SamplerEntry> samplers_;
  std::map<std::string, std::shared_ptr<Producer>> producers_;
  /// Immutable snapshot, swapped wholesale by AddStorePolicy (which also
  /// holds state_mu_ to serialize writers); readers go through policies().
  std::shared_ptr<const PolicyList> store_policies_ =
      std::make_shared<PolicyList>();

  Counters counters_;
  TreeManager* tree_ = nullptr;
  /// Set only by AdoptTree (restart-resume); tree_ aliases it then.
  std::unique_ptr<TreeManager> owned_tree_;
  std::unique_ptr<ClusterRegistry> registry_;  // null without registry_path
  AnnounceHook announce_hook_;
  /// Suppresses per-record eager saves while RestoreFromRegistry replays
  /// the snapshot (one save at the end instead of one per record).
  std::atomic<bool> restoring_{false};
  std::atomic<bool> started_{false};
};

}  // namespace ldmsxx

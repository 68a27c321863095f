#include "daemon/ldmsd.hpp"

#include <algorithm>
#include <condition_variable>

#include "daemon/config.hpp"
#include "daemon/plugin_registry.hpp"
#include "daemon/topology.hpp"
#include "store/tsdb/tsdb_store.hpp"
#include "util/hash.hpp"

namespace ldmsxx {

Ldmsd::Ldmsd(LdmsdOptions options)
    : options_(std::move(options)),
      log_(options_.name, options_.log_path),
      clock_(options_.clock != nullptr ? options_.clock
                                       : &RealClock::Instance()),
      transports_(options_.transports != nullptr
                      ? options_.transports
                      : &TransportRegistry::Default()),
      mem_(options_.set_memory),
      workers_(options_.worker_threads > 0
                   ? std::make_unique<ThreadPool>(options_.worker_threads,
                                                  options_.name + "/work")
                   : nullptr),
      connectors_(options_.connection_threads > 0
                      ? std::make_unique<ThreadPool>(
                            options_.connection_threads,
                            options_.name + "/conn")
                      : nullptr),
      storers_(options_.store_threads > 0
                   ? std::make_unique<ThreadPool>(options_.store_threads,
                                                  options_.name + "/store")
                   : nullptr),
      scheduler_(*clock_, workers_.get()) {
  log_.set_level(options_.log_level);
  if (!options_.registry_path.empty()) {
    registry_ = std::make_unique<ClusterRegistry>(options_.registry_path);
  }
}

Ldmsd::~Ldmsd() { Stop(); }

Status Ldmsd::Start() {
  if (started_.exchange(true)) return Status::Ok();
  if (!options_.listen_transport.empty()) {
    auto transport = transports_->Get(options_.listen_transport);
    if (transport == nullptr) {
      return {ErrorCode::kNotFound,
              "unknown transport: " + options_.listen_transport};
    }
    Status st = transport->Listen(options_.listen_address, this, &listener_);
    if (!st.ok()) return st;
    log_.Info("listening on ", options_.listen_transport, "://",
              listener_->address());
  }
  // Threaded timing only makes sense on a real clock; SimClock users drive
  // via RunUntil().
  if (dynamic_cast<SimClock*>(clock_) == nullptr) scheduler_.Start();
  return Status::Ok();
}

void Ldmsd::Stop() {
  if (!started_.exchange(false)) return;
  scheduler_.Stop();
  if (workers_ != nullptr) workers_->Shutdown();
  if (connectors_ != nullptr) connectors_->Shutdown();
  // Unblock any collection thread parked on a full block-mode queue before
  // joining the storer pool, or Shutdown could wait on a waiter forever.
  auto snapshot = policies();
  for (const auto& runtime : *snapshot) runtime->BeginShutdown();
  if (storers_ != nullptr) storers_->Shutdown();
  listener_.reset();
  // The pool drained its task queue, but a drain task that tried to resubmit
  // after shutdown was dropped — write whatever is still queued inline, then
  // flush, so no sample accepted into a queue is silently lost.
  for (const auto& runtime : *snapshot) {
    runtime->DrainInline();
    Status st = runtime->policy().store->Flush();
    if (!st.ok()) {
      log_.Error("flush of strgp ", runtime->name(), " failed: ",
                 st.ToString());
    }
  }
}

std::string Ldmsd::listen_address() const {
  return listener_ != nullptr ? listener_->address()
                              : options_.listen_address;
}

// ---------------------------------------------------------------------------
// Sampler mode
// ---------------------------------------------------------------------------

Status Ldmsd::AddSampler(SamplerPluginPtr plugin,
                         const SamplerConfig& config) {
  if (plugin == nullptr) {
    return {ErrorCode::kInvalidArgument, "null plugin"};
  }
  PluginParams params = config.params;
  params.try_emplace("producer", options_.name);
  Status st = plugin->Init(mem_, sets_, params);
  if (!st.ok()) {
    log_.Error("sampler ", plugin->name(), " init failed: ", st.ToString());
    return st;
  }
  SamplerEntry entry;
  entry.plugin = std::move(plugin);
  entry.config = config;
  const std::string name = entry.plugin->name();

  std::lock_guard<std::mutex> lock(state_mu_);
  auto [it, inserted] = samplers_.emplace(name, std::move(entry));
  if (!inserted) {
    return {ErrorCode::kAlreadyExists, "sampler already loaded: " + name};
  }
  TimerScheduler::TaskOptions topts;
  topts.interval = config.interval;
  topts.offset = config.offset;
  topts.synchronous = config.synchronous;
  SamplerEntry* raw = &it->second;
  it->second.task = scheduler_.Schedule([this, raw] { SampleOnce(*raw); },
                                        topts);
  log_.Info("sampler ", name, " started, interval ",
            config.interval / kNsPerUs, "us");
  return Status::Ok();
}

void Ldmsd::SampleOnce(SamplerEntry& entry) {
  const std::uint64_t t0 = NowSteadyNs();
  Status st = entry.plugin->Sample(clock_->Now());
  const std::uint64_t dt = NowSteadyNs() - t0;
  counters_.samples.fetch_add(1, std::memory_order_relaxed);
  counters_.sample_ns.fetch_add(dt, std::memory_order_relaxed);
  if (!st.ok()) {
    log_.Warn("sampler ", entry.plugin->name(), " failed: ", st.ToString());
  }
}

Status Ldmsd::SetSamplingInterval(const std::string& plugin_name,
                                  DurationNs interval) {
  std::lock_guard<std::mutex> lock(state_mu_);
  auto it = samplers_.find(plugin_name);
  if (it == samplers_.end()) {
    return {ErrorCode::kNotFound, "no such sampler: " + plugin_name};
  }
  it->second.config.interval = interval;
  return scheduler_.Reschedule(it->second.task, interval);
}

Status Ldmsd::RemoveSampler(const std::string& plugin_name) {
  std::lock_guard<std::mutex> lock(state_mu_);
  auto it = samplers_.find(plugin_name);
  if (it == samplers_.end()) {
    return {ErrorCode::kNotFound, "no such sampler: " + plugin_name};
  }
  scheduler_.Cancel(it->second.task);
  for (const auto& set : it->second.plugin->Sets()) {
    (void)sets_.Remove(set->instance_name());
  }
  samplers_.erase(it);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Aggregator mode
// ---------------------------------------------------------------------------

Status Ldmsd::AddProducer(const ProducerConfig& config) {
  if (transports_->Get(config.transport) == nullptr) {
    return {ErrorCode::kNotFound, "unknown transport: " + config.transport};
  }
  auto producer = std::make_shared<Producer>();
  producer->config = config;
  producer->active = !config.standby;
  producer->jitter_rng = Rng(Fnv1a(config.name));
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    auto [it, inserted] = producers_.emplace(config.name, producer);
    if (!inserted) {
      return {ErrorCode::kAlreadyExists,
              "producer already added: " + config.name};
    }
  }
  TimerScheduler::TaskOptions topts;
  topts.interval = config.interval;
  topts.offset = config.offset;
  topts.synchronous = config.synchronous;
  std::weak_ptr<Producer> weak = producer;
  producer->task = scheduler_.Schedule(
      [this, weak] {
        if (auto p = weak.lock()) CollectCycle(p);
      },
      topts);
  log_.Info("producer ", config.name, " added (", config.transport, "://",
            config.address, config.standby ? ", standby)" : ")");
  if (registry_ != nullptr) {
    registry_->UpsertProducer(PrdcrAddArgs(config));
    SaveRegistry();
  }
  return Status::Ok();
}

Status Ldmsd::RemoveProducer(const std::string& producer_name) {
  std::shared_ptr<Producer> producer;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    auto it = producers_.find(producer_name);
    if (it == producers_.end()) {
      return {ErrorCode::kNotFound, "no such producer: " + producer_name};
    }
    producer = it->second;
    producers_.erase(it);
  }
  scheduler_.Cancel(producer->task);
  {
    std::lock_guard<std::mutex> lock(producer->mu);
    for (const auto& [instance, mirror] : producer->mirrors) {
      (void)sets_.Remove(instance);
    }
    producer->mirrors.clear();
    producer->endpoint.reset();
    producer->connected = false;
    producer->active = false;
  }
  if (registry_ != nullptr && registry_->RemoveProducer(producer_name)) {
    SaveRegistry();
  }
  log_.Info("producer ", producer_name, " removed");
  return Status::Ok();
}

Status Ldmsd::ActivateStandby(const std::string& producer_name) {
  std::shared_ptr<Producer> producer;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    auto it = producers_.find(producer_name);
    if (it == producers_.end()) {
      return {ErrorCode::kNotFound, "no such producer: " + producer_name};
    }
    producer = it->second;
  }
  std::lock_guard<std::mutex> lock(producer->mu);
  producer->active = true;
  log_.Info("standby producer ", producer_name, " activated");
  return Status::Ok();
}

Status Ldmsd::DeactivateProducer(const std::string& producer_name) {
  std::shared_ptr<Producer> producer;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    auto it = producers_.find(producer_name);
    if (it == producers_.end()) {
      return {ErrorCode::kNotFound, "no such producer: " + producer_name};
    }
    producer = it->second;
  }
  std::lock_guard<std::mutex> lock(producer->mu);
  producer->active = false;
  return Status::Ok();
}

Status Ldmsd::RefreshProducer(const std::string& producer_name) {
  std::shared_ptr<Producer> producer;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    auto it = producers_.find(producer_name);
    if (it == producers_.end()) {
      return {ErrorCode::kNotFound, "no such producer: " + producer_name};
    }
    producer = it->second;
  }
  std::lock_guard<std::mutex> lock(producer->mu);
  producer->need_lookup = true;
  return Status::Ok();
}

Status Ldmsd::AddStorePolicy(StorePolicy policy) {
  if (policy.store == nullptr) {
    return {ErrorCode::kInvalidArgument, "null store"};
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  auto taken = [this](const std::string& name) {
    for (const auto& runtime : *store_policies_) {
      if (runtime->name() == name) return true;
    }
    return false;
  };
  if (policy.name.empty()) policy.name = policy.store->name();
  if (taken(policy.name)) {
    const std::string base = policy.name;
    for (int i = 2;; ++i) {
      policy.name = base + "#" + std::to_string(i);
      if (!taken(policy.name)) break;
    }
  }
  auto runtime = std::make_shared<StorePolicyRuntime>(
      std::move(policy), clock_, &log_, &counters_.storage);
  // Copy-on-write: readers hold shared_ptr snapshots of the old list, so
  // build a new vector and swap the pointer rather than mutating in place.
  auto next = std::make_shared<PolicyList>(*store_policies_);
  next->push_back(runtime);
  store_policies_ = std::move(next);
  // A hand-built store (no plugin) cannot be re-made, so it is not recorded.
  if (registry_ != nullptr && !runtime->policy().plugin.empty()) {
    registry_->UpsertStore(StrgpAddArgs(runtime->policy()));
    SaveRegistry();
  }
  return Status::Ok();
}

void Ldmsd::StoreLocalSet(const MetricSetPtr& set) {
  if (set == nullptr) return;
  auto snapshot = policies();
  if (snapshot->empty()) return;
  // Local sets have no per-mirror mutex; give each write a throwaway one.
  auto mu = std::make_shared<std::mutex>();
  for (const auto& runtime : *snapshot) {
    runtime->Submit(set, mu, storers_.get());
  }
}

StorePolicyStatus Ldmsd::store_policy_status(
    const std::string& policy_name) const {
  auto snapshot = policies();
  for (const auto& runtime : *snapshot) {
    if (runtime->name() == policy_name) return runtime->status();
  }
  return {};
}

std::vector<std::string> Ldmsd::store_policy_names() const {
  auto snapshot = policies();
  std::vector<std::string> names;
  names.reserve(snapshot->size());
  for (const auto& runtime : *snapshot) names.push_back(runtime->name());
  return names;
}

std::optional<StorePolicy> Ldmsd::store_policy(
    const std::string& policy_name) const {
  auto snapshot = policies();
  for (const auto& runtime : *snapshot) {
    if (runtime->name() == policy_name) return runtime->policy();
  }
  return std::nullopt;
}

Ldmsd::ProducerStatus Ldmsd::producer_status(
    const std::string& producer_name) const {
  ProducerStatus status;
  std::shared_ptr<Producer> producer;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    auto it = producers_.find(producer_name);
    if (it == producers_.end()) return status;
    producer = it->second;
  }
  std::lock_guard<std::mutex> lock(producer->mu);
  status.known = true;
  status.connected = producer->connected;
  status.active = producer->active;
  status.consecutive_failures = producer->consecutive_failures;
  status.sets_ready = producer->mirrors.size();
  status.reconnects = producer->reconnects;
  status.current_backoff = producer->backoff;
  status.updates_batched = producer->updates_batched;
  status.updates_unchanged = producer->updates_unchanged;
  status.updates_delta = producer->updates_delta;
  status.delta_bytes_saved = producer->delta_bytes_saved;
  status.update_bytes_on_wire = producer->update_bytes_on_wire;
  return status;
}

std::vector<std::string> Ldmsd::producer_names() const {
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lock(state_mu_);
  names.reserve(producers_.size());
  for (const auto& [name, producer] : producers_) names.push_back(name);
  return names;
}

std::optional<ProducerConfig> Ldmsd::producer_config(
    const std::string& producer_name) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  auto it = producers_.find(producer_name);
  if (it == producers_.end()) return std::nullopt;
  return it->second->config;  // immutable once added
}

void Ldmsd::ScheduleReconnect(Producer& producer) {
  const DurationNs min_backoff = producer.config.reconnect_min_backoff;
  if (min_backoff == 0) return;  // gating disabled: retry every cycle
  const DurationNs max_backoff =
      std::max(producer.config.reconnect_max_backoff, min_backoff);
  producer.backoff = producer.backoff == 0
                         ? min_backoff
                         : std::min(producer.backoff * 2, max_backoff);
  // ±25% jitter so many aggregators hammering one restarted peer spread out.
  const double jitter = 0.75 + 0.5 * producer.jitter_rng.NextDouble();
  producer.next_connect_attempt =
      clock_->Now() +
      static_cast<DurationNs>(static_cast<double>(producer.backoff) * jitter);
}

void Ldmsd::ConnectProducer(const std::shared_ptr<Producer>& producer) {
  // Runs on the connection pool (or inline when connection_threads == 0).
  auto transport = transports_->Get(producer->config.transport);
  std::unique_ptr<Endpoint> endpoint;
  Status st = transport->Connect(producer->config.address, &endpoint);
  std::lock_guard<std::mutex> lock(producer->mu);
  producer->connecting = false;
  if (!st.ok()) {
    counters_.connects_failed.fetch_add(1, std::memory_order_relaxed);
    ++producer->consecutive_failures;
    ScheduleReconnect(*producer);
    log_.Debug("connect to ", producer->config.name, " failed: ",
               st.ToString(), "; next attempt in ",
               producer->backoff / kNsPerMs, "ms");
    return;
  }
  producer->endpoint = std::move(endpoint);
  if (producer->config.request_timeout > 0) {
    producer->endpoint->set_request_timeout(producer->config.request_timeout);
  }
  producer->endpoint->set_delta_updates(producer->config.delta_updates);
  producer->connected = true;
  producer->backoff = 0;
  producer->next_connect_attempt = 0;
  if (producer->ever_connected) {
    ++producer->reconnects;
    counters_.reconnects.fetch_add(1, std::memory_order_relaxed);
    log_.Info("producer ", producer->config.name, " reconnected");
  }
  producer->ever_connected = true;
  counters_.connects_ok.fetch_add(1, std::memory_order_relaxed);
  Status lst = LookupSets(*producer);
  if (!lst.ok()) {
    log_.Warn("lookup on ", producer->config.name, " failed: ",
              lst.ToString());
  }
}

Status Ldmsd::LookupSets(Producer& producer) {
  std::vector<std::string> instances = producer.config.set_instances;
  if (instances.empty()) {
    Status st = producer.endpoint->Dir(&instances);
    if (!st.ok()) return st;
  }
  for (const auto& instance : instances) {
    // Lookup runs even when a mirror already exists: after a reconnect the
    // new endpoint must re-register (pin) the peer's set memory for
    // one-sided transports, and the peer assigns a fresh batch handle (the
    // old one died with the old connection/daemon incarnation).
    std::vector<std::byte> metadata;
    Endpoint::LookupExtra extra;
    Status st = producer.endpoint->LookupEx(instance, &metadata, &extra);
    counters_.lookups.fetch_add(1, std::memory_order_relaxed);
    if (!st.ok()) {
      // Set may not exist yet on the peer; retried next cycle ({a} loop in
      // Figure 2).
      log_.Debug("lookup ", instance, " on ", producer.config.name,
                 " failed: ", st.ToString());
      continue;
    }
    auto existing = producer.mirrors.find(instance);
    if (existing != producer.mirrors.end()) {
      existing->second.handle = extra.handle;  // mirror retained
      continue;
    }
    Status mirror_st;
    MetricSetPtr mirror = MetricSet::CreateMirror(mem_, metadata, &mirror_st);
    if (mirror == nullptr) {
      log_.Error("mirror creation for ", instance, " failed: ",
                 mirror_st.ToString());
      continue;
    }
    MirrorEntry entry;
    entry.set = mirror;
    entry.handle = extra.handle;
    producer.mirrors.emplace(instance, std::move(entry));
    // Re-export for higher-level aggregators (daisy chaining).
    (void)sets_.Add(mirror);
  }
  return Status::Ok();
}

void Ldmsd::CollectCycle(const std::shared_ptr<Producer>& producer_ptr) {
  Producer& producer = *producer_ptr;
  bool need_connect = false;
  bool pull = true;
  {
    std::lock_guard<std::mutex> lock(producer.mu);
    // Inactive standby producers keep their connection warm (connect +
    // lookup, §IV-B fast failover) but never pull; other inactive producers
    // are fully idle.
    if (!producer.active && !producer.config.standby) return;
    pull = producer.active;
    // A warm standby never pulls, so a dead peer would go unnoticed until
    // failover; probe the endpoint's liveness so it re-warms promptly.
    if (!pull && producer.connected && producer.endpoint != nullptr &&
        !producer.endpoint->connected()) {
      producer.connected = false;
      producer.endpoint.reset();
      producer.backoff = 0;
      producer.next_connect_attempt = 0;
    }
    if (!producer.connected && !producer.connecting) {
      if (clock_->Now() < producer.next_connect_attempt) {
        counters_.backoff_deferrals.fetch_add(1, std::memory_order_relaxed);
        return;  // still inside the reconnect backoff window
      }
      producer.connecting = true;
      need_connect = true;
    }
  }
  if (need_connect) {
    if (connectors_ != nullptr) {
      // Connection setup runs on its own pool so a connect hung in timeout
      // cannot starve collection threads (§IV-B).
      connectors_->Submit(
          [this, producer_ptr] { ConnectProducer(producer_ptr); });
      return;  // collection resumes next cycle once connected
    }
    ConnectProducer(producer_ptr);  // inline (deterministic simulations)
  }
  if (!pull) return;  // standby: connection warmed, nothing to collect

  std::lock_guard<std::mutex> lock(producer.mu);
  if (!producer.connected) return;
  // Pick up sets that appeared since connect, or re-lookup after a schema
  // change dropped a mirror. With rediscover_interval, dir()-discovered
  // producers also re-dir periodically so sets the peer started re-serving
  // later (tree repair, late samplers) show up without a nudge.
  bool want_lookup =
      producer.mirrors.empty() || producer.need_lookup ||
      (!producer.config.set_instances.empty() &&
       producer.mirrors.size() < producer.config.set_instances.size());
  if (producer.config.rediscover_interval > 0 &&
      clock_->Now() >= producer.next_rediscover) {
    want_lookup = true;
    producer.next_rediscover =
        clock_->Now() + producer.config.rediscover_interval;
  }
  if (want_lookup) {
    producer.need_lookup = false;
    (void)LookupSets(producer);
  }
  bool any_failure = false;
  std::vector<std::string> stale_mirrors;
  // One batched pull for all of this producer's sets: handle-addressed sets
  // travel in a single kUpdateBatchReq frame — one request frame per
  // producer per cycle — and sets whose DGN has not advanced come back as
  // 5-byte "unchanged" markers instead of full chunks. The spec/result
  // vectors live on the producer so steady-state cycles reuse capacity.
  const std::size_t n = producer.mirrors.size();
  auto& specs = producer.batch_specs;
  auto& results = producer.batch_results;
  auto& entries = producer.batch_entries;
  specs.clear();
  entries.clear();
  specs.reserve(n);
  entries.reserve(n);
  for (auto& entry : producer.mirrors) {
    specs.push_back({entry.second.handle, entry.second.last_gn});
    entries.push_back(&entry);
  }
  const TransportStats& ep_stats = producer.endpoint->stats();
  const std::uint64_t wire_before =
      ep_stats.bytes_tx.load(std::memory_order_relaxed) +
      ep_stats.bytes_rx.load(std::memory_order_relaxed);
  producer.endpoint->UpdateBatch(specs, &results);
  // The batch call is synchronous; the endpoint is quiescent for this cycle,
  // so the per-result bookkeeping below (including endpoint.reset()) is safe.
  const std::uint64_t wire_delta =
      ep_stats.bytes_tx.load(std::memory_order_relaxed) +
      ep_stats.bytes_rx.load(std::memory_order_relaxed) - wire_before;
  producer.update_bytes_on_wire += wire_delta;
  counters_.update_bytes_on_wire.fetch_add(wire_delta,
                                           std::memory_order_relaxed);
  producer.updates_batched += n;
  counters_.updates_batched.fetch_add(n, std::memory_order_relaxed);
  bool disconnected = false;
  for (std::size_t i = 0; i < n; ++i) {
    Endpoint::BatchUpdateResult& result = results[i];
    const std::string& instance = entries[i]->first;
    MirrorEntry& mirror = entries[i]->second;
    Status st = std::move(result.status);
    if (st.code() == ErrorCode::kInconsistent) {
      // The producer could not snapshot the set: its sampler was
      // mid-transaction, or has not sampled yet. A skipped pull, like a torn
      // mirror below; the next cycle asks again.
      counters_.updates_no_new_data.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (st.ok() && !result.unchanged) {
      std::lock_guard<std::mutex> set_lock(*mirror.mu);
      if (result.delta) {
        // Delta payload: changed extents only, decoded straight into the
        // mirror's data chunk. A mirror whose DGN drifted from the delta's
        // base rejects it with kInconsistent — treated like any failed
        // pull; the next cycle's DGN mismatch fetches the full chunk.
        st = mirror.set->ApplyDelta(result.data);
        if (st.ok()) {
          ++producer.updates_delta;
          counters_.updates_delta.fetch_add(1, std::memory_order_relaxed);
          const std::uint64_t saved =
              mirror.set->data_size() - result.data.size();
          producer.delta_bytes_saved += saved;
          counters_.delta_bytes_saved.fetch_add(saved,
                                                std::memory_order_relaxed);
        }
      } else {
        st = mirror.set->ApplyData(result.data);
      }
    }
    if (!st.ok()) {
      counters_.updates_failed.fetch_add(1, std::memory_order_relaxed);
      any_failure = true;
      if (st.code() == ErrorCode::kDisconnected) {
        disconnected = true;
      } else if (st.code() == ErrorCode::kInvalidArgument) {
        // Metadata generation mismatch: the peer restarted with a changed
        // schema. Drop the mirror; the next cycle looks it up fresh.
        log_.Warn("set ", instance, " changed schema on ",
                  producer.config.name, "; re-looking up");
        stale_mirrors.push_back(instance);
      } else if (st.code() == ErrorCode::kNotFound) {
        // The peer no longer knows this handle (it restarted, or the set was
        // dropped and re-registered). Re-lookup refreshes the handle without
        // discarding the mirror.
        producer.need_lookup = true;
      }
      continue;
    }
    if (result.unchanged) {
      // The producer's DGN gate answered "no new sample" without shipping
      // the chunk — same outcome as the gn == last_gn check below.
      ++producer.updates_unchanged;
      counters_.updates_unchanged.fetch_add(1, std::memory_order_relaxed);
      counters_.updates_no_new_data.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const std::uint64_t gn = mirror.set->data_gn();
    if (gn == mirror.last_gn || !mirror.set->consistent()) {
      // No new sample since last pull, or torn: skip the store and retry
      // next interval (§IV-B "Storage").
      counters_.updates_no_new_data.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    mirror.last_gn = gn;
    counters_.updates_ok.fetch_add(1, std::memory_order_relaxed);
    StoreMirror(mirror);
  }
  if (disconnected) {
    producer.connected = false;
    producer.endpoint.reset();
    // The drop itself does not impose backoff — the peer may just have
    // restarted — so the next cycle reconnects immediately; backoff grows
    // only if that connect attempt fails.
    producer.backoff = 0;
    producer.next_connect_attempt = 0;
    log_.Warn("producer ", producer.config.name, " disconnected");
  }
  for (const auto& instance : stale_mirrors) {
    (void)sets_.Remove(instance);
    producer.mirrors.erase(instance);
    producer.need_lookup = true;
  }
  producer.consecutive_failures =
      any_failure ? producer.consecutive_failures + 1 : 0;
}

void Ldmsd::StoreMirror(const MirrorEntry& mirror) {
  auto snapshot = policies();
  if (snapshot->empty()) return;
  for (const auto& runtime : *snapshot) {
    runtime->Submit(mirror.set, mirror.mu, storers_.get());
  }
}

// ---------------------------------------------------------------------------
// ServiceHandler: requests from peers
// ---------------------------------------------------------------------------

std::vector<std::string> Ldmsd::HandleDir() { return sets_.List(); }

Status Ldmsd::HandleLookup(const std::string& instance,
                           std::vector<std::byte>* metadata) {
  MetricSetPtr set = sets_.Find(instance);
  if (set == nullptr) {
    return {ErrorCode::kNotFound, "no such set: " + instance};
  }
  auto bytes = set->metadata_bytes();
  metadata->assign(bytes.begin(), bytes.end());
  return Status::Ok();
}

void Ldmsd::HandleAdvertise(const AdvertiseMsg& msg) {
  if (!options_.accept_advertised_producers) {
    log_.Debug("ignoring advertise from ", msg.producer);
    return;
  }
  if (msg.announce && tree_ != nullptr) {
    // Self-assembly: place the announcing sampler in the aggregation tree
    // and persist the assignment, then let the wiring hook add the producer
    // on the assigned leaf daemon. Without a hook, fall through and collect
    // from it directly (seed == collector).
    const std::size_t leaf = tree_->AddSampler({msg.producer, msg.node_id});
    RecordTreeState();
    log_.Info("announce from ", msg.producer, " placed on ",
              leaf == TreeManager::kUnassigned ? std::string("<orphan>")
                                               : tree_->leaf_name(leaf));
    if (announce_hook_) {
      announce_hook_(msg, leaf);
      return;
    }
  }
  ProducerConfig config;
  config.name = msg.producer;
  config.transport = msg.transport;
  config.address = msg.dialback_address;
  config.interval = options_.advertised_interval;
  Status st = AddProducer(config);
  if (!st.ok() && st.code() != ErrorCode::kAlreadyExists) {
    log_.Warn("advertised producer ", msg.producer, " rejected: ",
              st.ToString());
  }
}

std::uint32_t Ldmsd::HandleAssignHandle(const std::string& instance) {
  return sets_.HandleFor(instance);
}

MetricSetPtr Ldmsd::HandleResolveHandle(std::uint32_t handle) {
  return sets_.FindByHandle(handle);
}

void Ldmsd::HandleQuery(const QueryRequest& req, QueryResponse* resp) {
  *resp = QueryResponse{};
  auto store = store_for_policy(req.strgp);
  if (store == nullptr) {
    resp->code = static_cast<std::uint8_t>(ErrorCode::kNotFound);
    resp->error = "no storage policy '" + req.strgp + "'";
    return;
  }
  auto* tsdb = dynamic_cast<TsdbStore*>(store.get());
  if (tsdb == nullptr) {
    resp->code = static_cast<std::uint8_t>(ErrorCode::kUnsupported);
    resp->error = "policy '" + req.strgp + "' is not a queryable store";
    return;
  }
  TsdbQuery q;
  q.table = req.table;
  q.t0 = req.t0;
  q.t1 = req.t1;
  q.nodes = req.nodes;
  q.metrics = req.metrics;
  TsdbQueryResult& result = resp->result;
  Status st = tsdb->Query(q, &result);
  if (!st.ok()) {
    result = TsdbQueryResult{};
    resp->code = static_cast<std::uint8_t>(st.code());
    resp->error = st.message();
    return;
  }
  resp->total_rows = result.rows.size();
  // Bound the response page: the client's limit, itself clamped by the
  // server-side ceiling — a fan-out root never receives an unbounded page.
  std::size_t cap = kMaxQueryRespRows;
  if (req.limit != 0 && req.limit < cap) cap = req.limit;
  if (result.rows.size() > cap) {
    result.rows.resize(cap);
    resp->truncated = 1;
  }
}

Status Ldmsd::FanoutQuery(const QueryRequest& req, FanoutResult* out) {
  *out = FanoutResult{};
  // Snapshot the producer set under state_mu_; the map is name-ordered, so
  // the fan-out order (and thus the merged page under a row cap) is
  // deterministic. Queries then run without daemon-wide locks held.
  std::vector<std::shared_ptr<Producer>> leaves;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    leaves.reserve(producers_.size());
    for (const auto& [name, producer] : producers_) leaves.push_back(producer);
  }
  QueryResponse& merged = out->merged;
  TsdbQueryResult& page = merged.result;
  for (const auto& leaf : leaves) {
    QueryResponse resp;
    Status st;
    {
      // Per-leaf serialization with that producer's collect cycle; one dead
      // leaf costs at most the endpoint's request timeout, not the fan-out.
      std::lock_guard<std::mutex> lock(leaf->mu);
      if (leaf->endpoint == nullptr || !leaf->endpoint->connected()) {
        st = {ErrorCode::kDisconnected, "producer not connected"};
      } else {
        st = leaf->endpoint->RemoteQuery(req, &resp);
      }
    }
    if (!st.ok() || resp.code != 0) {
      ++out->leaves_failed;
      continue;
    }
    const TsdbQueryResult& part = resp.result;
    if (page.columns.empty()) page.columns = part.columns;
    if (part.columns != page.columns) {
      // Schema drift between leaves: the page would be meaningless.
      ++out->leaves_failed;
      continue;
    }
    ++out->leaves_ok;
    page.rows.insert(page.rows.end(),
                     std::make_move_iterator(resp.result.rows.begin()),
                     std::make_move_iterator(resp.result.rows.end()));
    merged.total_rows += resp.total_rows;
    merged.truncated |= resp.truncated;
    page.segments_considered += part.segments_considered;
    page.segments_pruned += part.segments_pruned;
    page.segments_read += part.segments_read;
    page.bytes_read += part.bytes_read;
    page.bytes_decoded += part.bytes_decoded;
  }
  // Global (ts, node) order regardless of which leaf answered first; stable
  // so equal keys keep leaf order — same input, same page, every run.
  std::stable_sort(page.rows.begin(), page.rows.end(),
                   [](const TsdbQueryRow& a, const TsdbQueryRow& b) {
                     return a.ts != b.ts ? a.ts < b.ts : a.node < b.node;
                   });
  std::size_t cap = kMaxQueryRespRows;
  if (req.limit != 0 && req.limit < cap) cap = req.limit;
  if (page.rows.size() > cap) {
    page.rows.resize(cap);
    merged.truncated = 1;
  }
  return Status::Ok();
}

Status Ldmsd::AdvertiseInternal(const std::string& transport,
                                const std::string& address, bool announce,
                                std::uint64_t node_id) {
  auto t = transports_->Get(transport);
  if (t == nullptr) {
    return {ErrorCode::kNotFound, "unknown transport: " + transport};
  }
  std::unique_ptr<Endpoint> endpoint;
  Status st = t->Connect(address, &endpoint);
  if (!st.ok()) return st;
  AdvertiseMsg msg;
  msg.producer = options_.name;
  msg.transport = options_.listen_transport;
  msg.dialback_address = listen_address();
  msg.announce = announce;
  msg.node_id = node_id;
  return endpoint->Advertise(msg);
}

Status Ldmsd::AdvertiseTo(const std::string& transport,
                          const std::string& address) {
  return AdvertiseInternal(transport, address, /*announce=*/false, 0);
}

Status Ldmsd::AnnounceTo(const std::string& transport,
                         const std::string& address, std::uint64_t node_id) {
  return AdvertiseInternal(transport, address, /*announce=*/true, node_id);
}

Status Ldmsd::AnnounceWithRetry(std::vector<AnnounceTarget> targets,
                                std::uint64_t node_id,
                                DurationNs min_backoff,
                                DurationNs max_backoff) {
  if (targets.empty()) {
    return {ErrorCode::kInvalidArgument, "no announce targets"};
  }
  // First attempt runs inline against the primary: the common case (seed
  // aggregator healthy) never touches the scheduler.
  Status st = AdvertiseInternal(targets[0].transport, targets[0].address,
                                /*announce=*/true, node_id);
  if (st.ok()) return st;
  log_.Warn("announce to ", targets[0].address, " failed (", st.ToString(),
            "); re-seeding against ", targets.size() - 1, " standby(s)");

  // Retry state lives in a shared_ptr owned by the task closure; the task
  // cancels itself on success (Cancel from within a task is safe — the
  // scheduler runs fn with its lock released).
  struct RetryState {
    std::vector<AnnounceTarget> targets;
    std::uint64_t node_id = 0;
    std::size_t next = 1;          // targets[0] just failed; rotate on
    DurationNs backoff = 0;
    TimeNs next_attempt_at = 0;    // gate: the task ticks faster than this
    TimerScheduler::TaskId task = 0;
    std::mutex mu;
  };
  auto state = std::make_shared<RetryState>();
  state->targets = std::move(targets);
  state->node_id = node_id;
  state->backoff = min_backoff;
  state->next_attempt_at = clock_->Now() + min_backoff;
  const DurationNs capped_max = std::max(max_backoff, min_backoff);
  TimerScheduler::TaskOptions topts;
  topts.interval = min_backoff;
  state->task = scheduler_.Schedule(
      [this, state, capped_max] {
        std::lock_guard<std::mutex> lock(state->mu);
        if (clock_->Now() < state->next_attempt_at) return;
        const AnnounceTarget& target =
            state->targets[state->next % state->targets.size()];
        ++state->next;
        counters_.announce_retries.fetch_add(1, std::memory_order_relaxed);
        const Status ast = AdvertiseInternal(target.transport, target.address,
                                             /*announce=*/true,
                                             state->node_id);
        if (ast.ok()) {
          log_.Info("announce re-seeded via ", target.address, " after ",
                    counters_.announce_retries.load(std::memory_order_relaxed),
                    " retries");
          scheduler_.Cancel(state->task);
          return;
        }
        state->backoff = std::min(state->backoff * 2, capped_max);
        state->next_attempt_at = clock_->Now() + state->backoff;
      },
      topts);
  return {ErrorCode::kDisconnected,
          "announce failed; retrying against standby targets"};
}

std::shared_ptr<Store> Ldmsd::store_for_policy(
    const std::string& policy_name) const {
  auto snapshot = policies();
  for (const auto& runtime : *snapshot) {
    if (runtime->name() == policy_name) return runtime->policy().store;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Cluster registry: crash-safe restart-resume
// ---------------------------------------------------------------------------

void Ldmsd::AdoptTree(std::unique_ptr<TreeManager> tree) {
  owned_tree_ = std::move(tree);
  tree_ = owned_tree_.get();
  RecordTreeState();
}

void Ldmsd::RecordTreeState() {
  if (registry_ == nullptr || tree_ == nullptr) return;
  registry_->SetTree(TreeArgs(tree_->options(), tree_->down_leaves()));
  SaveRegistry();
}

void Ldmsd::SaveRegistry() {
  if (restoring_.load(std::memory_order_relaxed)) return;
  Status st = registry_->Save();
  if (!st.ok()) log_.Warn("registry save failed: ", st.ToString());
}

Status Ldmsd::RestoreFromRegistry(const PluginRegistry& plugins) {
  if (registry_ == nullptr) {
    return {ErrorCode::kUnsupported, "no registry configured"};
  }
  Status st = registry_->Load();
  if (!st.ok()) return st;
  if (registry_->last_load_quarantined()) {
    log_.Warn("registry file was corrupt; quarantined and starting empty");
    return Status::Ok();  // nothing to restore: rebuild from live traffic
  }
  const RegistrySnapshot snap = registry_->snapshot();
  restoring_.store(true, std::memory_order_relaxed);
  // Tree first, so producers resume against the same placement context the
  // old incarnation persisted (and announces placed before the crash stay
  // placed — the sampler list is part of the options). Load already ran
  // every record through its parser, so these parses succeed.
  if (snap.tree) {
    TreeOptions topts;
    std::vector<std::size_t> down;
    (void)ParseTreeArgs(*snap.tree, &topts, &down);
    auto tree = std::make_unique<TreeManager>(std::move(topts));
    tree->RestoreDownLeaves(down);
    AdoptTree(std::move(tree));
  }
  std::size_t restored = 0;
  std::size_t skipped = 0;
  auto count = [&](const char* verb, const std::string& name,
                   const Status& rst) {
    if (rst.ok()) {
      ++restored;
    } else {
      log_.Warn(verb, " ", name, " not restored: ", rst.ToString());
      ++skipped;
    }
  };
  for (const auto& [name, args] : snap.stores) {
    StorePolicy policy;
    Status rst = ParseStrgpAdd(args, &policy);
    if (rst.ok()) rst = MakeStrgpStore(plugins, &policy);
    if (rst.ok()) rst = AddStorePolicy(std::move(policy));
    count("strgp_add", name, rst);
  }
  for (const auto& [name, args] : snap.producers) {
    // Reconnect + dir/lookup re-validation rides the normal collect-cycle
    // machinery (with its backoff); a schema that changed while we were
    // down is caught by the usual metadata-generation check.
    ProducerConfig config;
    Status rst = ParsePrdcrAdd(args, &config);
    if (rst.ok()) rst = AddProducer(config);
    count("prdcr_add", name, rst);
  }
  restoring_.store(false, std::memory_order_relaxed);
  log_.Info("registry restore: ", restored, " records restored, ", skipped,
            " skipped from ", registry_->path());
  return registry_->Save();
}

}  // namespace ldmsxx

#include "harness/mini_cluster.hpp"

#include <algorithm>

#include "core/schema.hpp"
#include "transport/local_transport.hpp"

namespace ldmsxx::harness {
namespace {

/// Minimal deterministic sampler: every Sample() writes the same sequence
/// number into every metric of its "chaos" set, so a torn or corrupted
/// apply is visible as a row whose values disagree.
class CounterSampler final : public SamplerPlugin {
 public:
  CounterSampler(std::size_t metrics, std::size_t num_sets,
                 bool sparse = false)
      : metrics_(std::max<std::size_t>(1, metrics)),
        num_sets_(std::max<std::size_t>(1, num_sets)),
        sparse_(sparse) {}

  const std::string& name() const override { return name_; }

  Status Init(MemManager& mem, SetRegistry& sets,
              const PluginParams& params) override {
    auto producer_it = params.find("producer");
    const std::string producer =
        producer_it != params.end() ? producer_it->second : "node";
    Schema schema("chaos");
    schema.AddMetric("seq", MetricType::kU64);
    for (std::size_t i = 1; i < metrics_; ++i) {
      schema.AddMetric("pad" + std::to_string(i), MetricType::kU64);
    }
    for (std::size_t k = 0; k < num_sets_; ++k) {
      const std::string instance =
          producer + "/chaos" + (k == 0 ? "" : std::to_string(k));
      Status st;
      auto set = MetricSet::Create(mem, schema, instance, producer, 1, &st);
      if (set == nullptr) return st;
      st = sets.Add(set);
      if (!st.ok()) return st;
      sets_.push_back(std::move(set));
    }
    return Status::Ok();
  }

  Status Sample(TimeNs now) override {
    for (auto& set : sets_) {
      set->BeginTransaction();
      // Sparse mode writes the full set once, then only "seq": steady-state
      // transactions dirty a single metric, which is what makes the delta
      // update path fire under chaos (a full-width write never beats the
      // delta size gate on small sets).
      const std::size_t width = sparse_ && seq_ > 0 ? 1 : metrics_;
      for (std::size_t i = 0; i < width; ++i) set->SetU64(i, seq_);
      set->EndTransaction(now);
    }
    ++seq_;
    return Status::Ok();
  }

  std::vector<MetricSetPtr> Sets() const override { return sets_; }

 private:
  std::string name_ = "chaos";
  std::size_t metrics_;
  std::size_t num_sets_;
  bool sparse_;
  std::uint64_t seq_ = 0;
  std::vector<MetricSetPtr> sets_;
};

}  // namespace

MiniCluster::MiniCluster(const MiniClusterOptions& options)
    : options_(options),
      schedule_(std::make_shared<FaultSchedule>(options.seed, options.faults)),
      store_schedule_(std::make_shared<StoreFaultSchedule>(
          options.seed, options.store_faults)),
      watchdog_(options.watchdog_interval),
      next_watchdog_poll_(options.watchdog_interval) {
  registry_.Add(std::make_shared<FaultInjectingTransport>(
      std::make_shared<LocalTransport>(&fabric_), schedule_, "fault"));

  // The store plugin a registry-restored daemon re-binds: resolves the
  // persistent per-slot stores by name, so stored history (and injected-
  // fault accounting) spans a restart-from-registry-alone.
  plugins_.AddStore(
      "harness_store",
      [this](const PluginParams& params) -> std::shared_ptr<Store> {
        const auto slot_it = params.find("slot");
        const auto role_it = params.find("role");
        if (slot_it == params.end() || role_it == params.end()) return nullptr;
        const AggregatorSlot* slot =
            slot_it->second == "root" ? &root_ : nullptr;
        for (std::size_t j = 0; j < aggregators_.size() && slot == nullptr;
             ++j) {
          if (AggregatorName(j) == slot_it->second) slot = &aggregators_[j];
        }
        if (slot == nullptr) return nullptr;
        if (role_it->second == "secondary") return slot->secondary;
        return slot->faulted;
      });

  samplers_.resize(options_.samplers);
  for (std::size_t i = 0; i < options_.samplers; ++i) {
    samplers_[i].daemon = MakeSampler(i);
  }
  auto init_stores = [this](AggregatorSlot& slot) {
    slot.store = std::make_shared<MemoryStore>();
    slot.faulted =
        std::make_shared<FaultInjectingStore>(slot.store, store_schedule_);
    if (options_.secondary_store) {
      slot.secondary = std::make_shared<MemoryStore>();
    }
  };
  if (options_.tree_leaves > 0) {
    // Tree mode: samplers → leaves (+ optional spare) → root. The stores
    // live at the root, so every gap/row assertion is end-to-end across
    // both hops. Placement comes from the rendezvous TreeManager; the
    // watchdog owns failure detection + repair ("no operator action").
    TreeOptions topts;
    topts.seed = options_.seed;
    for (std::size_t i = 0; i < options_.samplers; ++i) {
      topts.samplers.push_back({sampler_name(i), i});
    }
    for (std::size_t j = 0; j < options_.tree_leaves; ++j) {
      topts.leaves.push_back("leaf" + std::to_string(j));
    }
    if (options_.tree_spare) topts.spare_name = "spare";
    tree_ = std::make_unique<TreeManager>(std::move(topts));

    aggregators_.resize(options_.tree_leaves + (options_.tree_spare ? 1 : 0));
    for (std::size_t j = 0; j < aggregators_.size(); ++j) {
      aggregators_[j].is_standby = options_.tree_spare &&
                                   j == options_.tree_leaves;
      aggregators_[j].daemon = MakeLeaf(j);
    }
    init_stores(root_);
    root_.daemon = MakeRoot();
    if (root_.daemon != nullptr) root_.daemon->set_tree(tree_.get());

    for (std::size_t j = 0; j < options_.tree_leaves; ++j) {
      FailoverRule rule;
      rule.primary_alive = [this, j] {
        return aggregators_[j].daemon != nullptr;
      };
      rule.failure_threshold = options_.failure_threshold;
      rule.on_failure = [this, j] { RepairLeaf(j); };
      watchdog_.AddRule(std::move(rule));
    }
    return;
  }
  aggregators_.resize(options_.aggregators + (options_.standby ? 1 : 0));
  for (std::size_t j = 0; j < options_.aggregators; ++j) {
    init_stores(aggregators_[j]);
    aggregators_[j].daemon = MakeAggregator(j, false);
  }
  if (options_.standby) {
    auto& slot = aggregators_.back();
    slot.is_standby = true;
    init_stores(slot);
    slot.daemon = MakeAggregator(0, true);

    FailoverRule rule;
    rule.primary_alive = [this] {
      return aggregators_.front().daemon != nullptr;
    };
    rule.failure_threshold = options_.failure_threshold;
    rule.on_failure = [this] {
      Ldmsd* daemon = aggregators_.back().daemon.get();
      if (daemon == nullptr) return;
      for (const std::size_t i : AssignedSamplers(0, true)) {
        (void)daemon->ActivateStandby(sampler_name(i));
      }
    };
    watchdog_.AddRule(std::move(rule));
  }
}

MiniCluster::~MiniCluster() {
  if (root_.daemon != nullptr) root_.daemon->Stop();
  for (auto& slot : aggregators_) {
    if (slot.daemon != nullptr) slot.daemon->Stop();
  }
  for (auto& slot : samplers_) {
    if (slot.daemon != nullptr) slot.daemon->Stop();
  }
}

std::string MiniCluster::sampler_name(std::size_t i) const {
  return "node" + std::to_string(i);
}

std::string MiniCluster::SamplerAddress(std::size_t i) const {
  return sampler_name(i) + "/listen";
}

std::string MiniCluster::leaf_name(std::size_t j) const {
  if (options_.tree_spare && j == options_.tree_leaves) return "spare";
  return "leaf" + std::to_string(j);
}

std::string MiniCluster::LeafAddress(std::size_t j) const {
  return leaf_name(j) + "/listen";
}

std::string MiniCluster::AggregatorName(std::size_t index) const {
  if (options_.tree_leaves > 0) return leaf_name(index);
  if (options_.standby && index == options_.aggregators) return "standby";
  return "agg" + std::to_string(index);
}

std::string MiniCluster::RegistryPathFor(const std::string& name) const {
  if (options_.registry_dir.empty()) return "";
  return options_.registry_dir + "/" + name + ".registry";
}

Ldmsd* MiniCluster::standby() {
  if (!options_.standby) return nullptr;
  return aggregators_.back().daemon.get();
}

std::shared_ptr<MemoryStore> MiniCluster::standby_store() {
  if (!options_.standby) return nullptr;
  return aggregators_.back().store;
}

std::vector<std::size_t> MiniCluster::AssignedSamplers(
    std::size_t index, bool is_standby) const {
  const std::size_t shard = is_standby ? 0 : index;
  std::vector<std::size_t> assigned;
  for (std::size_t i = 0; i < options_.samplers; ++i) {
    if (i % options_.aggregators == shard) assigned.push_back(i);
  }
  return assigned;
}

std::unique_ptr<Ldmsd> MiniCluster::MakeSampler(std::size_t i) {
  LdmsdOptions opts;
  opts.name = sampler_name(i);
  opts.listen_transport = "fault";
  opts.listen_address = SamplerAddress(i);
  opts.worker_threads = 0;
  opts.connection_threads = 0;
  opts.store_threads = 0;
  opts.log_level = LogLevel::kOff;
  opts.clock = &clock_;
  opts.transports = &registry_;
  auto daemon = std::make_unique<Ldmsd>(opts);
  SamplerConfig sc;
  sc.interval = options_.sample_interval;
  const std::size_t metrics = samplers_.at(i).metrics != 0
                                  ? samplers_.at(i).metrics
                                  : options_.metrics_per_set;
  Status st = daemon->AddSampler(
      std::make_shared<CounterSampler>(metrics, options_.sets_per_sampler,
                                       options_.sparse_writes),
      sc);
  if (!st.ok()) return nullptr;
  if (!daemon->Start().ok()) return nullptr;
  return daemon;
}

std::unique_ptr<Ldmsd> MiniCluster::MakeLeaf(std::size_t j) {
  const bool is_spare = options_.tree_spare && j == options_.tree_leaves;
  LdmsdOptions opts;
  opts.name = leaf_name(j);
  opts.listen_transport = "fault";  // the root pulls this leaf
  opts.listen_address = LeafAddress(j);
  opts.worker_threads = 0;
  opts.connection_threads = 0;
  opts.store_threads = 0;
  opts.log_level = LogLevel::kOff;
  opts.clock = &clock_;
  opts.transports = &registry_;
  opts.registry_path = RegistryPathFor(opts.name);
  auto daemon = std::make_unique<Ldmsd>(opts);
  if (is_spare) {
    // The spare keeps warm standby connections to every sampler; promotion
    // activates exactly the dead leaf's shard (§IV-B fast failover).
    for (std::size_t i = 0; i < options_.samplers; ++i) {
      const std::size_t owner = tree_->leaf_of(sampler_name(i));
      const std::string owner_name = owner == TreeManager::kUnassigned
                                         ? std::string()
                                         : leaf_name(owner);
      AddSamplerProducer(*daemon, i, /*standby=*/true, owner_name);
    }
  } else {
    for (const auto& sampler : tree_->shard(j)) {
      for (std::size_t i = 0; i < options_.samplers; ++i) {
        if (sampler_name(i) == sampler) {
          AddSamplerProducer(*daemon, i, /*standby=*/false, "");
        }
      }
    }
  }
  if (!daemon->Start().ok()) return nullptr;
  return daemon;
}

std::unique_ptr<Ldmsd> MiniCluster::MakeRoot() {
  LdmsdOptions opts;
  opts.name = "root";
  // The root listens so starting samplers can announce themselves to it
  // (self-assembly); it also accepts the resulting advertises.
  opts.listen_transport = "fault";
  opts.listen_address = "root/listen";
  opts.accept_advertised_producers = true;
  opts.worker_threads = 0;
  opts.connection_threads = 0;
  opts.store_threads = 0;
  opts.log_level = LogLevel::kOff;
  opts.clock = &clock_;
  opts.transports = &registry_;
  opts.registry_path = RegistryPathFor(opts.name);
  auto daemon = std::make_unique<Ldmsd>(opts);
  daemon->set_announce_hook([this](const AdvertiseMsg& msg, std::size_t leaf) {
    OnAnnounce(msg, leaf);
  });
  StorePolicy primary(root_.faulted);
  primary.name = "primary";
  primary.plugin = "harness_store";
  primary.plugin_params = {{"slot", "root"}, {"role", "primary"}};
  primary.queue_capacity = options_.store_queue_capacity;
  primary.shed_policy = options_.store_shed;
  primary.breaker_threshold = options_.store_breaker_threshold;
  primary.breaker_min_backoff = options_.store_breaker_min_backoff;
  primary.breaker_max_backoff = options_.store_breaker_max_backoff;
  (void)daemon->AddStorePolicy(std::move(primary));
  if (root_.secondary != nullptr) {
    StorePolicy secondary(root_.secondary);
    secondary.name = "secondary";
    secondary.plugin = "harness_store";
    secondary.plugin_params = {{"slot", "root"}, {"role", "secondary"}};
    (void)daemon->AddStorePolicy(std::move(secondary));
  }
  for (std::size_t j = 0; j < options_.tree_leaves; ++j) {
    AddRootProducer(*daemon, j);
  }
  // After a root restart mid-promotion, the spare is already serving a
  // shard: re-add its producer too (a fresh root starts spare-less).
  if (options_.tree_spare && !tree_->shard(tree_->spare_index()).empty()) {
    AddRootProducer(*daemon, tree_->spare_index());
  }
  if (!daemon->Start().ok()) return nullptr;
  return daemon;
}

Ldmsd* MiniCluster::LeafDaemon(std::size_t j) {
  if (j >= aggregators_.size()) return nullptr;
  return aggregators_[j].daemon.get();
}

void MiniCluster::AddSamplerProducer(Ldmsd& daemon, std::size_t i,
                                     bool standby,
                                     const std::string& standby_for) {
  ProducerConfig pc;
  pc.name = sampler_name(i);
  pc.transport = "fault";
  pc.address = SamplerAddress(i);
  pc.interval = options_.collect_interval;
  pc.reconnect_min_backoff = options_.reconnect_min_backoff;
  pc.reconnect_max_backoff = options_.reconnect_max_backoff;
  pc.delta_updates = options_.delta_updates;
  pc.standby = standby;
  pc.standby_for = standby_for;
  (void)daemon.AddProducer(pc);
}

void MiniCluster::AddRootProducer(Ldmsd& daemon, std::size_t j) {
  ProducerConfig pc;
  pc.name = leaf_name(j);
  pc.transport = "fault";
  pc.address = LeafAddress(j);
  pc.interval = options_.collect_interval;
  pc.reconnect_min_backoff = options_.reconnect_min_backoff;
  pc.reconnect_max_backoff = options_.reconnect_max_backoff;
  pc.delta_updates = options_.delta_updates;
  // Dir discovery + periodic re-dir: a repaired shard re-served by a
  // surviving leaf shows up without reconfiguration.
  pc.rediscover_interval = options_.tree_rediscover != 0
                               ? options_.tree_rediscover
                               : options_.collect_interval;
  (void)daemon.AddProducer(pc);
}

void MiniCluster::RepairLeaf(std::size_t j) {
  if (tree_ == nullptr) return;
  const auto moves = tree_->MarkLeafDown(j, clock_.Now());
  std::vector<std::size_t> touched;
  for (const auto& m : moves) {
    if (m.to_leaf == TreeManager::kUnassigned) continue;
    Ldmsd* to = LeafDaemon(m.to_leaf);
    if (to == nullptr) continue;
    std::size_t sampler_index = options_.samplers;
    for (std::size_t i = 0; i < options_.samplers; ++i) {
      if (sampler_name(i) == m.sampler) sampler_index = i;
    }
    if (sampler_index == options_.samplers) continue;
    if (to->producer_status(m.sampler).known) {
      (void)to->ActivateStandby(m.sampler);  // spare promotion (warm)
    } else {
      AddSamplerProducer(*to, sampler_index, /*standby=*/false, "");
    }
    if (std::find(touched.begin(), touched.end(), m.to_leaf) ==
        touched.end()) {
      touched.push_back(m.to_leaf);
    }
  }
  Ldmsd* root = root_.daemon.get();
  if (root == nullptr) return;
  for (const std::size_t l : touched) {
    if (!root->producer_status(leaf_name(l)).known) {
      AddRootProducer(*root, l);  // first promotion onto the spare
    }
    (void)root->RefreshProducer(leaf_name(l));
  }
  root->RecordTreeState();  // persist the repair (down leaf + new owners)
}

std::unique_ptr<Ldmsd> MiniCluster::MakeAggregator(std::size_t index,
                                                   bool is_standby) {
  LdmsdOptions opts;
  opts.name = is_standby ? "standby" : "agg" + std::to_string(index);
  opts.worker_threads = 0;
  opts.connection_threads = 0;
  opts.store_threads = 0;
  opts.log_level = LogLevel::kOff;
  opts.clock = &clock_;
  opts.transports = &registry_;
  opts.registry_path = RegistryPathFor(opts.name);
  auto daemon = std::make_unique<Ldmsd>(opts);
  auto& slot = is_standby ? aggregators_.back() : aggregators_[index];
  StorePolicy primary(slot.faulted);
  primary.name = "primary";
  primary.plugin = "harness_store";
  primary.plugin_params = {{"slot", opts.name}, {"role", "primary"}};
  primary.queue_capacity = options_.store_queue_capacity;
  primary.shed_policy = options_.store_shed;
  primary.breaker_threshold = options_.store_breaker_threshold;
  primary.breaker_min_backoff = options_.store_breaker_min_backoff;
  primary.breaker_max_backoff = options_.store_breaker_max_backoff;
  (void)daemon->AddStorePolicy(std::move(primary));
  if (slot.secondary != nullptr) {
    StorePolicy secondary(slot.secondary);
    secondary.name = "secondary";
    secondary.plugin = "harness_store";
    secondary.plugin_params = {{"slot", opts.name}, {"role", "secondary"}};
    (void)daemon->AddStorePolicy(std::move(secondary));
  }
  for (const std::size_t i : AssignedSamplers(index, is_standby)) {
    ProducerConfig pc;
    pc.name = sampler_name(i);
    pc.transport = "fault";
    pc.address = SamplerAddress(i);
    pc.interval = options_.collect_interval;
    pc.reconnect_min_backoff = options_.reconnect_min_backoff;
    pc.reconnect_max_backoff = options_.reconnect_max_backoff;
    pc.delta_updates = options_.delta_updates;
    pc.standby = is_standby;
    if (is_standby) pc.standby_for = "agg0";
    if (!daemon->AddProducer(pc).ok()) return nullptr;
  }
  if (!daemon->Start().ok()) return nullptr;
  return daemon;
}

void MiniCluster::Advance(DurationNs delta) {
  const TimeNs target = clock_.Now() + delta;
  constexpr TimeNs kIdle = ~TimeNs{0};
  for (;;) {
    TimeNs best = kIdle;
    Ldmsd* owner = nullptr;
    auto consider = [&](Ldmsd* daemon) {
      if (daemon == nullptr) return;
      const TimeNs deadline = daemon->scheduler().NextDeadline();
      if (deadline < best) {
        best = deadline;
        owner = daemon;
      }
    };
    for (auto& slot : samplers_) consider(slot.daemon.get());
    for (auto& slot : aggregators_) consider(slot.daemon.get());
    consider(root_.daemon.get());

    // Watchdog polls participate in the same timeline; on a tie the
    // watchdog goes first (fixed order = determinism).
    if (next_watchdog_poll_ <= target && next_watchdog_poll_ <= best) {
      if (next_watchdog_poll_ > clock_.Now()) {
        clock_.SetTime(next_watchdog_poll_);
      }
      watchdog_.Poll();
      next_watchdog_poll_ += options_.watchdog_interval;
      continue;
    }
    if (best == kIdle || best > target) break;
    // Runs exactly the deadlines <= best for the owning daemon (stale heap
    // entries from canceled tasks are dropped without running anything).
    owner->RunUntil(clock_, best);
  }
  if (clock_.Now() < target) clock_.SetTime(target);
}

void MiniCluster::KillSampler(std::size_t i) {
  auto& slot = samplers_.at(i);
  if (slot.daemon == nullptr) return;
  slot.daemon->Stop();
  slot.daemon.reset();  // listener unregisters; peers now see kDisconnected
}

void MiniCluster::RestartSampler(std::size_t i) {
  auto& slot = samplers_.at(i);
  if (slot.daemon != nullptr) return;
  slot.daemon = MakeSampler(i);
}

void MiniCluster::RestartSampler(std::size_t i, std::size_t metrics_per_set) {
  auto& slot = samplers_.at(i);
  if (slot.daemon != nullptr) return;
  slot.metrics = metrics_per_set;
  slot.daemon = MakeSampler(i);
}

void MiniCluster::KillAggregator(std::size_t i) {
  auto& slot = aggregators_.at(i);
  if (slot.daemon == nullptr) return;
  slot.daemon->Stop();
  slot.daemon.reset();
}

void MiniCluster::RestartAggregator(std::size_t i) {
  auto& slot = aggregators_.at(i);
  if (slot.daemon != nullptr) return;
  if (tree_ != nullptr) {
    // A rejoining leaf reclaims exactly its rendezvous shard; interim
    // owners stop pulling the returned samplers (a spare drops back to
    // warm standby, a surviving leaf just goes idle on them) and the root
    // re-discovers the leaf's re-served sets on its next cycle.
    const auto moves = tree_->MarkLeafUp(i, clock_.Now());
    slot.daemon = MakeLeaf(i);
    for (const auto& m : moves) {
      Ldmsd* from = LeafDaemon(m.from_leaf);
      if (from != nullptr) (void)from->DeactivateProducer(m.sampler);
    }
    if (root_.daemon != nullptr) {
      (void)root_.daemon->RefreshProducer(leaf_name(i));
      root_.daemon->RecordTreeState();  // persist the leaf's return
    }
    return;
  }
  slot.daemon = MakeAggregator(slot.is_standby ? 0 : i, slot.is_standby);
}

void MiniCluster::KillRoot() {
  if (root_.daemon == nullptr) return;
  root_.daemon->Stop();
  root_.daemon.reset();
}

void MiniCluster::RestartRoot() {
  if (root_.daemon != nullptr || tree_ == nullptr) return;
  root_.daemon = MakeRoot();  // keeps its stores: history spans the restart
  if (root_.daemon != nullptr) root_.daemon->set_tree(tree_.get());
}

Status MiniCluster::RestartAggregatorFromRegistry(std::size_t i) {
  auto& slot = aggregators_.at(i);
  if (slot.daemon != nullptr) {
    return {ErrorCode::kAlreadyExists, "aggregator still alive"};
  }
  if (options_.registry_dir.empty()) {
    return {ErrorCode::kUnsupported, "registry_dir not configured"};
  }
  if (options_.tree_leaves > 0) {
    return {ErrorCode::kUnsupported,
            "tree leaves restart via RestartAggregator"};
  }
  // Deliberately bare: name, clock, transports, registry path — no
  // producers, no store policies. Everything else must come back from the
  // registry file.
  LdmsdOptions opts;
  opts.name = AggregatorName(i);
  opts.worker_threads = 0;
  opts.connection_threads = 0;
  opts.store_threads = 0;
  opts.log_level = LogLevel::kOff;
  opts.clock = &clock_;
  opts.transports = &registry_;
  opts.registry_path = RegistryPathFor(opts.name);
  auto daemon = std::make_unique<Ldmsd>(opts);
  Status st = daemon->RestoreFromRegistry(plugins_);
  if (!st.ok()) return st;
  st = daemon->Start();
  if (!st.ok()) return st;
  slot.daemon = std::move(daemon);
  return Status::Ok();
}

Status MiniCluster::RestartRootFromRegistry() {
  if (tree_ == nullptr) {
    return {ErrorCode::kUnsupported, "tree mode required"};
  }
  if (root_.daemon != nullptr) {
    return {ErrorCode::kAlreadyExists, "root still alive"};
  }
  if (options_.registry_dir.empty()) {
    return {ErrorCode::kUnsupported, "registry_dir not configured"};
  }
  LdmsdOptions opts;
  opts.name = "root";
  opts.listen_transport = "fault";
  opts.listen_address = "root/listen";
  opts.accept_advertised_producers = true;
  opts.worker_threads = 0;
  opts.connection_threads = 0;
  opts.store_threads = 0;
  opts.log_level = LogLevel::kOff;
  opts.clock = &clock_;
  opts.transports = &registry_;
  opts.registry_path = RegistryPathFor(opts.name);
  auto daemon = std::make_unique<Ldmsd>(opts);
  daemon->set_announce_hook([this](const AdvertiseMsg& msg, std::size_t leaf) {
    OnAnnounce(msg, leaf);
  });
  Status st = daemon->RestoreFromRegistry(plugins_);
  if (!st.ok()) return st;
  st = daemon->Start();
  if (!st.ok()) return st;
  // The restored daemon owns its TreeManager (AdoptTree); the harness tree_
  // keeps serving the still-running leaves' repair rules. Tests assert the
  // two agree via root().tree().
  root_.daemon = std::move(daemon);
  return Status::Ok();
}

Status MiniCluster::AddAnnouncedSampler(std::size_t* index_out) {
  if (tree_ == nullptr || root_.daemon == nullptr) {
    return {ErrorCode::kUnsupported, "tree mode with a live root required"};
  }
  const std::size_t i = samplers_.size();
  samplers_.emplace_back();
  samplers_[i].daemon = MakeSampler(i);
  if (samplers_[i].daemon == nullptr) {
    samplers_.pop_back();
    return {ErrorCode::kInternal, "sampler construction failed"};
  }
  // The torus node id doubles as the sampler index in this harness.
  Status st = samplers_[i].daemon->AnnounceTo("fault", "root/listen", i);
  if (!st.ok()) return st;
  if (index_out != nullptr) *index_out = i;
  return Status::Ok();
}

void MiniCluster::OnAnnounce(const AdvertiseMsg& msg, std::size_t leaf) {
  if (leaf == TreeManager::kUnassigned) return;
  Ldmsd* to = LeafDaemon(leaf);
  if (to == nullptr) return;
  std::size_t index = samplers_.size();
  for (std::size_t i = 0; i < samplers_.size(); ++i) {
    if (sampler_name(i) == msg.producer) index = i;
  }
  if (index == samplers_.size()) return;
  if (!to->producer_status(msg.producer).known) {
    AddSamplerProducer(*to, index, /*standby=*/false, "");
  }
  // Nudge the root to discover the leaf's newly re-served set.
  if (root_.daemon != nullptr) {
    (void)root_.daemon->RefreshProducer(leaf_name(leaf));
  }
}

MiniCluster::GapReport MiniCluster::DataGap(std::size_t i) const {
  const std::string producer = sampler_name(i);
  std::vector<TimeNs> stamps;
  auto collect = [&](const AggregatorSlot& slot) {
    if (slot.store == nullptr) return;
    for (const auto& row : slot.store->Rows("chaos")) {
      if (row.producer == producer) stamps.push_back(row.timestamp);
    }
  };
  for (const auto& slot : aggregators_) collect(slot);
  collect(root_);
  std::sort(stamps.begin(), stamps.end());
  stamps.erase(std::unique(stamps.begin(), stamps.end()), stamps.end());
  GapReport report;
  report.rows = stamps.size();
  for (std::size_t k = 1; k < stamps.size(); ++k) {
    report.max_gap = std::max(report.max_gap, stamps[k] - stamps[k - 1]);
  }
  return report;
}

std::size_t MiniCluster::StoredRows() const {
  std::size_t rows = 0;
  for (const auto& slot : aggregators_) {
    if (slot.store != nullptr) rows += slot.store->RowCount("chaos");
  }
  if (root_.store != nullptr) rows += root_.store->RowCount("chaos");
  return rows;
}

}  // namespace ldmsxx::harness

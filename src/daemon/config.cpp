#include "daemon/config.hpp"

#include <limits>

#include "daemon/decomp/decomp.hpp"
#include "daemon/topology.hpp"
#include "store/tsdb/tsdb_store.hpp"
#include "util/strings.hpp"

namespace ldmsxx {
namespace {

PluginParams ToParams(
    const std::vector<std::pair<std::string, std::string>>& kvs,
    std::size_t skip) {
  PluginParams params;
  for (std::size_t i = skip; i < kvs.size(); ++i) {
    params[kvs[i].first] = kvs[i].second;
  }
  return params;
}

/// Read the optional microsecond argument @p key into @p out, in ns; an
/// absent key leaves @p out as it is. A value that does not parse, or whose
/// ns value overflows, fails the verb naming the argument.
Status UsArg(const PluginParams& args, const char* key, DurationNs* out) {
  auto it = args.find(key);
  if (it == args.end()) return Status::Ok();
  auto us = ParseU64(it->second);
  if (!us || *us > std::numeric_limits<DurationNs>::max() / kNsPerUs) {
    return {ErrorCode::kInvalidArgument,
            std::string("bad ") + key + "=" + it->second};
  }
  *out = *us * kNsPerUs;
  return Status::Ok();
}

Status UsArgs(const PluginParams& args,
              std::initializer_list<std::pair<const char*, DurationNs*>> keys) {
  for (const auto& [key, out] : keys) {
    Status st = UsArg(args, key, out);
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

/// Read the optional flag @p key, which must be 0 or 1, into @p out; an
/// absent key leaves @p out as it is, and any other value fails the verb
/// naming the argument.
Status FlagArg(const PluginParams& args, const char* key, bool* out) {
  auto it = args.find(key);
  if (it == args.end()) return Status::Ok();
  if (it->second != "0" && it->second != "1") {
    return {ErrorCode::kInvalidArgument,
            std::string("bad ") + key + "=" + it->second + " (want 0 or 1)"};
  }
  *out = it->second == "1";
  return Status::Ok();
}

std::string UsText(DurationNs ns) { return std::to_string(ns / kNsPerUs); }

const char* FlagText(bool on) { return on ? "1" : "0"; }

/// strgp_add's own keys; every other argument belongs to the store plugin.
bool IsStrgpPolicyKey(const std::string& key) {
  return key == "name" || key == "plugin" || key == "schema" ||
         key == "producer" || key == "queue" || key == "shed" ||
         key == "breaker_k" || key == "breaker_min" ||
         key == "breaker_max" || key == "decomp";
}

}  // namespace

bool IsMutatingControlVerb(std::string_view verb) {
  // Query verbs are the explicit allowlist; everything else — including
  // verbs added later and typos — requires auth (fail closed).
  return !(verb == "counters" || verb == "strgp_status" ||
           verb == "prdcr_status" || verb == "tree_status" ||
           verb == "registry_status" || verb == "auth_status" ||
           verb == "query");
}

Status ParsePrdcrAdd(const PluginParams& args, ProducerConfig* config) {
  *config = ProducerConfig{};
  if (auto it = args.find("name"); it != args.end()) {
    config->name = it->second;
  } else {
    return {ErrorCode::kInvalidArgument, "prdcr_add requires name="};
  }
  if (auto it = args.find("xprt"); it != args.end())
    config->transport = it->second;
  if (auto it = args.find("host"); it != args.end())
    config->address = it->second;
  Status st = UsArgs(args, {{"interval", &config->interval},
                            {"offset", &config->offset},
                            {"timeout", &config->request_timeout},
                            {"reconnect_min", &config->reconnect_min_backoff},
                            {"reconnect_max", &config->reconnect_max_backoff},
                            {"rediscover", &config->rediscover_interval}});
  if (st.ok()) st = FlagArg(args, "sync", &config->synchronous);
  if (st.ok()) st = FlagArg(args, "delta", &config->delta_updates);
  if (st.ok()) st = FlagArg(args, "standby", &config->standby);
  if (!st.ok()) return st;
  if (auto it = args.find("sets"); it != args.end()) {
    for (auto inst : Split(it->second, ',')) {
      if (!inst.empty()) config->set_instances.emplace_back(inst);
    }
  }
  if (auto it = args.find("standby_for"); it != args.end())
    config->standby_for = it->second;
  return Status::Ok();
}

PluginParams PrdcrAddArgs(const ProducerConfig& config) {
  std::string sets;
  for (const auto& instance : config.set_instances) {
    if (!sets.empty()) sets.push_back(',');
    sets += instance;
  }
  return {{"name", config.name},
          {"xprt", config.transport},
          {"host", config.address},
          {"interval", UsText(config.interval)},
          {"offset", UsText(config.offset)},
          {"sync", FlagText(config.synchronous)},
          {"timeout", UsText(config.request_timeout)},
          {"reconnect_min", UsText(config.reconnect_min_backoff)},
          {"reconnect_max", UsText(config.reconnect_max_backoff)},
          {"sets", sets},
          {"rediscover", UsText(config.rediscover_interval)},
          {"delta", FlagText(config.delta_updates)},
          {"standby", FlagText(config.standby)},
          {"standby_for", config.standby_for}};
}

Status ParseStrgpAdd(const PluginParams& args, StorePolicy* policy) {
  *policy = StorePolicy{};
  if (auto it = args.find("plugin"); it != args.end()) {
    policy->plugin = it->second;
  } else {
    return {ErrorCode::kInvalidArgument, "strgp_add requires plugin="};
  }
  for (const auto& [key, value] : args) {
    if (!IsStrgpPolicyKey(key)) policy->plugin_params[key] = value;
  }
  if (auto it = args.find("name"); it != args.end()) policy->name = it->second;
  if (auto it = args.find("schema"); it != args.end())
    policy->schema_filter = it->second;
  if (auto it = args.find("producer"); it != args.end())
    policy->producer_filter = it->second;
  if (auto it = args.find("queue"); it != args.end()) {
    auto n = ParseU64(it->second);
    if (!n) return {ErrorCode::kInvalidArgument, "bad queue=" + it->second};
    policy->queue_capacity = static_cast<std::size_t>(*n);
  }
  if (auto it = args.find("shed"); it != args.end()) {
    if (!ParseShedPolicy(it->second, &policy->shed_policy)) {
      return {ErrorCode::kInvalidArgument, "bad shed=" + it->second};
    }
  }
  if (auto it = args.find("breaker_k"); it != args.end()) {
    auto n = ParseU64(it->second);
    if (!n) {
      return {ErrorCode::kInvalidArgument, "bad breaker_k=" + it->second};
    }
    policy->breaker_threshold = *n;
  }
  Status st = UsArgs(args, {{"breaker_min", &policy->breaker_min_backoff},
                            {"breaker_max", &policy->breaker_max_backoff}});
  if (!st.ok()) return st;
  if (auto it = args.find("decomp"); it != args.end()) {
    // Validate the spec here so a typo fails the command, not (silently)
    // the first stored sample. Metric resolution against the schema still
    // happens lazily at first sample — config does not know schemas.
    DecompSpec spec;
    st = ParseDecompSpec(it->second, &spec);
    if (!st.ok()) return st;
    policy->decomp = it->second;
  }
  return Status::Ok();
}

Status MakeStrgpStore(const PluginRegistry& plugins, StorePolicy* policy) {
  policy->store = plugins.MakeStore(policy->plugin, policy->plugin_params);
  if (policy->store == nullptr) {
    return {ErrorCode::kNotFound, "unknown store plugin: " + policy->plugin};
  }
  if (!policy->decomp.empty() && !policy->store->row_capable()) {
    return {ErrorCode::kUnsupported,
            "decomp= requires a row-capable store plugin (" + policy->plugin +
                " stores whole sets)"};
  }
  return Status::Ok();
}

PluginParams StrgpAddArgs(const StorePolicy& policy) {
  PluginParams args = policy.plugin_params;
  args["name"] = policy.name;
  args["plugin"] = policy.plugin;
  args["schema"] = policy.schema_filter;
  args["producer"] = policy.producer_filter;
  args["queue"] = std::to_string(policy.queue_capacity);
  args["shed"] = ShedPolicyName(policy.shed_policy);
  args["breaker_k"] = std::to_string(policy.breaker_threshold);
  args["breaker_min"] = UsText(policy.breaker_min_backoff);
  args["breaker_max"] = UsText(policy.breaker_max_backoff);
  if (!policy.decomp.empty()) args["decomp"] = policy.decomp;
  return args;
}

ConfigProcessor::ConfigProcessor(Ldmsd& daemon, PluginRegistry* registry)
    : daemon_(daemon),
      registry_(registry != nullptr ? registry : &PluginRegistry::Instance()) {}

Status ConfigProcessor::Execute(std::string_view line) {
  return Execute(line, nullptr);
}

Status ConfigProcessor::Execute(std::string_view line, std::string* output) {
  if (output != nullptr) output->clear();
  line = Trim(line);
  if (line.empty() || line.front() == '#') return Status::Ok();
  auto kvs = ParseKeyValues(line);
  if (kvs.empty()) return Status::Ok();
  const std::string& verb = kvs[0].first;
  PluginParams args = ToParams(kvs, 1);

  if (verb == "load") return CmdLoad(args);
  if (verb == "config") return CmdConfig(args);
  if (verb == "start") return CmdStart(args);
  if (verb == "stop") return CmdStop(args);
  if (verb == "interval") return CmdInterval(args);
  if (verb == "prdcr_add") return CmdPrdcrAdd(args);
  if (verb == "prdcr_del") return CmdPrdcrDel(args);
  if (verb == "strgp_add") return CmdStrgpAdd(args);
  if (verb == "registry_export") return CmdRegistryExport(args);
  if (verb == "registry_import") return CmdRegistryImport(args);
  if (verb == "registry_status") {
    std::string local;
    return CmdRegistryStatus(output != nullptr ? output : &local);
  }
  if (verb == "strgp_status") {
    std::string local;
    return CmdStrgpStatus(args, output != nullptr ? output : &local);
  }
  if (verb == "prdcr_status") {
    std::string local;
    return CmdPrdcrStatus(args, output != nullptr ? output : &local);
  }
  if (verb == "counters") {
    std::string local;
    return CmdCounters(output != nullptr ? output : &local);
  }
  if (verb == "tree_status") {
    std::string local;
    return CmdTreeStatus(args, output != nullptr ? output : &local);
  }
  if (verb == "query") {
    std::string local;
    return CmdQuery(args, output != nullptr ? output : &local);
  }
  return {ErrorCode::kInvalidArgument, "unknown command: " + verb};
}

Status ConfigProcessor::ExecuteScript(std::string_view script) {
  std::size_t line_no = 0;
  for (std::string_view line : Split(script, '\n')) {
    ++line_no;
    Status st = Execute(line);
    if (!st.ok()) {
      return {st.code(),
              "line " + std::to_string(line_no) + ": " + st.message()};
    }
  }
  return Status::Ok();
}

Status ConfigProcessor::CmdLoad(const PluginParams& args) {
  auto it = args.find("name");
  if (it == args.end()) {
    return {ErrorCode::kInvalidArgument, "load requires name="};
  }
  if (!registry_->HasSampler(it->second)) {
    return {ErrorCode::kNotFound, "unknown sampler plugin: " + it->second};
  }
  pending_[it->second];  // create empty pending config
  return Status::Ok();
}

Status ConfigProcessor::CmdConfig(const PluginParams& args) {
  auto it = args.find("name");
  if (it == args.end()) {
    return {ErrorCode::kInvalidArgument, "config requires name="};
  }
  auto pending = pending_.find(it->second);
  if (pending == pending_.end()) {
    return {ErrorCode::kNotFound, "plugin not loaded: " + it->second};
  }
  for (const auto& [key, value] : args) {
    if (key != "name") pending->second[key] = value;
  }
  return Status::Ok();
}

Status ConfigProcessor::CmdStart(const PluginParams& args) {
  auto it = args.find("name");
  if (it == args.end()) {
    return {ErrorCode::kInvalidArgument, "start requires name="};
  }
  auto pending = pending_.find(it->second);
  if (pending == pending_.end()) {
    return {ErrorCode::kNotFound, "plugin not loaded: " + it->second};
  }
  SamplerConfig config;
  config.params = pending->second;
  if (!args.contains("interval")) {
    return {ErrorCode::kInvalidArgument, "start requires interval=<usec>"};
  }
  Status st = UsArgs(args, {{"interval", &config.interval},
                            {"offset", &config.offset}});
  if (st.ok()) st = FlagArg(args, "sync", &config.synchronous);
  if (!st.ok()) return st;
  SamplerPluginPtr plugin = registry_->MakeSampler(it->second, config.params);
  if (plugin == nullptr) {
    return {ErrorCode::kNotFound, "unknown sampler plugin: " + it->second};
  }
  st = daemon_.AddSampler(std::move(plugin), config);
  if (st.ok()) pending_.erase(pending);
  return st;
}

Status ConfigProcessor::CmdStop(const PluginParams& args) {
  auto it = args.find("name");
  if (it == args.end()) {
    return {ErrorCode::kInvalidArgument, "stop requires name="};
  }
  return daemon_.RemoveSampler(it->second);
}

Status ConfigProcessor::CmdInterval(const PluginParams& args) {
  auto it = args.find("name");
  if (it == args.end() || !args.contains("interval")) {
    return {ErrorCode::kInvalidArgument,
            "interval requires name= and interval=<usec>"};
  }
  DurationNs interval = 0;
  Status st = UsArg(args, "interval", &interval);
  if (!st.ok()) return st;
  return daemon_.SetSamplingInterval(it->second, interval);
}

Status ConfigProcessor::CmdPrdcrAdd(const PluginParams& args) {
  ProducerConfig config;
  Status st = ParsePrdcrAdd(args, &config);
  if (!st.ok()) return st;
  return daemon_.AddProducer(config);
}

Status ConfigProcessor::CmdPrdcrDel(const PluginParams& args) {
  auto it = args.find("name");
  if (it == args.end()) {
    return {ErrorCode::kInvalidArgument, "prdcr_del requires name="};
  }
  return daemon_.RemoveProducer(it->second);
}

Status ConfigProcessor::CmdStrgpAdd(const PluginParams& args) {
  StorePolicy policy;
  Status st = ParseStrgpAdd(args, &policy);
  if (st.ok()) st = MakeStrgpStore(*registry_, &policy);
  if (!st.ok()) return st;
  return daemon_.AddStorePolicy(std::move(policy));
}

Status ConfigProcessor::CmdStrgpStatus(const PluginParams& args,
                                       std::string* output) {
  if (auto it = args.find("name"); it != args.end()) {
    const StorePolicyStatus s = daemon_.store_policy_status(it->second);
    if (!s.known) {
      return {ErrorCode::kNotFound, "no such store policy: " + it->second};
    }
    *output = "name=" + s.name +
              " state=" + BreakerStateName(s.breaker) +
              " queue=" + std::to_string(s.queue_depth) +
              " high_water=" + std::to_string(s.queue_high_water) +
              " stores=" + std::to_string(s.stores) +
              " failures=" + std::to_string(s.store_failures) +
              " shed=" + std::to_string(s.shed_samples) +
              " trips=" + std::to_string(s.breaker_trips) +
              " recoveries=" + std::to_string(s.breaker_recoveries) +
              " gap=" + std::to_string(s.quarantine_gap) +
              " backoff_us=" + std::to_string(s.current_backoff / kNsPerUs) +
              " evictions=" + std::to_string(s.store_evictions) +
              " decomp_failures=" + std::to_string(s.decompose_failures);
    return Status::Ok();
  }
  for (const auto& name : daemon_.store_policy_names()) {
    if (!output->empty()) output->push_back(' ');
    *output += name;
  }
  return Status::Ok();
}

Status ConfigProcessor::CmdPrdcrStatus(const PluginParams& args,
                                       std::string* output) {
  if (auto it = args.find("name"); it != args.end()) {
    const Ldmsd::ProducerStatus s = daemon_.producer_status(it->second);
    if (!s.known) {
      return {ErrorCode::kNotFound, "no such producer: " + it->second};
    }
    *output = "name=" + it->second +
              " connected=" + std::to_string(s.connected ? 1 : 0) +
              " active=" + std::to_string(s.active ? 1 : 0) +
              " sets=" + std::to_string(s.sets_ready) +
              " failures=" + std::to_string(s.consecutive_failures) +
              " reconnects=" + std::to_string(s.reconnects) +
              " updates_batched=" + std::to_string(s.updates_batched) +
              " updates_unchanged=" + std::to_string(s.updates_unchanged) +
              " updates_delta=" + std::to_string(s.updates_delta) +
              " delta_bytes_saved=" + std::to_string(s.delta_bytes_saved) +
              " update_bytes_on_wire=" +
              std::to_string(s.update_bytes_on_wire) +
              " backoff_us=" + std::to_string(s.current_backoff / kNsPerUs);
    return Status::Ok();
  }
  for (const auto& name : daemon_.producer_names()) {
    if (!output->empty()) output->push_back(' ');
    *output += name;
  }
  return Status::Ok();
}

Status ConfigProcessor::CmdCounters(std::string* output) {
  const auto& c = daemon_.counters();
  auto get = [](const std::atomic<std::uint64_t>& v) {
    return std::to_string(v.load(std::memory_order_relaxed));
  };
  *output = "samples=" + get(c.samples) +
            " updates_ok=" + get(c.updates_ok) +
            " updates_no_new_data=" + get(c.updates_no_new_data) +
            " updates_failed=" + get(c.updates_failed) +
            " lookups=" + get(c.lookups) +
            " stores=" + get(c.storage.stores) +
            " store_failures=" + get(c.storage.store_failures) +
            " shed_samples=" + get(c.storage.shed_samples) +
            " breaker_trips=" + get(c.storage.breaker_trips) +
            " breaker_recoveries=" + get(c.storage.breaker_recoveries) +
            " connects_ok=" + get(c.connects_ok) +
            " connects_failed=" + get(c.connects_failed) +
            " reconnects=" + get(c.reconnects) +
            " backoff_deferrals=" + get(c.backoff_deferrals) +
            " announce_retries=" + get(c.announce_retries) +
            " updates_batched=" + get(c.updates_batched) +
            " updates_unchanged=" + get(c.updates_unchanged) +
            " updates_delta=" + get(c.updates_delta) +
            " delta_bytes_saved=" + get(c.delta_bytes_saved) +
            " update_bytes_on_wire=" + get(c.update_bytes_on_wire);
  // Snapshot-contention counters aggregated over the whole registry (local
  // sets and mirrors alike): how often a reader's seqlock snapshot had to
  // retry against a concurrent writer, and how often it gave up starved.
  std::uint64_t retries = 0;
  std::uint64_t starved = 0;
  for (const auto& instance : daemon_.sets().List()) {
    if (MetricSetPtr set = daemon_.sets().Find(instance)) {
      retries += set->snapshot_retries();
      starved += set->snapshot_starved();
    }
  }
  *output += " snapshot_retries=" + std::to_string(retries) +
             " snapshot_starved=" + std::to_string(starved);
  return Status::Ok();
}

Status ConfigProcessor::CmdTreeStatus(const PluginParams& args,
                                      std::string* output) {
  TreeManager* tree = daemon_.tree();
  if (tree == nullptr) {
    return {ErrorCode::kUnsupported,
            "no aggregation tree attached to this daemon"};
  }
  if (auto it = args.find("leaf"); it != args.end()) {
    auto leaf = ParseU64(it->second);
    const std::size_t slots = tree->leaf_count() + (tree->has_spare() ? 1 : 0);
    if (!leaf || *leaf >= slots) {
      return {ErrorCode::kInvalidArgument, "bad leaf=" + it->second};
    }
    *output = tree->LeafStatusString(static_cast<std::size_t>(*leaf));
    return Status::Ok();
  }
  *output = tree->StatusString();
  return Status::Ok();
}

Status ConfigProcessor::CmdRegistryStatus(std::string* output) {
  ClusterRegistry* registry = daemon_.registry();
  if (registry == nullptr) {
    return {ErrorCode::kUnsupported, "no cluster registry configured"};
  }
  *output = registry->StatusString();
  return Status::Ok();
}

Status ConfigProcessor::CmdRegistryExport(const PluginParams& args) {
  ClusterRegistry* registry = daemon_.registry();
  if (registry == nullptr) {
    return {ErrorCode::kUnsupported, "no cluster registry configured"};
  }
  auto it = args.find("path");
  if (it == args.end() || it->second.empty()) {
    return {ErrorCode::kInvalidArgument, "registry_export requires path="};
  }
  return registry->ExportTo(it->second);
}

Status ConfigProcessor::CmdQuery(const PluginParams& args,
                                 std::string* output) {
  auto strgp = args.find("strgp");
  if (strgp == args.end()) {
    return {ErrorCode::kInvalidArgument, "query requires strgp="};
  }
  std::string mode = "rows";
  if (auto it = args.find("mode"); it != args.end()) mode = it->second;
  TsdbStore* tsdb = nullptr;
  std::shared_ptr<Store> store;
  if (mode != "fanout") {
    // All other modes run against this daemon's own store; fanout is the
    // aggregator shape, where the store lives on the tree leaves.
    store = daemon_.store_for_policy(strgp->second);
    if (store == nullptr) {
      return {ErrorCode::kNotFound, "no such store policy: " + strgp->second};
    }
    tsdb = dynamic_cast<TsdbStore*>(store.get());
    if (tsdb == nullptr) {
      return {ErrorCode::kUnsupported,
              "strgp " + strgp->second + " is not backed by store_tsdb"};
    }
  }
  if (mode == "tables") {
    for (const auto& table : tsdb->Tables()) {
      if (!output->empty()) output->push_back(' ');
      *output += table;
    }
    return Status::Ok();
  }

  TsdbQuery q;
  if (auto it = args.find("table"); it != args.end()) {
    q.table = it->second;
  } else {
    return {ErrorCode::kInvalidArgument, "query requires table="};
  }
  Status st = UsArgs(args, {{"t0_us", &q.t0}, {"t1_us", &q.t1}});
  if (!st.ok()) return st;
  if (auto it = args.find("nodes"); it != args.end()) {
    for (auto node_sv : Split(it->second, ',')) {
      auto node = ParseU64(node_sv);
      if (!node) {
        return {ErrorCode::kInvalidArgument,
                "bad nodes=" + it->second};
      }
      q.nodes.push_back(*node);
    }
  }
  if (auto it = args.find("metrics"); it != args.end()) {
    for (auto metric : Split(it->second, ',')) {
      if (!metric.empty()) q.metrics.emplace_back(metric);
    }
  }
  std::size_t limit = 64;
  if (auto it = args.find("limit"); it != args.end()) {
    auto n = ParseU64(it->second);
    if (!n) return {ErrorCode::kInvalidArgument, "bad limit=" + it->second};
    limit = static_cast<std::size_t>(*n);
  }

  if (mode == "rollup") {
    std::vector<TsdbRollupRow> rollups;
    st = tsdb->QueryRollup(q, &rollups);
    if (!st.ok()) return st;
    *output = "buckets=" + std::to_string(rollups.size());
    std::size_t emitted = 0;
    for (const auto& r : rollups) {
      if (emitted++ >= limit) break;
      *output += " rollup=" + std::to_string(r.bucket / kNsPerUs) + ":" +
                 std::to_string(r.node) + ":" + r.metric + ":" +
                 std::to_string(r.min) + ":" + std::to_string(r.max) + ":" +
                 std::to_string(r.avg) + ":" + std::to_string(r.count);
    }
    return Status::Ok();
  }
  if (mode == "fanout") {
    // Tree-sharded fan-out: forward the predicate to every producer peer's
    // local store and merge the bounded result pages.
    QueryRequest req;
    req.strgp = strgp->second;
    req.table = q.table;
    req.t0 = q.t0;
    req.t1 = q.t1;
    req.nodes = q.nodes;
    req.metrics = q.metrics;
    req.limit = static_cast<std::uint32_t>(limit);
    Ldmsd::FanoutResult fanout;
    st = daemon_.FanoutQuery(req, &fanout);
    if (!st.ok()) return st;
    const QueryResponse& merged = fanout.merged;
    std::string columns;
    for (const auto& column : merged.columns) {
      if (!columns.empty()) columns.push_back(',');
      columns += column;
    }
    *output = "columns=" + columns +
              " rows=" + std::to_string(merged.rows.size()) +
              " total_rows=" + std::to_string(merged.total_rows) +
              " truncated=" + std::to_string(merged.truncated) +
              " leaves_ok=" + std::to_string(fanout.leaves_ok) +
              " leaves_failed=" + std::to_string(fanout.leaves_failed) +
              " segments_considered=" +
              std::to_string(merged.segments_considered) +
              " segments_pruned=" + std::to_string(merged.segments_pruned) +
              " segments_read=" + std::to_string(merged.segments_read) +
              " bytes_read=" + std::to_string(merged.bytes_read) +
              " bytes_decoded=" + std::to_string(merged.bytes_decoded);
    for (const auto& row : merged.rows) {
      *output += " row=" + std::to_string(row.ts / kNsPerUs) + ":" +
                 std::to_string(row.node);
      for (const double v : row.values) *output += ":" + std::to_string(v);
    }
    return Status::Ok();
  }
  if (mode != "rows") {
    return {ErrorCode::kInvalidArgument, "bad mode=" + mode};
  }
  TsdbQueryResult result;
  st = tsdb->Query(q, &result);
  if (!st.ok()) return st;
  std::string columns;
  for (const auto& column : result.columns) {
    if (!columns.empty()) columns.push_back(',');
    columns += column;
  }
  *output = "columns=" + columns +
            " rows=" + std::to_string(result.rows.size()) +
            " segments_considered=" + std::to_string(result.segments_considered) +
            " segments_pruned=" + std::to_string(result.segments_pruned) +
            " segments_read=" + std::to_string(result.segments_read) +
            " bytes_read=" + std::to_string(result.bytes_read) +
            " bytes_decoded=" + std::to_string(result.bytes_decoded);
  std::size_t emitted = 0;
  for (const auto& row : result.rows) {
    if (emitted++ >= limit) break;
    *output += " row=" + std::to_string(row.ts / kNsPerUs) + ":" +
               std::to_string(row.node);
    for (const double v : row.values) *output += ":" + std::to_string(v);
  }
  return Status::Ok();
}

Status ConfigProcessor::CmdRegistryImport(const PluginParams& args) {
  ClusterRegistry* registry = daemon_.registry();
  if (registry == nullptr) {
    return {ErrorCode::kUnsupported, "no cluster registry configured"};
  }
  auto it = args.find("path");
  if (it == args.end() || it->second.empty()) {
    return {ErrorCode::kInvalidArgument, "registry_import requires path="};
  }
  return registry->ImportFrom(it->second);
}

}  // namespace ldmsxx

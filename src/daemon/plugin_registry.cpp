#include "daemon/plugin_registry.hpp"

#include <limits>

#include "store/csv_store.hpp"
#include "store/fault_store.hpp"
#include "store/flatfile_store.hpp"
#include "store/memory_store.hpp"
#include "store/tsdb/tsdb_store.hpp"
#include "util/strings.hpp"

namespace ldmsxx {

PluginRegistry& PluginRegistry::Instance() {
  static PluginRegistry registry;
  return registry;
}

void PluginRegistry::AddSampler(const std::string& name,
                                SamplerFactory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  samplers_[name] = std::move(factory);
}

void PluginRegistry::AddStore(const std::string& name, StoreFactory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  stores_[name] = std::move(factory);
}

SamplerPluginPtr PluginRegistry::MakeSampler(const std::string& name,
                                             const PluginParams& params) const {
  SamplerFactory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = samplers_.find(name);
    if (it == samplers_.end()) return nullptr;
    factory = it->second;
  }
  return factory(params);
}

Status PluginRegistry::MakeStore(const std::string& name,
                                 const PluginParams& params,
                                 std::shared_ptr<Store>* store) const {
  StoreFactory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = stores_.find(name);
    if (it == stores_.end()) {
      return {ErrorCode::kNotFound, "unknown store plugin: " + name};
    }
    factory = it->second;
  }
  return factory(params, store);
}

bool PluginRegistry::HasSampler(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return samplers_.contains(name);
}

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

Status U64Arg(const PluginParams& args, const char* key, std::uint64_t* out,
              std::uint64_t unit) {
  auto it = args.find(key);
  if (it == args.end()) return Status::Ok();
  auto v = ParseU64(it->second);
  if (!v || *v > std::numeric_limits<std::uint64_t>::max() / unit) {
    return {ErrorCode::kInvalidArgument,
            std::string("bad ") + key + "=" + it->second};
  }
  *out = *v * unit;
  return Status::Ok();
}

namespace {

/// U64Arg for a value that must lie in [lo, hi].
Status BoundedArg(const PluginParams& args, const char* key, std::uint64_t lo,
                  std::uint64_t hi, std::uint64_t* out) {
  auto it = args.find(key);
  if (it == args.end()) return Status::Ok();
  std::uint64_t v = 0;
  Status st = U64Arg(args, key, &v);
  if (st.ok() && (v < lo || v > hi)) {
    st = {ErrorCode::kInvalidArgument,
          std::string("bad ") + key + "=" + it->second + " (want " +
              std::to_string(lo) + ".." + std::to_string(hi) + ")"};
  }
  if (st.ok()) *out = v;
  return st;
}

}  // namespace

void RegisterBuiltinStores() {
  auto& registry = PluginRegistry::Instance();
  registry.AddStore("store_csv", [](const PluginParams& params,
                                    std::shared_ptr<Store>* store) {
    CsvStoreOptions opts;
    if (auto it = params.find("path"); it != params.end())
      opts.root_path = it->second;
    Status st = FlagArg(params, "altheader", &opts.header_in_separate_file);
    if (!st.ok()) return st;
    *store = std::make_shared<CsvStore>(std::move(opts));
    return Status::Ok();
  });
  registry.AddStore("store_flatfile", [](const PluginParams& params,
                                         std::shared_ptr<Store>* store) {
    FlatFileStoreOptions opts;
    if (auto it = params.find("path"); it != params.end())
      opts.root_path = it->second;
    *store = std::make_shared<FlatFileStore>(std::move(opts));
    return Status::Ok();
  });
  registry.AddStore("store_mem", [](const PluginParams& params,
                                    std::shared_ptr<Store>* store) {
    std::uint64_t max_samples = 0;
    Status st = U64Arg(params, "max_samples", &max_samples);
    if (!st.ok()) return st;
    *store = std::make_shared<MemoryStore>(max_samples);
    return Status::Ok();
  });
  // Columnar time-series backend with indexed segments and rollups, e.g.
  //   strgp_add plugin=store_tsdb path=/data/tsdb segment_rows=4096
  //             rollup_sec=60 compress=1
  //             decomp=hot@cpu_user:user:rate,cpu_idle
  registry.AddStore("store_tsdb", [](const PluginParams& params,
                                     std::shared_ptr<Store>* store) {
    TsdbOptions opts;
    if (auto it = params.find("path"); it != params.end())
      opts.root_path = it->second;
    Status st = BoundedArg(params, "segment_rows", 1,
                           std::numeric_limits<std::uint64_t>::max(),
                           &opts.segment_rows);
    if (st.ok()) {
      st = U64Arg(params, "rollup_sec", &opts.rollup_granularity, kNsPerSec);
    }
    if (st.ok()) st = FlagArg(params, "compress", &opts.compress);
    if (!st.ok()) return st;
    *store = std::make_shared<TsdbStore>(std::move(opts));
    return Status::Ok();
  });
  // Decorator: wraps another registered store plugin with a seeded fault
  // schedule. Probabilities are permille (integer config language); e.g.
  //   strgp_add plugin=store_fault inner=store_csv path=/x seed=7
  //             fail_permille=50 stall_permille=10 stall_us=500
  registry.AddStore("store_fault", [&registry](const PluginParams& params,
                                               std::shared_ptr<Store>* store) {
    std::string inner_name = "store_mem";
    if (auto it = params.find("inner"); it != params.end())
      inner_name = it->second;
    std::shared_ptr<Store> inner;
    Status st = registry.MakeStore(inner_name, params, &inner);
    if (!st.ok()) return st;
    std::uint64_t seed = 0;
    st = U64Arg(params, "seed", &seed);
    StoreFaultSchedule::Probabilities probs;
    auto permille = [&params, &st](const char* key, double* out) {
      std::uint64_t v = 0;
      if (st.ok()) st = BoundedArg(params, key, 0, 1000, &v);
      if (st.ok() && params.contains(key)) *out = v / 1000.0;
    };
    permille("fail_permille", &probs.fail_write);
    permille("partial_permille", &probs.partial_write);
    permille("stall_permille", &probs.stall);
    permille("flush_fail_permille", &probs.fail_flush);
    if (st.ok()) st = U64Arg(params, "stall_us", &probs.stall_ns, kNsPerUs);
    if (!st.ok()) return st;
    auto schedule = std::make_shared<StoreFaultSchedule>(seed, probs);
    *store = std::make_shared<FaultInjectingStore>(std::move(inner),
                                                   std::move(schedule));
    return Status::Ok();
  });
}

}  // namespace ldmsxx

#include "daemon/plugin_registry.hpp"

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

std::shared_ptr<Store> PluginRegistry::MakeStore(
    const std::string& name, const PluginParams& params) const {
  StoreFactory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = stores_.find(name);
    if (it == stores_.end()) return nullptr;
    factory = it->second;
  }
  return factory(params);
}

bool PluginRegistry::HasSampler(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return samplers_.contains(name);
}

void RegisterBuiltinStores() {
  auto& registry = PluginRegistry::Instance();
  registry.AddStore("store_csv", [](const PluginParams& params) {
    CsvStoreOptions opts;
    if (auto it = params.find("path"); it != params.end())
      opts.root_path = it->second;
    if (auto it = params.find("altheader"); it != params.end())
      opts.header_in_separate_file = it->second == "1";
    return std::make_shared<CsvStore>(std::move(opts));
  });
  registry.AddStore("store_flatfile", [](const PluginParams& params) {
    FlatFileStoreOptions opts;
    if (auto it = params.find("path"); it != params.end())
      opts.root_path = it->second;
    return std::make_shared<FlatFileStore>(std::move(opts));
  });
  registry.AddStore("store_mem", [](const PluginParams& params) {
    std::size_t max_samples = 0;
    if (auto it = params.find("max_samples"); it != params.end()) {
      if (auto v = ParseU64(it->second)) max_samples = *v;
    }
    return std::make_shared<MemoryStore>(max_samples);
  });
  // Columnar time-series backend with indexed segments and rollups, e.g.
  //   strgp_add plugin=store_tsdb path=/data/tsdb segment_rows=4096
  //             rollup_sec=60 compress=1 scan_threads=4
  //             decomp=hot@cpu_user:user:rate,cpu_idle
  registry.AddStore("store_tsdb", [](const PluginParams& params) {
    TsdbOptions opts;
    if (auto it = params.find("path"); it != params.end())
      opts.root_path = it->second;
    if (auto it = params.find("segment_rows"); it != params.end()) {
      if (auto v = ParseU64(it->second); v && *v > 0) opts.segment_rows = *v;
    }
    if (auto it = params.find("rollup_sec"); it != params.end()) {
      if (auto v = ParseU64(it->second))
        opts.rollup_granularity = *v * kNsPerSec;
    }
    if (auto it = params.find("compress"); it != params.end())
      opts.compress = it->second != "0";
    if (auto it = params.find("scan_threads"); it != params.end()) {
      if (auto v = ParseU64(it->second)) opts.scan_threads = *v;
    }
    return std::make_shared<TsdbStore>(std::move(opts));
  });
  // Decorator: wraps another registered store plugin with a seeded fault
  // schedule. Probabilities are permille (integer config language); e.g.
  //   strgp_add plugin=store_fault inner=store_csv path=/x seed=7
  //             fail_permille=50 stall_permille=10 stall_us=500
  registry.AddStore("store_fault",
                    [&registry](const PluginParams& params)
                        -> std::shared_ptr<Store> {
    std::string inner_name = "store_mem";
    if (auto it = params.find("inner"); it != params.end())
      inner_name = it->second;
    auto inner = registry.MakeStore(inner_name, params);
    if (inner == nullptr) return nullptr;
    std::uint64_t seed = 0;
    if (auto it = params.find("seed"); it != params.end()) {
      if (auto v = ParseU64(it->second)) seed = *v;
    }
    StoreFaultSchedule::Probabilities probs;
    auto permille = [&params](const char* key, double* out) {
      if (auto it = params.find(key); it != params.end()) {
        if (auto v = ParseU64(it->second)) *out = *v / 1000.0;
      }
    };
    permille("fail_permille", &probs.fail_write);
    permille("partial_permille", &probs.partial_write);
    permille("stall_permille", &probs.stall);
    permille("flush_fail_permille", &probs.fail_flush);
    if (auto it = params.find("stall_us"); it != params.end()) {
      if (auto v = ParseU64(it->second)) probs.stall_ns = *v * kNsPerUs;
    }
    auto schedule = std::make_shared<StoreFaultSchedule>(seed, probs);
    return std::make_shared<FaultInjectingStore>(std::move(inner),
                                                 std::move(schedule));
  });
}

}  // namespace ldmsxx

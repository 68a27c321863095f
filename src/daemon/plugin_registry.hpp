// Name -> plugin factory registries, the moral equivalent of ldmsd's
// dlopen-based plugin loading. Static libraries make self-registration
// fragile, so modules expose an explicit registration call (e.g.
// RegisterBuiltinSamplers() in the sampler library) that applications invoke
// once at startup.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "daemon/plugin.hpp"
#include "store/store.hpp"

namespace ldmsxx {

/// Factory building a sampler plugin instance from its config params.
using SamplerFactory =
    std::function<SamplerPluginPtr(const PluginParams& params)>;

/// Factory building a store plugin instance from its config params.
using StoreFactory =
    std::function<std::shared_ptr<Store>(const PluginParams& params)>;

class PluginRegistry {
 public:
  static PluginRegistry& Instance();

  void AddSampler(const std::string& name, SamplerFactory factory);
  void AddStore(const std::string& name, StoreFactory factory);

  /// nullptr result when unknown.
  SamplerPluginPtr MakeSampler(const std::string& name,
                               const PluginParams& params) const;
  std::shared_ptr<Store> MakeStore(const std::string& name,
                                   const PluginParams& params) const;

  bool HasSampler(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, SamplerFactory> samplers_;
  std::unordered_map<std::string, StoreFactory> stores_;
};

/// Register the built-in store plugins (store_csv, store_flatfile,
/// store_mem, store_tsdb). Idempotent.
void RegisterBuiltinStores();

}  // namespace ldmsxx

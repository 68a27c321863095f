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

/// Factory building a store plugin instance from its config params into
/// @p store; a bad argument fails with kInvalidArgument naming it.
using StoreFactory = std::function<Status(const PluginParams& params,
                                          std::shared_ptr<Store>* store)>;

class PluginRegistry {
 public:
  static PluginRegistry& Instance();

  void AddSampler(const std::string& name, SamplerFactory factory);
  void AddStore(const std::string& name, StoreFactory factory);

  /// nullptr result when unknown.
  SamplerPluginPtr MakeSampler(const std::string& name,
                               const PluginParams& params) const;
  /// kNotFound for an unknown plugin; otherwise the factory's status.
  Status MakeStore(const std::string& name, const PluginParams& params,
                   std::shared_ptr<Store>* store) const;

  bool HasSampler(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, SamplerFactory> samplers_;
  std::unordered_map<std::string, StoreFactory> stores_;
};

/// Readers for one optional plugin argument, shared by the configuration
/// verbs and the built-in store factories. An absent key leaves @p out as
/// it is; a bad value fails with kInvalidArgument naming the argument.
/// FlagArg takes only 0 or 1. U64Arg takes an unsigned integer and stores
/// it times @p unit (non-zero; kNsPerUs reads microseconds as ns); the
/// product must not overflow.
Status FlagArg(const PluginParams& args, const char* key, bool* out);
Status U64Arg(const PluginParams& args, const char* key, std::uint64_t* out,
              std::uint64_t unit = 1);

/// Register the built-in store plugins (store_csv, store_flatfile,
/// store_mem, store_tsdb). Idempotent.
void RegisterBuiltinStores();

}  // namespace ldmsxx

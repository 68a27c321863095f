// Crash-safe cluster registry (the lokinet nodedb pattern). An aggregator's
// working knowledge of its cluster — which producers it pulls, which store
// policies it runs, which tree shard it serves — historically lived only in
// the configuration script that built it. This registry persists that
// knowledge to one on-disk file, as the configuration commands that rebuild
// it, so a restarted daemon can resume the whole topology with no operator
// action:
//
//   #ldmsxx-registry v2 crc=<16 hex> entries=<n>
//   tree seed=... root=... spare=... leaves=... samplers=... down=...
//   strgp_add name=... plugin=... schema=... queue=... ...
//   prdcr_add name=... xprt=... host=... interval=... ...
//
// A prdcr_add or strgp_add record is exactly the argument map its verb
// parses (daemon/config.hpp: same keys, durations in microseconds), and a
// record the verb's parser rejects fails the load. The tree record holds the
// TreeOptions a root persists (TreeArgs). One record per line, keys and
// values percent-encoded so names may contain any byte. The crc in the
// header is FNV-1a over everything after the header line; entries is the
// record-line count. Both must match on load.
//
// Durability ladder:
//   1. every Save() goes through AtomicWriteFile (tmp + fsync + rename +
//      parent fsync) — a crash mid-save leaves the previous file intact;
//   2. a load that fails version/crc/entries/record validation quarantines
//      the file to <path>.corrupt.<n> and starts empty — the daemon rebuilds
//      the registry from live traffic instead of trusting a torn file;
//   3. a missing file is a clean first boot, not an error.
//
// The daemon saves after every mutation (producer add/remove, store add,
// tree change); nothing else is persisted.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "daemon/plugin.hpp"
#include "daemon/topology.hpp"
#include "util/status.hpp"

namespace ldmsxx {

/// Full registry contents, as loaded/saved in one shot.
struct RegistrySnapshot {
  /// Producer name -> its prdcr_add arguments.
  std::map<std::string, PluginParams> producers;
  /// Store policy name -> its strgp_add arguments.
  std::map<std::string, PluginParams> stores;
  /// The tree record's arguments (TreeArgs); nullopt = no tree rooted here.
  std::optional<PluginParams> tree;
};

struct RegistryStats {
  std::uint64_t loads = 0;
  std::uint64_t saves = 0;
  std::uint64_t save_failures = 0;
  /// Corrupt files moved aside to <path>.corrupt.<n>.
  std::uint64_t quarantines = 0;
  /// Records parsed by the last successful Load().
  std::uint64_t last_load_records = 0;
};

/// The tree record for a root: @p options plus the leaves marked down.
/// Leaf names and sampler names must not contain ','.
PluginParams TreeArgs(const TreeOptions& options,
                      const std::vector<std::size_t>& down_leaves);
/// Inverse of TreeArgs; kInvalidArgument on a malformed record.
Status ParseTreeArgs(const PluginParams& args, TreeOptions* options,
                     std::vector<std::size_t>* down_leaves);

/// Serialize a snapshot to the full file text, header included.
std::string SerializeRegistry(const RegistrySnapshot& snapshot);

/// Strict parse: header version, crc, and entry count must all check out
/// (kInconsistent otherwise), and every record must pass its verb's parser
/// (kInvalidArgument otherwise).
Status ParseRegistry(std::string_view text, RegistrySnapshot* out);

/// Thread-safe owner of one registry file.
class ClusterRegistry {
 public:
  explicit ClusterRegistry(std::string path);

  const std::string& path() const { return path_; }

  /// Read the file. Missing file = clean first boot (ok, empty). A file
  /// that fails validation is quarantined to <path>.corrupt.<n> and the
  /// registry starts empty; the returned status is still ok (the recovery
  /// ladder's last rung is rebuild-from-traffic, not refuse-to-start) but
  /// last_load_quarantined() reports it.
  Status Load();

  /// Atomically write the current contents.
  Status Save();

  bool last_load_quarantined() const;

  /// Insert or replace the record keyed by @p args' name= value. The
  /// mutators change memory only; the caller saves.
  void UpsertProducer(PluginParams args);
  bool RemoveProducer(const std::string& name);
  void UpsertStore(PluginParams args);
  void SetTree(PluginParams args);

  RegistrySnapshot snapshot() const;
  RegistryStats stats() const;

  /// Write the current contents to @p path (same format; plain atomic
  /// write, no registry bookkeeping).
  Status ExportTo(const std::string& export_path) const;
  /// Strict-parse @p path and replace the in-memory contents with it, then
  /// Save(). Unlike Load(), a bad file here is the operator's explicit
  /// input, so it fails loudly instead of quarantining.
  Status ImportFrom(const std::string& import_path);

  /// Single-line summary for the registry_status control verb.
  std::string StatusString() const;

 private:
  Status SaveLocked();  // mu_ held by caller
  void QuarantineLocked();

  const std::string path_;
  mutable std::mutex mu_;
  RegistrySnapshot state_;
  RegistryStats stats_;
  bool last_load_quarantined_ = false;
};

}  // namespace ldmsxx

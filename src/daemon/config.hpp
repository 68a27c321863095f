// ldmsd configuration command language. The real daemon is driven by
// "process-owner issued configuration commands" over a UNIX domain socket
// (§IV-B); we implement the command set as a text processor so deployments
// are descriptions, not code:
//
//   load       name=<sampler plugin>
//   config     name=<plugin> [producer=<p>] [instance=<i>] [component_id=<n>]
//              [plugin-specific params...]
//   start      name=<plugin> interval=<usec> [offset=<usec>] [sync=1]
//   stop       name=<plugin>
//   prdcr_add  name=<producer> xprt=<transport> host=<address>
//              interval=<usec> [offset=<usec>] [sync=1] [timeout=<usec>]
//              [reconnect_min=<usec>] [reconnect_max=<usec>]
//              [sets=<a,b,c>] [rediscover=<usec>] [delta=0|1] [standby=1]
//              [standby_for=<primary>]
//              (timeout= is the per-request deadline; reconnect_min/max
//               bound the reconnect backoff, reconnect_min=0 disables it;
//               delta=0 forces full data chunks on every pull)
//   strgp_add  name=<policy> plugin=<store plugin> [path=<dir>]
//              [schema=<filter>] [producer=<filter>] [altheader=0|1]
//              [queue=<max samples>] [shed=drop_oldest|drop_newest|block]
//              [breaker_k=<consecutive failures>] [breaker_min=<usec>]
//              [breaker_max=<usec>] [decomp=<spec>] [max_samples=<rows>]
//              [segment_rows=<rows>] [rollup_sec=<sec>] [compress=0|1]
//              (decomp= requires a row-capable plugin such as store_tsdb;
//               spec grammar is in daemon/decomp/decomp.hpp. path=,
//               altheader= and the keys after decomp= go to the store
//               plugin: max_samples= caps store_mem's per-schema row ring
//               (drop-oldest); segment_rows= (> 0), rollup_sec= and
//               compress= are store_tsdb's rows per segment, rollup bucket
//               and column codecs. Flags take 0 or 1 and numbers must
//               parse, or the verb fails naming the argument; unknown
//               plugin arguments are ignored.)
//   prdcr_del  name=<producer>      (stop collecting; drops mirrors and the
//                                    registry record)
//   interval   name=<plugin> interval=<usec>       (on-the-fly change)
//   strgp_status [name=<policy>]   (queue depth, shed counts, breaker state)
//   prdcr_status [name=<producer>]  (connection state, batch-update counters)
//   counters                        (daemon-wide activity counters)
//   tree_status [leaf=<index>]      (aggregation-tree depth, shard sizes,
//                                    repair events; requires an attached
//                                    TreeManager — see daemon/topology.hpp)
//   registry_status                 (cluster-registry path, record counts,
//                                    save/quarantine stats)
//   registry_export path=<file>     (write the registry snapshot to a file)
//   registry_import path=<file>     (strict-parse a file and replace the
//                                    registry contents with it)
//   query      strgp=<policy> table=<t> [mode=rows|rollup|tables|fanout]
//              [t0_us=<usec>] [t1_us=<usec>] [nodes=<1,2,3>]
//              [metrics=<a,b>] [limit=<rows, default 64>]
//              (serve a time-range x node-set x metric query from a
//               store_tsdb policy's indexed segments; mode=fanout forwards
//               it to every producer and merges their pages)
//
// Intervals are microseconds, matching ldmsd's convention; a value that does
// not parse fails the verb. Lines starting with '#' and blank lines are
// ignored. Query verbs report through the output parameter of Execute();
// the control server appends it to "OK".
#pragma once

#include <string_view>

#include "daemon/ldmsd.hpp"
#include "daemon/plugin_registry.hpp"

namespace ldmsxx {

/// Does @p verb change daemon state (as opposed to querying it)? The
/// control server requires a valid auth MAC for mutating verbs when a key
/// manager is attached. Unknown verbs count as mutating (fail closed).
bool IsMutatingControlVerb(std::string_view verb);

/// The `prdcr_add` argument parser, shared by the verb and by the cluster
/// registry (daemon/registry.hpp), whose producer records are these
/// argument maps. kInvalidArgument for a missing name= or a malformed
/// microsecond value.
Status ParsePrdcrAdd(const PluginParams& args, ProducerConfig* config);
/// Inverse of ParsePrdcrAdd: the arguments that rebuild @p config, every
/// field spelled out. Durations are written in whole microseconds.
PluginParams PrdcrAddArgs(const ProducerConfig& config);

/// The `strgp_add` argument parser: fills every StorePolicy field except
/// the store object (see MakeStrgpStore). Arguments other than the policy
/// keys (name, plugin, schema, producer, queue, shed, breaker_k,
/// breaker_min, breaker_max, decomp) become plugin_params.
Status ParseStrgpAdd(const PluginParams& args, StorePolicy* policy);
/// Make policy->store from its plugin and plugin_params; kNotFound for an
/// unknown plugin, kInvalidArgument for a plugin argument that does not
/// parse or is out of range, kUnsupported for decomp= on a store that takes
/// no rows. Unknown plugin arguments are ignored.
Status MakeStrgpStore(const PluginRegistry& plugins, StorePolicy* policy);
/// Inverse of ParseStrgpAdd for a policy whose store came from a plugin.
PluginParams StrgpAddArgs(const StorePolicy& policy);

class ConfigProcessor {
 public:
  /// @param daemon daemon to configure
  /// @param registry plugin factories; nullptr = PluginRegistry::Instance()
  explicit ConfigProcessor(Ldmsd& daemon, PluginRegistry* registry = nullptr);

  /// Execute a single command line.
  Status Execute(std::string_view line);

  /// Execute a single command line; query verbs write their (single-line)
  /// reply into @p output, which is cleared first. @p output may be null.
  Status Execute(std::string_view line, std::string* output);

  /// Execute a multi-line script; stops at the first failing command and
  /// returns its status annotated with the line number.
  Status ExecuteScript(std::string_view script);

 private:
  Status CmdLoad(const PluginParams& args);
  Status CmdConfig(const PluginParams& args);
  Status CmdStart(const PluginParams& args);
  Status CmdStop(const PluginParams& args);
  Status CmdInterval(const PluginParams& args);
  Status CmdPrdcrAdd(const PluginParams& args);
  Status CmdPrdcrDel(const PluginParams& args);
  Status CmdStrgpAdd(const PluginParams& args);
  Status CmdStrgpStatus(const PluginParams& args, std::string* output);
  Status CmdPrdcrStatus(const PluginParams& args, std::string* output);
  Status CmdCounters(std::string* output);
  Status CmdTreeStatus(const PluginParams& args, std::string* output);
  Status CmdRegistryStatus(std::string* output);
  Status CmdRegistryExport(const PluginParams& args);
  Status CmdRegistryImport(const PluginParams& args);
  Status CmdQuery(const PluginParams& args, std::string* output);

  Ldmsd& daemon_;
  PluginRegistry* registry_;
  /// Plugins loaded but not yet started: name -> accumulated config params.
  std::map<std::string, PluginParams> pending_;
};

}  // namespace ldmsxx

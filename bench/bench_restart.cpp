// T-restart (ISSUE 8): the unattended restart drill at aggregator scale.
// An aggregator that pulls 1k / 8k producers persists its cluster registry
// (daemon/registry.hpp) and, after a crash, must come back from that file
// alone. We measure the three legs of that path at each scale:
//
//   save    — serialize + atomic write (tmp + fsync + rename) of the full
//             registry: the cost of every eager topology save;
//   load    — read + crc check + strict parse of the file;
//   restore — a bare Ldmsd reconstituting every producer, the store
//             policies, and the owned aggregation tree from the snapshot
//             (Ldmsd::RestoreFromRegistry), i.e. time-to-resume after boot.
//
// File bytes (and bytes per producer) are format-determined — identical on
// any machine — and regression-gated against
// bench/baselines/BENCH_restart.json by scripts/bench_compare.py; the _ms
// legs are machine-dependent and reported for trend only.
// LDMSXX_BENCH_SMOKE=1 keeps the same scales (so byte metrics stay
// comparable) and only trims the timing repetitions.
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "daemon/config.hpp"
#include "daemon/ldmsd.hpp"
#include "daemon/plugin_registry.hpp"
#include "daemon/registry.hpp"
#include "transport/fabric.hpp"
#include "transport/local_transport.hpp"
#include "transport/registry.hpp"

namespace ldmsxx::bench {
namespace {

/// A realistic aggregator registry: N producers, two store policies, and
/// the aggregation tree the daemon roots, as the records a daemon writes.
RegistrySnapshot MakeSnapshot(int producers) {
  RegistrySnapshot snap;
  TreeOptions tree;
  tree.seed = 2014;
  for (int i = 0; i < producers; ++i) {
    const std::string node = "node" + std::to_string(i);
    ProducerConfig p;
    p.name = node;
    p.transport = "local";
    p.address = node + "/listen";
    p.interval = kNsPerSec;
    p.set_instances = {node + "/meminfo", node + "/vmstat"};
    snap.producers[node] = PrdcrAddArgs(p);
    tree.samplers.push_back({node, static_cast<std::uint64_t>(i)});
  }
  StorePolicy primary;
  primary.name = "primary";
  primary.plugin = "store_mem";
  snap.stores["primary"] = StrgpAddArgs(primary);
  StorePolicy secondary = primary;
  secondary.name = "secondary";
  snap.stores["secondary"] = StrgpAddArgs(secondary);
  for (int j = 0; j < producers / 250; ++j) {
    tree.leaves.push_back("leaf" + std::to_string(j));
  }
  snap.tree = TreeArgs(tree, {});
  return snap;
}

struct ScaleResult {
  std::uint64_t file_bytes = 0;
  std::uint64_t records = 0;
  double save_ms = 0.0;
  double load_ms = 0.0;
  double restore_ms = 0.0;
  std::size_t restored_producers = 0;
};

ScaleResult MeasureScale(const std::string& dir, int producers, int reps) {
  const std::string path =
      dir + "/restart" + std::to_string(producers) + ".registry";
  const RegistrySnapshot snap = MakeSnapshot(producers);
  ScaleResult result;
  result.file_bytes = SerializeRegistry(snap).size();

  // Leg 1: eager-save cost (serialize + tmp + fsync + rename).
  {
    ClusterRegistry reg(path);
    for (const auto& [name, args] : snap.producers) reg.UpsertProducer(args);
    for (const auto& [name, args] : snap.stores) reg.UpsertStore(args);
    reg.SetTree(*snap.tree);
    double total = 0.0;
    for (int r = 0; r < reps; ++r) {
      total += TimeSeconds([&] { (void)reg.Save(); });
    }
    result.save_ms = total / reps * 1e3;
  }

  // Leg 2: load + crc + strict parse.
  {
    double total = 0.0;
    for (int r = 0; r < reps; ++r) {
      ClusterRegistry reg(path);
      total += TimeSeconds([&] { (void)reg.Load(); });
      result.records = reg.stats().last_load_records;
    }
    result.load_ms = total / reps * 1e3;
  }

  // Leg 3: a bare daemon resuming the whole topology from the file. The
  // producers are never connected (no scheduler runs): this isolates the
  // reconstitution cost — parse, producer/store/tree rebuild, re-save.
  {
    Fabric fabric;
    TransportRegistry transports;
    transports.Add(std::make_shared<LocalTransport>(&fabric));
    RegisterBuiltinStores();  // "store_mem" for the persisted policies
    SimClock clock(0);
    LdmsdOptions opts;
    opts.name = "restart-bench";
    opts.worker_threads = 0;
    opts.connection_threads = 0;
    opts.store_threads = 0;
    opts.log_level = LogLevel::kOff;
    opts.clock = &clock;
    opts.transports = &transports;
    opts.registry_path = path;
    Ldmsd daemon(opts);
    Status st;
    result.restore_ms = TimeSeconds([&] {
                          st = daemon.RestoreFromRegistry(
                              PluginRegistry::Instance());
                        }) *
                        1e3;
    if (!st.ok()) {
      std::fprintf(stderr, "restore failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    for (int i = 0; i < producers; ++i) {
      if (daemon.producer_status("node" + std::to_string(i)).known) {
        ++result.restored_producers;
      }
    }
  }
  return result;
}

}  // namespace
}  // namespace ldmsxx::bench

int main() {
  using namespace ldmsxx;
  using namespace ldmsxx::bench;

  Banner("T-restart", "registry save/load/reconstitute at 1k/8k producers");
  PaperRow("continuous monitoring must survive daemon restarts without "
           "operator reconfiguration (\"no operator action\")");

  std::string dir = "/tmp/ldmsxx_bench_restart_XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  const int reps = SmokeMode() ? 1 : 5;
  const int scales[] = {1000, 8000};

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", std::string("restart"));
  json.Field("smoke", SmokeMode());
  json.BeginArray("scales");
  for (const int producers : scales) {
    const ScaleResult r = MeasureScale(dir, producers, reps);
    MeasuredRow(
        "%5d producers: save %.2f ms, load %.2f ms, reconstitute %.2f ms; "
        "file %.1f KB (%.1f B/producer), %llu records, %zu restored",
        producers, r.save_ms, r.load_ms, r.restore_ms,
        static_cast<double>(r.file_bytes) / 1e3,
        static_cast<double>(r.file_bytes) / producers,
        static_cast<unsigned long long>(r.records), r.restored_producers);
    if (r.restored_producers != static_cast<std::size_t>(producers)) {
      std::fprintf(stderr, "restore dropped producers: %zu of %d\n",
                   r.restored_producers, producers);
      std::filesystem::remove_all(dir);
      return 1;
    }
    json.BeginObject();
    json.Field("producers", producers);
    json.Field("file_bytes", r.file_bytes);
    json.Field("bytes_per_producer",
               static_cast<double>(r.file_bytes) / producers);
    json.Field("records", r.records);
    json.Field("save_ms", r.save_ms);
    json.Field("load_ms", r.load_ms);
    json.Field("restore_ms", r.restore_ms);
    json.EndObject();
  }
  std::filesystem::remove_all(dir);
  json.EndArray();
  json.EndObject();
  if (!json.WriteFile("BENCH_restart.json")) {
    std::fprintf(stderr, "failed to write BENCH_restart.json\n");
    return 1;
  }
  NoteRow("file bytes are format-determined and regression-gated "
          "(bench_compare.py); _ms legs are machine-dependent trend data");
  NoteRow("machine-readable results: BENCH_restart.json");
  return 0;
}

// T-footprint (§IV-D "Resource Footprint"): reproduces every row of the
// paper's resource-footprint discussion —
//   * metric-set sizes: Blue Waters 1 set / 194 metrics ≈ 24 kB, Chama
//     7 sets / 467 metrics ≈ 44 kB, data chunk ≈ 10% of the set;
//   * sampler memory < 2 MB per node, registration of a few kB;
//   * sampler CPU at 1 s sampling ≈ hundredths of a percent of a core;
//   * aggregator CPU/memory for a Chama-shaped L1 (156 samplers, 20 s);
//     memory per daemon is resident bytes: set-memory pool in use plus the
//     heap the daemon holds (its sets' bookkeeping, schemas, plans);
//   * network bytes per collection interval (Chama: ~4 kB/node -> ~5 MB
//     per 20 s across 1296 nodes; Blue Waters: 44 MB/min);
//   * daily CSV storage volume (Chama ~27 GB/day, Blue Waters ~43 GB/day).
#include <malloc.h>

#include <chrono>
#include <memory>
#include <thread>

#include "bench/bench_common.hpp"
#include "daemon/ldmsd.hpp"
#include "sampler/samplers.hpp"
#include "sim/cluster.hpp"
#include "store/csv_store.hpp"

namespace ldmsxx::bench {
namespace {

/// Builds the Chama sampler daemon shape: 7 plugin sets totalling ~467
/// metrics (the six real /proc-family plugins plus one synthetic set that
/// stands in for the remaining production metrics).
std::vector<SamplerPluginPtr> ChamaPlugins(const NodeDataSourcePtr& source,
                                           std::size_t* total_metrics) {
  std::vector<SamplerPluginPtr> plugins = {
      std::make_shared<MeminfoSampler>(source),      // 6
      std::make_shared<ProcStatSampler>(source),     // 5
      std::make_shared<LoadAvgSampler>(source),      // 3
      std::make_shared<LustreSampler>(source),       // 6
      std::make_shared<NfsSampler>(source),          // 1
      std::make_shared<NetDevSampler>(source),       // 4
  };
  *total_metrics = 6 + 5 + 3 + 6 + 1 + 4;  // + synthetic below
  return plugins;
}

/// Heap bytes in use across every malloc arena. A delta taken around a
/// daemon's construction, less its set-memory pool (reserved from the heap
/// but resident only as far as it is used), gives the heap it holds.
std::size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

double Mb(std::size_t bytes) {
  return static_cast<double>(bytes) / 1024.0 / 1024.0;
}

void SetSizes() {
  Banner("T-footprint/sizes", "metric-set sizes and data/metadata split");
  sim::SimCluster cluster(sim::ClusterConfig::Chama(1));
  cluster.Tick(kNsPerSec);
  auto source = cluster.MakeDataSource(0);
  MemManager mem(8 << 20);
  SetRegistry sets;

  // Blue Waters: one 194-metric set.
  SyntheticSampler bw(source);
  PluginParams bw_params{{"producer", "nid0"},
                         {"instance", "nid0/bw"},
                         {"metrics", "194"}};
  (void)bw.Init(mem, sets, bw_params);
  const auto& bw_set = *bw.Sets().front();
  PaperRow("Blue Waters set: 194 metrics, ~24 kB total");
  MeasuredRow("Blue Waters set: %zu metrics, %.1f kB total (%zu B data)",
              bw_set.schema().metric_count(),
              static_cast<double>(bw_set.total_size()) / 1024.0,
              bw_set.data_size());

  // Chama: 7 sets, 467 metrics total.
  std::size_t real_metrics = 0;
  auto plugins = ChamaPlugins(source, &real_metrics);
  std::size_t total_bytes = 0;
  std::size_t data_bytes = 0;
  PluginParams params{{"producer", "ch0"}};
  for (auto& plugin : plugins) {
    (void)plugin->Init(mem, sets, params);
    const auto& set = *plugin->Sets().front();
    total_bytes += set.total_size();
    data_bytes += set.data_size();
  }
  SyntheticSampler pad(source);
  PluginParams pad_params{{"producer", "ch0"},
                          {"instance", "ch0/rest"},
                          {"metrics", std::to_string(467 - real_metrics)}};
  (void)pad.Init(mem, sets, pad_params);
  total_bytes += pad.Sets().front()->total_size();
  data_bytes += pad.Sets().front()->data_size();
  PaperRow("Chama: 7 sets / 467 metrics, ~44 kB total");
  MeasuredRow("Chama: 7 sets / 467 metrics, %.1f kB total",
              static_cast<double>(total_bytes) / 1024.0);
  PaperRow("data portion roughly 10%% of total set size");
  MeasuredRow("data portion %.1f%% of total set size",
              100.0 * static_cast<double>(data_bytes) /
                  static_cast<double>(total_bytes));
}

void SamplerCpu() {
  Banner("T-footprint/sampler-cpu",
         "compute-node sampler CPU at 1 s sampling");
  sim::SimCluster cluster(sim::ClusterConfig::Chama(1));
  cluster.Tick(kNsPerSec);
  auto source = cluster.MakeDataSource(0);

  LdmsdOptions opts;
  opts.name = "ch0";
  opts.worker_threads = 1;
  Ldmsd daemon(opts);
  SamplerConfig sc;
  sc.interval = 100 * kNsPerMs;  // 10x the paper's 1 s rate: CPU% scales /10
  sc.synchronous = true;
  std::size_t real_metrics = 0;
  for (auto& plugin : ChamaPlugins(source, &real_metrics)) {
    (void)daemon.AddSampler(plugin, sc);
  }
  (void)daemon.Start();
  const double wall = TimeSeconds([&] {
    const auto end =
        std::chrono::steady_clock::now() + std::chrono::seconds(3);
    while (std::chrono::steady_clock::now() < end) {
      cluster.Tick(100 * kNsPerMs);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  daemon.Stop();
  const double cpu_frac =
      static_cast<double>(daemon.counters().sample_ns.load()) / 1e9 / wall;
  PaperRow("a few hundredths of a percent of a core at 1 s sampling");
  MeasuredRow("%.4f%% of a core at 100 ms sampling (= %.4f%% at 1 s)",
              100.0 * cpu_frac, 100.0 * cpu_frac / 10.0);
  MeasuredRow("%llu samples, mean %.1f us per sampling pass",
              static_cast<unsigned long long>(
                  daemon.counters().samples.load()),
              static_cast<double>(daemon.counters().sample_ns.load()) /
                  static_cast<double>(daemon.counters().samples.load()) /
                  1000.0);
}

void AggregatorShape() {
  Banner("T-footprint/aggregator",
         "L1 aggregator: 156 samplers, 20 s interval (Chama shape)");
  // One pull cycle over 156 simulated sampler daemons via the rdma-sim
  // transport; CPU%% = cycle_time / interval.
  constexpr int kSamplers = 156;
  sim::SimCluster cluster(sim::ClusterConfig::Chama(kSamplers));
  cluster.Tick(kNsPerSec);

  std::vector<std::unique_ptr<Ldmsd>> samplers;
  std::vector<std::unique_ptr<SimClock>> clocks;  // one per daemon
  samplers.reserve(kSamplers);
  clocks.reserve(kSamplers);
  std::size_t sampler_heap = 0;
  std::size_t sampler_pool = 0;
  for (int n = 0; n < kSamplers; ++n) {
    auto source = cluster.MakeDataSource(n);
    const std::size_t heap_before = HeapInUse();
    clocks.push_back(std::make_unique<SimClock>(0));
    LdmsdOptions opts;
    opts.name = cluster.Hostname(n);
    opts.listen_transport = "rdma";
    opts.listen_address = "fp/" + cluster.Hostname(n);
    opts.worker_threads = 0;
    opts.connection_threads = 0;
    opts.store_threads = 0;
    opts.clock = clocks.back().get();
    auto d = std::make_unique<Ldmsd>(opts);
    SamplerConfig sc;
    sc.interval = kNsPerSec;
    std::size_t real_metrics = 0;
    for (auto& plugin : ChamaPlugins(source, &real_metrics)) {
      (void)d->AddSampler(plugin, sc);
    }
    SyntheticSampler* pad = nullptr;
    {
      auto p = std::make_shared<SyntheticSampler>(source);
      pad = p.get();
      SamplerConfig psc = sc;
      psc.params["metrics"] = std::to_string(467 - real_metrics);
      psc.params["instance"] = cluster.Hostname(n) + "/rest";
      (void)d->AddSampler(p, psc);
    }
    (void)pad;
    (void)d->Start();
    d->RunUntil(*clocks.back(), clocks.back()->Now() + kNsPerSec + 1);
    sampler_heap += HeapInUse() - heap_before - d->memory().pool_size();
    sampler_pool += d->memory().bytes_in_use();
    samplers.push_back(std::move(d));
  }
  PaperRow("< 2 MB of memory per node for samplers");
  MeasuredRow("Chama sampler daemon: %.2f MB resident (%.2f MB pool in use "
              "+ %.2f MB heap), mean of %d",
              Mb(sampler_pool + sampler_heap) / kSamplers,
              Mb(sampler_pool) / kSamplers, Mb(sampler_heap) / kSamplers,
              kSamplers);

  // The aggregator's heap delta also counts the state the samplers keep
  // for its 156 connections.
  const std::size_t agg_heap_before = HeapInUse();
  LdmsdOptions agg_opts;
  agg_opts.name = "agg-l1";
  agg_opts.worker_threads = 0;  // collect inline so the cycle is measurable
  agg_opts.connection_threads = 0;
  agg_opts.store_threads = 0;
  agg_opts.set_memory = 64 << 20;
  SimClock agg_clock(0);
  agg_opts.clock = &agg_clock;
  Ldmsd aggregator(agg_opts);
  for (int n = 0; n < kSamplers; ++n) {
    ProducerConfig pc;
    pc.name = cluster.Hostname(n);
    pc.transport = "rdma";
    pc.address = "fp/" + cluster.Hostname(n);
    pc.interval = kNsPerSec;  // sim-time interval; we drive cycles manually
    (void)aggregator.AddProducer(pc);
  }
  (void)aggregator.Start();

  // Cycle 1 includes connect + lookup; later cycles are steady-state pulls.
  double first = TimeSeconds(
      [&] { aggregator.RunUntil(agg_clock, agg_clock.Now() + kNsPerSec); });
  double steady = 0.0;
  constexpr int kCycles = 5;
  for (int c = 0; c < kCycles; ++c) {
    for (std::size_t i = 0; i < samplers.size(); ++i) {
      // Refresh sampler data so pulls see new DGNs.
      samplers[i]->RunUntil(*clocks[i], clocks[i]->Now() + kNsPerSec);
    }
    steady += TimeSeconds(
        [&] { aggregator.RunUntil(agg_clock, agg_clock.Now() + kNsPerSec); });
  }
  steady /= kCycles;
  const std::size_t agg_heap =
      HeapInUse() - agg_heap_before - aggregator.memory().pool_size();
  const std::size_t agg_pool = aggregator.memory().bytes_in_use();

  PaperRow("L1: 7 sets x 156 samplers @ 20 s -> ~0.1%% of a core, 33 MB");
  MeasuredRow("connect+lookup cycle: %.1f ms; steady pull cycle: %.1f ms",
              first * 1e3, steady * 1e3);
  MeasuredRow("=> %.3f%% of a core at a 20 s collection interval",
              100.0 * steady / 20.0);
  MeasuredRow("aggregator: %.1f MB resident (%.1f MB pool in use + %.1f MB "
              "heap) for %zu mirrored sets",
              Mb(agg_pool + agg_heap), Mb(agg_pool), Mb(agg_heap),
              aggregator.sets().size());

  // Network volume per interval (the data chunks only).
  std::size_t per_node_data = 0;
  {
    auto names = samplers[0]->sets().List();
    for (const auto& name : names) {
      per_node_data += samplers[0]->sets().Find(name)->data_size();
    }
  }
  PaperRow("Chama: ~4 kB/node/interval -> ~5 MB per 20 s across 1296 nodes");
  MeasuredRow("%.1f kB/node/interval -> %.1f MB per interval across 1296",
              static_cast<double>(per_node_data) / 1024.0,
              static_cast<double>(per_node_data) * 1296.0 / 1024.0 / 1024.0);
}

void StorageVolume() {
  Banner("T-footprint/storage", "daily CSV volume");
  sim::SimCluster cluster(sim::ClusterConfig::Chama(1));
  cluster.Tick(kNsPerSec);
  MemManager mem(8 << 20);
  SetRegistry sets;
  SyntheticSampler sampler(cluster.MakeDataSource(0));
  // base: realistic cumulative-counter magnitudes (13-digit values).
  PluginParams params{{"producer", "ch0"},
                      {"metrics", "467"},
                      {"base", "1400000000000"}};
  (void)sampler.Init(mem, sets, params);
  CsvStore store({"bench_out/footprint_csv"});
  for (int i = 0; i < 100; ++i) {
    (void)sampler.Sample(static_cast<TimeNs>(i) * kNsPerSec);
    (void)store.StoreSet(*sampler.Sets().front());
  }
  (void)store.Flush();
  const double bytes_per_row =
      static_cast<double>(store.bytes_written()) / 100.0;
  // Chama: 1296 nodes, 20 s interval -> 4320 rows/node/day.
  const double chama_day = bytes_per_row * 1296.0 * 4320.0 / 1e9;
  PaperRow("Chama: ~27 GB/day (467 metrics, 1296 nodes, 20 s)");
  MeasuredRow("%.0f B/row -> %.1f GB/day", bytes_per_row, chama_day);

  // Blue Waters: 194 metrics, 27648 nodes, 60 s -> 1440 rows/node/day. The
  // HSN set mixes large cumulative counters with small derived percentages;
  // measure its row size with mid-sized (6-digit) values.
  SyntheticSampler bw_sampler(cluster.MakeDataSource(0));
  PluginParams bw_params{{"producer", "nid0"},
                         {"instance", "nid0/bwvol"},
                         {"metrics", "194"},
                         {"base", "250000"}};
  (void)bw_sampler.Init(mem, sets, bw_params);
  CsvStore bw_store({"bench_out/footprint_csv_bw"});
  for (int i = 0; i < 100; ++i) {
    (void)bw_sampler.Sample(static_cast<TimeNs>(i) * kNsPerSec);
    (void)bw_store.StoreSet(*bw_sampler.Sets().front());
  }
  (void)bw_store.Flush();
  const double bw_bytes_per_row =
      static_cast<double>(bw_store.bytes_written()) / 100.0;
  const double bw_day = bw_bytes_per_row * 27648.0 * 1440.0 / 1e9;
  PaperRow("Blue Waters: ~43 GB/day (194 metrics, 27648 nodes, 60 s)");
  MeasuredRow("%.0f B/row -> %.1f GB/day", bw_bytes_per_row, bw_day);
}

}  // namespace
}  // namespace ldmsxx::bench

int main() {
  ldmsxx::bench::SetSizes();
  ldmsxx::bench::SamplerCpu();
  ldmsxx::bench::AggregatorShape();
  ldmsxx::bench::StorageVolume();
  return 0;
}

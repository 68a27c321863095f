// chama_dense: 1,296 Chama nodes (the paper's scale), each its own sampler
// daemon with bench_footprint's Chama shape — 7 sets / 467 metrics from the
// real meminfo/procstat/loadavg/lustre/nfs/netdev plugins parsing
// SimNodeDataSource text, plus a synthetic filler set. Hosts -> one leaf
// over local -> the root over one real sock loopback connection; the root
// stores every set whole into store_tsdb inline. Every metric is rewritten
// each sample, so the delta size gate declines and full chunks flow.
#include <array>
#include <unordered_set>

#include "decorators.hpp"
#include "pipeline.hpp"
#include "sampler/samplers.hpp"
#include "sim/cluster.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ldmsxx;

constexpr int kNodes = 1296;
constexpr int kPlugins = 7;
/// Dashboard windows span 4..12 cycles; the generator keeps that many.
constexpr std::size_t kWindowCycles = 12;
constexpr const char* kMeminfo[] = {"MemTotal", "MemFree", "Buffers",
                                    "Cached",   "Active",  "Inactive"};
constexpr std::size_t kMeminfoCount = std::size(kMeminfo);
/// Tables the root writes, one per plugin schema ("synthetic" = filler).
constexpr const char* kSchemas[kPlugins] = {
    "meminfo", "procstat", "loadavg", "lustre", "nfs", "netdev", "synthetic"};

class ChamaDense final : public Pipeline {
 public:
  using Pipeline::Pipeline;
  // main, the leaf's sock reactor, the root's sock reader, the tsdb syncer
  int thread_budget() const override { return 4; }
  // Half again the default cycles: its sampling and query timings swing
  // between runs on a shared host, and a longer run averages more out.
  std::size_t min_cycles() const override { return 150; }

 protected:
  Status Build() override;
  void Generate(std::uint64_t cycle) override;
  std::uint64_t committed_total() const override { return committed_; }
  TsdbQuery ProbeQuery(std::uint64_t cycle, std::size_t* store) const override;
  void Queries(std::uint64_t cycle, Rng& rng) override;
  std::vector<VerbRow> Reference(const TsdbQuery& q) const override;
  void FinalChecks() override;

 private:
  using MeminfoRow = std::array<std::uint64_t, kMeminfoCount>;
  const MeminfoRow& RingAt(std::uint64_t cycle, int node) const {
    return ring_[(cycle % kWindowCycles) * kNodes +
                 static_cast<std::size_t>(node)];
  }

  std::unique_ptr<sim::SimCluster> cluster_;
  std::vector<NodeDataSourcePtr> sources_;
  /// What each node's /proc/meminfo said in each of the last kWindowCycles
  /// cycles: the reference every dashboard window is checked against.
  std::vector<MeminfoRow> ring_;
  std::uint64_t committed_ = 0;
};

Status ChamaDense::Build() {
  sim::ClusterConfig config = sim::ClusterConfig::Chama(kNodes);
  config.seed = opts_.seed;
  cluster_ = std::make_unique<sim::SimCluster>(config);
  cluster_->Tick(kNsPerSec);
  ring_.assign(kWindowCycles * kNodes, MeminfoRow{});

  for (int n = 0; n < kNodes; ++n) {
    const std::string name = cluster_->Hostname(n);
    auto host = MakeDaemon(name, "local", "pb/" + name, &host_clock_,
                           &host_reg_, 256 << 10);
    NodeDataSourcePtr source = cluster_->MakeDataSource(n);
    sources_.push_back(source);
    const std::vector<SamplerPluginPtr> plugins = {
        std::make_shared<MeminfoSampler>(source),
        std::make_shared<ProcStatSampler>(source),
        std::make_shared<LoadAvgSampler>(source),
        std::make_shared<LustreSampler>(source),
        std::make_shared<NfsSampler>(source),
        std::make_shared<NetDevSampler>(source),
        std::make_shared<SyntheticSampler>(source)};
    for (const auto& plugin : plugins) {
      SamplerConfig sc;
      sc.interval = interval_;
      sc.params["component_id"] = std::to_string(n);
      if (plugin->name() == "synthetic") {
        sc.params["metrics"] = std::to_string(467 - 25);
        sc.params["instance"] = name + "/rest";
      }
      SamplerPluginPtr p = plugin;
      if (tracer_ != nullptr) p = std::make_shared<TracingSampler>(p, tracer_);
      Status st = host->AddSampler(p, sc);
      if (!st.ok()) return st;
    }
    Status st = host->Start();
    if (!st.ok()) return st;
    AddHost(std::move(host), 1);
  }

  auto leaf = MakeDaemon("leaf", "sock", "127.0.0.1:0", &leaf_clock_,
                         &leaf_reg_, 128 << 20);
  Status st = leaf->Start();
  if (!st.ok()) return st;
  for (int n = 0; n < kNodes; ++n) {
    const std::string name = cluster_->Hostname(n);
    ProducerConfig pc;
    pc.name = name;
    pc.transport = "local";
    pc.address = "pb/" + name;
    pc.interval = interval_;
    for (const std::string plugin : kSchemas) {
      pc.set_instances.push_back(name + "/" +
                                 (plugin == "synthetic" ? "rest" : plugin));
    }
    st = leaf->AddProducer(pc);
    if (!st.ok()) return st;
  }

  root_ = MakeDaemon("root", "local", "pb/root", &root_clock_, &root_reg_,
                     128 << 20);
  st = root_->Start();
  if (!st.ok()) return st;
  // One tsdb store behind one policy per schema: the query verb reaches it
  // through kQueriedPolicy (meminfo), and the traced run times the writes
  // of the other six through TracingStore without hiding the store from
  // the verb.
  StoreRef ref = MakeStore(*root_, "root_tsdb", 4096);
  for (const std::string schema : kSchemas) {
    StorePolicy policy;
    const bool queried = schema == "meminfo";
    policy.name = queried ? kQueriedPolicy : "bulk_" + schema;
    policy.schema_filter = schema;
    policy.store = ref.tsdb;
    if (!queried && tracer_ != nullptr) {
      policy.store = std::make_shared<TracingStore>(ref.tsdb, tracer_);
    }
    st = root_->AddStorePolicy(policy);
    if (!st.ok()) return st;
    ref.policies.push_back(policy.name);
  }
  ProducerConfig up;
  up.name = "leaf";
  up.transport = "sock";
  up.address = leaf->listen_address();
  up.interval = interval_;
  st = root_->AddProducer(up);
  if (!st.ok()) return st;
  leaves_.push_back(std::move(leaf));
  stores_.push_back(std::move(ref));

  front_ = MakeDaemon("front", "", "", &front_clock_, &front_reg_, 1 << 20);
  st = front_->AddProducer(FrontProducer("root", "pb/root",
                                         cluster_->Hostname(0) + "/meminfo",
                                         interval_));
  if (!st.ok()) return st;
  return front_->Start();
}

void ChamaDense::Generate(std::uint64_t cycle) {
  if (cycle > 1) cluster_->Tick(kNsPerSec);
  committed_ += static_cast<std::uint64_t>(kNodes) * kPlugins;
  std::string text;
  for (int n = 0; n < kNodes; ++n) {
    MeminfoRow& row = ring_[(cycle % kWindowCycles) * kNodes +
                            static_cast<std::size_t>(n)];
    row.fill(0);
    text.clear();
    if (!sources_[static_cast<std::size_t>(n)]->Read("/proc/meminfo", &text)
             .ok()) {
      continue;
    }
    for (std::string_view line : Split(text, '\n')) {
      const auto colon = line.find(':');
      if (colon == std::string_view::npos) continue;
      for (std::size_t i = 0; i < kMeminfoCount; ++i) {
        if (line.substr(0, colon) != kMeminfo[i]) continue;
        auto fields = SplitWhitespace(line.substr(colon + 1));
        if (!fields.empty()) {
          if (auto v = ParseU64(fields[0])) row[i] = *v;
        }
      }
    }
  }
}

TsdbQuery ChamaDense::ProbeQuery(std::uint64_t cycle,
                                 std::size_t* store) const {
  *store = 0;
  TsdbQuery q;
  q.table = "synthetic";
  q.t0 = q.t1 = TimeOf(cycle);
  q.nodes = {kNodes - 1};
  q.metrics = {"metric_0"};
  return q;
}

void ChamaDense::Queries(std::uint64_t cycle, Rng& rng) {
  StoreRef& s = stores_[0];
  // Window lengths vary so the segments a window touches vary smoothly
  // instead of flipping between two counts with the seal phase.
  auto window = [&](std::size_t nodes, std::size_t metrics) {
    const std::uint64_t span =
        std::min<std::uint64_t>(cycle, 4 + rng.Next() % (kWindowCycles - 3));
    TsdbQuery q;
    q.table = "meminfo";
    q.t0 = TimeOf(cycle - span + 1);
    q.t1 = TimeOf(cycle);
    q.nodes = PickDistinct(rng, kNodes, nodes);
    for (const std::uint64_t m : PickDistinct(rng, kMeminfoCount, metrics)) {
      q.metrics.emplace_back(kMeminfo[m]);
    }
    return q;
  };
  for (int i = 0; i < 16; ++i) Window(s, window(4, 2));
  TsdbQuery rollup = window(4, 2);
  rollup.t0 = 0;
  rollup.t1 = ~TimeNs{0};
  Rollup(s, rollup);
  Fanout(*front_, window(8, 1));
  if (cycle > kFixCycles && cycle % 4 == 0) {
    TsdbQuery scan;
    scan.table = "meminfo";
    scan.metrics = {"MemFree"};
    scan.t0 = TimeOf(1);
    scan.t1 = TimeOf(kFixCycles);
    Scan(s, scan, static_cast<std::uint64_t>(kNodes) * kFixCycles);
  }
}

std::vector<VerbRow> ChamaDense::Reference(const TsdbQuery& q) const {
  std::vector<VerbRow> rows;
  if (q.table != "meminfo") return rows;
  std::vector<std::size_t> cols;
  for (const auto& m : q.metrics) {
    for (std::size_t i = 0; i < kMeminfoCount; ++i) {
      if (m == kMeminfo[i]) cols.push_back(i);
    }
  }
  std::vector<std::uint64_t> nodes = q.nodes;
  std::sort(nodes.begin(), nodes.end());
  const std::uint64_t now = cycle();
  for (std::uint64_t c = now + 1 - std::min<std::uint64_t>(now, kWindowCycles);
       c <= now; ++c) {
    const TimeNs t = TimeOf(c);
    if (t < q.t0 || t > q.t1) continue;
    for (const std::uint64_t node : nodes) {
      VerbRow row;
      row.ts_us = t / kNsPerUs;
      row.node = node;
      for (const std::size_t col : cols) {
        row.values.push_back(VerbValue(
            static_cast<double>(RingAt(c, static_cast<int>(node))[col])));
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

void ChamaDense::FinalChecks() {
  const TsdbStore& tsdb = *stores_[0].tsdb;
  if (tsdb.rows_written() != committed_) {
    Fail("stored " + std::to_string(tsdb.rows_written()) + " rows for " +
         std::to_string(committed_) + " committed samples");
  }
  // Exactly once: every table holds one row per (cycle, node), no repeats.
  for (const auto& instance : hosts_[0]->sets().List()) {
    const MetricSetPtr set = hosts_[0]->sets().Find(instance);
    TsdbQuery q;
    q.table = set->schema().name();
    q.metrics = {set->schema().metric(0).name};
    TsdbQueryResult r;
    if (!tsdb.Query(q, &r).ok()) {
      Fail("table " + q.table + " unreadable");
      continue;
    }
    std::unordered_set<std::uint64_t> seen;
    for (const auto& row : r.rows) {
      seen.insert(row.ts / kNsPerSec * kNodes + row.node);
    }
    const std::uint64_t want = cycle() * kNodes;
    if (r.rows.size() != want || seen.size() != want) {
      Fail("table " + q.table + " holds " + std::to_string(r.rows.size()) +
           " rows (" + std::to_string(seen.size()) + " distinct), expected " +
           std::to_string(want));
    }
  }
  // Spot checks of the filler set: its counter reads c + i at cycle c.
  for (const std::uint64_t c : {std::uint64_t{2}, cycle() / 2, cycle()}) {
    TsdbQuery q;
    q.table = "synthetic";
    q.t0 = q.t1 = TimeOf(c);
    q.nodes = {static_cast<std::uint64_t>(c % kNodes)};
    q.metrics = {"metric_3"};
    TsdbQueryResult r;
    if (!tsdb.Query(q, &r).ok() || r.rows.size() != 1 ||
        r.rows[0].values[0] != static_cast<double>(c + 3)) {
      Fail("filler value at cycle " + std::to_string(c) + " is wrong");
    }
  }
}

}  // namespace

std::unique_ptr<Pipeline> MakeChamaDense(const RunOptions& opts,
                                         Tracer* tracer,
                                         const std::string& dir) {
  return std::make_unique<ChamaDense>(opts, tracer, dir);
}

}  // namespace perfbench

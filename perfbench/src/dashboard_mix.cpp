// dashboard_mix: two leaf daemons, each holding half of a 64-node x
// 16-metric, 1M-row history sealed into segments at setup. Each cycle the
// two host daemons sample one 100 ms tick of all 64 nodes, the leaves pull
// and store it (writes beside reads), the root pulls the leaves, and then a
// seeded closed loop of `query` verb calls runs: dashboard windows (~1% of
// the history x 4 nodes x 2 metrics, a quarter of them ending at the newest
// tick, in the active segment), rollups, `mode=fanout` queries from the
// root across both leaves' sealed segments, and every 4th cycle a
// full-range single-metric scan. Prune/read/decode, row materialisation,
// verb formatting and the fan-out merge do the work.
#include <unordered_set>

#include "core/schema.hpp"
#include "pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ldmsxx;

constexpr int kNodes = 64;
constexpr int kPerLeaf = 32;
constexpr int kMetrics = 16;
constexpr std::uint64_t kHistTicks = 15625;  // x 64 nodes = 1,000,000 rows
constexpr DurationNs kTick = 100 * kNsPerMs;
constexpr std::uint64_t kWindowTicks = kHistTicks / 100;

std::string NodeName(int n) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "node%02d", n);
  return buf;
}

/// The generator: metric m of node n at tick t.
std::uint64_t Value(std::uint64_t seed, int node, std::uint64_t tick, int m) {
  const std::uint64_t h = Mix(seed, static_cast<std::uint64_t>(node),
                              static_cast<std::uint64_t>(m));
  return (h % 1000000) * 1000 + tick * (1 + (h >> 32) % 97);
}

Schema DashSchema() {
  Schema schema("dash");
  for (int m = 0; m < kMetrics; ++m) {
    schema.AddMetric("m" + std::to_string(m), MetricType::kU64);
  }
  return schema;
}

/// Fill @p set with the generator's values for @p tick and commit.
void Fill(MetricSet& set, std::uint64_t seed, int node, std::uint64_t tick) {
  set.BeginTransaction();
  for (int m = 0; m < kMetrics; ++m) {
    set.SetU64(static_cast<std::size_t>(m), Value(seed, node, tick, m));
  }
  set.EndTransaction(tick * kTick);
}

/// Sampler plugin hosting one leaf's 32 nodes.
class DashSampler final : public SamplerPlugin {
 public:
  DashSampler(int first, std::uint64_t seed, std::uint64_t* committed)
      : first_(first), seed_(seed), committed_(committed) {}

  const std::string& name() const override { return name_; }

  Status Init(MemManager& mem, SetRegistry& sets,
              const PluginParams& params) override {
    (void)params;
    const Schema schema = DashSchema();
    for (int n = first_; n < first_ + kPerLeaf; ++n) {
      Status st;
      auto set = MetricSet::Create(mem, schema, NodeName(n) + "/dash",
                                   NodeName(n), static_cast<std::uint64_t>(n),
                                   &st);
      if (set == nullptr) return st;
      st = sets.Add(set);
      if (!st.ok()) return st;
      sets_.push_back(std::move(set));
    }
    return Status::Ok();
  }

  Status Sample(TimeNs now) override {
    for (int i = 0; i < kPerLeaf; ++i) {
      Fill(*sets_[static_cast<std::size_t>(i)], seed_, first_ + i,
           now / kTick);
      ++*committed_;
    }
    return Status::Ok();
  }

  std::vector<MetricSetPtr> Sets() const override { return sets_; }

 private:
  std::string name_ = "dash";
  int first_;
  std::uint64_t seed_;
  std::uint64_t* committed_;
  std::vector<MetricSetPtr> sets_;
};

class DashboardMix final : public Pipeline {
 public:
  DashboardMix(const RunOptions& opts, Tracer* tracer, const std::string& dir)
      : Pipeline(opts, tracer, dir) {
    interval_ = kTick;
    base_ticks_ = kHistTicks;
  }
  // main and the two leaves' tsdb syncers
  int thread_budget() const override { return 3; }

 protected:
  Status Build() override;
  std::uint64_t committed_total() const override { return committed_; }
  TsdbQuery ProbeQuery(std::uint64_t cycle, std::size_t* store) const override;
  void Queries(std::uint64_t cycle, Rng& rng) override;
  std::vector<VerbRow> Reference(const TsdbQuery& q) const override;
  void FinalChecks() override;
  bool stores_at_leaves() const override { return true; }

 private:
  Status LoadHistory(TsdbStore& tsdb, int first);
  std::uint64_t Tick() const { return base_ticks_ + cycle(); }

  std::uint64_t committed_ = 0;
};

Status DashboardMix::LoadHistory(TsdbStore& tsdb, int first) {
  MemManager mem(1 << 20);
  const Schema schema = DashSchema();
  std::vector<MetricSetPtr> sets;
  std::vector<std::mutex> mus(kPerLeaf);
  std::vector<Store::BatchItem> items;
  for (int i = 0; i < kPerLeaf; ++i) {
    Status st;
    sets.push_back(MetricSet::Create(mem, schema, NodeName(first + i) + "/dash",
                                     NodeName(first + i),
                                     static_cast<std::uint64_t>(first + i),
                                     &st));
    if (sets.back() == nullptr) return st;
    items.push_back({sets.back().get(), &mus[static_cast<std::size_t>(i)]});
  }
  for (std::uint64_t tick = 1; tick <= kHistTicks; ++tick) {
    for (int i = 0; i < kPerLeaf; ++i) {
      Fill(*sets[static_cast<std::size_t>(i)], opts_.seed, first + i, tick);
    }
    std::size_t stored = 0;
    Status st = tsdb.StoreSetBatch(items.data(), items.size(), &stored);
    if (!st.ok()) return st;
  }
  return tsdb.Flush();
}

Status DashboardMix::Build() {
  for (int j = 0; j < 2; ++j) {
    const std::string host_name = "dhost" + std::to_string(j);
    auto host = MakeDaemon(host_name, "local", "pb/" + host_name,
                           &host_clock_, &host_reg_, 1 << 20);
    SamplerConfig sc;
    sc.interval = interval_;
    Status st = host->AddSampler(
        std::make_shared<DashSampler>(j * kPerLeaf, opts_.seed, &committed_),
        sc);
    if (!st.ok()) return st;
    st = host->Start();
    if (!st.ok()) return st;
    AddHost(std::move(host), kPerLeaf);

    const std::string leaf_name = "dleaf" + std::to_string(j);
    auto leaf = MakeDaemon(leaf_name, "local", "pb/" + leaf_name,
                           &leaf_clock_, &leaf_reg_, 4 << 20);
    st = leaf->Start();
    if (!st.ok()) return st;
    ProducerConfig pc;
    pc.name = host_name;
    pc.transport = "local";
    pc.address = "pb/" + host_name;
    pc.interval = interval_;
    for (int n = j * kPerLeaf; n < (j + 1) * kPerLeaf; ++n) {
      pc.set_instances.push_back(NodeName(n) + "/dash");
    }
    st = leaf->AddProducer(pc);
    if (!st.ok()) return st;
    StoreRef ref = MakeStore(*leaf, leaf_name + "_tsdb", 8192);
    st = LoadHistory(*ref.tsdb, j * kPerLeaf);
    if (!st.ok()) return st;
    StorePolicy policy;
    policy.name = kQueriedPolicy;
    policy.store = ref.tsdb;
    st = leaf->AddStorePolicy(policy);
    if (!st.ok()) return st;
    ref.policies = {kQueriedPolicy};
    stores_.push_back(std::move(ref));
    leaves_.push_back(std::move(leaf));
  }
  root_ = MakeDaemon("droot", "", "", &root_clock_, &root_reg_, 4 << 20);
  for (int j = 0; j < 2; ++j) {
    ProducerConfig pc;
    pc.name = "dleaf" + std::to_string(j);
    pc.transport = "local";
    pc.address = "pb/" + pc.name;
    pc.interval = interval_;
    for (int n = j * kPerLeaf; n < (j + 1) * kPerLeaf; ++n) {
      pc.set_instances.push_back(NodeName(n) + "/dash");
    }
    Status st = root_->AddProducer(pc);
    if (!st.ok()) return st;
  }
  return root_->Start();
}

TsdbQuery DashboardMix::ProbeQuery(std::uint64_t cycle,
                                   std::size_t* store) const {
  *store = 1;
  TsdbQuery q;
  q.table = "dash";
  q.t0 = q.t1 = TimeOf(cycle);
  q.nodes = {kNodes - 1};
  q.metrics = {"m0"};
  return q;
}

void DashboardMix::Queries(std::uint64_t cycle, Rng& rng) {
  (void)cycle;
  // A window of 0.5..1.5% of the history (so the segments it touches vary
  // smoothly, not between two counts) ending at the newest tick, in the
  // active segment, a quarter of the time, anywhere in the history otherwise.
  auto window = [&](TsdbQuery* q) {
    const std::uint64_t now = Tick();
    const std::uint64_t len =
        kWindowTicks / 2 + rng.Next() % (kWindowTicks + 1);
    const std::uint64_t end =
        rng.Next() % 4 == 0 ? now : len + rng.Next() % (now - len + 1);
    q->table = "dash";
    q->t0 = (end - len + 1) * kTick;
    q->t1 = end * kTick;
  };
  auto metrics = [&](std::size_t k) {
    std::vector<std::string> out;
    for (const std::uint64_t m : PickDistinct(rng, kMetrics, k)) {
      out.push_back("m" + std::to_string(m));
    }
    return out;
  };
  auto leaf_nodes = [&](std::size_t leaf, std::size_t k) {
    std::vector<std::uint64_t> nodes = PickDistinct(rng, kPerLeaf, k);
    for (auto& n : nodes) n += leaf * kPerLeaf;
    return nodes;
  };
  for (int i = 0; i < 16; ++i) {
    const std::size_t leaf = rng.Next() % 2;
    TsdbQuery q;
    window(&q);
    q.nodes = leaf_nodes(leaf, 4);
    q.metrics = metrics(2);
    Window(stores_[leaf], q);
  }
  for (int i = 0; i < 2; ++i) {
    const std::size_t leaf = rng.Next() % 2;
    TsdbQuery q;
    q.table = "dash";
    q.nodes = leaf_nodes(leaf, 4);
    q.metrics = metrics(2);
    Rollup(stores_[leaf], q);
  }
  for (int i = 0; i < 2; ++i) {
    TsdbQuery q;
    window(&q);
    q.nodes = leaf_nodes(0, 4);
    const auto other = leaf_nodes(1, 4);
    q.nodes.insert(q.nodes.end(), other.begin(), other.end());
    q.metrics = metrics(1);
    Fanout(*root_, q);
  }
  if (cycle % 4 == 0) {
    const std::size_t leaf = (cycle / 4) % 2;
    TsdbQuery q;
    q.table = "dash";
    q.metrics = metrics(1);
    Scan(stores_[leaf], q, kPerLeaf * Tick());
  }
}

std::vector<VerbRow> DashboardMix::Reference(const TsdbQuery& q) const {
  std::vector<VerbRow> rows;
  std::vector<int> cols;
  for (const auto& m : q.metrics) cols.push_back(std::stoi(m.substr(1)));
  std::vector<std::uint64_t> nodes = q.nodes;
  std::sort(nodes.begin(), nodes.end());
  const std::uint64_t last = std::min<std::uint64_t>(q.t1 / kTick, Tick());
  for (std::uint64_t tick = std::max<std::uint64_t>(1, q.t0 / kTick);
       tick <= last; ++tick) {
    for (const std::uint64_t node : nodes) {
      VerbRow row;
      row.ts_us = tick * kTick / kNsPerUs;
      row.node = node;
      for (const int m : cols) {
        row.values.push_back(VerbValue(static_cast<double>(
            Value(opts_.seed, static_cast<int>(node), tick, m))));
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

void DashboardMix::FinalChecks() {
  if (committed_ != static_cast<std::uint64_t>(kNodes) * cycle()) {
    Fail("hosts committed " + std::to_string(committed_) + " samples in " +
         std::to_string(cycle()) + " cycles");
  }
  const std::uint64_t want = kPerLeaf * Tick();
  for (const auto& s : stores_) {
    if (s.tsdb->rows_written() != want) {
      Fail(s.daemon->name() + " stored " +
           std::to_string(s.tsdb->rows_written()) + " rows, expected " +
           std::to_string(want));
    }
    TsdbQuery q;
    q.table = "dash";
    q.metrics = {"m0"};
    TsdbQueryResult r;
    if (!s.tsdb->Query(q, &r).ok()) {
      Fail(s.daemon->name() + " table dash unreadable");
      continue;
    }
    std::unordered_set<std::uint64_t> seen;
    for (const auto& row : r.rows) {
      seen.insert(row.ts / kTick * kNodes + row.node);
    }
    if (r.rows.size() != want || seen.size() != want) {
      Fail(s.daemon->name() + " holds " + std::to_string(r.rows.size()) +
           " rows (" + std::to_string(seen.size()) + " distinct), expected " +
           std::to_string(want));
    }
  }
}

}  // namespace

std::unique_ptr<Pipeline> MakeDashboardMix(const RunOptions& opts,
                                           Tracer* tracer,
                                           const std::string& dir) {
  return std::make_unique<DashboardMix>(opts, tracer, dir);
}

}  // namespace perfbench

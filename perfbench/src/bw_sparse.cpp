// bw_sparse: 8,192 Blue-Waters-shaped 194-metric sets (paper §IV-D), hosted
// 256 per sampler daemon as bench_tree does. The bench's sampler dirties
// ~1% of metrics per sample (2 of 194) and the odd nodes sample only every
// other cycle. Hosts -> 8 leaves -> root, both hops over local. The root
// stores through a narrow decomp= policy (4 columns, with delta and rate
// ops) on one storer thread, queue sized so nothing sheds. The same layers
// as chama_dense, used the opposite way: dirty-bitmap deltas, ApplyDelta,
// delta re-serving, unchanged markers and the async store queue do the
// work; sock is unused and tsdb does little.
#include <array>
#include <unordered_set>

#include "core/schema.hpp"
#include "pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ldmsxx;

constexpr int kSets = 8192;
constexpr int kHosts = 32;
constexpr int kPerHost = kSets / kHosts;
constexpr int kLeaves = 8;
constexpr int kMetrics = 194;
/// Dashboard windows span 4..12 cycles; the generator keeps that many.
constexpr std::size_t kWindowCycles = 12;
constexpr const char* kDecomp = "bw@m0,m1::delta,m2::rate,m3";
constexpr const char* kColumns[] = {"m0", "m1", "m2", "m3"};

/// Every node samples in cycle 1; after that the odd nodes sample only in
/// even cycles.
bool Quiescent(int node, std::uint64_t cycle) {
  return cycle > 1 && node % 2 == 1 && cycle % 2 == 1;
}

std::string NodeName(int n) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "nid%05d", n);
  return buf;
}

/// The generator: every metric's current value, and for the last
/// kWindowCycles cycles the row the decomp policy must derive per node.
struct Generator {
  struct Row {
    bool valid = false;
    /// m0, m1 delta, m2 rate, m3 — numbers, formatted only when a query
    /// is checked, so the generator adds no string churn to the heap the
    /// measured code allocates from.
    std::array<double, 4> values{};
  };
  explicit Generator(std::uint64_t s)
      : seed(s),
        values(static_cast<std::size_t>(kSets) * kMetrics, 0),
        prev1(kSets, 0),
        prev2(kSets, 0),
        prev_ts(kSets, 0),
        ring(kWindowCycles * kSets) {}

  Row& At(std::uint64_t cycle, int node) {
    return ring[(cycle % kWindowCycles) * kSets +
                static_cast<std::size_t>(node)];
  }
  const Row& At(std::uint64_t cycle, int node) const {
    return ring[(cycle % kWindowCycles) * kSets +
                static_cast<std::size_t>(node)];
  }

  std::uint64_t seed;
  std::vector<std::uint64_t> values;
  std::vector<std::uint64_t> prev1, prev2;
  std::vector<TimeNs> prev_ts;
  std::vector<Row> ring;
  std::uint64_t committed = 0;
};

/// Sampler plugin hosting a block of nodes' sets.
class SparseSampler final : public SamplerPlugin {
 public:
  SparseSampler(int first, Generator* gen, DurationNs interval,
                Tracer* tracer)
      : first_(first), gen_(gen), interval_(interval), tracer_(tracer) {}

  const std::string& name() const override { return name_; }

  Status Init(MemManager& mem, SetRegistry& sets,
              const PluginParams& params) override {
    (void)params;
    Schema schema("bw");
    for (int m = 0; m < kMetrics; ++m) {
      schema.AddMetric("m" + std::to_string(m), MetricType::kU64);
    }
    for (int n = first_; n < first_ + kPerHost; ++n) {
      Status st;
      auto set = MetricSet::Create(mem, schema, NodeName(n) + "/bw",
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
    const std::uint64_t cycle = now / interval_;
    for (int i = 0; i < kPerHost; ++i) {
      const int n = first_ + i;
      Generator::Row& row = gen_->At(cycle, n);
      row.valid = false;
      if (Quiescent(n, cycle)) continue;
      MetricSet& set = *sets_[static_cast<std::size_t>(i)];
      std::uint64_t* v =
          &gen_->values[static_cast<std::size_t>(n) * kMetrics];
      const std::uint64_t h = Mix(gen_->seed, static_cast<std::uint64_t>(n),
                                  cycle);
      const std::size_t a = h % 4;  // one of the stored columns...
      const std::size_t b = (h >> 8) % kMetrics;  // ...and one anywhere
      // The first sample of a set writes every metric, as a real sampler's
      // first pass does; later ones touch only the two dirty metrics.
      const bool first = gen_->prev_ts[static_cast<std::size_t>(n)] == 0;
      set.BeginTransaction();
      if (first) {
        for (std::size_t m = 0; m < kMetrics; ++m) set.SetU64(m, v[m]);
      }
      v[a] += 1 + (h >> 20) % 1000;
      set.SetU64(a, v[a]);
      if (b != a) {
        v[b] += 1 + (h >> 40) % 1000;
        set.SetU64(b, v[b]);
      }
      {
        Tracer::Scope span(tracer_, "core.commit");
        set.EndTransaction(now);
      }
      ++gen_->committed;
      // The row the decomposer derives: first sample of a series has no
      // history, so its delta and rate read 0.
      const auto idx = static_cast<std::size_t>(n);
      const std::uint64_t d1 = first ? 0 : v[1] - gen_->prev1[idx];
      const double r2 =
          first ? 0.0
                : (static_cast<double>(v[2]) -
                   static_cast<double>(gen_->prev2[idx])) /
                      (static_cast<double>(now - gen_->prev_ts[idx]) / 1e9);
      gen_->prev1[idx] = v[1];
      gen_->prev2[idx] = v[2];
      gen_->prev_ts[idx] = now;
      row.valid = true;
      row.values = {static_cast<double>(v[0]), static_cast<double>(d1), r2,
                    static_cast<double>(v[3])};
    }
    return Status::Ok();
  }

  std::vector<MetricSetPtr> Sets() const override { return sets_; }

 private:
  std::string name_ = "bw_sparse";
  int first_;
  Generator* gen_;
  DurationNs interval_;
  Tracer* tracer_;
  std::vector<MetricSetPtr> sets_;
};

class BwSparse final : public Pipeline {
 public:
  BwSparse(const RunOptions& opts, Tracer* tracer, const std::string& dir)
      : Pipeline(opts, tracer, dir), gen_(opts.seed) {}
  // main, the root's storer, the tsdb syncer
  int thread_budget() const override { return 3; }
  // Its query and scan timings swing most between runs on a shared host;
  // twice the cycles average more of that out.
  std::size_t min_cycles() const override { return 200; }

 protected:
  Status Build() override;
  std::uint64_t committed_total() const override { return gen_.committed; }
  TsdbQuery ProbeQuery(std::uint64_t cycle, std::size_t* store) const override;
  void Queries(std::uint64_t cycle, Rng& rng) override;
  std::vector<VerbRow> Reference(const TsdbQuery& q) const override;
  void FinalChecks() override;

 private:
  Generator gen_;
};

Status BwSparse::Build() {
  for (int h = 0; h < kHosts; ++h) {
    const std::string name = "bwhost" + std::to_string(h);
    auto host = MakeDaemon(name, "local", "pb/" + name, &host_clock_,
                           &host_reg_, 12 << 20);
    SamplerConfig sc;
    sc.interval = interval_;
    Status st = host->AddSampler(
        std::make_shared<SparseSampler>(h * kPerHost, &gen_, interval_,
                                        tracer_),
        sc);
    if (!st.ok()) return st;
    st = host->Start();
    if (!st.ok()) return st;
    AddHost(std::move(host), kPerHost);
  }
  // Leaf j serves nodes n % kLeaves == j, one producer per host.
  for (int j = 0; j < kLeaves; ++j) {
    const std::string name = "bwleaf" + std::to_string(j);
    auto leaf = MakeDaemon(name, "local", "pb/" + name, &leaf_clock_,
                           &leaf_reg_, 48 << 20);
    Status st = leaf->Start();
    if (!st.ok()) return st;
    for (int h = 0; h < kHosts; ++h) {
      ProducerConfig pc;
      pc.name = "bwhost" + std::to_string(h);
      pc.transport = "local";
      pc.address = "pb/" + pc.name;
      pc.interval = interval_;
      for (int n = h * kPerHost; n < (h + 1) * kPerHost; ++n) {
        if (n % kLeaves == j) pc.set_instances.push_back(NodeName(n) + "/bw");
      }
      st = leaf->AddProducer(pc);
      if (!st.ok()) return st;
    }
    leaves_.push_back(std::move(leaf));
  }
  // ~24 kB per 194-metric set (paper §IV-D) for 8,192 mirrors.
  root_ = MakeDaemon("bwroot", "local", "pb/bwroot", &root_clock_, &root_reg_,
                     256 << 20, /*store_threads=*/1);
  Status st = root_->Start();
  if (!st.ok()) return st;
  for (int j = 0; j < kLeaves; ++j) {
    ProducerConfig pc;
    pc.name = "bwleaf" + std::to_string(j);
    pc.transport = "local";
    pc.address = "pb/" + pc.name;
    pc.interval = interval_;
    for (int n = j; n < kSets; n += kLeaves) {
      pc.set_instances.push_back(NodeName(n) + "/bw");
    }
    st = root_->AddProducer(pc);
    if (!st.ok()) return st;
  }
  StoreRef ref = MakeStore(*root_, "root_tsdb", 4096);
  StorePolicy policy;
  policy.name = kQueriedPolicy;
  policy.store = ref.tsdb;
  policy.decomp = kDecomp;
  policy.queue_capacity = kSets;  // one cycle never fills it: nothing sheds
  st = root_->AddStorePolicy(policy);
  if (!st.ok()) return st;
  ref.policies = {kQueriedPolicy};
  stores_.push_back(std::move(ref));

  front_ = MakeDaemon("bwfront", "", "", &front_clock_, &front_reg_, 1 << 20);
  st = front_->AddProducer(
      FrontProducer("bwroot", "pb/bwroot", NodeName(0) + "/bw", interval_));
  if (!st.ok()) return st;
  return front_->Start();
}

TsdbQuery BwSparse::ProbeQuery(std::uint64_t cycle, std::size_t* store) const {
  *store = 0;
  TsdbQuery q;
  q.table = "bw";
  q.t0 = q.t1 = TimeOf(cycle);
  q.nodes = {0};  // even nodes commit every cycle
  q.metrics = {"m0"};
  return q;
}

void BwSparse::Queries(std::uint64_t cycle, Rng& rng) {
  StoreRef& s = stores_[0];
  // Window lengths vary so the segments a window touches vary smoothly
  // instead of flipping between two counts with the seal phase.
  auto window = [&](std::size_t nodes, std::size_t metrics) {
    const std::uint64_t span =
        std::min<std::uint64_t>(cycle, 4 + rng.Next() % (kWindowCycles - 3));
    TsdbQuery q;
    q.table = "bw";
    q.t0 = TimeOf(cycle - span + 1);
    q.t1 = TimeOf(cycle);
    q.nodes = PickDistinct(rng, kSets, nodes);
    for (const std::uint64_t m : PickDistinct(rng, 4, metrics)) {
      q.metrics.emplace_back(kColumns[m]);
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
    scan.table = "bw";
    scan.metrics = {"m0"};
    scan.t0 = TimeOf(1);
    scan.t1 = TimeOf(kFixCycles);
    std::uint64_t expected = 0;
    for (std::uint64_t c = 1; c <= kFixCycles; ++c) {
      for (int n = 0; n < kSets; ++n) expected += Quiescent(n, c) ? 0 : 1;
    }
    Scan(s, scan, expected);
  }
}

std::vector<VerbRow> BwSparse::Reference(const TsdbQuery& q) const {
  std::vector<VerbRow> rows;
  std::vector<std::size_t> cols;
  for (const auto& m : q.metrics) {
    for (std::size_t i = 0; i < std::size(kColumns); ++i) {
      if (m == kColumns[i]) cols.push_back(i);
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
      const Generator::Row& g = gen_.At(c, static_cast<int>(node));
      if (!g.valid) continue;
      VerbRow row;
      row.ts_us = t / kNsPerUs;
      row.node = node;
      for (const std::size_t col : cols) {
        row.values.push_back(VerbValue(g.values[col]));
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

void BwSparse::FinalChecks() {
  const TsdbStore& tsdb = *stores_[0].tsdb;
  if (tsdb.rows_written() != gen_.committed) {
    Fail("stored " + std::to_string(tsdb.rows_written()) + " rows for " +
         std::to_string(gen_.committed) + " committed samples");
  }
  TsdbQuery q;
  q.table = "bw";
  q.metrics = {"m0"};
  TsdbQueryResult r;
  if (!tsdb.Query(q, &r).ok()) {
    Fail("table bw unreadable");
    return;
  }
  std::unordered_set<std::uint64_t> seen;
  for (const auto& row : r.rows) {
    seen.insert(row.ts / kNsPerSec * kSets + row.node);
  }
  if (r.rows.size() != gen_.committed || seen.size() != gen_.committed) {
    Fail("table bw holds " + std::to_string(r.rows.size()) + " rows (" +
         std::to_string(seen.size()) + " distinct) for " +
         std::to_string(gen_.committed) + " committed samples");
  }
}

}  // namespace

std::unique_ptr<Pipeline> MakeBwSparse(const RunOptions& opts, Tracer* tracer,
                                       const std::string& dir) {
  return std::make_unique<BwSparse>(opts, tracer, dir);
}

}  // namespace perfbench

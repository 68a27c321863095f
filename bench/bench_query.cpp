// T-query (ISSUE 9 + the ISSUE 10 compressed-query stack): the columnar
// storage engine's promises, measured.
//
//   ingest   — rows/s through store_tsdb's columnar append path vs. the
//              CSV store fed the same samples (the paper-era baseline
//              format); columnar must not cost more than row-at-a-time CSV.
//   query    — p50/p99 latency of a time-range x node-set x metric query
//              answered by the footer index (prune on min/max ts + node
//              dictionary, read only the selected columns) vs. the
//              full-scan path that re-reads every column of every segment
//              the way a CSV consumer would. At the 1M-row scale the
//              indexed path must be >= 20x faster.
//   compress — on-disk bytes of the same dataset sealed with per-column
//              codecs vs. all-raw (compress=0 ablation); acceptance is a
//              >= 3x reduction at 1M rows with indexed p50 no worse.
//   fan-out  — a 3-leaf aggregation tree answering the same predicate via
//              query mode=fanout: per-leaf local queries merged at the
//              root into one (ts, node)-ordered page.
//
// The dataset is deterministic (no RNG): 64 nodes x 16 metrics, value =
// f(node, tick). Deterministic metrics — rows/bytes written, segment
// counts, bytes read per query path — are regression-gated against
// bench/baselines/BENCH_query.json by scripts/bench_compare.py; the _us
// latencies and rows-per-second rates are machine-dependent trend data.
// LDMSXX_BENCH_SMOKE=1 shrinks row counts and repetitions.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/mem_manager.hpp"
#include "core/metric_set.hpp"
#include "core/schema.hpp"
#include "daemon/config.hpp"
#include "daemon/ldmsd.hpp"
#include "daemon/plugin_registry.hpp"
#include "store/csv_store.hpp"
#include "store/tsdb/tsdb_store.hpp"
#include "transport/message.hpp"

namespace ldmsxx::bench {
namespace {

constexpr std::size_t kNodes = 64;
constexpr std::size_t kMetrics = 16;
constexpr DurationNs kTick = 100 * kNsPerMs;

Schema MakeSchema() {
  Schema schema("gpcdr");
  for (std::size_t m = 0; m < kMetrics; ++m) {
    schema.AddMetric("m" + std::to_string(m), MetricType::kU64);
  }
  return schema;
}

std::vector<MetricSetPtr> MakeSets(MemManager& mem, const Schema& schema) {
  std::vector<MetricSetPtr> sets;
  sets.reserve(kNodes);
  for (std::size_t n = 0; n < kNodes; ++n) {
    const std::string node = "nid" + std::to_string(n);
    Status st;
    MetricSetPtr set = MetricSet::Create(mem, schema, node + "/gpcdr", node,
                                         n, &st);
    if (set == nullptr) {
      std::fprintf(stderr, "set create failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    sets.push_back(std::move(set));
  }
  return sets;
}

/// One collection cycle: stamp every node's set at @p tick and store it.
template <typename StoreFn>
void IngestRows(std::vector<MetricSetPtr>& sets, std::size_t ticks,
                StoreFn&& store_one) {
  for (std::size_t t = 0; t < ticks; ++t) {
    const TimeNs ts = static_cast<TimeNs>(t) * kTick;
    for (std::size_t n = 0; n < sets.size(); ++n) {
      MetricSet& set = *sets[n];
      set.BeginTransaction();
      for (std::size_t m = 0; m < kMetrics; ++m) {
        set.SetU64(m, t * kNodes + n + m);
      }
      set.EndTransaction(ts);
      store_one(set);
    }
  }
}

struct LatencyStats {
  double p50_us = 0.0;
  double p99_us = 0.0;
};

template <typename Fn>
LatencyStats MeasureLatency(int reps, Fn&& fn) {
  std::vector<std::uint64_t> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    samples.push_back(
        static_cast<std::uint64_t>(TimeSeconds(fn) * 1e9));
  }
  return {PercentileUs(samples, 0.50), PercentileUs(samples, 0.99)};
}

}  // namespace
}  // namespace ldmsxx::bench

int main() {
  using namespace ldmsxx;
  using namespace ldmsxx::bench;
  namespace fs = std::filesystem;

  Banner("T-query", "columnar ingest + indexed vs full-scan query latency");
  PaperRow("\"analysis of both current and historical data\" (SVI) needs "
           "queries served from storage, not from the daemons");

  const bool smoke = SmokeMode();
  // Query dataset: 1M rows (64 nodes x 15625 ticks) in the full run.
  const std::size_t query_ticks = smoke ? 320 : 15625;
  const std::size_t ingest_ticks = smoke ? 80 : 1600;
  const int indexed_reps = smoke ? 5 : 64;
  const int scan_reps = smoke ? 3 : 8;

  std::string dir = "/tmp/ldmsxx_bench_query_XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  Schema schema = MakeSchema();
  MemManager mem(static_cast<std::size_t>(kNodes) << 14);
  std::vector<MetricSetPtr> sets = MakeSets(mem, schema);

  // --- ingest leg: columnar vs CSV on identical samples ---------------------
  const std::size_t ingest_rows = ingest_ticks * kNodes;
  TsdbOptions ingest_opts;
  ingest_opts.root_path = dir + "/ingest_tsdb";
  ingest_opts.segment_rows = 8192;
  TsdbStore ingest_tsdb(ingest_opts);
  const double tsdb_s = TimeSeconds([&] {
    IngestRows(sets, ingest_ticks,
               [&](const MetricSet& s) { (void)ingest_tsdb.StoreSet(s); });
    (void)ingest_tsdb.Flush();
  });
  CsvStoreOptions csv_opts;
  csv_opts.root_path = dir + "/ingest_csv";
  CsvStore csv(csv_opts);
  const double csv_s = TimeSeconds([&] {
    IngestRows(sets, ingest_ticks,
               [&](const MetricSet& s) { (void)csv.StoreSet(s); });
    (void)csv.Flush();
  });
  const double tsdb_rows_per_sec = static_cast<double>(ingest_rows) / tsdb_s;
  const double csv_rows_per_sec = static_cast<double>(ingest_rows) / csv_s;
  MeasuredRow("ingest %zu rows: tsdb %.2f Mrows/s, csv %.2f Mrows/s "
              "(%.2fx csv)",
              ingest_rows, tsdb_rows_per_sec / 1e6, csv_rows_per_sec / 1e6,
              tsdb_rows_per_sec / csv_rows_per_sec);

  // --- query leg: build the big dataset, then race the two paths ------------
  TsdbOptions opts;
  opts.root_path = dir + "/tsdb";
  opts.segment_rows = 8192;
  opts.rollup_granularity = 60 * kNsPerSec;
  auto store = std::make_unique<TsdbStore>(opts);
  IngestRows(sets, query_ticks,
             [&](const MetricSet& s) { (void)store->StoreSet(s); });
  if (Status st = store->Flush(); !st.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const std::size_t rows_written = query_ticks * kNodes;
  const std::uint64_t segments = store->segments_sealed();
  std::uint64_t file_bytes = 0;
  for (const auto& entry : fs::directory_iterator(opts.root_path)) {
    file_bytes += fs::file_size(entry.path());
  }
  MeasuredRow("dataset: %zu rows, %llu sealed segments, %.1f MB on disk",
              rows_written, static_cast<unsigned long long>(segments),
              static_cast<double>(file_bytes) / 1e6);

  // --- compression leg: the same rows sealed all-raw (compress=0) -----------
  TsdbOptions raw_opts = opts;
  raw_opts.root_path = dir + "/tsdb_raw";
  raw_opts.compress = false;
  auto raw_store = std::make_unique<TsdbStore>(raw_opts);
  IngestRows(sets, query_ticks,
             [&](const MetricSet& s) { (void)raw_store->StoreSet(s); });
  if (Status st = raw_store->Flush(); !st.ok()) {
    std::fprintf(stderr, "raw flush failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::uint64_t raw_file_bytes = 0;
  for (const auto& entry : fs::directory_iterator(raw_opts.root_path)) {
    raw_file_bytes += fs::file_size(entry.path());
  }
  const double compression_x =
      static_cast<double>(raw_file_bytes) / static_cast<double>(file_bytes);
  MeasuredRow("compression: %.1f MB raw -> %.1f MB sealed (%.2fx reduction; "
              "acceptance >= 3x at 1M rows)",
              static_cast<double>(raw_file_bytes) / 1e6,
              static_cast<double>(file_bytes) / 1e6, compression_x);

  // ~1% time window x 4 of 64 nodes x 2 of 16 metrics: the dashboard query.
  TsdbQuery q;
  q.table = "gpcdr";
  q.t0 = static_cast<TimeNs>(query_ticks / 2) * kTick;
  q.t1 = q.t0 + static_cast<TimeNs>(query_ticks / 100 + 1) * kTick;
  q.nodes = {3, 17, 42, 63};
  q.metrics = {"m2", "m11"};

  TsdbQueryResult indexed, scanned;
  const LatencyStats indexed_lat = MeasureLatency(indexed_reps, [&] {
    indexed = TsdbQueryResult();
    (void)store->Query(q, &indexed);
  });
  const LatencyStats scan_lat = MeasureLatency(scan_reps, [&] {
    scanned = TsdbQueryResult();
    (void)store->QueryFullScan(q, &scanned);
  });
  if (indexed.rows.size() != scanned.rows.size() || indexed.rows.empty()) {
    std::fprintf(stderr, "query paths disagree: indexed %zu vs scan %zu\n",
                 indexed.rows.size(), scanned.rows.size());
    return 1;
  }
  const double speedup = scan_lat.p50_us / indexed_lat.p50_us;
  MeasuredRow("indexed: p50 %.0f us, p99 %.0f us (%llu of %llu segments "
              "pruned, %.2f MB read)",
              indexed_lat.p50_us, indexed_lat.p99_us,
              static_cast<unsigned long long>(indexed.segments_pruned),
              static_cast<unsigned long long>(indexed.segments_considered),
              static_cast<double>(indexed.bytes_read) / 1e6);
  MeasuredRow("full scan: p50 %.0f us, p99 %.0f us (%.2f MB read)",
              scan_lat.p50_us, scan_lat.p99_us,
              static_cast<double>(scanned.bytes_read) / 1e6);
  MeasuredRow("indexed speedup: %.1fx at p50 (acceptance: >= 20x at 1M rows)",
              speedup);

  // Decompression must not cost the dashboard query its latency: the same
  // indexed window against the all-raw ablation store.
  TsdbQueryResult raw_indexed;
  const LatencyStats raw_indexed_lat = MeasureLatency(indexed_reps, [&] {
    raw_indexed = TsdbQueryResult();
    (void)raw_store->Query(q, &raw_indexed);
  });
  if (raw_indexed.rows.size() != indexed.rows.size()) {
    std::fprintf(stderr, "raw ablation disagrees: %zu vs %zu rows\n",
                 raw_indexed.rows.size(), indexed.rows.size());
    return 1;
  }
  MeasuredRow("indexed on raw ablation: p50 %.0f us (compressed p50 %.0f us; "
              "acceptance: no worse)",
              raw_indexed_lat.p50_us, indexed_lat.p50_us);
  raw_store.reset();

  // Rollup path: the downsampled answer over the full range.
  TsdbQuery rq = q;
  rq.t0 = 0;
  rq.t1 = ~TimeNs{0};
  std::vector<TsdbRollupRow> rollups;
  const LatencyStats rollup_lat = MeasureLatency(indexed_reps, [&] {
    rollups.clear();
    (void)store->QueryRollup(rq, &rollups);
  });
  MeasuredRow("rollup (60s buckets, full range): %zu buckets, p50 %.0f us",
              rollups.size(), rollup_lat.p50_us);

  // --- fan-out leg: 3 leaves' local stores merged at a root -----------------
  RegisterBuiltinStores();
  SimClock fan_clock(0);
  constexpr std::size_t kLeaves = 3;
  constexpr std::size_t kNodesPerLeaf = 8;
  const std::size_t fanout_ticks = smoke ? 40 : 400;
  auto make_daemon = [&](const std::string& name, const std::string& listen) {
    LdmsdOptions dopts;
    dopts.name = name;
    if (!listen.empty()) {
      dopts.listen_transport = "local";
      dopts.listen_address = listen;
    }
    dopts.worker_threads = 0;
    dopts.connection_threads = 0;
    dopts.store_threads = 0;
    dopts.log_level = LogLevel::kOff;
    dopts.clock = &fan_clock;
    return std::make_unique<Ldmsd>(dopts);
  };
  std::vector<std::unique_ptr<Ldmsd>> fan_leaves;
  for (std::size_t l = 0; l < kLeaves; ++l) {
    const std::string name = "bql" + std::to_string(l);
    auto leaf = make_daemon(name, "bquery/" + name);
    if (!leaf->Start().ok()) return 1;
    ConfigProcessor cfg(*leaf);
    if (!cfg.Execute("strgp_add name=tsdb plugin=store_tsdb path=" + dir +
                     "/fan_" + name + " segment_rows=8192")
             .ok()) {
      return 1;
    }
    for (std::size_t t = 0; t < fanout_ticks; ++t) {
      const TimeNs ts = static_cast<TimeNs>(t) * kTick;
      for (std::size_t n = 0; n < kNodesPerLeaf; ++n) {
        MetricSet& set = *sets[l * kNodesPerLeaf + n];
        set.BeginTransaction();
        for (std::size_t m = 0; m < kMetrics; ++m) {
          set.SetU64(m, t * kNodes + n + m);
        }
        set.EndTransaction(ts);
        leaf->StoreLocalSet(sets[l * kNodesPerLeaf + n]);
      }
    }
    fan_leaves.push_back(std::move(leaf));
  }
  auto fan_root = make_daemon("bqroot", "");
  if (!fan_root->Start().ok()) return 1;
  ConfigProcessor root_cfg(*fan_root);
  for (std::size_t l = 0; l < kLeaves; ++l) {
    const std::string name = "bql" + std::to_string(l);
    if (!root_cfg
             .Execute("prdcr_add name=" + name + " xprt=local host=bquery/" +
                      name + " interval=100000")
             .ok()) {
      return 1;
    }
  }
  fan_root->RunUntil(fan_clock, fan_clock.Now() + kNsPerSec);

  QueryRequest fan_req;
  fan_req.strgp = "tsdb";
  fan_req.table = "gpcdr";
  fan_req.metrics = {"m2"};
  Ldmsd::FanoutResult fan;
  const LatencyStats fan_lat = MeasureLatency(indexed_reps, [&] {
    fan = Ldmsd::FanoutResult();
    (void)fan_root->FanoutQuery(fan_req, &fan);
  });
  const std::size_t fan_expected = kLeaves * kNodesPerLeaf * fanout_ticks;
  const std::size_t fan_rows = fan.merged.result.rows.size();
  if (fan.leaves_ok != kLeaves || fan_rows != fan_expected) {
    std::fprintf(stderr, "fan-out disagrees: leaves_ok=%zu rows=%zu "
                 "(expected %zu)\n",
                 fan.leaves_ok, fan_rows, fan_expected);
    return 1;
  }
  MeasuredRow("fan-out: %zu leaves, %zu rows merged in (ts, node) order, "
              "p50 %.0f us",
              fan.leaves_ok, fan_rows, fan_lat.p50_us);
  fan_root->Stop();
  for (auto& leaf : fan_leaves) leaf->Stop();

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", std::string("query"));
  json.Field("smoke", smoke);
  json.BeginObject("ingest");
  json.Field("rows", ingest_rows);
  json.Field("tsdb_rows_per_sec", tsdb_rows_per_sec);
  json.Field("csv_rows_per_sec", csv_rows_per_sec);
  json.Field("tsdb_vs_csv_x", tsdb_rows_per_sec / csv_rows_per_sec);
  json.EndObject();
  json.BeginObject("dataset");
  json.Field("rows_written", rows_written);
  json.Field("nodes", kNodes);
  json.Field("columns", kMetrics);
  json.Field("segments_sealed", segments);
  json.Field("file_bytes", file_bytes);
  json.Field("raw_file_bytes", raw_file_bytes);
  json.Field("compression_ratio_x", compression_x);
  json.EndObject();
  json.BeginObject("window_query");
  json.Field("rows_returned", indexed.rows.size());
  json.Field("segments_considered", indexed.segments_considered);
  json.Field("segments_pruned", indexed.segments_pruned);
  json.Field("indexed_read_bytes", indexed.bytes_read);
  json.Field("indexed_decoded_bytes", indexed.bytes_decoded);
  json.Field("scan_read_bytes", scanned.bytes_read);
  json.Field("indexed_p50_us", indexed_lat.p50_us);
  json.Field("indexed_p99_us", indexed_lat.p99_us);
  json.Field("raw_indexed_p50_us", raw_indexed_lat.p50_us);
  json.Field("scan_p50_us", scan_lat.p50_us);
  json.Field("scan_p99_us", scan_lat.p99_us);
  json.Field("speedup_x", speedup);
  json.EndObject();
  json.BeginObject("rollup_query");
  json.Field("buckets", rollups.size());
  json.Field("p50_us", rollup_lat.p50_us);
  json.EndObject();
  json.BeginObject("fanout");
  json.Field("leaves_ok", fan.leaves_ok);
  json.Field("rows_merged", fan_rows);
  json.Field("merged_read_bytes", fan.merged.result.bytes_read);
  json.Field("p50_us", fan_lat.p50_us);
  json.EndObject();
  json.EndObject();
  if (!json.WriteFile("BENCH_query.json")) {
    std::fprintf(stderr, "failed to write BENCH_query.json\n");
    return 1;
  }
  NoteRow("rows/bytes/segment metrics are data-determined and "
          "regression-gated (bench_compare.py); _us and rows-per-second "
          "figures are machine-dependent trend data");
  NoteRow("machine-readable results: BENCH_query.json");
  fs::remove_all(dir);
  return 0;
}

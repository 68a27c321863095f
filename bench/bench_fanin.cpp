// T-fanin (§IV-A): aggregator fan-in. The paper reports a maximum fan-in of
// roughly 9,000:1 for the sock transport (and IB RDMA) and > 15,000:1 for
// RDMA over Gemini (ugni). Fan-in is bounded by how many producers one
// aggregator can pull within a collection interval, so we measure the
// steady-state per-producer pull cost on each transport and derive the
// sustainable fan-in at the paper's 1 s and 20 s intervals.
//
// Servers are Blue-Waters-shaped sampler daemons (one 194-metric set each).
// sock is measured over real loopback TCP with a bounded connection count
// and the per-connection cost extrapolated (file-descriptor limits, noted
// in the output).
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/mem_manager.hpp"
#include "core/metric_set.hpp"
#include "daemon/ldmsd.hpp"
#include "sampler/samplers.hpp"
#include "sim/cluster.hpp"
#include "transport/sock_transport.hpp"

namespace ldmsxx::bench {
namespace {

struct FaninResult {
  double connect_s = 0.0;
  double per_pull_us = 0.0;
};

/// N sampler daemons on @p transport; one aggregator pulls all of them
/// once; returns the steady per-producer pull cost.
FaninResult MeasureFanin(const std::string& transport, int producers,
                         sim::SimCluster& cluster) {
  std::vector<std::unique_ptr<Ldmsd>> samplers;
  std::vector<std::unique_ptr<SimClock>> clocks;
  std::vector<std::string> addresses;
  samplers.reserve(static_cast<std::size_t>(producers));
  const bool is_sock = transport == "sock";
  for (int n = 0; n < producers; ++n) {
    clocks.push_back(std::make_unique<SimClock>(0));
    LdmsdOptions opts;
    opts.name = "fan" + transport + std::to_string(n);
    opts.listen_transport = transport;
    opts.listen_address =
        is_sock ? "127.0.0.1:0" : "fanin-" + transport + "/" + std::to_string(n);
    opts.worker_threads = 0;
    opts.connection_threads = 0;
    opts.store_threads = 0;
    opts.set_memory = 64 << 10;
    opts.clock = clocks.back().get();
    auto d = std::make_unique<Ldmsd>(opts);
    SamplerConfig sc;
    sc.interval = kNsPerSec;
    sc.params["metrics"] = "194";
    (void)d->AddSampler(std::make_shared<SyntheticSampler>(
                            cluster.MakeDataSource(0)),
                        sc);
    if (!d->Start().ok()) break;
    d->RunUntil(*clocks.back(), kNsPerSec + 1);
    addresses.push_back(d->listen_address());
    samplers.push_back(std::move(d));
  }

  LdmsdOptions agg_opts;
  agg_opts.name = "fanin-agg-" + transport;
  agg_opts.worker_threads = 0;
  agg_opts.connection_threads = 0;
  agg_opts.store_threads = 0;
  agg_opts.set_memory = static_cast<std::size_t>(producers) * 32 << 10;
  SimClock agg_clock(0);
  agg_opts.clock = &agg_clock;
  Ldmsd aggregator(agg_opts);
  for (int n = 0; n < static_cast<int>(samplers.size()); ++n) {
    ProducerConfig pc;
    pc.name = samplers[static_cast<std::size_t>(n)]->name();
    pc.transport = transport;
    pc.address = addresses[static_cast<std::size_t>(n)];
    pc.interval = kNsPerSec;
    (void)aggregator.AddProducer(pc);
  }
  (void)aggregator.Start();

  FaninResult result;
  result.connect_s = TimeSeconds(
      [&] { aggregator.RunUntil(agg_clock, agg_clock.Now() + kNsPerSec); });
  constexpr int kCycles = 3;
  double steady = 0.0;
  for (int c = 0; c < kCycles; ++c) {
    for (std::size_t i = 0; i < samplers.size(); ++i) {
      samplers[i]->RunUntil(*clocks[i], clocks[i]->Now() + kNsPerSec);
    }
    steady += TimeSeconds(
        [&] { aggregator.RunUntil(agg_clock, agg_clock.Now() + kNsPerSec); });
  }
  result.per_pull_us =
      steady / kCycles / static_cast<double>(samplers.size()) * 1e6;
  return result;
}

// ---------------------------------------------------------------------------
// A producer hosting many sets behind one connection, for the batch and delta
// sections below.
// ---------------------------------------------------------------------------

class MultiSetHandler final : public ServiceHandler {
 public:
  MultiSetHandler(int sets, int metrics) : mem_(16 << 20) {
    Schema schema("synthetic");
    for (int m = 0; m < metrics; ++m) {
      schema.AddMetric("m" + std::to_string(m), MetricType::kU64);
    }
    for (int s = 0; s < sets; ++s) {
      Status st;
      auto set = MetricSet::Create(mem_, schema,
                                   "pipe/set" + std::to_string(s), "pipe",
                                   static_cast<std::uint64_t>(s), &st);
      sets_.push_back(std::move(set));
    }
    Bump();
  }

  void Bump() { BumpFirst(sets_.size()); }

  /// Advance only the first @p count sets, leaving the rest DGN-quiescent
  /// (the wire-byte ablation's "50% of sets unchanged" knob).
  void BumpFirst(std::size_t count) {
    ++tick_;
    for (std::size_t s = 0; s < std::min(count, sets_.size()); ++s) {
      auto& set = sets_[s];
      set->BeginTransaction();
      for (std::size_t m = 0; m < set->schema().metric_count(); ++m) {
        set->SetU64(m, tick_);
      }
      set->EndTransaction(tick_ * kNsPerSec);
    }
  }

  /// Advance every set but dirty only @p dirty metrics, strided across the
  /// value area so the dirty extents do not coalesce (worst case for the
  /// delta extent table). Every transaction still bumps the DGN by exactly
  /// one, which is what keeps the per-cycle pull on the delta path.
  void BumpSparse(std::size_t dirty) {
    ++tick_;
    for (auto& set : sets_) {
      const std::size_t metrics = set->schema().metric_count();
      const std::size_t n = std::min(std::max<std::size_t>(1, dirty), metrics);
      const std::size_t stride = metrics / n;
      set->BeginTransaction();
      for (std::size_t k = 0; k < n; ++k) set->SetU64(k * stride, tick_);
      set->EndTransaction(tick_ * kNsPerSec);
    }
  }

  std::vector<std::string> instances() const {
    std::vector<std::string> names;
    for (const auto& set : sets_) names.push_back(set->instance_name());
    return names;
  }

  std::vector<std::string> HandleDir() override { return instances(); }

  Status HandleLookup(const std::string& instance,
                      std::vector<std::byte>* metadata) override {
    MetricSetPtr set = Find(instance);
    if (set == nullptr) return {ErrorCode::kNotFound, instance};
    auto bytes = set->metadata_bytes();
    metadata->assign(bytes.begin(), bytes.end());
    return Status::Ok();
  }

  void HandleAdvertise(const AdvertiseMsg&) override {}

  std::uint32_t HandleAssignHandle(const std::string& instance) override {
    for (std::size_t s = 0; s < sets_.size(); ++s) {
      if (sets_[s]->instance_name() == instance) {
        return static_cast<std::uint32_t>(s + 1);
      }
    }
    return kInvalidSetHandle;
  }

  MetricSetPtr HandleResolveHandle(std::uint32_t handle) override {
    if (handle == 0 || handle > sets_.size()) return nullptr;
    return sets_[handle - 1];
  }

 private:
  MetricSetPtr Find(const std::string& instance) const {
    for (const auto& set : sets_) {
      if (set->instance_name() == instance) return set;
    }
    return nullptr;
  }

  MemManager mem_;
  std::vector<MetricSetPtr> sets_;
  std::uint64_t tick_ = 0;
};

// ---------------------------------------------------------------------------
// Batched, handle-addressed, DGN-gated updates: one request frame per
// producer per cycle, and quiescent sets come back as 5-byte markers instead
// of full chunks. Measured on one real loopback TCP connection.
// ---------------------------------------------------------------------------

struct PathStats {
  double frames_per_cycle = 0.0;   // request frames the client sent
  double bytes_per_cycle = 0.0;    // tx + rx on the client endpoint
  double updates_per_sec = 0.0;    // set-updates completed per second
  double p99_cycle_us = 0.0;
  double unchanged_per_cycle = 0.0;
};

void EmitPath(JsonWriter& json, const char* key, const PathStats& s) {
  json.BeginObject(key);
  json.Field("request_frames_per_cycle", s.frames_per_cycle);
  json.Field("bytes_on_wire_per_cycle", s.bytes_per_cycle);
  json.Field("updates_per_sec", s.updates_per_sec);
  json.Field("p99_cycle_us", s.p99_cycle_us);
  json.Field("unchanged_per_cycle", s.unchanged_per_cycle);
  json.EndObject();
}

void MeasureBatchProtocol(int sets, int cycles, JsonWriter& json) {
  MultiSetHandler handler(sets, /*metrics=*/194);
  SockTransport sock;
  std::unique_ptr<Listener> listener;
  if (!sock.Listen("127.0.0.1:0", &handler, &listener).ok()) return;
  std::unique_ptr<Endpoint> ep;
  if (!sock.Connect(listener->address(), &ep).ok()) return;

  const std::vector<std::string> instances = handler.instances();
  // Each mirror needs the metadata chunk (metric names) plus data; 32 KiB a
  // set is comfortable for 194 metrics.
  MemManager mem((static_cast<std::size_t>(sets) * 32 << 10) + (1 << 20));
  std::vector<MetricSetPtr> mirror_sets;
  std::vector<MetricSet*> mirrors;
  std::vector<Endpoint::BatchUpdateSpec> specs(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    std::vector<std::byte> metadata;
    Endpoint::LookupExtra extra;
    if (!ep->LookupEx(instances[i], &metadata, &extra).ok()) return;
    Status st;
    auto mirror = MetricSet::CreateMirror(mem, metadata, &st);
    if (!st.ok()) {
      NoteRow("batch case %d sets skipped: %s", sets, st.ToString().c_str());
      return;
    }
    mirrors.push_back(mirror.get());
    mirror_sets.push_back(std::move(mirror));
    specs[i].handle = extra.handle;
  }

  const TransportStats& stats = ep->stats();
  auto wire_bytes = [&stats] {
    return stats.bytes_tx.load() + stats.bytes_rx.load();
  };

  // Drive the batch path for `cycles` cycles, bumping the first `active` sets
  // each cycle; returns per-cycle frames/bytes/latency from the endpoint
  // stats.
  auto run = [&](std::size_t active) {
    for (auto& spec : specs) spec.last_dgn = 0;  // every set stale at start
    std::vector<Endpoint::BatchUpdateResult> results;
    std::vector<std::uint64_t> cycle_ns;
    cycle_ns.reserve(static_cast<std::size_t>(cycles));
    const std::uint64_t updates0 = stats.updates.load();
    const std::uint64_t batches0 = stats.update_batches.load();
    const std::uint64_t unchanged0 = stats.updates_unchanged.load();
    const std::uint64_t bytes0 = wire_bytes();
    const double total_s = TimeSeconds([&] {
      for (int c = 0; c < cycles; ++c) {
        handler.BumpFirst(active);
        const auto t0 = std::chrono::steady_clock::now();
        ep->UpdateBatch(specs, &results);
        for (std::size_t i = 0; i < results.size(); ++i) {
          auto& r = results[i];
          if (!r.status.ok() || r.unchanged) continue;
          if (mirrors[i]->ApplyData(r.data).ok()) {
            specs[i].last_dgn = mirrors[i]->data_gn();
          }
        }
        cycle_ns.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
      }
    });
    PathStats out;
    const double n_cycles = static_cast<double>(cycles);
    // Frames come from the endpoint counters, so they are measured, not
    // assumed.
    const std::uint64_t updates = stats.updates.load() - updates0;
    const std::uint64_t batches = stats.update_batches.load() - batches0;
    out.frames_per_cycle = static_cast<double>(batches) / n_cycles;
    out.bytes_per_cycle =
        static_cast<double>(wire_bytes() - bytes0) / n_cycles;
    out.updates_per_sec = static_cast<double>(updates) / total_s;
    out.p99_cycle_us = PercentileUs(std::move(cycle_ns), 0.99);
    out.unchanged_per_cycle =
        static_cast<double>(stats.updates_unchanged.load() - unchanged0) /
        n_cycles;
    return out;
  };

  const std::size_t all = instances.size();
  const PathStats batch = run(all);
  // Ablation: half the sets stop sampling; their entries ride back as 5-byte
  // unchanged markers instead of full chunks.
  const PathStats quiescent = run(all / 2);

  const double quiescent_bytes_reduction =
      quiescent.bytes_per_cycle > 0
          ? batch.bytes_per_cycle / quiescent.bytes_per_cycle
          : 0.0;

  MeasuredRow(
      "%4d sets: frames/cycle %4.1f, bytes/cycle %8.0f, p99 %7.1f us", sets,
      batch.frames_per_cycle, batch.bytes_per_cycle, batch.p99_cycle_us);
  MeasuredRow(
      "%4d sets, 50%% quiescent: bytes/cycle %8.0f (%4.2fx less), "
      "unchanged/cycle %6.1f",
      sets, quiescent.bytes_per_cycle, quiescent_bytes_reduction,
      quiescent.unchanged_per_cycle);

  json.BeginObject();
  json.Field("sets_per_producer", sets);
  json.Field("cycles", cycles);
  EmitPath(json, "batched", batch);
  EmitPath(json, "batched_half_quiescent", quiescent);
  json.Field("quiescent_bytes_reduction", quiescent_bytes_reduction);
  json.EndObject();
}

// ---------------------------------------------------------------------------
// Delta-encoded updates: a set whose DGN advanced by exactly one transaction
// ships only its changed extents. The sparse-change workload dirties a fixed
// fraction of each set's 194 metrics per cycle (strided, so extents never
// coalesce — worst case for the extent table) and compares the delta path
// against the full-chunk path on the same connection.
// ---------------------------------------------------------------------------

void MeasureDeltaProtocol(int sets, int dirty_pct, int cycles,
                          JsonWriter& json) {
  MultiSetHandler handler(sets, /*metrics=*/194);
  SockTransport sock;
  std::unique_ptr<Listener> listener;
  if (!sock.Listen("127.0.0.1:0", &handler, &listener).ok()) return;
  std::unique_ptr<Endpoint> ep;
  if (!sock.Connect(listener->address(), &ep).ok()) return;

  const std::vector<std::string> instances = handler.instances();
  MemManager mem((static_cast<std::size_t>(sets) * 32 << 10) + (1 << 20));
  std::vector<MetricSetPtr> mirror_sets;
  std::vector<MetricSet*> mirrors;
  std::vector<Endpoint::BatchUpdateSpec> specs(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    std::vector<std::byte> metadata;
    Endpoint::LookupExtra extra;
    if (!ep->LookupEx(instances[i], &metadata, &extra).ok()) return;
    Status st;
    auto mirror = MetricSet::CreateMirror(mem, metadata, &st);
    if (!st.ok()) {
      NoteRow("delta case %d sets skipped: %s", sets, st.ToString().c_str());
      return;
    }
    mirrors.push_back(mirror.get());
    mirror_sets.push_back(std::move(mirror));
    specs[i].handle = extra.handle;
  }

  const std::size_t metrics = mirrors[0]->schema().metric_count();
  const std::size_t dirty = std::max<std::size_t>(
      1, metrics * static_cast<std::size_t>(dirty_pct) / 100);

  const TransportStats& stats = ep->stats();
  auto wire_bytes = [&stats] {
    return stats.bytes_tx.load() + stats.bytes_rx.load();
  };

  struct DeltaPathStats {
    double bytes_per_cycle = 0.0;
    double p99_cycle_us = 0.0;
    double deltas_per_cycle = 0.0;
  };

  // One path, `cycles` cycles: sparse-bump every set, pull the batch, apply
  // deltas or chunks as the server chose. A warm-up cycle first — the cold
  // mirror has no delta base, so cycle 0 always ships full chunks and would
  // otherwise pollute the sparse steady state.
  auto run = [&](bool delta) {
    ep->set_delta_updates(delta);
    for (auto& spec : specs) spec.last_dgn = 0;
    std::vector<Endpoint::BatchUpdateResult> results;
    auto pull = [&] {
      handler.BumpSparse(dirty);
      ep->UpdateBatch(specs, &results);
      for (std::size_t i = 0; i < results.size(); ++i) {
        auto& r = results[i];
        if (!r.status.ok() || r.unchanged) continue;
        const Status applied = r.delta ? mirrors[i]->ApplyDelta(r.data)
                                       : mirrors[i]->ApplyData(r.data);
        if (applied.ok()) specs[i].last_dgn = mirrors[i]->data_gn();
      }
    };
    pull();  // warm-up: cold mirrors take full chunks regardless of mode

    std::vector<std::uint64_t> cycle_ns;
    cycle_ns.reserve(static_cast<std::size_t>(cycles));
    const std::uint64_t bytes0 = wire_bytes();
    const std::uint64_t deltas0 = stats.updates_delta.load();
    for (int c = 0; c < cycles; ++c) {
      const auto t0 = std::chrono::steady_clock::now();
      pull();
      cycle_ns.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
    DeltaPathStats out;
    const double n_cycles = static_cast<double>(cycles);
    out.bytes_per_cycle =
        static_cast<double>(wire_bytes() - bytes0) / n_cycles;
    out.deltas_per_cycle =
        static_cast<double>(stats.updates_delta.load() - deltas0) / n_cycles;
    out.p99_cycle_us = PercentileUs(std::move(cycle_ns), 0.99);
    return out;
  };

  const DeltaPathStats full = run(/*delta=*/false);
  const DeltaPathStats delta = run(/*delta=*/true);
  const double bytes_ratio =
      full.bytes_per_cycle > 0 ? delta.bytes_per_cycle / full.bytes_per_cycle
                               : 0.0;

  MeasuredRow(
      "%4d sets, %2d%% dirty: bytes/cycle %8.0f -> %8.0f (%4.1f%%), "
      "deltas/cycle %6.1f, p99 %7.1f -> %7.1f us",
      sets, dirty_pct, full.bytes_per_cycle, delta.bytes_per_cycle,
      bytes_ratio * 100.0, delta.deltas_per_cycle, full.p99_cycle_us,
      delta.p99_cycle_us);

  json.BeginObject();
  json.Field("sets_per_producer", sets);
  json.Field("dirty_pct", dirty_pct);
  json.Field("dirty_metrics", static_cast<std::uint64_t>(dirty));
  json.Field("cycles", cycles);
  json.BeginObject("full_chunk");
  json.Field("bytes_on_wire_per_cycle", full.bytes_per_cycle);
  json.Field("p99_cycle_us", full.p99_cycle_us);
  json.EndObject();
  json.BeginObject("delta");
  json.Field("bytes_on_wire_per_cycle", delta.bytes_per_cycle);
  json.Field("p99_cycle_us", delta.p99_cycle_us);
  json.Field("deltas_per_cycle", delta.deltas_per_cycle);
  json.EndObject();
  json.Field("delta_bytes_ratio", bytes_ratio);
  json.EndObject();
}

}  // namespace
}  // namespace ldmsxx::bench

int main() {
  using namespace ldmsxx;
  using namespace ldmsxx::bench;

  const bool smoke = SmokeMode();
  JsonWriter json;
  json.BeginObject();
  json.Field("bench", std::string("fanin"));
  json.Field("smoke", smoke);

  Banner("T-fanin", "aggregator fan-in by transport (194-metric sets)");
  PaperRow("max fan-in ~9,000:1 (sock, IB RDMA); >15,000:1 (Gemini ugni)");

  sim::SimCluster cluster(sim::ClusterConfig::Chama(1));
  cluster.Tick(kNsPerSec);

  struct Case {
    const char* transport;
    int producers;
  };
  const Case cases[] = {
      {"sock", smoke ? 8 : 512},  // bounded by fds; cost extrapolates linearly
      {"local", smoke ? 32 : 4096},
      {"rdma", smoke ? 32 : 4096},
      {"ugni", smoke ? 32 : 4096},
  };
  json.BeginArray("transports");
  for (const Case& c : cases) {
    FaninResult r = MeasureFanin(c.transport, c.producers, cluster);
    const double fanin_1s = 1e6 / r.per_pull_us;
    const double fanin_20s = 20e6 / r.per_pull_us;
    MeasuredRow(
        "%-5s %4d producers: %6.2f us/pull  -> fan-in %8.0f:1 @1s  "
        "%9.0f:1 @20s (connect burst %.0f ms)",
        c.transport, c.producers, r.per_pull_us, fanin_1s, fanin_20s,
        r.connect_s * 1e3);
    json.BeginObject();
    json.Field("transport", std::string(c.transport));
    json.Field("producers", c.producers);
    json.Field("per_pull_us", r.per_pull_us);
    json.Field("fanin_at_1s", fanin_1s);
    json.EndObject();
  }
  json.EndArray();
  NoteRow("sock runs real loopback TCP connections (fd-limited) and");
  NoteRow("extrapolates; one-sided rdma/ugni pulls cost less per producer,");
  NoteRow("reproducing the ugni > sock fan-in ordering of the paper.");

  Banner("T-fanin/batch", "batched handle-addressed DGN-gated updates");
  PaperRow("n/a — one request frame per producer per cycle");
  json.BeginArray("batch_cases");
  const int batch_sets[] = {1, 64, 512};
  for (const int sets : batch_sets) {
    const int cycles = smoke ? (sets >= 512 ? 3 : 10)
                             : (sets >= 512 ? 50 : 200);
    MeasureBatchProtocol(sets, cycles, json);
  }
  json.EndArray();
  NoteRow("one kUpdateBatchReq carries (handle, last_dgn) pairs; the");
  NoteRow("response interleaves full chunks with 5-byte unchanged markers.");

  Banner("T-fanin/delta",
         "delta-encoded updates vs full chunks (sparse-change workload)");
  PaperRow("n/a — changed-extent deltas for DGN+1 sets, full-chunk fallback");
  json.BeginArray("delta_cases");
  const int delta_sets[] = {64, 512};
  const int dirty_pcts[] = {1, 10, 50};
  for (const int sets : delta_sets) {
    for (const int pct : dirty_pcts) {
      const int cycles = smoke ? (sets >= 512 ? 3 : 10)
                               : (sets >= 512 ? 50 : 200);
      MeasureDeltaProtocol(sets, pct, cycles, json);
    }
  }
  json.EndArray();
  NoteRow("dirty metrics are strided so extents never coalesce (worst-case");
  NoteRow("extent table); at 50%% dirty the stride-2 extents merge under the");
  NoteRow("16-byte slack into one near-full extent, so the delta saves");
  NoteRow("almost nothing (ratio ~1.0) — one more dirty byte and the size");
  NoteRow("gate would fall back to full chunks.");

  json.EndObject();
  if (!json.WriteFile("BENCH_fanin.json")) {
    std::fprintf(stderr, "failed to write BENCH_fanin.json\n");
    return 1;
  }
  NoteRow("machine-readable results: BENCH_fanin.json");
  return 0;
}

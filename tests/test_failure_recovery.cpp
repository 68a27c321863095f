// Failure injection and recovery: sampler daemon restarts (same and changed
// schema, with the aggregator's set-memory accounting across the mirror
// replacement), one-sided transport re-pinning after reconnect, and HSN link
// failure surfacing through the gpcdr link-status metric.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "daemon/ldmsd.hpp"
#include "harness/mini_cluster.hpp"
#include "sampler/samplers.hpp"
#include "sim/cluster.hpp"
#include "store/memory_store.hpp"

namespace ldmsxx {
namespace {

using sim::ClusterConfig;
using sim::SimCluster;

std::unique_ptr<Ldmsd> MakeSamplerDaemon(SimCluster& cluster,
                                         const std::string& transport,
                                         const std::string& address,
                                         bool extra_metric) {
  LdmsdOptions opts;
  opts.name = "nid00000";
  opts.listen_transport = transport;
  opts.listen_address = address;
  opts.worker_threads = 1;
  auto daemon = std::make_unique<Ldmsd>(opts);
  SamplerConfig sc;
  sc.interval = 30 * kNsPerMs;
  if (extra_metric) {
    // A different schema shape: the synthetic plugin with a distinct
    // cardinality under the *same instance name* as meminfo would be
    // contrived; instead meminfo plus params is fixed, so emulate a schema
    // change by serving a synthetic set under the meminfo instance name.
    sc.params["instance"] = "nid00000/meminfo";
    sc.params["metrics"] = "12";
    EXPECT_TRUE(daemon
                    ->AddSampler(std::make_shared<SyntheticSampler>(
                                     cluster.MakeDataSource(0)),
                                 sc)
                    .ok());
  } else {
    EXPECT_TRUE(daemon
                    ->AddSampler(std::make_shared<MeminfoSampler>(
                                     cluster.MakeDataSource(0)),
                                 sc)
                    .ok());
  }
  EXPECT_TRUE(daemon->Start().ok());
  return daemon;
}

class RestartTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RestartTest, AggregatorResumesAfterSamplerRestart) {
  const std::string transport = GetParam();
  const std::string address = std::string("restart/") + transport;
  SimCluster cluster(ClusterConfig::Chama(1));
  cluster.Tick(kNsPerSec);

  auto sampler = MakeSamplerDaemon(cluster, transport, address, false);

  LdmsdOptions aopts;
  aopts.name = "agg";
  aopts.worker_threads = 1;
  Ldmsd aggregator(aopts);
  auto store = std::make_shared<MemoryStore>();
  ASSERT_TRUE(aggregator.AddStorePolicy({store, "", ""}).ok());
  ProducerConfig pc;
  pc.name = "nid00000";
  pc.transport = transport;
  pc.address = address;
  pc.interval = 30 * kNsPerMs;
  ASSERT_TRUE(aggregator.AddProducer(pc).ok());
  ASSERT_TRUE(aggregator.Start().ok());

  auto pump = [&](int ms) {
    const auto end =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    while (std::chrono::steady_clock::now() < end) {
      cluster.Tick(30 * kNsPerMs);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  };

  pump(500);
  const std::size_t rows_before = store->RowCount("meminfo");
  EXPECT_GT(rows_before, 2u);

  // Kill the sampler; collection must fail without wedging the aggregator.
  sampler->Stop();
  sampler.reset();
  pump(300);
  EXPECT_FALSE(aggregator.producer_status("nid00000").connected);

  // Restart with an identical schema: the content-addressed MGN matches,
  // the kept mirror revalidates, and (for rdma/ugni) the new endpoint
  // re-pins the set memory on reconnect.
  sampler = MakeSamplerDaemon(cluster, transport, address, false);
  pump(800);
  EXPECT_TRUE(aggregator.producer_status("nid00000").connected);
  EXPECT_GT(store->RowCount("meminfo"), rows_before + 2)
      << "collection did not resume after restart on " << transport;

  aggregator.Stop();
  sampler->Stop();
}

INSTANTIATE_TEST_SUITE_P(Transports, RestartTest,
                         ::testing::Values("local", "rdma", "ugni"));

TEST(SchemaChangeTest, MirrorIsReplacedAfterPeerSchemaChange) {
  SimCluster cluster(ClusterConfig::Chama(1));
  cluster.Tick(kNsPerSec);
  const std::string address = "schemachange/sampler";

  auto sampler = MakeSamplerDaemon(cluster, "local", address, false);

  LdmsdOptions aopts;
  aopts.name = "agg";
  aopts.worker_threads = 1;
  Ldmsd aggregator(aopts);
  auto store = std::make_shared<MemoryStore>();
  ASSERT_TRUE(aggregator.AddStorePolicy({store, "", ""}).ok());
  ProducerConfig pc;
  pc.name = "nid00000";
  pc.transport = "local";
  pc.address = address;
  pc.interval = 30 * kNsPerMs;
  pc.set_instances = {"nid00000/meminfo"};
  ASSERT_TRUE(aggregator.AddProducer(pc).ok());
  ASSERT_TRUE(aggregator.Start().ok());

  auto pump = [&](int ms) {
    const auto end =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    while (std::chrono::steady_clock::now() < end) {
      cluster.Tick(30 * kNsPerMs);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  };
  pump(400);
  EXPECT_GT(store->RowCount("meminfo"), 0u);

  // Restart the producer serving a *different* schema under the same
  // instance name. The aggregator must detect the MGN mismatch, drop the
  // old mirror, and pick up the new one — no torn rows.
  sampler->Stop();
  sampler.reset();
  sampler = MakeSamplerDaemon(cluster, "local", address, true);
  pump(1000);
  EXPECT_GT(store->RowCount("synthetic"), 0u)
      << "new-schema set never reached the store";
  auto mirror = aggregator.sets().Find("nid00000/meminfo");
  ASSERT_NE(mirror, nullptr);
  EXPECT_EQ(mirror->schema().name(), "synthetic");
  EXPECT_EQ(mirror->schema().metric_count(), 12u);
  // The meminfo shape left the aggregator's schema table with its mirror.
  EXPECT_EQ(aggregator.memory().schemas().size(), 1u);

  aggregator.Stop();
  sampler->Stop();
}

// Each schema change makes the aggregator drop the stale mirrors and look
// them up again (Ldmsd::CollectCycle's stale_mirrors path). Every set the
// daemon holds owns exactly a metadata and a data chunk of its pool, so the
// pool's live allocations must match after every re-lookup: a dropped
// mirror whose chunks were not freed, or freed twice, breaks the count.
TEST(SchemaChangeTest, PoolFreesReplacedMirrors) {
  harness::MiniClusterOptions opts;
  opts.samplers = 2;
  opts.sets_per_sampler = 2;
  harness::MiniCluster cluster(opts);
  const DurationNs tick = opts.collect_interval;
  Ldmsd& aggregator = cluster.aggregator(0);
  cluster.Advance(1 * kNsPerSec);
  ASSERT_EQ(aggregator.sets().List().size(), 4u);
  EXPECT_EQ(aggregator.memory().allocation_count(), 8u);

  std::size_t relookups = 0;
  for (std::size_t width : {12u, 4u, 16u, 8u}) {
    cluster.KillSampler(0);
    cluster.Advance(2 * tick);
    cluster.RestartSampler(0, width);
    for (int step = 0; step < 20; ++step) {
      const std::uint64_t lookups = aggregator.counters().lookups.load();
      cluster.Advance(tick);
      if (aggregator.counters().lookups.load() == lookups) continue;
      ++relookups;
      EXPECT_EQ(aggregator.memory().allocation_count(),
                2 * aggregator.sets().List().size())
          << "width " << width << " step " << step;
    }
    for (const char* instance : {"node0/chaos", "node0/chaos1"}) {
      MetricSetPtr mirror = aggregator.sets().Find(instance);
      ASSERT_NE(mirror, nullptr) << instance;
      EXPECT_EQ(mirror->schema().metric_count(), width) << instance;
    }
    // node0's two sets share one schema; node1's keep the original width.
    // The replaced shape's entry is gone.
    EXPECT_EQ(&aggregator.sets().Find("node0/chaos")->schema(),
              &aggregator.sets().Find("node0/chaos1")->schema());
    EXPECT_EQ(aggregator.memory().schemas().size(),
              width == opts.metrics_per_set ? 1u : 2u)
        << "width " << width;
  }
  EXPECT_GE(relookups, 8u);
  EXPECT_EQ(aggregator.sets().List().size(), 4u);
  EXPECT_EQ(aggregator.memory().allocation_count(), 8u);
}

TEST(LinkFailureTest, GpcdrReportsDownLink) {
  SimCluster cluster(ClusterConfig::BlueWaters({4, 4, 4}));
  cluster.Tick(kNsPerMin);

  MemManager mem(1 << 20);
  SetRegistry sets;
  GpcdrSampler sampler(cluster.MakeDataSource(0));
  PluginParams params{{"producer", "nid00000"}};
  ASSERT_TRUE(sampler.Init(mem, sets, params).ok());
  ASSERT_TRUE(sampler.Sample(cluster.now()).ok());
  auto set = sampler.Sets().front();
  const auto status_idx = set->schema().FindMetric("linkstatus_X+");
  ASSERT_TRUE(status_idx.has_value());
  EXPECT_EQ(set->GetU64(*status_idx), 1u);

  // Fail the link; the sampler must report it down, and senders stall.
  // Drive the torus directly: SimCluster::Tick would rebuild the flow set
  // from (nonexistent) jobs.
  cluster.torus()->SetLinkUp(0, sim::LinkDir::kXPlus, false);
  cluster.torus()->ClearFlows();
  cluster.torus()->AddFlow({0, 1, 1e9});
  cluster.torus()->Tick(kNsPerMin);
  ASSERT_TRUE(sampler.Sample(cluster.now() + kNsPerMin).ok());
  EXPECT_EQ(set->GetU64(*status_idx), 0u);
  const auto stall_idx = set->schema().FindMetric("percent_stalled_X+");
  ASSERT_TRUE(stall_idx.has_value());
  EXPECT_GT(set->GetD64(*stall_idx), 90.0);
}

}  // namespace
}  // namespace ldmsxx

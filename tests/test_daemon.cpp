// Daemon behaviour tests: configuration command language, on-the-fly
// sampling interval change, store-policy filtering, DGN no-new-data skip,
// the separate connection pool surviving dead producers, a fresh mirror's
// first pull of a sparse sample, and a pull that meets a set
// mid-transaction.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

#include "daemon/config.hpp"
#include "daemon/ldmsd.hpp"
#include "daemon/plugin_registry.hpp"
#include "daemon/registry.hpp"
#include "harness/scratch_dir.hpp"
#include "sampler/samplers.hpp"
#include "sim/cluster.hpp"
#include "store/memory_store.hpp"

namespace ldmsxx {
namespace {

using sim::ClusterConfig;
using sim::SimCluster;

TEST(ConfigProcessorTest, ScriptDrivesSamplerDaemon) {
  SimCluster cluster(ClusterConfig::Chama(1));
  cluster.Tick(kNsPerSec);
  RegisterBuiltinSamplers(cluster.MakeDataSource(0));
  RegisterBuiltinStores();

  LdmsdOptions opts;
  opts.name = "cfg-test";
  opts.worker_threads = 1;
  Ldmsd daemon(opts);
  ConfigProcessor config(daemon);

  const char* script = R"(
# sampler setup, ldmsd command style
load name=meminfo
config name=meminfo producer=nid00000 component_id=1
start name=meminfo interval=50000
load name=procstat
config name=procstat producer=nid00000
start name=procstat interval=50000 offset=1000 sync=1
)";
  Status st = config.ExecuteScript(script);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(daemon.sets().size(), 2u);
  EXPECT_NE(daemon.sets().Find("nid00000/meminfo"), nullptr);

  // Unknown commands / plugins fail with line info.
  EXPECT_FALSE(config.Execute("frobnicate name=x").ok());
  EXPECT_EQ(config.Execute("load name=imaginary").code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(config.Execute("start name=unloaded interval=1").code(),
            ErrorCode::kNotFound);
  Status bad = config.ExecuteScript("load name=meminfo\nbogus\n");
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("line 2"), std::string::npos);
}

TEST(ConfigProcessorTest, ProducerAndStoreCommands) {
  RegisterBuiltinStores();
  LdmsdOptions opts;
  opts.name = "agg-cfg";
  opts.worker_threads = 1;
  Ldmsd daemon(opts);
  ConfigProcessor config(daemon);
  ASSERT_TRUE(config
                  .Execute("prdcr_add name=nid1 xprt=local host=cfg/nid1 "
                           "interval=100000 sets=nid1/meminfo standby=1 "
                           "standby_for=agg0")
                  .ok());
  auto status = daemon.producer_status("nid1");
  EXPECT_TRUE(status.known);
  EXPECT_FALSE(status.active);  // standby until activated
  EXPECT_EQ(config.Execute("prdcr_add name=nid1 xprt=local host=x").code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(
      config.Execute("prdcr_add name=nid2 xprt=teleport host=y").code(),
      ErrorCode::kNotFound);

  ASSERT_TRUE(config.Execute("strgp_add name=s plugin=store_mem").ok());
  EXPECT_EQ(config.Execute("strgp_add name=s plugin=store_unknown").code(),
            ErrorCode::kNotFound);
}

TEST(ConfigProcessorTest, MalformedMicrosecondArgumentsFailTheVerb) {
  SimCluster cluster(ClusterConfig::Chama(1));
  cluster.Tick(kNsPerSec);
  RegisterBuiltinSamplers(cluster.MakeDataSource(0));
  RegisterBuiltinStores();
  LdmsdOptions opts;
  opts.name = "us-cfg";
  opts.worker_threads = 1;
  Ldmsd daemon(opts);
  ConfigProcessor config(daemon);
  // Fails with kInvalidArgument and names the offending argument.
  auto refused = [&config](const std::string& line, const std::string& arg) {
    const Status st = config.Execute(line);
    EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument) << line;
    EXPECT_NE(st.message().find(arg + "="), std::string::npos)
        << line << " -> " << st.message();
  };
  // 2^64 / 1000 us is the first value whose ns no longer fits in a u64.
  const std::string overflow = "18446744073709552";

  const std::string prdcr = "prdcr_add name=x xprt=local host=h ";
  refused(prdcr + "interval=10s timeout=oops", "interval");
  refused(prdcr + "interval=1000000 timeout=oops", "timeout");
  refused(prdcr + "offset=-5", "offset");
  refused(prdcr + "reconnect_min=1.5", "reconnect_min");
  refused(prdcr + "reconnect_max=" + overflow, "reconnect_max");
  refused(prdcr + "rediscover=", "rediscover");
  EXPECT_FALSE(daemon.producer_status("x").known);
  ASSERT_TRUE(config.Execute(prdcr + "interval=18446744073709551 timeout=0")
                  .ok());  // the largest representable value still parses

  const std::string strgp = "strgp_add name=s plugin=store_mem ";
  refused(strgp + "breaker_min=soon", "breaker_min");
  refused(strgp + "breaker_max=" + overflow, "breaker_max");
  EXPECT_TRUE(daemon.store_policy_names().empty());

  ASSERT_TRUE(config.Execute("load name=meminfo").ok());
  refused("start name=meminfo interval=1e6", "interval");
  refused("start name=meminfo interval=100000 offset=x", "offset");
  ASSERT_TRUE(config.Execute("start name=meminfo interval=100000").ok());
  refused("interval name=meminfo interval=fast", "interval");

  const std::string dir =
      (std::filesystem::temp_directory_path() / "ldmsxx_us_cfg").string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(
      config.Execute("strgp_add name=q plugin=store_tsdb path=" + dir).ok());
  refused("query strgp=q table=t t0_us=x", "t0_us");
  refused("query strgp=q table=t t1_us=" + overflow, "t1_us");
  daemon.Stop();
  std::filesystem::remove_all(dir);
}

TEST(ConfigProcessorTest, FlagArgumentsAcceptOnlyZeroOrOne) {
  SimCluster cluster(ClusterConfig::Chama(1));
  cluster.Tick(kNsPerSec);
  RegisterBuiltinSamplers(cluster.MakeDataSource(0));
  LdmsdOptions opts;
  opts.name = "flag-cfg";
  opts.worker_threads = 1;
  Ldmsd daemon(opts);
  ConfigProcessor config(daemon);
  // Fails with kInvalidArgument and names the offending argument.
  auto refused = [&config](const std::string& line, const std::string& arg) {
    const Status st = config.Execute(line);
    EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument) << line;
    EXPECT_NE(st.message().find(arg + "="), std::string::npos)
        << line << " -> " << st.message();
  };
  const std::string prdcr = "prdcr_add name=x xprt=local host=h ";
  refused(prdcr + "delta=true", "delta");
  refused(prdcr + "sync=yes", "sync");
  refused(prdcr + "standby=", "standby");
  refused(prdcr + "delta=1 standby=2", "standby");
  EXPECT_FALSE(daemon.producer_status("x").known);

  ASSERT_TRUE(config.Execute(prdcr + "sync=1 delta=0 standby=1").ok());
  const auto added = daemon.producer_config("x");
  ASSERT_TRUE(added.has_value());
  EXPECT_TRUE(added->synchronous);
  EXPECT_FALSE(added->delta_updates);
  EXPECT_TRUE(added->standby);

  ASSERT_TRUE(config.Execute("load name=meminfo").ok());
  refused("start name=meminfo interval=100000 sync=on", "sync");
  ASSERT_TRUE(config.Execute("start name=meminfo interval=100000 sync=0").ok());
  daemon.Stop();
}

TEST(ConfigProcessorTest, StorePluginArgumentsAreChecked) {
  RegisterBuiltinStores();
  const harness::ScratchDir scratch("storeargs");
  LdmsdOptions opts;
  opts.name = "store-cfg";
  opts.worker_threads = 0;
  opts.connection_threads = 0;
  opts.store_threads = 0;
  Ldmsd daemon(opts);
  ConfigProcessor config(daemon);
  // Fails with kInvalidArgument and names the offending argument.
  auto refused = [&config](const std::string& line, const std::string& arg) {
    const Status st = config.Execute(line);
    EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument) << line;
    EXPECT_NE(st.message().find(arg + "="), std::string::npos)
        << line << " -> " << st.message();
  };
  const std::string tsdb =
      "strgp_add name=t plugin=store_tsdb path=" + scratch.path() + "/t ";
  refused(tsdb + "compress=no", "compress");
  refused(tsdb + "compress=", "compress");
  refused(tsdb + "segment_rows=0", "segment_rows");
  refused(tsdb + "segment_rows=4k", "segment_rows");
  refused(tsdb + "rollup_sec=60s", "rollup_sec");
  refused(tsdb + "rollup_sec=18446744073709551", "rollup_sec");  // ns overflow
  refused("strgp_add name=c plugin=store_csv path=" + scratch.path() +
              "/c altheader=yes",
          "altheader");
  refused("strgp_add name=m plugin=store_mem max_samples=-1", "max_samples");
  const std::string fault = "strgp_add name=f plugin=store_fault ";
  refused(fault + "seed=x", "seed");
  refused(fault + "fail_permille=1001", "fail_permille");
  refused(fault + "partial_permille=0.5", "partial_permille");
  refused(fault + "stall_permille=-3", "stall_permille");
  refused(fault + "flush_fail_permille=2000", "flush_fail_permille");
  refused(fault + "stall_us=18446744073709552", "stall_us");
  refused(fault + "inner=store_mem max_samples=many", "max_samples");
  EXPECT_TRUE(daemon.store_policy_names().empty());

  // Good values are taken; unknown keys, scan_threads= among them, are
  // ignored.
  ASSERT_TRUE(config.Execute(tsdb + "compress=0 segment_rows=8 rollup_sec=1 "
                                    "scan_threads=4")
                  .ok());
  ASSERT_TRUE(config
                  .Execute(fault + "seed=7 fail_permille=1000 "
                                   "stall_permille=0 stall_us=5")
                  .ok());
  ASSERT_TRUE(config
                  .Execute("strgp_add name=c plugin=store_csv path=" +
                           scratch.path() + "/c altheader=1")
                  .ok());
  EXPECT_EQ(daemon.store_policy_names().size(), 3u);
  daemon.Stop();

  // Restore makes stores through the same factories: a saved record with a
  // bad plugin argument (the verb saves none; a hand-edited file can hold
  // one) is skipped like any record whose store cannot be made.
  opts.registry_path = scratch.path() + "/agg.registry";
  {
    ClusterRegistry registry(opts.registry_path);
    registry.UpsertStore({{"name", "bad"},
                          {"plugin", "store_tsdb"},
                          {"path", scratch.path() + "/bad"},
                          {"compress", "no"}});
    registry.UpsertStore({{"name", "good"},
                          {"plugin", "store_tsdb"},
                          {"path", scratch.path() + "/good"},
                          {"compress", "0"}});
    ASSERT_TRUE(registry.Save().ok());
  }
  Ldmsd restored(opts);
  ASSERT_TRUE(restored.RestoreFromRegistry(PluginRegistry::Instance()).ok());
  EXPECT_EQ(restored.store_policy_names(),
            (std::vector<std::string>{"good"}));
  restored.Stop();
}

TEST(LdmsdTest, OnTheFlySamplingIntervalChange) {
  SimCluster cluster(ClusterConfig::Chama(1));
  cluster.Tick(kNsPerSec);

  LdmsdOptions opts;
  opts.name = "otf";
  opts.worker_threads = 1;
  Ldmsd daemon(opts);
  SamplerConfig sc;
  sc.interval = kNsPerHour;  // effectively never
  ASSERT_TRUE(daemon
                  .AddSampler(std::make_shared<MeminfoSampler>(
                                  cluster.MakeDataSource(0)),
                              sc)
                  .ok());
  ASSERT_TRUE(daemon.Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(daemon.counters().samples.load(), 0u);

  // "The sampling frequency ... can be changed on the fly" (§IV).
  ASSERT_TRUE(daemon.SetSamplingInterval("meminfo", 10 * kNsPerMs).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_GT(daemon.counters().samples.load(), 5u);
  EXPECT_EQ(daemon.SetSamplingInterval("nope", kNsPerSec).code(),
            ErrorCode::kNotFound);
  daemon.Stop();
}

TEST(LdmsdTest, RemoveSamplerDeregistersSets) {
  SimCluster cluster(ClusterConfig::Chama(1));
  cluster.Tick(kNsPerSec);
  LdmsdOptions opts;
  opts.name = "rm";
  opts.worker_threads = 1;
  Ldmsd daemon(opts);
  SamplerConfig sc;
  sc.interval = kNsPerSec;
  ASSERT_TRUE(daemon
                  .AddSampler(std::make_shared<MeminfoSampler>(
                                  cluster.MakeDataSource(0)),
                              sc)
                  .ok());
  EXPECT_EQ(daemon.sets().size(), 1u);
  ASSERT_TRUE(daemon.RemoveSampler("meminfo").ok());
  EXPECT_EQ(daemon.sets().size(), 0u);
  EXPECT_EQ(daemon.RemoveSampler("meminfo").code(), ErrorCode::kNotFound);
}

TEST(LdmsdTest, StorePolicyFiltersBySchemaAndProducer) {
  SimCluster cluster(ClusterConfig::Chama(2));
  cluster.Tick(kNsPerSec);

  LdmsdOptions sopts;
  sopts.name = "nid00000";
  sopts.listen_transport = "local";
  sopts.listen_address = "filter/sampler";
  sopts.worker_threads = 1;
  Ldmsd sampler(sopts);
  SamplerConfig sc;
  sc.interval = 30 * kNsPerMs;
  auto source = cluster.MakeDataSource(0);
  ASSERT_TRUE(
      sampler.AddSampler(std::make_shared<MeminfoSampler>(source), sc).ok());
  ASSERT_TRUE(
      sampler.AddSampler(std::make_shared<ProcStatSampler>(source), sc).ok());
  ASSERT_TRUE(sampler.Start().ok());

  LdmsdOptions aopts;
  aopts.name = "agg";
  aopts.worker_threads = 1;
  Ldmsd aggregator(aopts);
  auto mem_only = std::make_shared<MemoryStore>();
  auto wrong_producer = std::make_shared<MemoryStore>();
  auto everything = std::make_shared<MemoryStore>();
  ASSERT_TRUE(aggregator.AddStorePolicy({mem_only, "meminfo", ""}).ok());
  ASSERT_TRUE(
      aggregator.AddStorePolicy({wrong_producer, "", "someone_else"}).ok());
  ASSERT_TRUE(aggregator.AddStorePolicy({everything, "", ""}).ok());
  EXPECT_EQ(aggregator.AddStorePolicy({nullptr, "", ""}).code(),
            ErrorCode::kInvalidArgument);
  ProducerConfig pc;
  pc.name = "nid00000";
  pc.transport = "local";
  pc.address = "filter/sampler";
  pc.interval = 30 * kNsPerMs;
  ASSERT_TRUE(aggregator.AddProducer(pc).ok());
  ASSERT_TRUE(aggregator.Start().ok());

  const auto end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(800);
  while (std::chrono::steady_clock::now() < end) {
    cluster.Tick(30 * kNsPerMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  EXPECT_GT(mem_only->RowCount("meminfo"), 0u);
  EXPECT_EQ(mem_only->RowCount("procstat"), 0u);
  EXPECT_EQ(wrong_producer->RowCount("meminfo"), 0u);
  EXPECT_GT(everything->RowCount("meminfo"), 0u);
  EXPECT_GT(everything->RowCount("procstat"), 0u);

  aggregator.Stop();
  sampler.Stop();
}

TEST(LdmsdTest, NoNewDataIsSkippedNotStored) {
  // Sampler samples every 500ms but the aggregator pulls every 30ms: most
  // pulls see an unchanged DGN and must not produce store rows (§IV-B).
  SimCluster cluster(ClusterConfig::Chama(1));
  cluster.Tick(kNsPerSec);

  LdmsdOptions sopts;
  sopts.name = "slowsampler";
  sopts.listen_transport = "local";
  sopts.listen_address = "skip/sampler";
  sopts.worker_threads = 1;
  Ldmsd sampler(sopts);
  SamplerConfig sc;
  sc.interval = 500 * kNsPerMs;
  ASSERT_TRUE(sampler
                  .AddSampler(std::make_shared<MeminfoSampler>(
                                  cluster.MakeDataSource(0)),
                              sc)
                  .ok());
  ASSERT_TRUE(sampler.Start().ok());

  LdmsdOptions aopts;
  aopts.name = "fastagg";
  aopts.worker_threads = 1;
  Ldmsd aggregator(aopts);
  auto store = std::make_shared<MemoryStore>();
  ASSERT_TRUE(aggregator.AddStorePolicy({store, "", ""}).ok());
  ProducerConfig pc;
  pc.name = "slowsampler";
  pc.transport = "local";
  pc.address = "skip/sampler";
  pc.interval = 30 * kNsPerMs;
  ASSERT_TRUE(aggregator.AddProducer(pc).ok());
  ASSERT_TRUE(aggregator.Start().ok());

  std::this_thread::sleep_for(std::chrono::milliseconds(1600));
  aggregator.Stop();
  sampler.Stop();

  const auto& counters = aggregator.counters();
  EXPECT_GT(counters.updates_no_new_data.load(), 10u)
      << "fast pulls of a slow sampler must mostly be no-ops";
  // Rows stored ≈ number of actual samples (~3), certainly < pull count.
  EXPECT_LE(store->RowCount("meminfo"), 8u);
  EXPECT_GE(store->RowCount("meminfo"), 1u);
}

TEST(LdmsdTest, DeadProducerDoesNotStallOtherCollection) {
  // One producer address points at nothing; the other is healthy. The
  // separate connection pool must keep the healthy one flowing (§IV-B's
  // rationale for the dedicated connection thread pool).
  SimCluster cluster(ClusterConfig::Chama(1));
  cluster.Tick(kNsPerSec);

  LdmsdOptions sopts;
  sopts.name = "alive";
  sopts.listen_transport = "local";
  sopts.listen_address = "mixed/alive";
  sopts.worker_threads = 1;
  Ldmsd sampler(sopts);
  SamplerConfig sc;
  sc.interval = 30 * kNsPerMs;
  ASSERT_TRUE(sampler
                  .AddSampler(std::make_shared<MeminfoSampler>(
                                  cluster.MakeDataSource(0)),
                              sc)
                  .ok());
  ASSERT_TRUE(sampler.Start().ok());

  LdmsdOptions aopts;
  aopts.name = "agg";
  aopts.worker_threads = 1;
  aopts.connection_threads = 1;
  Ldmsd aggregator(aopts);
  auto store = std::make_shared<MemoryStore>();
  ASSERT_TRUE(aggregator.AddStorePolicy({store, "", ""}).ok());
  for (int i = 0; i < 4; ++i) {
    ProducerConfig dead;
    dead.name = "dead" + std::to_string(i);
    dead.transport = "local";
    dead.address = "mixed/no-such-daemon-" + std::to_string(i);
    dead.interval = 30 * kNsPerMs;
    ASSERT_TRUE(aggregator.AddProducer(dead).ok());
  }
  ProducerConfig alive;
  alive.name = "alive";
  alive.transport = "local";
  alive.address = "mixed/alive";
  alive.interval = 30 * kNsPerMs;
  ASSERT_TRUE(aggregator.AddProducer(alive).ok());
  ASSERT_TRUE(aggregator.Start().ok());

  const auto end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(800);
  while (std::chrono::steady_clock::now() < end) {
    cluster.Tick(30 * kNsPerMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  EXPECT_GT(store->RowCount("meminfo"), 3u);
  EXPECT_FALSE(aggregator.producer_status("dead0").connected);
  EXPECT_TRUE(aggregator.producer_status("alive").connected);
  EXPECT_GT(aggregator.counters().connects_failed.load(), 0u);

  aggregator.Stop();
  sampler.Stop();
}

TEST(LdmsdTest, SockProducerSendsEverySetInOneBatch) {
  // An aggregator pulling several sets from one TCP producer asks for all of
  // them in one batch frame per cycle, and applies each entry of the answer
  // to the right mirror. A pull that meets the 20 ms sampler mid-transaction
  // is a skipped pull, not a failed one.
  SimCluster cluster(ClusterConfig::Chama(1));
  cluster.Tick(kNsPerSec);

  LdmsdOptions sopts;
  sopts.name = "sock-sampler";
  sopts.listen_transport = "sock";
  sopts.listen_address = "127.0.0.1:0";
  sopts.worker_threads = 1;
  Ldmsd sampler(sopts);
  SamplerConfig sc;
  sc.interval = 20 * kNsPerMs;
  auto source = cluster.MakeDataSource(0);
  ASSERT_TRUE(
      sampler.AddSampler(std::make_shared<MeminfoSampler>(source), sc).ok());
  ASSERT_TRUE(
      sampler.AddSampler(std::make_shared<ProcStatSampler>(source), sc).ok());
  ASSERT_TRUE(sampler.Start().ok());

  LdmsdOptions aopts;
  aopts.name = "sock-agg";
  aopts.worker_threads = 2;
  aopts.connection_threads = 1;
  Ldmsd aggregator(aopts);
  ProducerConfig pc;
  pc.name = "s";
  pc.transport = "sock";
  pc.address = sampler.listen_address();
  pc.interval = 20 * kNsPerMs;
  pc.request_timeout = 2 * kNsPerSec;
  ASSERT_TRUE(aggregator.AddProducer(pc).ok());
  ASSERT_TRUE(aggregator.Start().ok());

  const auto end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1500);
  while (std::chrono::steady_clock::now() < end &&
         (aggregator.sets().size() < 2 ||
          aggregator.counters().updates_ok.load() < 6)) {
    cluster.Tick(20 * kNsPerMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  EXPECT_EQ(aggregator.sets().size(), 2u);
  EXPECT_NE(aggregator.sets().Find("sock-sampler/meminfo"), nullptr);
  EXPECT_NE(aggregator.sets().Find("sock-sampler/procstat"), nullptr);
  EXPECT_GE(aggregator.counters().updates_ok.load(), 6u);
  EXPECT_EQ(aggregator.counters().updates_failed.load(), 0u);
  // The scheduler surfaces skipped firings (none expected at this pace, but
  // the counter must exist and be consistent).
  EXPECT_GE(aggregator.skipped_firings(), 0u);

  aggregator.Stop();
  sampler.Stop();
}

// Minimal plugin whose first @p overruns samples each "take" 2.5 intervals
// (it advances the shared SimClock); later samples are instantaneous.
class OverrunSampler final : public SamplerPlugin {
 public:
  OverrunSampler(SimClock* clock, int overruns)
      : clock_(clock), overruns_(overruns) {}

  const std::string& name() const override { return name_; }

  Status Init(MemManager& mem, SetRegistry& sets,
              const PluginParams& params) override {
    (void)params;
    Schema schema("overrun");
    schema.AddMetric("v", MetricType::kU64);
    Status st;
    set_ = MetricSet::Create(mem, schema, "slow/overrun", "slow", 1, &st);
    if (set_ == nullptr) return st;
    return sets.Add(set_);
  }

  Status Sample(TimeNs now) override {
    fired.push_back(now);
    set_->BeginTransaction();
    set_->SetU64(0, fired.size());
    set_->EndTransaction(now);
    if (overruns_ > 0) {
      --overruns_;
      clock_->SetTime(clock_->Now() + 25 * kNsPerSec);
    }
    return Status::Ok();
  }

  std::vector<MetricSetPtr> Sets() const override { return {set_}; }

  std::vector<TimeNs> fired;

 private:
  std::string name_ = "overrun";
  SimClock* clock_;
  int overruns_;
  MetricSetPtr set_;
};

TEST(LdmsdTest, SlowSamplerSurfacesSkippedFiringsAndResynchronizes) {
  // Regression for the daemon-level surfacing of the scheduler's
  // skipped-firing counters: a sampler that outruns its interval must show
  // the bypassed firings in skipped_firings(), and sampling must fall back
  // into step on the original grid once the plugin speeds up.
  SimClock clock(0);
  LdmsdOptions opts;
  opts.name = "slow";
  opts.worker_threads = 0;
  opts.connection_threads = 0;
  opts.store_threads = 0;
  opts.clock = &clock;
  opts.log_level = LogLevel::kOff;
  Ldmsd daemon(opts);
  auto plugin = std::make_shared<OverrunSampler>(&clock, 2);
  SamplerConfig sc;
  sc.interval = 10 * kNsPerSec;
  ASSERT_TRUE(daemon.AddSampler(plugin, sc).ok());
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_EQ(daemon.skipped_firings(), 0u);

  daemon.RunUntil(clock, 100 * kNsPerSec);

  // Fires at 10 (runs until 35; 20 and 30 bypassed) and 40 (runs until 65;
  // 50 and 60 bypassed), then resynchronizes: 70, 80, 90, 100.
  const std::vector<TimeNs> expected = {10 * kNsPerSec, 40 * kNsPerSec,
                                        70 * kNsPerSec, 80 * kNsPerSec,
                                        90 * kNsPerSec, 100 * kNsPerSec};
  EXPECT_EQ(plugin->fired, expected);
  EXPECT_EQ(daemon.skipped_firings(), 4u);
  EXPECT_EQ(daemon.counters().samples.load(), 6u);
  daemon.Stop();
}

// A Blue-Waters-shaped 194-metric set whose every sample, the first one
// included, writes just two metrics.
class SparseSampler final : public SamplerPlugin {
 public:
  const std::string& name() const override { return name_; }

  Status Init(MemManager& mem, SetRegistry& sets,
              const PluginParams& params) override {
    (void)params;
    Schema schema("sparse");
    for (int i = 0; i < 194; ++i) {
      schema.AddMetric("m" + std::to_string(i), MetricType::kU64);
    }
    Status st;
    set_ = MetricSet::Create(mem, schema, "node/sparse", "node", 1, &st);
    if (set_ == nullptr) return st;
    return sets.Add(set_);
  }

  Status Sample(TimeNs now) override {
    ++samples_;
    set_->BeginTransaction();
    set_->SetU64(samples_ % 194, samples_);
    set_->SetU64((samples_ * 7 + 100) % 194, 1000 + samples_);
    set_->EndTransaction(now);
    return Status::Ok();
  }

  std::vector<MetricSetPtr> Sets() const override { return {set_}; }

  const MetricSetPtr& set() const { return set_; }

 private:
  std::string name_ = "sparse";
  MetricSetPtr set_;
  std::uint64_t samples_ = 0;
};

class SparseFirstSampleTest : public ::testing::TestWithParam<const char*> {};

// Regression: a new mirror sits at DGN 0, marked inconsistent. After the
// producer's first transaction the only delta on offer has base 0, which
// the mirror must reject, so that first pull has to carry the full chunk
// or the sample is lost as a failed update.
TEST_P(SparseFirstSampleTest, FirstPullAfterSparseSampleSucceeds) {
  const std::string transport = GetParam();
  SimClock clock(0);
  LdmsdOptions sopts;
  sopts.name = "node";
  sopts.listen_transport = transport;
  sopts.listen_address =
      transport == "sock" ? "127.0.0.1:0" : "sparse-first/" + transport;
  sopts.worker_threads = 0;
  sopts.connection_threads = 0;
  sopts.store_threads = 0;
  sopts.clock = &clock;
  sopts.log_level = LogLevel::kOff;
  Ldmsd sampler(sopts);
  auto plugin = std::make_shared<SparseSampler>();
  SamplerConfig sc;
  sc.interval = kNsPerSec;
  ASSERT_TRUE(sampler.AddSampler(plugin, sc).ok());
  ASSERT_TRUE(sampler.Start().ok());

  LdmsdOptions aopts = sopts;
  aopts.name = "agg";
  aopts.listen_transport.clear();
  Ldmsd aggregator(aopts);
  ProducerConfig pc;
  pc.name = "node";
  pc.transport = transport;
  pc.address = sampler.listen_address();
  pc.interval = kNsPerSec;
  pc.offset = kNsPerSec / 2;
  ASSERT_TRUE(aggregator.AddProducer(pc).ok());
  ASSERT_TRUE(aggregator.Start().ok());

  const MetricSetPtr& source = plugin->set();
  for (std::uint64_t sample = 1; sample <= 3; ++sample) {
    // Sample first, then let the aggregator pull; its first pull (sample 1)
    // is also its connect and lookup.
    const TimeNs t = static_cast<TimeNs>(sample) * kNsPerSec;
    sampler.RunUntil(clock, t);
    ASSERT_EQ(source->data_gn(), sample);
    aggregator.RunUntil(clock, t + kNsPerSec / 2);

    EXPECT_EQ(aggregator.counters().updates_failed.load(), 0u)
        << "sample " << sample;
    EXPECT_EQ(aggregator.counters().updates_ok.load(), sample);
    MetricSetPtr mirror = aggregator.sets().Find("node/sparse");
    ASSERT_NE(mirror, nullptr);
    EXPECT_TRUE(mirror->consistent());
    std::vector<std::byte> want(source->data_size());
    std::vector<std::byte> got(mirror->data_size());
    ASSERT_TRUE(source->SnapshotData(want).ok());
    ASSERT_TRUE(mirror->SnapshotData(got).ok());
    ASSERT_EQ(want.size(), got.size());
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(), want.size()))
        << "sample " << sample;
  }
  // Pulls after the first one still travel as deltas.
  EXPECT_EQ(aggregator.counters().updates_delta.load(), 2u);
  aggregator.Stop();
  sampler.Stop();
}

INSTANTIATE_TEST_SUITE_P(Transports, SparseFirstSampleTest,
                         ::testing::Values("local", "sock"));

// A producer that cannot snapshot a set, because its sampler holds the set
// mid-transaction, answers that entry kInconsistent. The aggregator counts a
// skipped pull, not a failed one, and the first pull after the transaction
// ends stores the sample.
TEST(LdmsdTest, PullOfSetMidTransactionIsSkippedNotFailed) {
  SimClock clock(0);
  LdmsdOptions sopts;
  sopts.name = "node";
  sopts.listen_transport = "local";
  sopts.listen_address = "mid-transaction/node";
  sopts.worker_threads = 0;
  sopts.connection_threads = 0;
  sopts.store_threads = 0;
  sopts.clock = &clock;
  sopts.log_level = LogLevel::kOff;
  Ldmsd sampler(sopts);
  auto plugin = std::make_shared<SparseSampler>();
  SamplerConfig sc;
  sc.interval = kNsPerSec;
  ASSERT_TRUE(sampler.AddSampler(plugin, sc).ok());
  ASSERT_TRUE(sampler.Start().ok());

  LdmsdOptions aopts = sopts;
  aopts.name = "agg";
  aopts.listen_transport.clear();
  Ldmsd aggregator(aopts);
  auto store = std::make_shared<MemoryStore>();
  ASSERT_TRUE(aggregator.AddStorePolicy({store, "", ""}).ok());
  ProducerConfig pc;
  pc.name = "node";
  pc.transport = "local";
  pc.address = sampler.listen_address();
  pc.interval = kNsPerSec;
  pc.offset = kNsPerSec / 2;
  ASSERT_TRUE(aggregator.AddProducer(pc).ok());
  ASSERT_TRUE(aggregator.Start().ok());

  // Sample 1 at 1 s; the pull at 1.5 s connects, looks up and stores it.
  sampler.RunUntil(clock, kNsPerSec);
  aggregator.RunUntil(clock, kNsPerSec + kNsPerSec / 2);
  const Ldmsd::Counters& counters = aggregator.counters();
  ASSERT_EQ(counters.updates_ok.load(), 1u);
  const std::uint64_t skipped = counters.updates_no_new_data.load();

  // The sampler's next transaction is open across the pull at 2.5 s.
  const MetricSetPtr& source = plugin->set();
  source->BeginTransaction();
  source->SetU64(0, 4242);
  aggregator.RunUntil(clock, 2 * kNsPerSec + kNsPerSec / 2);
  EXPECT_EQ(counters.updates_no_new_data.load(), skipped + 1);
  EXPECT_EQ(counters.updates_failed.load(), 0u);
  EXPECT_EQ(counters.updates_ok.load(), 1u);
  EXPECT_EQ(aggregator.producer_status("node").consecutive_failures, 0u);

  source->EndTransaction(clock.Now());
  aggregator.RunUntil(clock, 3 * kNsPerSec + kNsPerSec / 2);
  EXPECT_EQ(counters.updates_ok.load(), 2u);
  EXPECT_EQ(counters.updates_failed.load(), 0u);
  EXPECT_EQ(store->RowCount("sparse"), 2u);
  MetricSetPtr mirror = aggregator.sets().Find("node/sparse");
  ASSERT_NE(mirror, nullptr);
  EXPECT_EQ(mirror->GetU64(0), 4242u);
  aggregator.Stop();
  sampler.Stop();
}

TEST(LdmsdTest, ListenOnUnknownTransportFails) {
  LdmsdOptions opts;
  opts.name = "bad";
  opts.listen_transport = "warp";
  opts.listen_address = "x";
  Ldmsd daemon(opts);
  EXPECT_EQ(daemon.Start().code(), ErrorCode::kNotFound);
  ProducerConfig pc;
  pc.name = "p";
  pc.transport = "warp";
  EXPECT_EQ(daemon.AddProducer(pc).code(), ErrorCode::kNotFound);
}

}  // namespace
}  // namespace ldmsxx

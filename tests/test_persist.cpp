// Crash-safe registry + restart-resume suite (ISSUE 8). Three layers:
//
//   1. format      — SerializeRegistry/ParseRegistry round-trips, tamper and
//                    truncation rejection, quarantine-and-rebuild recovery;
//   2. daemon      — record-on-mutate, restore-from-registry-alone (flat
//                    aggregator and tree root), announce-driven growth,
//                    registry_* control verbs;
//   3. hardening   — keyed control-socket auth (key file perms, MAC gating,
//                    rotation, failure counters) and the buffered line
//                    framing fix (byte dribble, pipelined verbs, partial
//                    line at EOF).
//
// Chaos scenarios ride the MiniCluster (shared SimClock, seeded faults), so
// every failure here replays deterministically. See EXPERIMENTS.md
// ("Unattended restart drill").
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "daemon/config.hpp"
#include "daemon/control.hpp"
#include "daemon/keys.hpp"
#include "daemon/registry.hpp"
#include "harness/mini_cluster.hpp"
#include "harness/scratch_dir.hpp"
#include "store/memory_store.hpp"
#include "util/atomic_file.hpp"

namespace ldmsxx {
namespace {

using harness::MiniCluster;
using harness::MiniClusterOptions;

constexpr DurationNs kTick = 100 * kNsPerMs;

/// Odd but legal names: spaces, '=' and ':' all survive the record encoding.
ProducerConfig SampleProducer() {
  ProducerConfig p;
  p.name = "node 1=a:b";
  p.transport = "fault";
  p.address = "node 1/listen";
  p.interval = 250 * kNsPerMs;
  p.offset = 7 * kNsPerUs;
  p.synchronous = true;
  p.request_timeout = 3 * kNsPerSec;
  p.reconnect_min_backoff = 20 * kNsPerMs;
  p.reconnect_max_backoff = 800 * kNsPerMs;
  p.set_instances = {"node 1=a:b/chaos", "node 1=a:b/chaos 1"};
  p.rediscover_interval = kNsPerSec;
  p.delta_updates = false;
  p.standby = true;
  p.standby_for = "agg=primary:0";
  return p;
}

StorePolicy SamplePolicy() {
  StorePolicy s;
  s.name = "primary store=a:b";
  s.plugin = "store_csv";
  s.plugin_params = {{"path", "/var/x y=z:w"}, {"altheader", "1"}};
  s.schema_filter = "chaos";
  s.producer_filter = "node 1=a:b";
  s.queue_capacity = 64;
  s.shed_policy = ShedPolicy::kDropNewest;
  s.breaker_threshold = 3;
  s.breaker_min_backoff = kNsPerMs;
  s.breaker_max_backoff = kNsPerSec;
  return s;
}

TreeOptions SampleTree() {
  TreeOptions t;
  t.samplers = {{"node 1=a:b", 11}, {"node 2", 22}};
  t.leaves = {"leaf0", "leaf 1=x:y"};
  t.root_name = "root =:";
  t.spare_name = "spare";
  t.seed = 77;
  return t;
}

RegistrySnapshot SampleSnapshot() {
  RegistrySnapshot snap;
  const ProducerConfig p = SampleProducer();
  snap.producers[p.name] = PrdcrAddArgs(p);
  const StorePolicy s = SamplePolicy();
  snap.stores[s.name] = StrgpAddArgs(s);
  snap.tree = TreeArgs(SampleTree(), {1});
  return snap;
}

// --- format layer -----------------------------------------------------------

TEST(RegistryFormatTest, SerializeParseRoundTrip) {
  const RegistrySnapshot snap = SampleSnapshot();
  RegistrySnapshot out;
  ASSERT_TRUE(ParseRegistry(SerializeRegistry(snap), &out).ok());
  EXPECT_EQ(out.producers, snap.producers);
  EXPECT_EQ(out.stores, snap.stores);
  EXPECT_EQ(out.tree, snap.tree);

  // The records are the verbs' own arguments: prdcr_add keys, µs durations.
  const PluginParams& prdcr = out.producers.at("node 1=a:b");
  EXPECT_EQ(prdcr.at("xprt"), "fault");
  EXPECT_EQ(prdcr.at("interval"), "250000");
  EXPECT_EQ(prdcr.at("reconnect_min"), "20000");
  EXPECT_EQ(out.stores.at("primary store=a:b").at("breaker_min"), "1000");

  TreeOptions tree;
  std::vector<std::size_t> down;
  ASSERT_TRUE(ParseTreeArgs(*out.tree, &tree, &down).ok());
  const TreeOptions want = SampleTree();
  ASSERT_EQ(tree.samplers.size(), want.samplers.size());
  for (std::size_t i = 0; i < want.samplers.size(); ++i) {
    EXPECT_EQ(tree.samplers[i].name, want.samplers[i].name);
    EXPECT_EQ(tree.samplers[i].node_id, want.samplers[i].node_id);
  }
  EXPECT_EQ(tree.leaves, want.leaves);
  EXPECT_EQ(tree.root_name, want.root_name);
  EXPECT_EQ(tree.spare_name, want.spare_name);
  EXPECT_EQ(tree.seed, want.seed);
  EXPECT_EQ(down, (std::vector<std::size_t>{1}));

  // Serialization is deterministic (same snapshot -> same bytes), which is
  // what makes same-seed registry digests comparable across runs.
  EXPECT_EQ(SerializeRegistry(snap), SerializeRegistry(out));
}

TEST(RegistryFormatTest, RejectsTamperTruncationAndGarbage) {
  const std::string text = SerializeRegistry(SampleSnapshot());
  RegistrySnapshot out;

  // Flip one byte in the body: crc mismatch.
  std::string flipped = text;
  flipped[flipped.size() / 2] ^= 0x20;
  EXPECT_FALSE(ParseRegistry(flipped, &out).ok());

  // Drop the trailing record line (and fix nothing else): crc mismatch.
  std::string truncated = text.substr(0, text.rfind("prdcr_add "));
  EXPECT_FALSE(ParseRegistry(truncated, &out).ok());

  EXPECT_FALSE(ParseRegistry("", &out).ok());
  EXPECT_FALSE(ParseRegistry("#not-a-registry v9\n", &out).ok());
  EXPECT_EQ(ParseRegistry("junk with no header\nmore junk\n", &out).code(),
            ErrorCode::kInconsistent);
}

TEST(RegistryFormatTest, RecordsTheVerbRejectsFailTheParse) {
  // Each snapshot serializes with a valid crc and entry count; only the
  // record itself is wrong, and the verb's own parser is what refuses it.
  const auto refused = [](const RegistrySnapshot& snap) {
    RegistrySnapshot out;
    return ParseRegistry(SerializeRegistry(snap), &out).code();
  };
  RegistrySnapshot snap;
  snap.producers["x"] = {{"name", "x"}, {"interval", "10s"}};
  EXPECT_EQ(refused(snap), ErrorCode::kInvalidArgument);
  snap.producers["x"] = {{"xprt", "local"}};  // prdcr_add requires name=
  EXPECT_EQ(refused(snap), ErrorCode::kInvalidArgument);
  snap.producers.clear();
  snap.stores["s"] = {{"name", "s"}};  // strgp_add requires plugin=
  EXPECT_EQ(refused(snap), ErrorCode::kInvalidArgument);
  snap.stores["s"] = {{"name", "s"}, {"plugin", "store_mem"},
                      {"breaker_min", "oops"}};
  EXPECT_EQ(refused(snap), ErrorCode::kInvalidArgument);
  snap.stores["s"] = {{"name", "s"}, {"plugin", "store_mem"},
                      {"decomp", "t@a:b:frobnicate"}};
  EXPECT_EQ(refused(snap), ErrorCode::kInvalidArgument);
  snap.stores["s"] = {{"plugin", "store_mem"}};  // the registry key
  EXPECT_EQ(refused(snap), ErrorCode::kInvalidArgument);
  snap.stores.clear();
  snap.tree = PluginParams{{"samplers", "node-without-id"}};
  EXPECT_EQ(refused(snap), ErrorCode::kInvalidArgument);
  snap.tree = PluginParams{{"seed", "-1"}};
  EXPECT_EQ(refused(snap), ErrorCode::kInvalidArgument);
  snap.tree = TreeArgs(SampleTree(), {});
  EXPECT_EQ(refused(snap), ErrorCode::kOk);
}

TEST(RegistryFormatTest, SaveLoadAndQuarantineLadder) {
  const harness::ScratchDir scratch("reg");
  const std::string& dir = scratch.path();
  const std::string path = dir + "/cluster.registry";
  ProducerConfig p;

  {
    ClusterRegistry reg(path);
    ASSERT_TRUE(reg.Load().ok());  // missing file = clean first boot
    EXPECT_FALSE(reg.last_load_quarantined());
    p.name = "node0";
    reg.UpsertProducer(PrdcrAddArgs(p));
    ASSERT_TRUE(reg.Save().ok());
  }
  {
    ClusterRegistry reg(path);
    ASSERT_TRUE(reg.Load().ok());
    EXPECT_EQ(reg.stats().last_load_records, 1u);
    ASSERT_EQ(reg.snapshot().producers.size(), 1u);
    EXPECT_EQ(reg.snapshot().producers.count("node0"), 1u);
  }

  // Corrupt the file on disk: load quarantines it and starts empty instead
  // of refusing to boot (rebuild-from-traffic is the last recovery rung).
  std::string contents;
  ASSERT_TRUE(ReadFileToString(path, &contents).ok());
  contents[contents.size() - 2] ^= 0x01;
  ASSERT_TRUE(AtomicWriteFile(path, contents).ok());
  {
    ClusterRegistry reg(path);
    ASSERT_TRUE(reg.Load().ok());
    EXPECT_TRUE(reg.last_load_quarantined());
    EXPECT_EQ(reg.stats().quarantines, 1u);
    EXPECT_TRUE(reg.snapshot().producers.empty());
    std::string quarantined;
    EXPECT_TRUE(ReadFileToString(path + ".corrupt.1", &quarantined).ok());
    EXPECT_EQ(quarantined, contents);  // evidence preserved byte-for-byte
    // The registry still works: rebuild and save over the bad file.
    p.name = "node1";
    reg.UpsertProducer(PrdcrAddArgs(p));
    ASSERT_TRUE(reg.Save().ok());
  }
  {
    ClusterRegistry reg(path);
    ASSERT_TRUE(reg.Load().ok());
    EXPECT_FALSE(reg.last_load_quarantined());
    ASSERT_EQ(reg.snapshot().producers.size(), 1u);
    EXPECT_EQ(reg.snapshot().producers.count("node1"), 1u);
  }
}

TEST(RegistryFormatTest, ExportImport) {
  const harness::ScratchDir scratch("regio");
  const std::string& dir = scratch.path();
  ClusterRegistry reg(dir + "/a.registry");
  ProducerConfig p;
  p.name = "node0";
  reg.UpsertProducer(PrdcrAddArgs(p));
  ASSERT_TRUE(reg.ExportTo(dir + "/exported").ok());

  ClusterRegistry other(dir + "/b.registry");
  ASSERT_TRUE(other.ImportFrom(dir + "/exported").ok());
  ASSERT_EQ(other.snapshot().producers.size(), 1u);
  EXPECT_EQ(other.snapshot().producers.count("node0"), 1u);
  // Import persisted immediately: a fresh instance sees it.
  ClusterRegistry reload(dir + "/b.registry");
  ASSERT_TRUE(reload.Load().ok());
  EXPECT_EQ(reload.snapshot().producers.size(), 1u);

  // Unlike Load, an operator-supplied bad file fails loudly, and the
  // current contents are untouched.
  ASSERT_TRUE(AtomicWriteFile(dir + "/bad", "garbage\n").ok());
  EXPECT_FALSE(other.ImportFrom(dir + "/bad").ok());
  EXPECT_EQ(other.snapshot().producers.size(), 1u);
}

void WritePlainFile(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

// Decoder sweep: every strict prefix and every single-bit flip of a file
// holding every record kind is refused — Load quarantines it, ImportFrom
// fails with the registry untouched — and nothing crashes (the asan preset
// runs this suite).
TEST(RegistryFormatTest, EveryStrictPrefixAndBitFlipRefused) {
  const harness::ScratchDir scratch("regsweep");
  const std::string& dir = scratch.path();
  const std::string text = SerializeRegistry(SampleSnapshot());
  ASSERT_NE(text.find("\ntree "), std::string::npos);
  ASSERT_NE(text.find("\nstrgp_add "), std::string::npos);
  ASSERT_NE(text.find("\nprdcr_add "), std::string::npos);
  RegistrySnapshot whole;
  ASSERT_TRUE(ParseRegistry(text, &whole).ok());

  const std::string path = dir + "/sweep.registry";
  ClusterRegistry importer(dir + "/importer.registry");
  ProducerConfig keep;
  keep.name = "keep";
  importer.UpsertProducer(PrdcrAddArgs(keep));
  const RegistrySnapshot kept = importer.snapshot();

  std::size_t refused = 0;
  const auto expect_refused = [&](const std::string& bad,
                                  const std::string& what) {
    RegistrySnapshot out;
    EXPECT_FALSE(ParseRegistry(bad, &out).ok()) << what;
    WritePlainFile(path, bad);
    EXPECT_FALSE(importer.ImportFrom(path).ok()) << what;
    const RegistrySnapshot after = importer.snapshot();
    EXPECT_EQ(after.producers, kept.producers) << what;
    EXPECT_EQ(after.stores, kept.stores) << what;
    EXPECT_EQ(after.tree, kept.tree) << what;
    ClusterRegistry reg(path);
    ASSERT_TRUE(reg.Load().ok()) << what;
    EXPECT_TRUE(reg.last_load_quarantined()) << what;
    EXPECT_TRUE(reg.snapshot().producers.empty()) << what;
    EXPECT_FALSE(reg.snapshot().tree.has_value()) << what;
    // Quarantined aside byte-for-byte; remove it so the next case is .1 too.
    std::string moved;
    EXPECT_TRUE(ReadFileToString(path + ".corrupt.1", &moved).ok()) << what;
    EXPECT_EQ(moved, bad) << what;
    std::remove((path + ".corrupt.1").c_str());
    ++refused;
  };
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    expect_refused(text.substr(0, cut), "prefix " + std::to_string(cut));
    if (HasFatalFailure()) return;
  }
  for (std::size_t i = 0; i < text.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = text;
      bad[i] = static_cast<char>(bad[i] ^ (1 << bit));
      expect_refused(bad, "flip byte " + std::to_string(i) + " bit " +
                              std::to_string(bit));
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(refused, text.size() * 9);
}

// --- daemon layer: restart-resume and self-assembly -------------------------

/// FNV-1a digest over every stored row (producer, timestamp, values) of
/// every aggregator store — the cross-run determinism fingerprint.
std::uint64_t StoreDigest(MiniCluster& cluster) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  for (std::size_t j = 0; j < cluster.aggregator_count(); ++j) {
    auto store = cluster.store(j);
    if (store == nullptr) continue;
    for (const auto& row : store->Rows("chaos")) {
      mix(row.producer.data(), row.producer.size());
      mix(&row.timestamp, sizeof row.timestamp);
      for (const double v : row.values) mix(&v, sizeof v);
    }
  }
  return h;
}

/// The ISSUE 8 drill: kill the only aggregator mid-collect, bring it back
/// from its registry file ALONE (no producers or stores re-configured by
/// the harness), and require bounded gaps. Writes the final store digest.
void RunRestartDrill(const std::string& dir, std::uint64_t* digest) {
  MiniClusterOptions opts;
  opts.samplers = 2;
  opts.seed = 42;
  opts.registry_dir = dir;
  MiniCluster cluster(opts);

  cluster.Advance(1 * kNsPerSec);
  const std::size_t rows_before = cluster.StoredRows();
  EXPECT_GE(rows_before, 16u);

  cluster.KillAggregator(0);
  cluster.Advance(500 * kNsPerMs);
  Status st = cluster.RestartAggregatorFromRegistry(0);
  ASSERT_TRUE(st.ok()) << st.ToString();
  cluster.Advance(2 * kNsPerSec);

  EXPECT_GT(cluster.StoredRows(), rows_before);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto status =
        cluster.aggregator(0).producer_status(cluster.sampler_name(i));
    EXPECT_TRUE(status.known) << "producer " << i << " not restored";
    EXPECT_TRUE(status.connected) << "producer " << i;
    const auto gap = cluster.DataGap(i);
    // 500ms downtime + reconnect backoff overshoot + re-lookup cycles.
    EXPECT_LE(gap.max_gap, 1500 * kNsPerMs + 3 * kTick) << "producer " << i;
  }
  *digest = StoreDigest(cluster);
}

TEST(PersistChaosTest, AggregatorRestartFromRegistryAlone) {
  std::uint64_t first = 0;
  RunRestartDrill(harness::ScratchDir("drill_a").path(), &first);
  if (::testing::Test::HasFatalFailure()) return;
  // Same seed, fresh directory: the whole drill — samples, faults, crash,
  // registry restore — replays to the identical stored history.
  std::uint64_t second = 0;
  RunRestartDrill(harness::ScratchDir("drill_b").path(), &second);
  EXPECT_EQ(first, second) << "restart drill is not seed-deterministic";
}

TEST(PersistChaosTest, RestoredRegistryKeepsStoreProvenance) {
  const harness::ScratchDir scratch("provenance");
  const std::string& dir = scratch.path();
  MiniClusterOptions opts;
  opts.samplers = 1;
  opts.registry_dir = dir;
  MiniCluster cluster(opts);
  cluster.Advance(1 * kNsPerSec);

  cluster.KillAggregator(0);  // every mutation already saved eagerly
  ClusterRegistry reg(dir + "/agg0.registry");
  ASSERT_TRUE(reg.Load().ok());
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.producers.size(), 1u);
  EXPECT_EQ(snap.producers.count("node0"), 1u);
  ASSERT_EQ(snap.stores.count("primary"), 1u);
  EXPECT_EQ(snap.stores.at("primary").at("plugin"), "harness_store");
  EXPECT_EQ(snap.stores.at("primary").at("slot"), "agg0");
}

/// Row-capable store that remembers the plugin arguments it was made with.
class ArgsStore final : public Store {
 public:
  explicit ArgsStore(PluginParams params) : params_(std::move(params)) {}
  const std::string& name() const override { return name_; }
  Status StoreSet(const MetricSet&) override { return Status::Ok(); }
  bool row_capable() const override { return true; }
  Status StoreRows(const RowBatch&) override { return Status::Ok(); }
  const PluginParams& params() const { return params_; }

 private:
  std::string name_ = "store_args";
  PluginParams params_;
};

// Every ProducerConfig and StorePolicy field, set to a non-default value,
// survives save -> reload -> restore into a bare daemon, as does the tree.
TEST(PersistRestoreTest, RestoredDaemonMatchesEveryConfiguredField) {
  const harness::ScratchDir scratch("roundtrip");
  const std::string& dir = scratch.path();
  const std::string path = dir + "/agg.registry";
  const std::string plugin = "store args=a:b";
  PluginRegistry plugins;
  plugins.AddStore(plugin, [](const PluginParams& params,
                              std::shared_ptr<Store>* store) {
    *store = std::make_shared<ArgsStore>(params);
    return Status::Ok();
  });
  SimClock clock(0);
  LdmsdOptions opts;
  opts.name = "agg";
  opts.worker_threads = 0;
  opts.connection_threads = 0;
  opts.store_threads = 0;
  opts.log_level = LogLevel::kOff;
  opts.clock = &clock;
  opts.registry_path = path;

  ProducerConfig p = SampleProducer();
  p.transport = "sock";  // any registered transport other than the default
  p.address = "127.0.0.1:1";
  StorePolicy s = SamplePolicy();
  s.plugin = plugin;
  s.plugin_params = {{"path", "/var/x y=z:w"}, {"key with space", "v=1:2"}};
  s.decomp = "hot@active:act:rate,load;raw@free";
  s.shed_policy = ShedPolicy::kBlock;
  s.breaker_max_backoff = 2 * kNsPerSec;
  {
    Ldmsd daemon(opts);
    ASSERT_TRUE(daemon.AddProducer(p).ok());
    StorePolicy added = s;
    ASSERT_TRUE(MakeStrgpStore(plugins, &added).ok());
    ASSERT_TRUE(daemon.AddStorePolicy(std::move(added)).ok());
    auto tree = std::make_unique<TreeManager>(SampleTree());
    (void)tree->MarkLeafDown(1, 0);
    daemon.AdoptTree(std::move(tree));
  }
  {
    ClusterRegistry reg(path);
    ASSERT_TRUE(reg.Load().ok());
    EXPECT_FALSE(reg.last_load_quarantined());
    EXPECT_EQ(reg.stats().last_load_records, 3u);
  }

  Ldmsd restored(opts);
  ASSERT_TRUE(restored.RestoreFromRegistry(plugins).ok());
  const std::optional<ProducerConfig> q = restored.producer_config(p.name);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->name, p.name);
  EXPECT_EQ(q->transport, p.transport);
  EXPECT_EQ(q->address, p.address);
  EXPECT_EQ(q->interval, p.interval);
  EXPECT_EQ(q->offset, p.offset);
  EXPECT_EQ(q->synchronous, p.synchronous);
  EXPECT_EQ(q->request_timeout, p.request_timeout);
  EXPECT_EQ(q->reconnect_min_backoff, p.reconnect_min_backoff);
  EXPECT_EQ(q->reconnect_max_backoff, p.reconnect_max_backoff);
  EXPECT_EQ(q->set_instances, p.set_instances);
  EXPECT_EQ(q->rediscover_interval, p.rediscover_interval);
  EXPECT_EQ(q->delta_updates, p.delta_updates);
  EXPECT_EQ(q->standby, p.standby);
  EXPECT_EQ(q->standby_for, p.standby_for);

  const std::optional<StorePolicy> t = restored.store_policy(s.name);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->name, s.name);
  EXPECT_EQ(t->plugin, s.plugin);
  EXPECT_EQ(t->plugin_params, s.plugin_params);
  const auto* store = dynamic_cast<const ArgsStore*>(t->store.get());
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->params(), s.plugin_params);
  EXPECT_EQ(t->schema_filter, s.schema_filter);
  EXPECT_EQ(t->producer_filter, s.producer_filter);
  EXPECT_EQ(t->decomp, s.decomp);
  EXPECT_EQ(t->queue_capacity, s.queue_capacity);
  EXPECT_EQ(t->shed_policy, s.shed_policy);
  EXPECT_EQ(t->breaker_threshold, s.breaker_threshold);
  EXPECT_EQ(t->breaker_min_backoff, s.breaker_min_backoff);
  EXPECT_EQ(t->breaker_max_backoff, s.breaker_max_backoff);

  const TreeManager* tree = restored.tree();
  ASSERT_NE(tree, nullptr);
  const TreeOptions want = SampleTree();
  const TreeOptions got = tree->options();
  ASSERT_EQ(got.samplers.size(), want.samplers.size());
  for (std::size_t i = 0; i < want.samplers.size(); ++i) {
    EXPECT_EQ(got.samplers[i].name, want.samplers[i].name);
    EXPECT_EQ(got.samplers[i].node_id, want.samplers[i].node_id);
  }
  EXPECT_EQ(got.leaves, want.leaves);
  EXPECT_EQ(got.root_name, want.root_name);
  EXPECT_EQ(got.spare_name, want.spare_name);
  EXPECT_EQ(got.seed, want.seed);
  EXPECT_EQ(tree->down_leaves(), (std::vector<std::size_t>{1}));
}

TEST(PersistChaosTest, RootRestartFromRegistryRebuildsTree) {
  const harness::ScratchDir scratch("tree");
  const std::string& dir = scratch.path();
  MiniClusterOptions opts;
  opts.samplers = 4;
  opts.tree_leaves = 2;
  opts.registry_dir = dir;
  MiniCluster cluster(opts);

  cluster.Advance(2 * kNsPerSec);
  const std::size_t rows_before = cluster.StoredRows();
  EXPECT_GT(rows_before, 0u);

  cluster.KillRoot();
  cluster.Advance(500 * kNsPerMs);
  Status st = cluster.RestartRootFromRegistry();
  ASSERT_TRUE(st.ok()) << st.ToString();
  cluster.Advance(3 * kNsPerSec);

  // The restored root owns a TreeManager rebuilt from the persisted
  // TreeOptions; rendezvous placement is a pure function of those, so its
  // shards must match the harness manager's exactly.
  TreeManager* restored = cluster.root().tree();
  ASSERT_NE(restored, nullptr);
  ASSERT_NE(restored, cluster.tree());
  for (std::size_t j = 0; j < opts.tree_leaves; ++j) {
    EXPECT_EQ(restored->shard(j), cluster.tree()->shard(j)) << "leaf " << j;
  }
  // Leaf producers came back from the registry and collection resumed
  // end-to-end (two hops) into the same persistent stores.
  EXPECT_GT(cluster.StoredRows(), rows_before);
  for (std::size_t i = 0; i < opts.samplers; ++i) {
    EXPECT_GT(cluster.DataGap(i).rows, 0u) << "sampler " << i;
  }
}

TEST(PersistChaosTest, AnnouncedSamplerJoinsTreeAndPersists) {
  const harness::ScratchDir scratch("announce");
  const std::string& dir = scratch.path();
  MiniClusterOptions opts;
  opts.samplers = 3;
  opts.tree_leaves = 2;
  opts.registry_dir = dir;
  MiniCluster cluster(opts);
  cluster.Advance(1 * kNsPerSec);

  std::size_t added = 0;
  Status st = cluster.AddAnnouncedSampler(&added);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(added, 3u);
  const std::string name = cluster.sampler_name(added);

  // Placed immediately (announce -> TreeManager::AddSampler on the root's
  // tree), and the placement was persisted before any collection happened.
  const std::size_t leaf = cluster.tree()->leaf_of(name);
  ASSERT_NE(leaf, TreeManager::kUnassigned);
  {
    ClusterRegistry reg(dir + "/root.registry");
    ASSERT_TRUE(reg.Load().ok());
    const RegistrySnapshot snap = reg.snapshot();
    ASSERT_TRUE(snap.tree.has_value());
    TreeOptions persisted;
    std::vector<std::size_t> down;
    ASSERT_TRUE(ParseTreeArgs(*snap.tree, &persisted, &down).ok());
    bool recorded = false;
    for (const auto& s : persisted.samplers) {
      recorded = recorded || s.name == name;
    }
    EXPECT_TRUE(recorded) << "announce placement not persisted";
  }

  // The wiring hook put a producer on the assigned leaf; data flows to the
  // root without any operator configuration.
  cluster.Advance(2 * kNsPerSec);
  EXPECT_TRUE(cluster.leaf(leaf).producer_status(name).connected);
  EXPECT_GT(cluster.DataGap(added).rows, 4u);
}

// --- hardening layer: keyed auth + framing ----------------------------------

TEST(AuthTest, KeyFileLifecycle) {
  const harness::ScratchDir scratch("keys");
  const std::string& dir = scratch.path();
  const std::string path = dir + "/control.key";
  std::unique_ptr<KeyManager> keys;
  ASSERT_TRUE(KeyManager::LoadOrCreate(path, &keys).ok());
  EXPECT_EQ(keys->current().id, 1u);

  struct stat info{};
  ASSERT_EQ(::stat(path.c_str(), &info), 0);
  EXPECT_EQ(info.st_mode & 0777, 0600u) << "key file must be owner-only";

  // Reload sees the same key; sign/verify round-trips.
  std::unique_ptr<KeyManager> reloaded;
  ASSERT_TRUE(KeyManager::LoadOrCreate(path, &reloaded).ok());
  EXPECT_EQ(reloaded->current().id, 1u);
  const std::string token = keys->Sign("prdcr_del name=node0");
  EXPECT_TRUE(reloaded->Verify(token, "prdcr_del name=node0"));
  EXPECT_FALSE(reloaded->Verify(token, "prdcr_del name=node1"));
  EXPECT_FALSE(reloaded->Verify("1:0000000000000000", "prdcr_del name=node0"));
  EXPECT_FALSE(reloaded->Verify("nonsense", "prdcr_del name=node0"));

  // Rotation bumps the id, persists, and fails old MACs closed.
  ASSERT_TRUE(keys->Rotate().ok());
  EXPECT_EQ(keys->current().id, 2u);
  EXPECT_EQ(keys->rotations(), 1u);
  EXPECT_FALSE(keys->Verify(token, "prdcr_del name=node0"));
  std::unique_ptr<KeyManager> after;
  ASSERT_TRUE(KeyManager::LoadOrCreate(path, &after).ok());
  EXPECT_EQ(after->current().id, 2u);

  // A group/world-readable key file is refused outright.
  ASSERT_EQ(::chmod(path.c_str(), 0644), 0);
  std::unique_ptr<KeyManager> lax;
  EXPECT_FALSE(KeyManager::LoadOrCreate(path, &lax).ok());
}

TEST(AuthTest, MutatingVerbClassification) {
  for (const char* verb : {"counters", "strgp_status", "prdcr_status",
                           "tree_status", "registry_status", "auth_status"}) {
    EXPECT_FALSE(IsMutatingControlVerb(verb)) << verb;
  }
  for (const char* verb :
       {"load", "start", "stop", "prdcr_add", "prdcr_del", "strgp_add",
        "interval", "registry_import", "registry_export", "key_rotate",
        "some_future_verb"}) {
    EXPECT_TRUE(IsMutatingControlVerb(verb)) << verb;
  }
}

class AuthedControlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterBuiltinStores();  // strgp_add is the mutating verb under test
    ASSERT_TRUE(KeyManager::LoadOrCreate(dir_ + "/control.key", &keys_).ok());
    LdmsdOptions opts;
    opts.name = "auth-test";
    opts.worker_threads = 1;
    daemon_ = std::make_unique<Ldmsd>(opts);
    ASSERT_TRUE(daemon_->Start().ok());
    socket_path_ = dir_ + "/ctl.sock";
    control_ =
        std::make_unique<ControlServer>(*daemon_, socket_path_, keys_.get());
    ASSERT_TRUE(control_->Start().ok());
  }

  void TearDown() override {
    control_->Stop();
    daemon_->Stop();
  }

  const harness::ScratchDir scratch_{"authctl"};
  const std::string dir_ = scratch_.path();
  std::unique_ptr<KeyManager> keys_;
  std::unique_ptr<Ldmsd> daemon_;
  std::unique_ptr<ControlServer> control_;
  std::string socket_path_;
};

TEST_F(AuthedControlTest, MutatingVerbsRequireMac) {
  std::string reply;
  // Unauthenticated queries stay open (monitoring keeps working)...
  ASSERT_TRUE(ControlServer::SendCommand(socket_path_, "counters", &reply)
                  .ok());
  // ...but an unauthenticated mutation is refused and counted.
  Status st = ControlServer::SendCommand(socket_path_,
                                         "interval name=x interval=1", &reply);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(reply.find("auth required"), std::string::npos) << reply;
  EXPECT_EQ(control_->auth_failures(), 1u);

  // A wrong MAC is refused too.
  st = ControlServer::SendCommand(
      socket_path_, "auth 1:0123456789abcdef prdcr_del name=x", &reply);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(reply.find("authentication failed"), std::string::npos) << reply;
  EXPECT_EQ(control_->auth_failures(), 2u);

  // A properly signed mutation goes through (bad args != auth failure).
  st = ControlServer::SendCommand(socket_path_,
                                  "strgp_add plugin=store_mem name=authed",
                                  &reply, keys_.get());
  EXPECT_TRUE(st.ok()) << reply;
  EXPECT_EQ(control_->auth_failures(), 2u);

  ASSERT_TRUE(
      ControlServer::SendCommand(socket_path_, "auth_status", &reply).ok());
  EXPECT_NE(reply.find("enabled=1"), std::string::npos) << reply;
  EXPECT_NE(reply.find("failures=2"), std::string::npos) << reply;
}

TEST_F(AuthedControlTest, KeyRotationOverSocket) {
  std::string reply;
  // key_rotate is itself mutating: refused without a MAC.
  EXPECT_FALSE(
      ControlServer::SendCommand(socket_path_, "key_rotate", &reply).ok());
  ASSERT_TRUE(ControlServer::SendCommand(socket_path_, "key_rotate", &reply,
                                         keys_.get())
                  .ok());
  EXPECT_EQ(reply, "OK key_id=2");
  EXPECT_EQ(keys_->current().id, 2u);
  // The client shares the KeyManager, so post-rotation signing still works.
  EXPECT_TRUE(ControlServer::SendCommand(
                  socket_path_, "strgp_add plugin=store_mem name=rotated",
                  &reply, keys_.get())
                  .ok());
}

// --- framing: dribble, pipelining, partial line at EOF ----------------------

class RawSocketClient {
 public:
  explicit RawSocketClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawSocketClient() { Close(); }

  bool ok() const { return fd_ >= 0; }
  void Send(std::string_view bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  /// Read exactly @p n newline-terminated replies.
  std::vector<std::string> ReadReplies(std::size_t n) {
    std::vector<std::string> replies;
    std::string line;
    char c;
    while (replies.size() < n && ::recv(fd_, &c, 1, 0) == 1) {
      if (c == '\n') {
        replies.push_back(line);
        line.clear();
      } else {
        line.push_back(c);
      }
    }
    return replies;
  }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

using FramingControlTest = AuthedControlTest;

TEST_F(FramingControlTest, ByteDribbleYieldsExactlyOneReply) {
  RawSocketClient client(socket_path_);
  ASSERT_TRUE(client.ok());
  const std::string command = "counters\n";
  for (const char c : command) {
    client.Send(std::string_view(&c, 1));
  }
  const auto replies = client.ReadReplies(1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].rfind("OK", 0), 0u) << replies[0];
}

TEST_F(FramingControlTest, PipelinedVerbsGetOneReplyEach) {
  RawSocketClient client(socket_path_);
  ASSERT_TRUE(client.ok());
  const std::uint64_t before = control_->commands_served();
  client.Send("counters\nauth_status\n");  // two verbs, one write
  const auto replies = client.ReadReplies(2);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].rfind("OK ", 0), 0u) << replies[0];
  EXPECT_NE(replies[0].find("samples="), std::string::npos) << replies[0];
  EXPECT_EQ(replies[1].rfind("OK enabled=1", 0), 0u) << replies[1];
  EXPECT_EQ(control_->commands_served(), before + 2);
}

TEST_F(FramingControlTest, PartialLineAtEofIsDiscardedNotExecuted) {
  const std::uint64_t before = control_->commands_served();
  {
    RawSocketClient client(socket_path_);
    ASSERT_TRUE(client.ok());
    client.Send("counters");  // no newline — never a complete command
    client.Close();
  }
  // Prove the server processed the disconnect (and didn't execute the
  // fragment) by running a full command afterwards.
  std::string reply;
  ASSERT_TRUE(
      ControlServer::SendCommand(socket_path_, "counters", &reply).ok());
  EXPECT_EQ(control_->commands_served(), before + 1)
      << "partial line at EOF must not be executed";
}

// --- registry control verbs over the socket ---------------------------------

TEST(RegistryVerbTest, StatusExportImportAndPrdcrDel) {
  const harness::ScratchDir scratch("regverb");
  const std::string& dir = scratch.path();
  LdmsdOptions opts;
  opts.name = "verb-test";
  opts.worker_threads = 1;
  opts.registry_path = dir + "/cluster.registry";
  Ldmsd daemon(opts);
  ASSERT_TRUE(daemon.Start().ok());
  ControlServer control(daemon, dir + "/ctl.sock");
  ASSERT_TRUE(control.Start().ok());
  auto send = [&](const std::string& cmd, std::string* reply) {
    return ControlServer::SendCommand(control.socket_path(), cmd, reply);
  };

  std::string reply;
  ASSERT_TRUE(send("prdcr_add name=ghost xprt=local host=nowhere/listen "
                   "interval=50000",
                   &reply)
                  .ok());
  ASSERT_TRUE(send("registry_status", &reply).ok());
  EXPECT_NE(reply.find("producers=1"), std::string::npos) << reply;
  EXPECT_NE(reply.find("quarantines=0"), std::string::npos) << reply;

  ASSERT_TRUE(send("registry_export path=" + dir + "/snap", &reply).ok());
  RegistrySnapshot snap;
  std::string exported;
  ASSERT_TRUE(ReadFileToString(dir + "/snap", &exported).ok());
  ASSERT_TRUE(ParseRegistry(exported, &snap).ok());
  ASSERT_EQ(snap.producers.size(), 1u);
  EXPECT_EQ(snap.producers.count("ghost"), 1u);

  // prdcr_del drops the producer from the daemon AND the registry.
  ASSERT_TRUE(send("prdcr_del name=ghost", &reply).ok());
  EXPECT_FALSE(daemon.producer_status("ghost").known);
  ASSERT_TRUE(send("registry_status", &reply).ok());
  EXPECT_NE(reply.find("producers=0"), std::string::npos) << reply;
  EXPECT_FALSE(send("prdcr_del name=ghost", &reply).ok());

  // registry_import restores the exported topology wholesale.
  ASSERT_TRUE(send("registry_import path=" + dir + "/snap", &reply).ok());
  ASSERT_TRUE(send("registry_status", &reply).ok());
  EXPECT_NE(reply.find("producers=1"), std::string::npos) << reply;
  EXPECT_FALSE(send("registry_import path=" + dir + "/missing", &reply).ok());

  control.Stop();
  daemon.Stop();
}

TEST(RegistryVerbTest, UnconfiguredRegistryReportsUnsupported) {
  const harness::ScratchDir scratch("noreg");
  const std::string& dir = scratch.path();
  LdmsdOptions opts;
  opts.name = "noreg-test";
  opts.worker_threads = 1;
  Ldmsd daemon(opts);
  ASSERT_TRUE(daemon.Start().ok());
  ControlServer control(daemon, dir + "/ctl.sock");
  ASSERT_TRUE(control.Start().ok());

  std::string reply;
  Status st =
      ControlServer::SendCommand(control.socket_path(), "registry_status",
                                 &reply);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(reply.find("no cluster registry"), std::string::npos) << reply;

  control.Stop();
  daemon.Stop();
}

}  // namespace
}  // namespace ldmsxx

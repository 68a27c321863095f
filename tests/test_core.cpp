// Unit and property tests for core: memory manager, schema layout, metric
// sets (transactions, MGN/DGN, consistency, mirrors), set registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "core/mem_manager.hpp"
#include "core/metric_set.hpp"
#include "core/schema.hpp"
#include "core/set_registry.hpp"
#include "util/rng.hpp"

namespace ldmsxx {
namespace {

// ---------------------------------------------------------------------------
// MemManager
// ---------------------------------------------------------------------------

TEST(MemManagerTest, AllocateFreeReuse) {
  MemManager mem(4096);
  void* a = mem.Allocate(100);
  void* b = mem.Allocate(200);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_TRUE(mem.Contains(a));
  EXPECT_EQ(mem.allocation_count(), 2u);
  const std::size_t used = mem.bytes_in_use();
  EXPECT_GE(used, 300u);
  mem.Free(a);
  mem.Free(b);
  EXPECT_EQ(mem.bytes_in_use(), 0u);
  EXPECT_EQ(mem.allocation_count(), 0u);
  EXPECT_EQ(mem.peak_bytes_in_use(), used);
  // After coalescing, the full pool is available again.
  void* big = mem.Allocate(3500);
  EXPECT_NE(big, nullptr);
  mem.Free(big);
}

TEST(MemManagerTest, ExhaustionReturnsNull) {
  MemManager mem(1024);
  void* a = mem.Allocate(900);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(mem.Allocate(900), nullptr);
  mem.Free(a);
  EXPECT_NE(mem.Allocate(900), nullptr);
}

TEST(MemManagerTest, AlignmentHonored) {
  MemManager mem(8192);
  for (std::size_t align : {8u, 16u, 32u, 64u}) {
    void* p = mem.Allocate(64, align);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
        << "align " << align;
  }
}

bool Filled(const void* p, std::size_t size, std::uint8_t value) {
  const auto* bytes = static_cast<const std::uint8_t*>(p);
  return std::all_of(bytes, bytes + size,
                     [value](std::uint8_t b) { return b == value; });
}

// Property: random alloc/free sequences at every supported alignment never
// corrupt accounting or overlap live blocks, and freeing everything (padded
// pointers included) always restores the full pool.
TEST(MemManagerPropertyTest, RandomAllocFreeCycles) {
  struct Live {
    void* p;
    std::size_t size;
    std::uint8_t fill;
  };
  Rng rng(99);
  MemManager mem(1 << 16);
  std::vector<Live> live;
  const std::size_t aligns[] = {8, 16, 32, 64};
  std::uint8_t next_fill = 0;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.NextDouble() < 0.6) {
      const std::size_t size = 16 + rng.NextBelow(512);
      const std::size_t align = aligns[rng.NextBelow(4)];
      void* p = mem.Allocate(size, align);
      if (p != nullptr) {
        ASSERT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
            << "align " << align;
        // Write the block fully: an overlap with another live block shows
        // up as a wrong fill when that block is freed.
        std::memset(p, ++next_fill, size);
        live.push_back({p, size, next_fill});
      }
    } else {
      const std::size_t victim = rng.NextBelow(live.size());
      ASSERT_TRUE(Filled(live[victim].p, live[victim].size, live[victim].fill))
          << "step " << step;
      mem.Free(live[victim].p);
      live[victim] = live.back();
      live.pop_back();
    }
  }
  for (const Live& block : live) {
    ASSERT_TRUE(Filled(block.p, block.size, block.fill));
    mem.Free(block.p);
  }
  EXPECT_EQ(mem.bytes_in_use(), 0u);
  EXPECT_EQ(mem.allocation_count(), 0u);
  void* all = mem.Allocate((1 << 16) - 64);
  EXPECT_NE(all, nullptr);
}

// Scale: an aggregator's pool after looking up 10k Blue-Waters-shaped sets
// (194 metrics: a ~18 kB metadata and a ~1.6 kB data chunk each), torn down
// in random order. The run time is reported, not asserted.
TEST(MemManagerScaleTest, TwentyThousandBlocksFreedInRandomOrder) {
  Schema schema("bw");
  for (int i = 0; i < 194; ++i) {
    schema.AddMetric("metric_" + std::to_string(i), MetricType::kU64);
  }
  MemManager probe(1 << 20);
  Status st;
  auto set =
      MetricSet::Create(probe, schema, "nid00000/bw", "nid00000", 0, &st);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const std::size_t sizes[2] = {set->metadata_bytes().size(),
                                set->data_size()};
  constexpr std::size_t kBlocks = 20000;
  // Exactly enough for every block: payloads round to 16 bytes, plus a
  // 16-byte header each.
  std::size_t pool_size = 0;
  for (std::size_t i = 0; i < kBlocks; ++i) {
    pool_size += (sizes[i % 2] + 15) / 16 * 16 + 16;
  }
  MemManager mem(pool_size);

  const auto start = std::chrono::steady_clock::now();
  std::vector<void*> blocks(kBlocks);
  for (std::size_t i = 0; i < kBlocks; ++i) {
    blocks[i] = mem.Allocate(sizes[i % 2]);
    ASSERT_NE(blocks[i], nullptr) << "block " << i;
    std::memset(blocks[i], static_cast<int>(i & 0xff), sizes[i % 2]);
  }
  EXPECT_EQ(mem.allocation_count(), kBlocks);
  EXPECT_EQ(mem.bytes_in_use(), pool_size);

  std::vector<std::size_t> order(kBlocks);
  for (std::size_t i = 0; i < kBlocks; ++i) order[i] = i;
  Rng rng(7);
  for (std::size_t i = kBlocks - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBelow(i + 1)]);
  }
  for (std::size_t i : order) {
    // Each block is still live here, so its fill must be intact.
    ASSERT_TRUE(Filled(blocks[i], sizes[i % 2],
                       static_cast<std::uint8_t>(i & 0xff)))
        << "block " << i;
    mem.Free(blocks[i]);
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  std::printf("[ timing   ] %zu blocks allocated, filled, checked and freed "
              "in %.1f ms\n",
              kBlocks, ms);

  EXPECT_EQ(mem.bytes_in_use(), 0u);
  EXPECT_EQ(mem.allocation_count(), 0u);
  void* whole = mem.Allocate(pool_size - 16);
  EXPECT_NE(whole, nullptr) << "freed blocks did not coalesce";
  mem.Free(whole);
}

// Best fit: a request that fits a small and a large hole lands in the small
// one, and between equal holes the lower offset wins. Guard blocks keep the
// holes from coalescing with each other and with the free tail.
TEST(MemManagerTest, PlacementIsBestFitLowestOffset) {
  {
    MemManager mem(1 << 16);
    void* large = mem.Allocate(512);
    ASSERT_NE(mem.Allocate(16), nullptr);
    void* small = mem.Allocate(64);
    ASSERT_NE(mem.Allocate(16), nullptr);
    mem.Free(large);
    mem.Free(small);
    EXPECT_EQ(mem.Allocate(48), small)
        << "first fit would take the earlier, larger hole";
  }
  {
    MemManager mem(1 << 16);
    void* low = mem.Allocate(64);
    ASSERT_NE(mem.Allocate(16), nullptr);
    void* high = mem.Allocate(64);
    ASSERT_NE(mem.Allocate(16), nullptr);
    ASSERT_LT(low, high);
    mem.Free(high);
    mem.Free(low);
    EXPECT_EQ(mem.Allocate(64), low);
    EXPECT_EQ(mem.Allocate(64), high);
  }
}

// Free rejects a pointer it did not hand out or has already taken back
// (debug builds assert), without touching the accounting or the blocks.
TEST(MemManagerTest, ForeignAndDoubleFreesRejected) {
  MemManager mem(8192);
  // Two 64-byte-aligned requests whose blocks start 32 bytes apart modulo
  // 64, so at least one of them is padded behind its header.
  void* aligned_a = mem.Allocate(100, 64);
  void* spacer = mem.Allocate(16);
  void* aligned_b = mem.Allocate(100, 64);
  void* plain = mem.Allocate(100);
  void* keep = mem.Allocate(100);
  ASSERT_NE(keep, nullptr);
  std::memset(keep, 0, 100);
  mem.Free(aligned_a);
  mem.Free(aligned_b);
  mem.Free(plain);  // merges into aligned_b's block; its header goes stale
  const std::size_t in_use = mem.bytes_in_use();
  int outside = 0;
  EXPECT_DEBUG_DEATH(mem.Free(aligned_a), "");
  EXPECT_DEBUG_DEATH(mem.Free(aligned_b), "");
  EXPECT_DEBUG_DEATH(mem.Free(plain), "");
  EXPECT_DEBUG_DEATH(mem.Free(&outside), "");
  EXPECT_DEBUG_DEATH(mem.Free(static_cast<std::byte*>(keep) + 32), "");
  EXPECT_EQ(mem.bytes_in_use(), in_use);
  EXPECT_EQ(mem.allocation_count(), 2u);
  mem.Free(spacer);
  mem.Free(keep);
  EXPECT_EQ(mem.bytes_in_use(), 0u);
  EXPECT_NE(mem.Allocate(8192 - 16), nullptr);
}

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

TEST(SchemaTest, OffsetsAlignedAndPacked) {
  Schema schema("test");
  const std::size_t i8 = schema.AddMetric("a", MetricType::kU8);
  const std::size_t i64 = schema.AddMetric("b", MetricType::kU64);
  const std::size_t i16 = schema.AddMetric("c", MetricType::kU16);
  const std::size_t id = schema.AddMetric("d", MetricType::kD64);
  ASSERT_EQ(schema.value_area_size() % 8, 0u);
  EXPECT_EQ(schema.metric(i8).data_offset, 0u);
  EXPECT_EQ(schema.metric(i64).data_offset, 8u);   // aligned up from 1
  EXPECT_EQ(schema.metric(i16).data_offset, 16u);
  EXPECT_EQ(schema.metric(id).data_offset, 24u);
}

TEST(SchemaTest, FindMetric) {
  Schema schema("test");
  schema.AddMetric("x", MetricType::kU64);
  schema.AddMetric("y", MetricType::kU64);
  EXPECT_EQ(schema.FindMetric("y"), 1u);
  EXPECT_FALSE(schema.FindMetric("z").has_value());
}

// ---------------------------------------------------------------------------
// Schema interning
// ---------------------------------------------------------------------------

Schema ThreeMetrics() {
  Schema schema("shape");
  schema.AddMetric("u", MetricType::kU64);
  schema.AddMetric("d", MetricType::kD64);
  schema.AddMetric("s", MetricType::kS32);
  return schema;
}

/// Offset of metric @p i's record in the metadata of a set made by
/// MetricSet::Create(mem, ThreeMetrics(), instance, producer, ...).
std::size_t RecordAt(const MetricSet& set, std::size_t i) {
  return 24 + 2 + set.instance_name().size() + 2 +
         set.producer_name().size() + 2 + set.schema().name().size() +
         i * 93;
}

TEST(SchemaTableTest, SetsOfOneShapeShareOneSchemaPerManager) {
  MemManager mem(1 << 20);
  MemManager peer(1 << 20);
  Status st;
  auto a = MetricSet::Create(mem, ThreeMetrics(), "n1/shape", "n1", 1, &st);
  auto b = MetricSet::Create(mem, ThreeMetrics(), "n2/shape", "n2", 2, &st);
  auto remote =
      MetricSet::Create(peer, ThreeMetrics(), "n3/shape", "n3", 3, &st);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(remote, nullptr);
  // The names make the MGNs differ; the shape is still one.
  EXPECT_NE(a->meta_gn(), b->meta_gn());
  EXPECT_EQ(&a->schema(), &b->schema());
  EXPECT_EQ(a->shared_schema(), b->shared_schema());
  // A mirror of the peer's set finds the same entry, and copies it nowhere.
  auto mirror = MetricSet::CreateMirror(mem, remote->metadata_bytes(), &st);
  ASSERT_NE(mirror, nullptr) << st.ToString();
  EXPECT_EQ(&mirror->schema(), &a->schema());
  EXPECT_EQ(mirror->instance_name(), "n3/shape");
  EXPECT_EQ(mem.schemas().size(), 1u);
  // Two managers (two daemons) never share.
  EXPECT_NE(&remote->schema(), &a->schema());
  EXPECT_EQ(peer.schemas().size(), 1u);
  // The entry lives exactly as long as the last set holding it.
  a.reset();
  b.reset();
  EXPECT_EQ(mem.schemas().size(), 1u);
  EXPECT_EQ(mirror->schema().metric(2).name, "s");
  mirror.reset();
  EXPECT_EQ(mem.schemas().size(), 0u);
  EXPECT_EQ(mem.bytes_in_use(), 0u);
}

TEST(SchemaTableTest, OneChangedRecordByteMakesAnotherShape) {
  MemManager mem(1 << 20);
  Status st;
  auto base = MetricSet::Create(mem, ThreeMetrics(), "n1/shape", "n1", 1, &st);
  ASSERT_NE(base, nullptr);
  std::vector<MetricSetPtr> others;

  // Local sets: one metric's name, type or component id differs.
  Schema renamed("shape");
  renamed.AddMetric("v", MetricType::kU64);
  renamed.AddMetric("d", MetricType::kD64);
  renamed.AddMetric("s", MetricType::kS32);
  Schema retyped("shape");
  retyped.AddMetric("u", MetricType::kS64);
  retyped.AddMetric("d", MetricType::kD64);
  retyped.AddMetric("s", MetricType::kS32);
  Schema recomponented("shape");
  recomponented.AddMetric("u", MetricType::kU64, 1);
  recomponented.AddMetric("d", MetricType::kD64);
  recomponented.AddMetric("s", MetricType::kS32);
  for (const Schema* schema : {&renamed, &retyped, &recomponented}) {
    others.push_back(
        MetricSet::Create(mem, *schema, "n1/shape", "n1", 1, &st));
    ASSERT_NE(others.back(), nullptr) << st.ToString();
  }

  // Mirrors: one byte of the same record fields flipped in the metadata.
  const std::size_t rec = RecordAt(*base, 0);
  const std::size_t kTypeAt = 0, kComponentAt = 1, kNameAt = 15;
  for (const std::size_t at : {rec + kNameAt, rec + kTypeAt,
                               rec + kComponentAt}) {
    std::vector<std::byte> meta(base->metadata_bytes().begin(),
                                base->metadata_bytes().end());
    meta[at] ^= std::byte{1};  // 'u'->'t', kU64->kS64, component 0->1
    others.push_back(MetricSet::CreateMirror(mem, meta, &st));
    ASSERT_NE(others.back(), nullptr) << at << ": " << st.ToString();
  }
  for (const auto& set : others) {
    EXPECT_NE(&set->schema(), &base->schema());
  }
  // The flipped mirrors match the local sets changed the same way, except
  // the name ('t' mirror vs 'v' local).
  EXPECT_EQ(&others[4]->schema(), &others[1]->schema());  // type
  EXPECT_EQ(&others[5]->schema(), &others[2]->schema());  // component id
  EXPECT_EQ(mem.schemas().size(), 5u);
}

TEST(SchemaTableTest, MirrorRefusesRecordsThatDisagreeWithItsLayout) {
  MemManager peer(1 << 20);
  Status st;
  auto set = MetricSet::Create(peer, ThreeMetrics(), "n1/shape", "n1", 1, &st);
  ASSERT_NE(set, nullptr);
  const std::vector<std::byte> good(set->metadata_bytes().begin(),
                                    set->metadata_bytes().end());
  const std::size_t rec1 = RecordAt(*set, 1);
  auto with = [&](std::size_t at, std::uint8_t value) {
    auto meta = good;
    meta[at] = std::byte{value};
    return meta;
  };
  auto appended = good;
  appended.push_back(std::byte{0});
  const std::vector<std::vector<std::byte>> bad = {
      with(rec1 + 9, 4),     // metric 1's offset: 4 instead of 8
      with(rec1, 0xee),      // metric 1's type: unknown
      with(rec1 + 13, 79),   // metric 1's name: longer than its field
      with(8, 4),            // cardinality 4 over three records
      appended,              // a byte after the last record
  };
  for (int pass = 0; pass < 2; ++pass) {
    // Pass 1 has the good shape interned, so the cardinality check runs on
    // the lookup hit instead of the parse.
    MemManager mem(1 << 20);
    MetricSetPtr keep;
    if (pass == 1) keep = MetricSet::CreateMirror(mem, good, &st);
    const std::size_t shapes = mem.schemas().size();
    const std::size_t in_use = mem.bytes_in_use();
    for (std::size_t i = 0; i < bad.size(); ++i) {
      EXPECT_EQ(MetricSet::CreateMirror(mem, bad[i], &st), nullptr)
          << "pass " << pass << " case " << i;
      EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument) << i;
      EXPECT_EQ(mem.schemas().size(), shapes) << i;
      EXPECT_EQ(mem.bytes_in_use(), in_use) << i;
    }
    EXPECT_NE(MetricSet::CreateMirror(mem, good, &st), nullptr);
  }
}

TEST(SchemaTableTest, ConcurrentMirrorsAgreeOnOneSchemaPerShape) {
  // Aggregators create mirrors on connector threads. Threads racing to
  // create, drop and re-create mirrors of two shapes must always agree on
  // one schema per live shape, and leave no entry behind.
  MemManager peer(1 << 20);
  Schema wide("wide");
  for (int i = 0; i < 40; ++i) {
    wide.AddMetric("m" + std::to_string(i), MetricType::kU64);
  }
  Status st;
  auto narrow_src =
      MetricSet::Create(peer, ThreeMetrics(), "n0/shape", "n0", 0, &st);
  auto wide_src = MetricSet::Create(peer, wide, "n0/wide", "n0", 0, &st);
  ASSERT_NE(narrow_src, nullptr);
  ASSERT_NE(wide_src, nullptr);
  MemManager mem(4 << 20);
  constexpr int kThreads = 4;
  std::vector<std::vector<MetricSetPtr>> kept(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 400; ++i) {
        const MetricSet& src = (i + t) % 2 == 0 ? *narrow_src : *wide_src;
        Status s;
        auto mirror = MetricSet::CreateMirror(mem, src.metadata_bytes(), &s);
        if (mirror == nullptr) continue;
        if (i % 50 == 0) kept[static_cast<std::size_t>(t)].push_back(mirror);
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<const Schema*> narrow, wider;
  for (const auto& sets : kept) {
    for (const auto& set : sets) {
      (set->schema().name() == "shape" ? narrow : wider)
          .push_back(&set->schema());
    }
  }
  ASSERT_FALSE(narrow.empty());
  ASSERT_FALSE(wider.empty());
  for (const Schema* s : narrow) EXPECT_EQ(s, narrow.front());
  for (const Schema* s : wider) EXPECT_EQ(s, wider.front());
  EXPECT_EQ(mem.schemas().size(), 2u);
  kept.clear();
  EXPECT_EQ(mem.schemas().size(), 0u);
}

// ---------------------------------------------------------------------------
// MetricSet
// ---------------------------------------------------------------------------

class MetricSetTest : public ::testing::Test {
 protected:
  MetricSetPtr MakeSet(const char* instance = "node1/test") {
    Schema schema("testschema");
    schema.AddMetric("u", MetricType::kU64);
    schema.AddMetric("d", MetricType::kD64);
    schema.AddMetric("s", MetricType::kS32);
    Status st;
    auto set = MetricSet::Create(mem_, schema, instance, "node1", 7, &st);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return set;
  }

  MemManager mem_{1 << 20};
};

TEST_F(MetricSetTest, TransactionSemantics) {
  auto set = MakeSet();
  EXPECT_EQ(set->data_gn(), 0u);
  EXPECT_FALSE(set->consistent());

  set->BeginTransaction();
  set->SetU64(0, 123);
  set->SetD64(1, 2.5);
  set->SetValue(2, MetricValue::S64(-9));
  set->EndTransaction(5 * kNsPerSec + 250 * kNsPerUs);

  EXPECT_EQ(set->data_gn(), 1u);
  EXPECT_TRUE(set->consistent());
  EXPECT_EQ(set->GetU64(0), 123u);
  EXPECT_DOUBLE_EQ(set->GetD64(1), 2.5);
  EXPECT_EQ(set->GetValue(2).v.s64, -9);
  EXPECT_EQ(set->timestamp(), 5 * kNsPerSec + 250 * kNsPerUs);
}

TEST_F(MetricSetTest, DataChunkIsSmallFractionOfSet) {
  // §IV-B: "The data portion is roughly 10% of the total set size."
  Schema schema("big");
  for (int i = 0; i < 400; ++i) {
    schema.AddMetric("some_rather_long_metric_name_" + std::to_string(i) +
                         "#stats.snx11024",
                     MetricType::kU64);
  }
  Status st;
  auto set = MetricSet::Create(mem_, schema, "node1/big", "node1", 1, &st);
  ASSERT_TRUE(st.ok());
  const double ratio = static_cast<double>(set->data_size()) /
                       static_cast<double>(set->total_size());
  EXPECT_LT(ratio, 0.2);
  EXPECT_GT(ratio, 0.05);
}

TEST_F(MetricSetTest, MirrorRoundTrip) {
  auto set = MakeSet();
  set->BeginTransaction();
  set->SetU64(0, 42);
  set->SetD64(1, -1.5);
  set->EndTransaction(kNsPerSec);

  Status st;
  auto mirror = MetricSet::CreateMirror(mem_, set->metadata_bytes(), &st);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_NE(mirror, nullptr);
  EXPECT_EQ(mirror->instance_name(), set->instance_name());
  EXPECT_EQ(mirror->producer_name(), "node1");
  EXPECT_EQ(mirror->component_id(), 7u);
  EXPECT_EQ(mirror->meta_gn(), set->meta_gn());
  EXPECT_EQ(mirror->schema().metric_count(), 3u);
  EXPECT_EQ(mirror->data_size(), set->data_size());

  std::vector<std::byte> snapshot(set->data_size());
  ASSERT_TRUE(set->SnapshotData(snapshot).ok());
  ASSERT_TRUE(mirror->ApplyData(snapshot).ok());
  EXPECT_EQ(mirror->GetU64(0), 42u);
  EXPECT_DOUBLE_EQ(mirror->GetD64(1), -1.5);
  EXPECT_EQ(mirror->data_gn(), 1u);
  EXPECT_EQ(mirror->timestamp(), kNsPerSec);
}

TEST_F(MetricSetTest, ApplyDataRejectsCorruption) {
  auto set = MakeSet();
  set->BeginTransaction();
  set->EndTransaction(kNsPerSec);
  Status st;
  auto mirror = MetricSet::CreateMirror(mem_, set->metadata_bytes(), &st);
  ASSERT_TRUE(st.ok());

  std::vector<std::byte> good(set->data_size());
  ASSERT_TRUE(set->SnapshotData(good).ok());

  // Wrong size.
  std::vector<std::byte> short_buf(good.begin(), good.end() - 1);
  EXPECT_EQ(mirror->ApplyData(short_buf).code(), ErrorCode::kInvalidArgument);

  // Bad magic.
  auto bad_magic = good;
  bad_magic[0] = std::byte{0xff};
  EXPECT_EQ(mirror->ApplyData(bad_magic).code(), ErrorCode::kInvalidArgument);

  // Torn sample (consistent flag clear): offset of `consistent` is 24.
  auto torn = good;
  std::uint32_t zero = 0;
  std::memcpy(torn.data() + 24, &zero, 4);
  EXPECT_EQ(mirror->ApplyData(torn).code(), ErrorCode::kInconsistent);

  // Mismatched metadata generation.
  auto wrong_mgn = good;
  std::uint32_t fake = 0xdeadbeef;
  std::memcpy(wrong_mgn.data() + 4, &fake, 4);
  EXPECT_EQ(mirror->ApplyData(wrong_mgn).code(), ErrorCode::kInvalidArgument);

  // The clean buffer still applies.
  EXPECT_TRUE(mirror->ApplyData(good).ok());
}

TEST_F(MetricSetTest, MgnIsContentAddressed) {
  // Identical schemas -> identical MGNs (restart-stable); different schema
  // -> different MGN.
  auto a = MakeSet("n/a");
  auto b = MakeSet("n/a2");
  // Same schema but different instance names -> different metadata bytes,
  // hence different MGN (instance is part of identity).
  EXPECT_NE(a->meta_gn(), b->meta_gn());
  auto c = MakeSet("n/a");
  // Registry would reject the duplicate; here both exist and must agree.
  EXPECT_EQ(a->meta_gn(), c->meta_gn());
}

TEST_F(MetricSetTest, SnapshotDetectsActiveWriter) {
  auto set = MakeSet();
  set->BeginTransaction();
  set->SetU64(0, 1);
  // Writer "active" (no EndTransaction): snapshots must refuse.
  std::vector<std::byte> buf(set->data_size());
  EXPECT_EQ(set->SnapshotData(buf).code(), ErrorCode::kInconsistent);
  set->EndTransaction(kNsPerSec);
  EXPECT_TRUE(set->SnapshotData(buf).ok());
}

TEST_F(MetricSetTest, ConcurrentWriterNeverYieldsTornSnapshot) {
  auto set = MakeSet();
  std::atomic<bool> stop{false};
  // Writer: u and s always carry the same value; a torn read would see them
  // disagree.
  std::thread writer([&] {
    std::uint64_t v = 0;
    std::uint64_t spin = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ++v;
      set->BeginTransaction();
      set->SetU64(0, v);
      set->SetD64(1, static_cast<double>(v));
      set->SetValue(2, MetricValue::S64(static_cast<std::int64_t>(v & 0x7fffffff)));
      set->EndTransaction(v);
      // Inter-sample gap, as a real sampler has between intervals; keeps a
      // window open in which consistent snapshots are possible.
      for (int i = 0; i < 2000; ++i) {
        ++spin;
        asm volatile("" : "+r"(spin));
      }
    }
  });
  Status st_mirror;
  auto mirror = MetricSet::CreateMirror(mem_, set->metadata_bytes(), &st_mirror);
  ASSERT_TRUE(st_mirror.ok());
  std::vector<std::byte> buf(set->data_size());
  int successes = 0;
  // Loose upper bound: on a loaded machine most snapshot attempts can race
  // the writer; we only need a healthy sample of successes.
  for (int i = 0; i < 200000 && successes < 1000; ++i) {
    if (i % 1024 == 0) std::this_thread::yield();
    if (!set->SnapshotData(buf).ok()) continue;
    ASSERT_TRUE(mirror->ApplyData(buf).ok());
    ++successes;
    const std::uint64_t u = mirror->GetU64(0);
    const double d = mirror->GetD64(1);
    EXPECT_DOUBLE_EQ(d, static_cast<double>(u)) << "torn snapshot";
  }
  stop = true;
  writer.join();
  EXPECT_GT(successes, 0);
}

// ---------------------------------------------------------------------------
// Delta snapshots (dirty-extent tracking)
// ---------------------------------------------------------------------------

TEST_F(MetricSetTest, DeltaRoundTripSingleDirtyMetric) {
  auto set = MakeSet();
  set->BeginTransaction();
  set->SetU64(0, 1);
  set->SetD64(1, 1.0);
  set->SetValue(2, MetricValue::S64(1));
  set->EndTransaction(kNsPerSec);

  Status st;
  auto mirror = MetricSet::CreateMirror(mem_, set->metadata_bytes(), &st);
  ASSERT_TRUE(st.ok());
  std::vector<std::byte> full(set->data_size());
  ASSERT_TRUE(set->SnapshotData(full).ok());
  ASSERT_TRUE(mirror->ApplyData(full).ok());

  // Second transaction touches only metric 0: the delta should carry one
  // extent and be much smaller than the chunk.
  set->BeginTransaction();
  set->SetU64(0, 42);
  set->EndTransaction(2 * kNsPerSec);

  ByteWriter w;
  ASSERT_TRUE(set->SnapshotDelta(1, w).ok());
  EXPECT_LT(w.size(), set->data_size());
  EXPECT_EQ(w.size(), MetricSet::kDeltaPayloadHeaderSize + 8 + 8);

  ASSERT_TRUE(mirror->ApplyDelta(w.buffer()).ok());
  EXPECT_EQ(mirror->data_gn(), 2u);
  EXPECT_TRUE(mirror->consistent());
  EXPECT_EQ(mirror->GetU64(0), 42u);
  EXPECT_DOUBLE_EQ(mirror->GetD64(1), 1.0);  // untouched metrics preserved
  EXPECT_EQ(mirror->GetValue(2).v.s64, 1);
  EXPECT_EQ(mirror->timestamp(), 2 * kNsPerSec);
}

TEST_F(MetricSetTest, DeltaServedOnlyForExactPredecessor) {
  auto set = MakeSet();
  set->BeginTransaction();
  set->SetU64(0, 1);
  set->EndTransaction(kNsPerSec);
  // gn is 1, but a reader at base 0 never received a sample: its mirror
  // could not apply a delta, so it must get the full chunk.
  ByteWriter w;
  EXPECT_EQ(set->SnapshotDelta(0, w).code(), ErrorCode::kNotFound);
  EXPECT_EQ(w.size(), 0u);
  set->BeginTransaction();
  set->SetU64(0, 2);
  set->EndTransaction(2 * kNsPerSec);
  // gn is now 2; only base 1 has a delta. A gap (base 0) must refuse — no
  // delta chains — as must a future base.
  EXPECT_EQ(set->SnapshotDelta(0, w).code(), ErrorCode::kNotFound);
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(set->SnapshotDelta(2, w).code(), ErrorCode::kNotFound);
  EXPECT_TRUE(set->SnapshotDelta(1, w).ok());
}

TEST_F(MetricSetTest, DeltaNotSmallerThanChunkRefused) {
  auto set = MakeSet();
  set->BeginTransaction();
  set->SetU64(0, 1);
  set->EndTransaction(kNsPerSec);
  // All three metrics dirty: adjacent offsets merge into one extent whose
  // payload (header + table + 24 value bytes) is no smaller than the 56-byte
  // chunk, so the size gate refuses and the caller ships the full chunk.
  set->BeginTransaction();
  set->SetU64(0, 2);
  set->SetD64(1, 2.0);
  set->SetValue(2, MetricValue::S64(2));
  set->EndTransaction(2 * kNsPerSec);
  ByteWriter w;
  EXPECT_EQ(set->SnapshotDelta(1, w).code(), ErrorCode::kNotFound);
  EXPECT_EQ(w.size(), 0u);
}

TEST_F(MetricSetTest, EmptyTransactionYieldsHeaderOnlyDelta) {
  auto set = MakeSet();
  set->BeginTransaction();
  set->SetU64(0, 7);
  set->EndTransaction(kNsPerSec);
  Status st;
  auto mirror = MetricSet::CreateMirror(mem_, set->metadata_bytes(), &st);
  ASSERT_TRUE(st.ok());
  std::vector<std::byte> full(set->data_size());
  ASSERT_TRUE(set->SnapshotData(full).ok());
  ASSERT_TRUE(mirror->ApplyData(full).ok());
  // A transaction that wrote nothing still bumps the DGN; the delta is just
  // the 30-byte header (zero extents) and applies as a gn/timestamp bump.
  set->BeginTransaction();
  set->EndTransaction(2 * kNsPerSec);
  ByteWriter w;
  ASSERT_TRUE(set->SnapshotDelta(1, w).ok());
  EXPECT_EQ(w.size(), MetricSet::kDeltaPayloadHeaderSize);
  ASSERT_TRUE(mirror->ApplyDelta(w.buffer()).ok());
  EXPECT_EQ(mirror->data_gn(), 2u);
  EXPECT_EQ(mirror->GetU64(0), 7u);
}

TEST_F(MetricSetTest, MirrorReservesDeltaDownstream) {
  // Daisy-chain: a first-level aggregator that applied a delta can serve the
  // same transition to a second-level aggregator as a delta.
  auto set = MakeSet();
  set->BeginTransaction();
  set->SetU64(0, 1);
  set->SetD64(1, 1.0);
  set->SetValue(2, MetricValue::S64(1));
  set->EndTransaction(kNsPerSec);
  Status st;
  auto l1 = MetricSet::CreateMirror(mem_, set->metadata_bytes(), &st);
  ASSERT_TRUE(st.ok());
  auto l2 = MetricSet::CreateMirror(mem_, set->metadata_bytes(), &st);
  ASSERT_TRUE(st.ok());
  std::vector<std::byte> full(set->data_size());
  ASSERT_TRUE(set->SnapshotData(full).ok());
  ASSERT_TRUE(l1->ApplyData(full).ok());
  ASSERT_TRUE(l2->ApplyData(full).ok());

  set->BeginTransaction();
  set->SetU64(0, 99);
  set->EndTransaction(2 * kNsPerSec);
  ByteWriter w;
  ASSERT_TRUE(set->SnapshotDelta(1, w).ok());
  ASSERT_TRUE(l1->ApplyDelta(w.buffer()).ok());

  ByteWriter w2;
  ASSERT_TRUE(l1->SnapshotDelta(1, w2).ok());
  ASSERT_TRUE(l2->ApplyDelta(w2.buffer()).ok());
  EXPECT_EQ(l2->GetU64(0), 99u);
  EXPECT_EQ(l2->data_gn(), 2u);

  // A full-chunk apply wipes the change information: no more delta serving.
  ASSERT_TRUE(set->SnapshotData(full).ok());
  ASSERT_TRUE(l1->ApplyData(full).ok());
  ByteWriter w3;
  EXPECT_EQ(l1->SnapshotDelta(1, w3).code(), ErrorCode::kNotFound);
}

TEST_F(MetricSetTest, ApplyDeltaRejectsBaseMismatchAndWrongMgn) {
  auto set = MakeSet();
  set->BeginTransaction();
  set->SetU64(0, 1);
  set->EndTransaction(kNsPerSec);
  Status st;
  auto mirror = MetricSet::CreateMirror(mem_, set->metadata_bytes(), &st);
  ASSERT_TRUE(st.ok());
  // Mirror never received the base chunk: its DGN (0) cannot anchor a delta
  // whose base is 1.
  set->BeginTransaction();
  set->SetU64(0, 2);
  set->EndTransaction(2 * kNsPerSec);
  ByteWriter w;
  ASSERT_TRUE(set->SnapshotDelta(1, w).ok());
  EXPECT_EQ(mirror->ApplyDelta(w.buffer()).code(), ErrorCode::kInconsistent);
  EXPECT_EQ(mirror->data_gn(), 0u) << "rejected delta must not mutate";

  // Same payload against a set with a different schema: MGN mismatch.
  Schema other("otherschema");
  other.AddMetric("z", MetricType::kU64);
  auto stranger = MetricSet::Create(mem_, other, "n/o", "n", 0, &st);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(stranger->ApplyDelta(w.buffer()).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(MetricSetTest, SnapshotContentionCounters) {
  auto set = MakeSet();
  EXPECT_EQ(set->snapshot_retries(), 0u);
  EXPECT_EQ(set->snapshot_starved(), 0u);
  set->BeginTransaction();
  set->SetU64(0, 1);
  // Writer parked mid-transaction: every snapshot attempt sees
  // consistent == 0, exhausts its retries, and records starvation.
  std::vector<std::byte> buf(set->data_size());
  EXPECT_EQ(set->SnapshotData(buf).code(), ErrorCode::kInconsistent);
  EXPECT_GT(set->snapshot_retries(), 0u);
  EXPECT_EQ(set->snapshot_starved(), 1u);
  set->EndTransaction(kNsPerSec);
  const std::uint64_t retries_after = set->snapshot_retries();
  EXPECT_TRUE(set->SnapshotData(buf).ok());
  EXPECT_EQ(set->snapshot_retries(), retries_after)
      << "clean snapshot must not count retries";
  EXPECT_EQ(set->snapshot_starved(), 1u);
}

TEST(MetricSetOomTest, PoolExhaustionSurfaced) {
  MemManager tiny(1024);
  Schema schema("big");
  for (int i = 0; i < 200; ++i) {
    schema.AddMetric("metric_" + std::to_string(i), MetricType::kU64);
  }
  Status st;
  auto set = MetricSet::Create(tiny, schema, "x/y", "x", 0, &st);
  EXPECT_EQ(set, nullptr);
  EXPECT_EQ(st.code(), ErrorCode::kOutOfMemory);
  EXPECT_EQ(tiny.bytes_in_use(), 0u) << "partial allocation leaked";
}

TEST(MetricSetCreateTest, NameTooLongForMetadataRejected) {
  // The metadata stores each name behind a u16 length. A longer name (a
  // sampler's instance= or producer= config value) must fail Create rather
  // than yield a set whose metadata no mirror can parse.
  MemManager mem(1 << 20);
  Schema schema("s");
  schema.AddMetric("v", MetricType::kU64);
  const std::string huge(70000, 'n');
  for (int field = 0; field < 2; ++field) {
    Status st;
    auto set = MetricSet::Create(mem, schema, field == 0 ? huge : "x/s",
                                 field == 1 ? huge : "x", 0, &st);
    EXPECT_EQ(set, nullptr) << "field " << field;
    EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument) << "field " << field;
    EXPECT_EQ(mem.bytes_in_use(), 0u) << "allocated before refusing";
  }
  Schema long_schema(huge);
  long_schema.AddMetric("v", MetricType::kU64);
  Status st;
  EXPECT_EQ(MetricSet::Create(mem, long_schema, "x/s", "x", 0, &st), nullptr);
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);

  // A metric name longer than its fixed-width record field is refused too:
  // the metadata would carry it cut short.
  Schema long_metric("s");
  long_metric.AddMetric(std::string(79, 'm'), MetricType::kU64);
  EXPECT_EQ(MetricSet::Create(mem, long_metric, "x/s", "x", 0, &st), nullptr);
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(mem.bytes_in_use(), 0u);
  Schema max_metric("s");
  max_metric.AddMetric(std::string(78, 'm'), MetricType::kU64);
  auto fits = MetricSet::Create(mem, max_metric, "x/s", "x", 0, &st);
  ASSERT_NE(fits, nullptr) << st.ToString();
  auto fits_mirror = MetricSet::CreateMirror(mem, fits->metadata_bytes(), &st);
  ASSERT_NE(fits_mirror, nullptr) << st.ToString();
  EXPECT_EQ(fits_mirror->schema().metric(0).name, std::string(78, 'm'));

  // The longest name that fits still round-trips through a mirror.
  const std::string max_name(0xffff, 'm');
  auto set = MetricSet::Create(mem, schema, max_name, "x", 0, &st);
  ASSERT_NE(set, nullptr) << st.ToString();
  auto mirror = MetricSet::CreateMirror(mem, set->metadata_bytes(), &st);
  ASSERT_NE(mirror, nullptr) << st.ToString();
  EXPECT_EQ(mirror->instance_name(), max_name);
}

// Property test: round-trip through serialize/mirror for many random
// schema shapes preserves every metric name, type, offset, and value.
class MetricSetRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(MetricSetRoundTripTest, RandomSchemaRoundTrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1234567 + 1);
  MemManager mem(1 << 22);
  const std::size_t metric_count = 1 + rng.NextBelow(300);
  Schema schema("schema_" + std::to_string(GetParam()));
  const MetricType kinds[] = {MetricType::kU8,  MetricType::kU16,
                              MetricType::kU32, MetricType::kU64,
                              MetricType::kS64, MetricType::kF32,
                              MetricType::kD64};
  for (std::size_t i = 0; i < metric_count; ++i) {
    schema.AddMetric("m" + std::to_string(i),
                     kinds[rng.NextBelow(std::size(kinds))],
                     rng.NextBelow(1000));
  }
  Status st;
  auto set = MetricSet::Create(mem, schema, "prod/inst", "prod",
                               rng.NextBelow(100000), &st);
  ASSERT_TRUE(st.ok());

  set->BeginTransaction();
  std::vector<std::uint64_t> expected(metric_count);
  for (std::size_t i = 0; i < metric_count; ++i) {
    expected[i] = rng.NextBelow(200);  // fits every type
    set->SetValue(i, MetricValue::U64(expected[i]));
  }
  set->EndTransaction(42 * kNsPerSec);

  auto mirror = MetricSet::CreateMirror(mem, set->metadata_bytes(), &st);
  ASSERT_TRUE(st.ok());
  std::vector<std::byte> buf(set->data_size());
  ASSERT_TRUE(set->SnapshotData(buf).ok());
  ASSERT_TRUE(mirror->ApplyData(buf).ok());

  for (std::size_t i = 0; i < metric_count; ++i) {
    EXPECT_EQ(mirror->schema().metric(i).name, schema.metric(i).name);
    EXPECT_EQ(mirror->schema().metric(i).type, schema.metric(i).type);
    EXPECT_EQ(mirror->schema().metric(i).component_id,
              schema.metric(i).component_id);
    const double got = mirror->GetValue(i).AsDouble();
    EXPECT_DOUBLE_EQ(got, static_cast<double>(expected[i])) << "metric " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MetricSetRoundTripTest,
                         ::testing::Range(0, 20));

// ---------------------------------------------------------------------------
// SetRegistry
// ---------------------------------------------------------------------------

TEST(SetRegistryTest, AddFindRemoveList) {
  MemManager mem(1 << 20);
  SetRegistry registry;
  Schema schema("s");
  schema.AddMetric("m", MetricType::kU64);
  Status st;
  auto a = MetricSet::Create(mem, schema, "b/inst", "b", 0, &st);
  auto b = MetricSet::Create(mem, schema, "a/inst", "a", 0, &st);
  ASSERT_TRUE(registry.Add(a).ok());
  ASSERT_TRUE(registry.Add(b).ok());
  EXPECT_EQ(registry.Add(a).code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.Find("a/inst"), b);
  EXPECT_EQ(registry.Find("missing"), nullptr);
  auto names = registry.List();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a/inst");  // sorted
  EXPECT_GT(registry.TotalBytes(), 0u);
  EXPECT_TRUE(registry.Remove("a/inst").ok());
  EXPECT_EQ(registry.Remove("a/inst").code(), ErrorCode::kNotFound);
  EXPECT_EQ(registry.size(), 1u);
}

}  // namespace
}  // namespace ldmsxx

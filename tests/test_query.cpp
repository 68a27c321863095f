// Columnar query-path suite (ISSUE 9 + the ISSUE 10 compressed-query
// stack). Five layers:
//
//   1. decomp  — spec-grammar edge cases (empty select lists, duplicate
//                output columns, overflowing scale factors, unknown ops),
//                unknown-metric compile failures, and delta/rate/scale
//                value semantics including counter-reset clamping;
//   2. codecs  — per-column codec round-trips over adversarial value
//                shapes (random, constant, monotonic, NaN/Inf bit
//                patterns, counter resets), rejection of truncated and
//                structurally invalid encodings, and the compression wins
//                the seal path counts on;
//   3. segment — seal/read round-trips, footer-index contents, CRC
//                rejection of corrupted footers and column bodies and of
//                foreign (including retired format-v1) trailers, and v2
//                codec bookkeeping;
//   4. store   — indexed Query vs QueryFullScan equivalence, footer-based
//                segment pruning, rollup bucket math, restart-resume
//                (segments re-attached from disk, corrupt files skipped),
//                every prefix and bit flip of a segment or rollup file
//                refused or answered exactly, compressed/raw query-path
//                agreement, and queries that start no threads;
//   5. daemon  — strgp_add decomp= validation, the `query` control verb,
//                registry round-trip of decomposition provenance, restore-
//                from-registry serving queries that span the restart,
//                announce retry/re-seed on seed-aggregator failover, the
//                store_mem max_samples= ring with evictions surfaced
//                through strgp_status, the kQueryReq/kQueryResp wire
//                codec and its fixed bytes, tree-sharded fan-out with leaf
//                death, and the verb's reply text and row limit in every
//                mode.
//
// Everything runs on a SimClock with inline pools, so every scenario is
// deterministic. See EXPERIMENTS.md ("Columnar query drill").
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/wire.hpp"
#include "store/tsdb/codec.hpp"
#include "transport/message.hpp"

#include "core/mem_manager.hpp"
#include "core/metric_set.hpp"
#include "core/schema.hpp"
#include "daemon/config.hpp"
#include "daemon/decomp/decomp.hpp"
#include "daemon/ldmsd.hpp"
#include "daemon/plugin_registry.hpp"
#include "daemon/registry.hpp"
#include "harness/scratch_dir.hpp"
#include "store/memory_store.hpp"
#include "store/tsdb/segment.hpp"
#include "store/tsdb/tsdb_store.hpp"
#include "util/clock.hpp"
#include "util/status.hpp"

namespace ldmsxx {
namespace {

namespace fs = std::filesystem;

/// Shared schema + set helpers: "memtest" {active u64, free u64, load d64},
/// matching the sampler schemas the store suite uses.
class QueryTest : public ::testing::Test {
 protected:
  QueryTest() : schema_("memtest") {
    schema_.AddMetric("active", MetricType::kU64);
    schema_.AddMetric("free", MetricType::kU64);
    schema_.AddMetric("load", MetricType::kD64);
  }

  MetricSetPtr MakeSet(const std::string& node, std::uint64_t component_id) {
    Status st;
    MetricSetPtr set = MetricSet::Create(mem_, schema_, node + "/memtest",
                                         node, component_id, &st);
    EXPECT_NE(set, nullptr) << st.ToString();
    return set;
  }

  static void WriteSample(const MetricSetPtr& set, std::uint64_t active,
                          std::uint64_t free, double load, TimeNs ts) {
    set->BeginTransaction();
    set->SetU64(0, active);
    set->SetU64(1, free);
    set->SetD64(2, load);
    set->EndTransaction(ts);
  }

  Schema schema_;
  MemManager mem_{1 << 20};
};

// --- layer 1: decomposition -------------------------------------------------

TEST(DecompSpecTest, ParseAcceptsFullGrammar) {
  DecompSpec spec;
  ASSERT_TRUE(
      ParseDecompSpec("hot@active:act:rate,free::scale3,load;raw@free", &spec)
          .ok());
  ASSERT_EQ(spec.groups.size(), 2u);
  EXPECT_EQ(spec.groups[0].table, "hot");
  ASSERT_EQ(spec.groups[0].cols.size(), 3u);
  EXPECT_EQ(spec.groups[0].cols[0].metric, "active");
  EXPECT_EQ(spec.groups[0].cols[0].alias, "act");
  EXPECT_EQ(spec.groups[0].cols[0].op, ColumnOp::kRate);
  EXPECT_EQ(spec.groups[0].cols[1].alias, "");  // empty alias = metric name
  EXPECT_EQ(spec.groups[0].cols[1].op, ColumnOp::kScale);
  EXPECT_EQ(spec.groups[0].cols[1].scale, 3u);
  EXPECT_EQ(spec.groups[0].cols[2].op, ColumnOp::kCopy);
  EXPECT_EQ(spec.groups[1].table, "raw");  // second group, own table
  EXPECT_TRUE(spec.has_derived);
  EXPECT_EQ(spec.text, "hot@active:act:rate,free::scale3,load;raw@free");

  DecompSpec plain;
  ASSERT_TRUE(ParseDecompSpec("active,load", &plain).ok());
  EXPECT_EQ(plain.groups[0].table, "");  // empty = schema name
  EXPECT_FALSE(plain.has_derived);
}

TEST(DecompSpecTest, ParseRejectsMalformedSpecs) {
  const struct {
    const char* text;
    const char* message;
  } kCases[] = {
      {"", "empty select list"},
      {"active;;free", "empty row group"},
      {"hot@", "empty column name"},
      {"@active", "empty table name"},
      {"hot@active,,free", "empty column name"},
      {"hot@:alias", "empty column name"},
      {"active:a:rate:extra", "too many ':' fields"},
      {"active::scale", "bad or overflowing scale factor"},
      {"active::scale99999999999999999999", "bad or overflowing scale factor"},
      {"active::scale12x", "bad or overflowing scale factor"},
      {"active::median", "unknown op"},
      {"active,active", "duplicate output column"},
      {"active:x,free:x", "duplicate output column"},
  };
  for (const auto& c : kCases) {
    DecompSpec spec;
    Status st = ParseDecompSpec(c.text, &spec);
    EXPECT_FALSE(st.ok()) << c.text;
    EXPECT_NE(st.message().find(c.message), std::string::npos)
        << c.text << " -> " << st.ToString();
  }
  // Duplicates are per-group: the same output name in two groups is fine.
  DecompSpec ok;
  EXPECT_TRUE(ParseDecompSpec("a@active;b@active", &ok).ok());
}

TEST_F(QueryTest, CompileRejectsUnknownMetric) {
  DecompSpec spec;
  ASSERT_TRUE(ParseDecompSpec("hot@active,cached", &spec).ok());
  RowPlan plan;
  Status st = CompileRowPlan(spec, schema_, /*meta_gn=*/1, &plan);
  EXPECT_EQ(st.code(), ErrorCode::kNotFound);
  EXPECT_NE(st.message().find("unknown metric 'cached'"), std::string::npos)
      << st.ToString();

  // The Decomposer surfaces the same failure on every sample it meets.
  Decomposer decomposer(spec);
  MetricSetPtr set = MakeSet("nid1", 1);
  WriteSample(set, 1, 2, 0.5, kNsPerSec);
  RowBatch batch;
  EXPECT_EQ(decomposer.Decompose(*set, &batch).code(), ErrorCode::kNotFound);
  EXPECT_EQ(decomposer.Decompose(*set, &batch).code(), ErrorCode::kNotFound);
}

TEST_F(QueryTest, DecomposeDeltaRateScaleSemantics) {
  DecompSpec spec;
  ASSERT_TRUE(ParseDecompSpec(
                  "d@active:a_d:delta,free:f_s:scale3,load;r@active:a_r:rate",
                  &spec)
                  .ok());
  Decomposer decomposer(spec);
  MetricSetPtr set = MakeSet("nid1", 1);

  // One sample emits one row per group; slots decode via the column type.
  auto decompose = [&](RowBatch* batch) {
    batch->Clear();
    ASSERT_TRUE(decomposer.Decompose(*set, batch).ok());
    ASSERT_EQ(batch->rows.size(), 2u);
  };
  auto value = [](const RowBatch& batch, std::size_t row, std::size_t col) {
    const RowBatch::Row& r = batch.rows[row];
    const RowColumn& c = r.plan->groups[r.group].columns[col];
    return SlotAsDouble(batch.slots[r.slot_offset + col], c.type);
  };

  RowBatch batch;
  WriteSample(set, 100, 2, 0.5, 1 * kNsPerSec);
  decompose(&batch);
  EXPECT_EQ(batch.rows[0].ts, 1 * kNsPerSec);
  EXPECT_EQ(batch.rows[0].component_id, 1u);
  EXPECT_EQ(*batch.rows[0].producer, "nid1");
  EXPECT_EQ(value(batch, 0, 0), 0.0);  // first sample: no delta history
  EXPECT_EQ(value(batch, 0, 1), 6.0);  // scale3 applies immediately
  EXPECT_EQ(value(batch, 0, 2), 0.5);
  EXPECT_EQ(value(batch, 1, 0), 0.0);  // first sample: no rate history

  WriteSample(set, 150, 4, 0.25, 2 * kNsPerSec);
  decompose(&batch);
  EXPECT_EQ(value(batch, 0, 0), 50.0);   // delta
  EXPECT_EQ(value(batch, 0, 1), 12.0);   // scale
  EXPECT_EQ(value(batch, 0, 2), 0.25);   // copy
  EXPECT_EQ(value(batch, 1, 0), 50.0);   // 50 / 1s

  // Counter reset (node reboot): delta and rate clamp to 0, not a huge wrap.
  WriteSample(set, 10, 6, 0.1, 3 * kNsPerSec);
  decompose(&batch);
  EXPECT_EQ(value(batch, 0, 0), 0.0);
  EXPECT_EQ(value(batch, 1, 0), 0.0);
}

// --- layer 2: per-column codecs ---------------------------------------------

constexpr ColumnCodec kAllCodecs[] = {
    ColumnCodec::kRaw, ColumnCodec::kDeltaOfDelta, ColumnCodec::kRle,
    ColumnCodec::kXor, ColumnCodec::kDelta};

/// Deterministic 64-bit LCG (so "random" shapes reproduce bit-for-bit).
std::vector<std::uint64_t> LcgValues(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint64_t> out;
  out.reserve(n);
  std::uint64_t x = seed;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    out.push_back(x);
  }
  return out;
}

std::vector<std::vector<std::uint64_t>> CodecShapes() {
  std::vector<std::vector<std::uint64_t>> shapes;
  shapes.push_back({});                    // empty column
  shapes.push_back({42});                  // single value
  shapes.push_back({0});                   // single zero (XOR fast path)
  shapes.emplace_back(64, 7u);             // constant run
  shapes.push_back(LcgValues(0x1d35, 257));  // incompressible noise

  std::vector<std::uint64_t> ts;  // near-constant cadence with jitter
  const std::vector<std::uint64_t> jitter = LcgValues(99, 200);
  for (std::size_t i = 0; i < 200; ++i) {
    ts.push_back(1000000000ull + i * 100000000ull + jitter[i] % 997);
  }
  shapes.push_back(std::move(ts));

  std::vector<std::uint64_t> reset;  // counter that wraps to near zero
  for (std::size_t i = 0; i < 50; ++i) reset.push_back(1000000ull + i * 4096);
  for (std::size_t i = 0; i < 50; ++i) reset.push_back(3 + i * 17);
  shapes.push_back(std::move(reset));

  std::vector<std::uint64_t> doubles;  // hostile double bit patterns
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max(),
                             1.0 / 3.0};
  for (std::size_t i = 0; i < 64; ++i) {
    doubles.push_back(SlotFromDouble(specials[i % 8] + 0.5 * (i / 8)));
  }
  shapes.push_back(std::move(doubles));

  shapes.push_back({~0ull, 0, ~0ull, 1, ~0ull >> 1});  // extreme deltas
  return shapes;
}

TEST(CodecTest, EveryCodecRoundTripsEveryShape) {
  for (const auto& vals : CodecShapes()) {
    for (const ColumnCodec codec : kAllCodecs) {
      std::vector<std::uint8_t> enc;
      EncodeColumn(codec, vals.data(), vals.size(), &enc);
      std::vector<std::uint64_t> dec(vals.size());
      ASSERT_TRUE(DecodeColumn(codec, enc.data(), enc.size(), vals.size(),
                               dec.data()))
          << "codec " << static_cast<int>(codec) << " n=" << vals.size();
      EXPECT_EQ(dec, vals) << "codec " << static_cast<int>(codec);
    }
  }
}

TEST(CodecTest, RejectsTruncatedEncodings) {
  // Decoders must consume the whole span and produce exactly n values, so
  // every proper prefix (and any trailing garbage) is a hard failure — a
  // short write can never silently yield fewer rows.
  const std::vector<std::uint64_t> vals = LcgValues(7, 64);
  std::vector<std::uint64_t> dec(vals.size());
  for (const ColumnCodec codec : kAllCodecs) {
    std::vector<std::uint8_t> enc;
    EncodeColumn(codec, vals.data(), vals.size(), &enc);
    for (std::size_t len = 0; len < enc.size(); ++len) {
      EXPECT_FALSE(DecodeColumn(codec, enc.data(), len, vals.size(),
                                dec.data()))
          << "codec " << static_cast<int>(codec) << " len=" << len;
    }
    enc.push_back(0x00);  // valid varint byte, but past the expected end
    EXPECT_FALSE(
        DecodeColumn(codec, enc.data(), enc.size(), vals.size(), dec.data()))
        << "codec " << static_cast<int>(codec) << " trailing byte";
  }
}

TEST(CodecTest, RejectsStructurallyInvalidInput) {
  std::uint64_t dec[8];

  // Overlong varint: ten 0xff continuation bytes overflow 64 bits.
  const std::uint8_t overlong[10] = {0xff, 0xff, 0xff, 0xff, 0xff,
                                     0xff, 0xff, 0xff, 0xff, 0xff};
  EXPECT_FALSE(DecodeColumn(ColumnCodec::kDelta, overlong, 10, 1, dec));
  EXPECT_FALSE(DecodeColumn(ColumnCodec::kDeltaOfDelta, overlong, 10, 1, dec));

  // RLE runs must be positive and must not overshoot the column.
  const std::uint8_t rle_overshoot[2] = {5, 10};  // value 5, run 10 > n=4
  EXPECT_FALSE(DecodeColumn(ColumnCodec::kRle, rle_overshoot, 2, 4, dec));
  const std::uint8_t rle_zero[2] = {5, 0};  // zero run never fills n
  EXPECT_FALSE(DecodeColumn(ColumnCodec::kRle, rle_zero, 2, 4, dec));

  // XOR headers: a nonzero header must carry 1..8 significant bytes that
  // fit in the word together with the leading-zero count.
  const std::uint8_t xor_no_sig[1] = {0x10};  // lead=1, sig=0, value != 0
  EXPECT_FALSE(DecodeColumn(ColumnCodec::kXor, xor_no_sig, 1, 1, dec));
  const std::uint8_t xor_wide[6] = {0x55, 1, 2, 3, 4, 5};  // lead+sig = 10
  EXPECT_FALSE(DecodeColumn(ColumnCodec::kXor, xor_wide, 6, 1, dec));

  // kRaw is exactly n * 8 bytes, never more, never less.
  const std::uint8_t raw[16] = {};
  EXPECT_FALSE(DecodeColumn(ColumnCodec::kRaw, raw, 12, 2, dec));
  EXPECT_TRUE(DecodeColumn(ColumnCodec::kRaw, raw, 16, 2, dec));

  // Bit-flip fuzz: a flipped bit may decode to wrong values (the column
  // CRC exists to catch that) but must never crash or overrun; run under
  // the sanitizer presets this is the memory-safety net for the decoders.
  const std::vector<std::uint64_t> vals = LcgValues(11, 32);
  std::vector<std::uint64_t> out(vals.size());
  for (const ColumnCodec codec : kAllCodecs) {
    std::vector<std::uint8_t> enc;
    EncodeColumn(codec, vals.data(), vals.size(), &enc);
    for (std::size_t i = 0; i < enc.size(); ++i) {
      for (const std::uint8_t bit : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
        std::vector<std::uint8_t> bad = enc;
        bad[i] = static_cast<std::uint8_t>(bad[i] ^ bit);
        (void)DecodeColumn(codec, bad.data(), bad.size(), vals.size(),
                           out.data());
      }
    }
  }
}

TEST(CodecTest, TypicalColumnsCompressWell) {
  // The shapes the seal path routes to each codec — the compression the
  // ≥3x on-disk acceptance figure is built from.
  std::vector<std::uint64_t> ts;  // fixed 100ms cadence
  for (std::size_t i = 0; i < 4096; ++i) ts.push_back(i * 100000000ull);
  std::vector<std::uint8_t> enc;
  EncodeColumn(ColumnCodec::kDeltaOfDelta, ts.data(), ts.size(), &enc);
  EXPECT_LT(enc.size(), ts.size() * 8 / 4);

  std::vector<std::uint64_t> nodes;  // 4 long runs of node ids
  for (std::size_t i = 0; i < 4096; ++i) nodes.push_back(i / 1024);
  enc.clear();
  EncodeColumn(ColumnCodec::kRle, nodes.data(), nodes.size(), &enc);
  EXPECT_LT(enc.size(), nodes.size() * 8 / 16);

  std::vector<std::uint64_t> gauge(4096, SlotFromDouble(98.5));  // steady
  enc.clear();
  EncodeColumn(ColumnCodec::kXor, gauge.data(), gauge.size(), &enc);
  EXPECT_LT(enc.size(), gauge.size() * 8 / 4);

  std::vector<std::uint64_t> counter;  // smooth counter, small deltas
  for (std::size_t i = 0; i < 4096; ++i) counter.push_back(1000000 + i * 37);
  enc.clear();
  EncodeColumn(ColumnCodec::kDelta, counter.data(), counter.size(), &enc);
  EXPECT_LT(enc.size(), counter.size() * 8 / 2);
}

// --- layer 3: columnar segments ---------------------------------------------

TEST(SegmentTest, SealReadRoundTripAndFooterIndex) {
  const harness::ScratchDir scratch("seg");
  const std::string& dir = scratch.path();
  const std::string path = dir + "/t.0.seg";
  SegmentBuilder builder(
      "t", {{"a", MetricType::kU64}, {"b", MetricType::kD64}}, 8);
  const std::uint16_t prod = builder.InternProducer("nid0");
  for (std::uint64_t i = 0; i < 5; ++i) {
    const std::uint64_t slots[2] = {i * 10, SlotFromDouble(0.5 * i)};
    builder.Append((i + 1) * kNsPerSec, /*node=*/i % 2, prod, slots);
  }
  ASSERT_TRUE(WriteSegmentFile(path, builder).ok());

  SegmentFooter footer;
  ASSERT_TRUE(ReadSegmentFooter(path, &footer).ok());
  EXPECT_EQ(footer.table, "t");
  EXPECT_EQ(footer.row_count, 5u);
  EXPECT_EQ(footer.min_ts, 1 * kNsPerSec);
  EXPECT_EQ(footer.max_ts, 5 * kNsPerSec);
  EXPECT_FALSE(footer.node_overflow);
  EXPECT_EQ(footer.nodes, (std::vector<std::uint64_t>{0, 1}));  // sorted dict
  EXPECT_EQ(footer.producers, (std::vector<std::string>{"nid0"}));
  EXPECT_EQ(footer.FindColumn("b"), 1);
  EXPECT_EQ(footer.FindColumn("missing"), -1);

  std::vector<std::uint64_t> col;
  ASSERT_TRUE(
      ReadSegmentColumn(path, footer, SegmentFooter::DataCol(0), &col).ok());
  ASSERT_EQ(col.size(), 5u);
  EXPECT_EQ(col[3], 30u);
  ASSERT_TRUE(
      ReadSegmentColumn(path, footer, SegmentFooter::kTsCol, &col).ok());
  EXPECT_EQ(col[4], 5 * kNsPerSec);
}

TEST(SegmentTest, CorruptionIsRejectedByCrc) {
  const harness::ScratchDir scratch("segcrc");
  const std::string& dir = scratch.path();
  SegmentBuilder builder("t", {{"a", MetricType::kU64}}, 8);
  const std::uint16_t prod = builder.InternProducer("nid0");
  for (std::uint64_t i = 0; i < 4; ++i) {
    builder.Append((i + 1) * kNsPerSec, 0, prod, &i);
  }

  auto corrupt_at = [&](const std::string& path, std::uint64_t offset) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const std::uint64_t size = static_cast<std::uint64_t>(f.tellg());
    ASSERT_LT(offset, size);
    f.seekp(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.seekg(static_cast<std::streamoff>(offset));
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
  };

  // A flipped byte inside the footer fails the footer CRC outright.
  const std::string footer_path = dir + "/footer.seg";
  ASSERT_TRUE(WriteSegmentFile(footer_path, builder).ok());
  SegmentFooter footer;
  ASSERT_TRUE(ReadSegmentFooter(footer_path, &footer).ok());
  {
    const std::uint64_t size = fs::file_size(footer_path);
    corrupt_at(footer_path, size - 30);  // inside footer (trailer is 20B)
    SegmentFooter bad;
    EXPECT_FALSE(ReadSegmentFooter(footer_path, &bad).ok());
  }

  // A flipped byte in a column body passes the footer but fails the
  // column's own CRC on read.
  const std::string body_path = dir + "/body.seg";
  ASSERT_TRUE(WriteSegmentFile(body_path, builder).ok());
  ASSERT_TRUE(ReadSegmentFooter(body_path, &footer).ok());
  corrupt_at(body_path, footer.offsets[SegmentFooter::DataCol(0)] + 1);
  SegmentFooter reread;
  ASSERT_TRUE(ReadSegmentFooter(body_path, &reread).ok());
  std::vector<std::uint64_t> col;
  EXPECT_FALSE(
      ReadSegmentColumn(body_path, reread, SegmentFooter::DataCol(0), &col)
          .ok());

  // Truncation kills the trailer magic.
  const std::string trunc_path = dir + "/trunc.seg";
  ASSERT_TRUE(WriteSegmentFile(trunc_path, builder).ok());
  fs::resize_file(trunc_path, fs::file_size(trunc_path) / 2);
  SegmentFooter trunc;
  EXPECT_FALSE(ReadSegmentFooter(trunc_path, &trunc).ok());

  // A file ending in the retired format-v1 trailer magic ("LSGF") is a
  // foreign file now, however intact the rest of it is.
  const std::string v1_path = dir + "/v1.seg";
  ASSERT_TRUE(WriteSegmentFile(v1_path, builder).ok());
  {
    std::fstream f(v1_path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(-4, std::ios::end);
    f.write("LSGF", 4);
  }
  SegmentFooter v1;
  const Status v1_st = ReadSegmentFooter(v1_path, &v1);
  EXPECT_FALSE(v1_st.ok());
  EXPECT_NE(v1_st.message().find("bad trailer magic"), std::string::npos)
      << v1_st.ToString();
}

TEST(SegmentTest, V2FooterRecordsCodecsAndCompressionShrinksFiles) {
  const harness::ScratchDir scratch("segv2");
  const std::string& dir = scratch.path();
  SegmentBuilder builder(
      "t", {{"cnt", MetricType::kU64}, {"load", MetricType::kD64}}, 256);
  const std::uint16_t prod = builder.InternProducer("nid0");
  for (std::uint64_t i = 0; i < 256; ++i) {
    const std::uint64_t slots[2] = {1000 + i * 7, SlotFromDouble(42.0)};
    builder.Append(i * kNsPerSec, /*node=*/i / 128, prod, slots);
  }
  const std::string comp_path = dir + "/comp.seg";
  const std::string raw_path = dir + "/raw.seg";
  ASSERT_TRUE(WriteSegmentFile(comp_path, builder, true, /*compress=*/true)
                  .ok());
  ASSERT_TRUE(WriteSegmentFile(raw_path, builder, true, /*compress=*/false)
                  .ok());
  EXPECT_LT(fs::file_size(comp_path) * 3, fs::file_size(raw_path));

  // The footer names the codec each column actually sealed under, and the
  // encoded lengths account for the shrink.
  SegmentFooter comp, raw;
  ASSERT_TRUE(ReadSegmentFooter(comp_path, &comp).ok());
  ASSERT_TRUE(ReadSegmentFooter(raw_path, &raw).ok());
  EXPECT_EQ(comp.codecs[SegmentFooter::kTsCol],
            static_cast<std::uint8_t>(ColumnCodec::kDeltaOfDelta));
  EXPECT_EQ(comp.codecs[SegmentFooter::kNodeCol],
            static_cast<std::uint8_t>(ColumnCodec::kRle));
  EXPECT_EQ(comp.codecs[SegmentFooter::DataCol(0)],
            static_cast<std::uint8_t>(ColumnCodec::kDelta));
  EXPECT_EQ(comp.codecs[SegmentFooter::DataCol(1)],
            static_cast<std::uint8_t>(ColumnCodec::kXor));
  for (std::size_t c = 0; c < raw.codecs.size(); ++c) {
    EXPECT_EQ(raw.codecs[c], static_cast<std::uint8_t>(ColumnCodec::kRaw));
    EXPECT_EQ(raw.enc_lens[c], raw.row_count * 8);
    EXPECT_LE(comp.enc_lens[c], raw.enc_lens[c]);
  }

  // Both files decode to identical columns.
  for (std::size_t c = 0; c < 3 + comp.columns.size(); ++c) {
    std::vector<std::uint64_t> a, b;
    ASSERT_TRUE(ReadSegmentColumn(comp_path, comp, c, &a).ok()) << c;
    ASSERT_TRUE(ReadSegmentColumn(raw_path, raw, c, &b).ok()) << c;
    EXPECT_EQ(a, b) << "column " << c;
  }
}

// --- layer 4: the tsdb store ------------------------------------------------

class TsdbStoreTest : public QueryTest {
 protected:
  TsdbOptions Options(const std::string& dir) {
    TsdbOptions opts;
    opts.root_path = dir + "/tsdb";
    opts.segment_rows = 8;
    opts.rollup_granularity = 1 * kNsPerSec;
    return opts;
  }

  /// Ingest @p samples ticks for nodes 1 and 2 through the plain StoreSet
  /// path (identity plan), active=i free=2i load=0.5i, ts = i * 100ms.
  void Ingest(TsdbStore& store, std::uint64_t first, std::uint64_t count) {
    MetricSetPtr n1 = MakeSet("nid1", 1);
    MetricSetPtr n2 = MakeSet("nid2", 2);
    for (std::uint64_t i = first; i < first + count; ++i) {
      const TimeNs ts = i * 100 * kNsPerMs;
      WriteSample(n1, i, 2 * i, 0.5 * static_cast<double>(i), ts);
      ASSERT_TRUE(store.StoreSet(*n1).ok());
      WriteSample(n2, i + 1000, 2 * i, 0.5 * static_cast<double>(i), ts);
      ASSERT_TRUE(store.StoreSet(*n2).ok());
    }
  }
};

TEST_F(TsdbStoreTest, IndexedQueryMatchesFullScanAndPrunes) {
  const harness::ScratchDir scratch("tsdb");
  const std::string& dir = scratch.path();
  TsdbStore store(Options(dir));
  Ingest(store, 0, 40);  // 80 rows, sealed into 10 eight-row segments
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_EQ(store.segments_sealed(), 10u);

  TsdbQuery q;
  q.table = "memtest";
  q.t0 = 1 * kNsPerSec;
  q.t1 = 2 * kNsPerSec;
  q.nodes = {1};
  q.metrics = {"active"};
  TsdbQueryResult indexed, scanned;
  ASSERT_TRUE(store.Query(q, &indexed).ok());
  ASSERT_TRUE(store.QueryFullScan(q, &scanned).ok());

  // Identical answers: samples i in [10, 20] for node 1 only.
  ASSERT_EQ(indexed.columns, (std::vector<std::string>{"active"}));
  ASSERT_EQ(indexed.rows.size(), 11u);
  ASSERT_EQ(scanned.rows.size(), indexed.rows.size());
  for (std::size_t i = 0; i < indexed.rows.size(); ++i) {
    EXPECT_EQ(indexed.rows[i].ts, scanned.rows[i].ts);
    EXPECT_EQ(indexed.rows[i].node, 1u);
    ASSERT_EQ(indexed.rows[i].values.size(), 1u);
    EXPECT_EQ(indexed.rows[i].values[0], scanned.rows[i].values[0]);
    EXPECT_EQ(indexed.rows[i].values[0], static_cast<double>(10 + i));
  }

  // The footer index skipped segments outside the window without touching
  // their bodies, and read only 1 of 3 data columns from the rest.
  EXPECT_EQ(indexed.segments_considered, 10u);
  EXPECT_GT(indexed.segments_pruned, 0u);
  EXPECT_EQ(indexed.segments_pruned + indexed.segments_read,
            indexed.segments_considered);
  EXPECT_EQ(scanned.segments_read, 10u);
  EXPECT_LT(indexed.bytes_read, scanned.bytes_read);

  // A node the dictionary has never seen prunes every segment.
  q.nodes = {99};
  TsdbQueryResult none;
  ASSERT_TRUE(store.Query(q, &none).ok());
  EXPECT_TRUE(none.rows.empty());
  EXPECT_EQ(none.segments_read, 0u);
  EXPECT_EQ(none.segments_pruned, none.segments_considered);

  // Unknown tables and columns fail loudly instead of returning empty.
  TsdbQuery bad = q;
  bad.table = "nope";
  EXPECT_EQ(store.Query(bad, &none).code(), ErrorCode::kNotFound);
  bad = q;
  bad.metrics = {"cached"};
  EXPECT_FALSE(store.Query(bad, &none).ok());
}

TEST_F(TsdbStoreTest, RollupBucketsFoldMinMaxAvgCount) {
  const harness::ScratchDir scratch("rollup");
  const std::string& dir = scratch.path();
  TsdbStore store(Options(dir));
  Ingest(store, 0, 40);
  ASSERT_TRUE(store.Flush().ok());

  TsdbQuery q;
  q.table = "memtest";
  q.nodes = {1};
  q.metrics = {"active"};
  std::vector<TsdbRollupRow> rollups;
  ASSERT_TRUE(store.QueryRollup(q, &rollups).ok());
  ASSERT_EQ(rollups.size(), 4u);  // 4 seconds of data at 1s granularity
  for (const auto& r : rollups) {
    const double base = static_cast<double>(r.bucket / kNsPerSec) * 10.0;
    EXPECT_EQ(r.node, 1u);
    EXPECT_EQ(r.metric, "active");
    EXPECT_EQ(r.count, 10u);  // 100ms cadence
    EXPECT_EQ(r.min, base);
    EXPECT_EQ(r.max, base + 9.0);
    EXPECT_EQ(r.avg, base + 4.5);
  }

  // Window query returns only overlapping buckets.
  q.t0 = 2 * kNsPerSec;
  ASSERT_TRUE(store.QueryRollup(q, &rollups).ok());
  EXPECT_EQ(rollups.size(), 2u);
}

TEST_F(TsdbStoreTest, RestartAttachesSegmentsAndSkipsCorruptFiles) {
  const harness::ScratchDir scratch("attach");
  const std::string& dir = scratch.path();
  const TsdbOptions opts = Options(dir);
  {
    TsdbStore store(opts);
    Ingest(store, 0, 20);
    ASSERT_TRUE(store.Flush().ok());
    EXPECT_EQ(store.segments_sealed(), 5u);  // 40 rows / 8 per segment
  }
  {
    // A second store over the same directory resumes where the first left
    // off: sealed segments and the persisted rollups are re-attached, new
    // ingest lands in new files, and queries span both eras.
    TsdbStore store(opts);
    EXPECT_EQ(store.segments_attached(), 5u);
    EXPECT_EQ(store.attach_rejects(), 0u);
    EXPECT_EQ(store.Tables(), (std::vector<std::string>{"memtest"}));
    Ingest(store, 20, 20);
    ASSERT_TRUE(store.Flush().ok());

    TsdbQuery q;
    q.table = "memtest";
    q.nodes = {1};
    q.metrics = {"active"};
    TsdbQueryResult result;
    ASSERT_TRUE(store.Query(q, &result).ok());
    ASSERT_EQ(result.rows.size(), 40u);
    EXPECT_EQ(result.rows.front().values[0], 0.0);
    EXPECT_EQ(result.rows.back().values[0], 39.0);

    // Rollups loaded from disk merged with the new era's folds: buckets 0-1
    // came back from the .rollup file, buckets 2-3 folded fresh.
    std::vector<TsdbRollupRow> rollups;
    ASSERT_TRUE(store.QueryRollup(q, &rollups).ok());
    ASSERT_EQ(rollups.size(), 4u);
    for (const auto& r : rollups) EXPECT_EQ(r.count, 10u);
  }
  {
    // Truncate one sealed segment: the next attach skips it (counted in
    // attach_rejects) and keeps serving the intact files.
    std::string victim;
    for (const auto& entry : fs::directory_iterator(opts.root_path)) {
      if (entry.path().extension() == ".seg") victim = entry.path().string();
    }
    ASSERT_FALSE(victim.empty());
    fs::resize_file(victim, fs::file_size(victim) / 2);
    TsdbStore store(opts);
    EXPECT_EQ(store.segments_attached(), 9u);
    EXPECT_EQ(store.attach_rejects(), 1u);
    TsdbQuery q;
    q.table = "memtest";
    TsdbQueryResult result;
    ASSERT_TRUE(store.Query(q, &result).ok());
    EXPECT_EQ(result.rows.size(), 72u);  // 80 minus the truncated segment
  }
}

TEST_F(TsdbStoreTest, CompressedAndRawQueriesAgree) {
  // Same ingest into a compressed store and an uncompressed store:
  // identical answers, smaller files and reads for the compressed path.
  // This is the determinism half of the T-query/compress drill.
  const harness::ScratchDir scratch("ablate");
  const std::string& dir = scratch.path();
  TsdbOptions comp_opts = Options(dir + "/comp");
  TsdbOptions raw_opts = Options(dir + "/raw");
  raw_opts.compress = false;
  {
    TsdbStore comp(comp_opts), raw(raw_opts);
    Ingest(comp, 0, 40);
    Ingest(raw, 0, 40);
    ASSERT_TRUE(comp.Flush().ok());
    ASSERT_TRUE(raw.Flush().ok());
  }
  auto dir_bytes = [](const std::string& root) {
    std::uintmax_t total = 0;
    for (const auto& e : fs::recursive_directory_iterator(root)) {
      if (e.is_regular_file()) total += e.file_size();
    }
    return total;
  };
  // Tiny 8-row segments are footer-dominated, so only the direction is
  // asserted here; the ≥3x on-disk figure lives in bench_query at real
  // segment sizes.
  EXPECT_LT(dir_bytes(comp_opts.root_path), dir_bytes(raw_opts.root_path));

  TsdbQuery q;
  q.table = "memtest";
  q.metrics = {"active", "free", "load"};
  TsdbStore comp(comp_opts), raw(raw_opts);
  TsdbQueryResult a, b;
  ASSERT_TRUE(comp.Query(q, &a).ok());
  ASSERT_TRUE(raw.Query(q, &b).ok());
  ASSERT_EQ(a.rows.size(), 80u);
  ASSERT_EQ(b.rows.size(), 80u);
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].ts, b.rows[i].ts);
    EXPECT_EQ(a.rows[i].node, b.rows[i].node);
    EXPECT_EQ(a.rows[i].values, b.rows[i].values);
  }
  // Both stores decode the same logical bytes; the compressed one fetched
  // far fewer from disk.
  EXPECT_EQ(a.bytes_decoded, b.bytes_decoded);
  EXPECT_LT(a.bytes_read * 2, b.bytes_read);
}

TEST_F(TsdbStoreTest, QueriesStartNoThreads) {
  // Scans decode on the calling thread whatever scan_threads says; the
  // store's one thread is the syncer a seal starts.
  auto thread_count = [] {
    return std::distance(fs::directory_iterator("/proc/self/task"),
                         fs::directory_iterator());
  };
  const harness::ScratchDir scratch("nothreads");
  TsdbOptions opts = Options(scratch.path());
  {
    TsdbStore store(opts);
    Ingest(store, 0, 40);
    ASSERT_TRUE(store.Flush().ok());
  }
  const auto before = thread_count();
  opts.scan_threads = 4;
  TsdbStore store(opts);
  Ingest(store, 40, 2);  // active rows only: no seal, so no syncer
  TsdbQuery q;
  q.table = "memtest";
  TsdbQueryResult r;
  ASSERT_TRUE(store.Query(q, &r).ok());
  EXPECT_EQ(r.rows.size(), 84u);
  EXPECT_EQ(r.segments_read, 10u);
  EXPECT_EQ(thread_count(), before);
}

/// Rows flattened to (ts, node, value bits...) so two pages compare
/// exactly, NaN and -0.0 included.
std::vector<std::uint64_t> RowBits(const std::vector<TsdbQueryRow>& rows) {
  std::vector<std::uint64_t> out;
  for (const TsdbQueryRow& row : rows) {
    out.push_back(row.ts);
    out.push_back(row.node);
    for (const double v : row.values) out.push_back(SlotFromDouble(v));
  }
  return out;
}

std::vector<std::string> RollupText(const std::vector<TsdbRollupRow>& rows) {
  std::vector<std::string> out;
  for (const TsdbRollupRow& r : rows) {
    out.push_back(std::to_string(r.bucket) + ":" + std::to_string(r.node) +
                  ":" + r.metric + ":" +
                  std::to_string(SlotFromDouble(r.min)) + ":" +
                  std::to_string(SlotFromDouble(r.max)) + ":" +
                  std::to_string(SlotFromDouble(r.avg)) + ":" +
                  std::to_string(r.count));
  }
  return out;
}

TEST_F(TsdbStoreTest, DamagedFilesNeverAnswerWrongly) {
  // One sealed 16-row segment whose "active" column compresses and whose
  // "load" column (random mantissas) stays raw, plus its .rollup file.
  // Every strict prefix and every single-bit flip of either file must be
  // refused at attach (counted in attach_rejects, its rows absent) or
  // answer each query with an error or exactly the intact rows; rollups
  // come back intact or not at all.
  const harness::ScratchDir scratch("damage");
  TsdbOptions opts = Options(scratch.path());
  opts.segment_rows = 16;
  std::string seg_path, rollup_path;
  {
    TsdbStore store(opts);
    MetricSetPtr n1 = MakeSet("nid1", 1);
    MetricSetPtr n2 = MakeSet("nid2", 2);
    std::uint64_t lcg = 7;
    auto noise = [&lcg] {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      double v;
      const std::uint64_t bits = lcg >> 2;  // sign and top exponent bit 0
      std::memcpy(&v, &bits, sizeof v);
      return v;
    };
    for (std::uint64_t i = 0; i < 8; ++i) {
      const TimeNs ts = i * 100 * kNsPerMs;
      WriteSample(n1, i, 2 * i, noise(), ts);
      ASSERT_TRUE(store.StoreSet(*n1).ok());
      WriteSample(n2, i + 1000, 2 * i, noise(), ts);
      ASSERT_TRUE(store.StoreSet(*n2).ok());
    }
    ASSERT_TRUE(store.Flush().ok());
    ASSERT_EQ(store.segments_sealed(), 1u);
  }
  for (const auto& entry : fs::directory_iterator(opts.root_path)) {
    if (entry.path().extension() == ".seg") seg_path = entry.path().string();
    if (entry.path().extension() == ".rollup") {
      rollup_path = entry.path().string();
    }
  }
  ASSERT_FALSE(seg_path.empty());
  ASSERT_FALSE(rollup_path.empty());
  SegmentFooter footer;
  ASSERT_TRUE(ReadSegmentFooter(seg_path, &footer).ok());
  EXPECT_NE(footer.codecs[SegmentFooter::DataCol(0)],
            static_cast<std::uint8_t>(ColumnCodec::kRaw));
  EXPECT_EQ(footer.codecs[SegmentFooter::DataCol(2)],
            static_cast<std::uint8_t>(ColumnCodec::kRaw));

  std::vector<TsdbQuery> queries(3);
  for (TsdbQuery& q : queries) q.table = "memtest";
  queries[1].metrics = {"load"};
  queries[1].nodes = {2};
  queries[2].metrics = {"active", "load"};
  queries[2].t0 = 200 * kNsPerMs;
  queries[2].t1 = 500 * kNsPerMs;
  std::vector<std::vector<std::uint64_t>> intact;
  std::vector<std::string> intact_rollups;
  {
    TsdbStore store(opts);
    ASSERT_EQ(store.attach_rejects(), 0u);
    for (const TsdbQuery& q : queries) {
      TsdbQueryResult r;
      ASSERT_TRUE(store.Query(q, &r).ok());
      ASSERT_FALSE(r.rows.empty());
      intact.push_back(RowBits(r.rows));
    }
    std::vector<TsdbRollupRow> rollups;
    ASSERT_TRUE(store.QueryRollup(queries[0], &rollups).ok());
    ASSERT_EQ(rollups.size(), 6u);  // 2 nodes x 3 columns, one bucket
    intact_rollups = RollupText(rollups);
  }

  auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  auto write_file = [](const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  std::size_t refused = 0, served = 0;
  auto check = [&](const std::string& path, const std::string& bytes,
                   const std::string& what) {
    write_file(path, bytes);
    TsdbStore store(opts);
    const bool seg_damaged = path == seg_path;
    const bool seg_refused = store.segments_attached() == 0;
    if (seg_refused) {
      ASSERT_TRUE(seg_damaged) << what;
      ASSERT_GE(store.attach_rejects(), 1u) << what;
    }
    if (store.attach_rejects() > 0) {
      ++refused;
    } else {
      ++served;
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
      TsdbQueryResult r;
      if (!store.Query(queries[i], &r).ok()) continue;
      if (seg_refused) {
        ASSERT_TRUE(r.rows.empty()) << what << " query " << i;
      } else {
        ASSERT_EQ(RowBits(r.rows), intact[i]) << what << " query " << i;
      }
    }
    std::vector<TsdbRollupRow> rollups;
    if (store.QueryRollup(queries[0], &rollups).ok() && !rollups.empty()) {
      ASSERT_EQ(RollupText(rollups), intact_rollups) << what;
    }
  };
  for (const std::string& path : {seg_path, rollup_path}) {
    const std::string original = read_file(path);
    ASSERT_FALSE(original.empty());
    for (std::size_t len = 0; len < original.size(); ++len) {
      check(path, original.substr(0, len),
            path + " prefix " + std::to_string(len));
      if (HasFatalFailure()) return;
    }
    for (std::size_t bit = 0; bit < original.size() * 8; ++bit) {
      std::string bytes = original;
      bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
      check(path, bytes, path + " bit " + std::to_string(bit));
      if (HasFatalFailure()) return;
    }
    write_file(path, original);
  }
  // Both outcomes occur: damage the reader never looks at (the segment
  // header, the producer column) attaches, the rest is refused or fails
  // its query.
  EXPECT_GT(refused, 0u);
  EXPECT_GT(served, 0u);
}

// --- layer 5: daemon integration --------------------------------------------

TEST(RegistryDecompTest, StrgpRecordRoundTripsDecomp) {
  StorePolicy policy;
  policy.name = "tsdb";
  policy.plugin = "store_tsdb";
  policy.plugin_params = {{"path", "/data/tsdb"}};
  policy.decomp = "hot@active:act:rate,load;raw@free";
  RegistrySnapshot snap;
  snap.stores["tsdb"] = StrgpAddArgs(policy);
  RegistrySnapshot out;
  ASSERT_TRUE(ParseRegistry(SerializeRegistry(snap), &out).ok());
  StorePolicy parsed;
  ASSERT_TRUE(ParseStrgpAdd(out.stores.at("tsdb"), &parsed).ok());
  EXPECT_EQ(parsed.decomp, policy.decomp);
  EXPECT_EQ(parsed.plugin_params, policy.plugin_params);

  // A policy without decomp= stores whole sets: its record has no decomp.
  policy.decomp.clear();
  snap.stores["tsdb"] = StrgpAddArgs(policy);
  EXPECT_FALSE(snap.stores["tsdb"].contains("decomp"));
  ASSERT_TRUE(ParseRegistry(SerializeRegistry(snap), &out).ok());
  ASSERT_TRUE(ParseStrgpAdd(out.stores.at("tsdb"), &parsed).ok());
  EXPECT_EQ(parsed.decomp, "");
}

/// Daemon fixture: SimClock, inline pools, builtin store plugins, registry.
class DaemonQueryTest : public QueryTest {
 protected:
  void SetUp() override {
    RegisterBuiltinStores();
  }

  std::unique_ptr<Ldmsd> MakeDaemon(const std::string& name,
                                    const std::string& listen = "") {
    LdmsdOptions opts;
    opts.name = name;
    if (!listen.empty()) {
      opts.listen_transport = "local";
      opts.listen_address = listen;
    }
    opts.worker_threads = 0;
    opts.connection_threads = 0;
    opts.store_threads = 0;
    opts.log_level = LogLevel::kOff;
    opts.clock = &clock_;
    opts.registry_path = dir_ + "/" + name + ".registry";
    return std::make_unique<Ldmsd>(opts);
  }

  /// A leaf listening on local address "<prefix>/<name>" whose store_tsdb
  /// policy "tsdb" (4-row segments, 1 s rollups) holds @p samples samples
  /// of node @p node, at 250 ms spacing. The values cover what the reply
  /// text must print exactly: integers past 2^53, -0.0, NaN, tiny and huge
  /// doubles.
  std::unique_ptr<Ldmsd> MakeLeaf(const std::string& prefix,
                                  const std::string& name, std::uint64_t node,
                                  std::uint64_t samples) {
    static const double kLoads[] = {-0.0,
                                    0.1,
                                    -1234.5678,
                                    1e-7,
                                    2.5e15,
                                    std::numeric_limits<double>::quiet_NaN(),
                                    0.0000005,
                                    1e300};
    auto leaf = MakeDaemon(name, prefix + "/" + name);
    EXPECT_TRUE(leaf->Start().ok());
    ConfigProcessor cfg(*leaf);
    EXPECT_TRUE(cfg.Execute("strgp_add name=tsdb plugin=store_tsdb path=" +
                            dir_ + "/" + name + " segment_rows=4 rollup_sec=1")
                    .ok());
    MetricSetPtr set = MakeSet(name, node);
    for (std::uint64_t s = 0; s < samples; ++s) {
      WriteSample(set, (1ull << 60) + node * 1000003 + s, s,
                  kLoads[(s + node) % 8], (s + 1) * 250 * kNsPerMs);
      leaf->StoreLocalSet(set);
    }
    return leaf;
  }

  /// A root collecting from "<prefix>/<name>" for every leaf name.
  std::unique_ptr<Ldmsd> MakeRoot(const std::string& prefix,
                                  const std::vector<std::string>& leaves) {
    auto root = MakeDaemon(prefix + "_root");
    EXPECT_TRUE(root->Start().ok());
    ConfigProcessor cfg(*root);
    for (const std::string& name : leaves) {
      EXPECT_TRUE(cfg.Execute("prdcr_add name=" + name + " xprt=local host=" +
                              prefix + "/" + name + " interval=100000")
                      .ok());
    }
    root->RunUntil(clock_, clock_.Now() + kNsPerSec);  // connect cycles
    return root;
  }

  const harness::ScratchDir scratch_{"dq"};
  const std::string dir_ = scratch_.path();
  SimClock clock_{0};
};

// Reference `query` replies spelled with std::to_string: the text the
// verb's TextWriter must reproduce byte for byte.
std::string ToStringColumns(const std::vector<std::string>& columns) {
  std::string out;
  for (const auto& column : columns) {
    if (!out.empty()) out.push_back(',');
    out += column;
  }
  return out;
}

std::string ToStringCounters(const TsdbQueryResult& r) {
  return " segments_considered=" + std::to_string(r.segments_considered) +
         " segments_pruned=" + std::to_string(r.segments_pruned) +
         " segments_read=" + std::to_string(r.segments_read) +
         " bytes_read=" + std::to_string(r.bytes_read) +
         " bytes_decoded=" + std::to_string(r.bytes_decoded);
}

std::string ToStringRows(const std::vector<TsdbQueryRow>& rows,
                         std::size_t limit) {
  std::string out;
  std::size_t emitted = 0;
  for (const auto& row : rows) {
    if (emitted++ >= limit) break;
    out += " row=" + std::to_string(row.ts / kNsPerUs) + ":" +
           std::to_string(row.node);
    for (const double v : row.values) out += ":" + std::to_string(v);
  }
  return out;
}

std::string ToStringRowsReply(const TsdbQueryResult& r, std::size_t limit) {
  return "columns=" + ToStringColumns(r.columns) +
         " rows=" + std::to_string(r.rows.size()) + ToStringCounters(r) +
         ToStringRows(r.rows, limit);
}

std::string ToStringFanoutReply(const Ldmsd::FanoutResult& fan) {
  const QueryResponse& m = fan.merged;
  return "columns=" + ToStringColumns(m.result.columns) +
         " rows=" + std::to_string(m.result.rows.size()) +
         " total_rows=" + std::to_string(m.total_rows) +
         " truncated=" + std::to_string(m.truncated) +
         " leaves_ok=" + std::to_string(fan.leaves_ok) +
         " leaves_failed=" + std::to_string(fan.leaves_failed) +
         ToStringCounters(m.result) +
         ToStringRows(m.result.rows, m.result.rows.size());
}

std::string ToStringRollupReply(const std::vector<TsdbRollupRow>& rollups,
                                std::size_t limit) {
  std::string out = "buckets=" + std::to_string(rollups.size());
  std::size_t emitted = 0;
  for (const auto& r : rollups) {
    if (emitted++ >= limit) break;
    out += " rollup=" + std::to_string(r.bucket / kNsPerUs) + ":" +
           std::to_string(r.node) + ":" + r.metric + ":" +
           std::to_string(r.min) + ":" + std::to_string(r.max) + ":" +
           std::to_string(r.avg) + ":" + std::to_string(r.count);
  }
  return out;
}

std::size_t CountOf(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST_F(DaemonQueryTest, StrgpAddValidatesDecompAtConfigTime) {
  auto daemon = MakeDaemon("cfg");
  ConfigProcessor config(*daemon);
  // Whole-set stores cannot take a decomposition.
  Status st = config.Execute("strgp_add name=m plugin=store_mem decomp=active");
  EXPECT_EQ(st.code(), ErrorCode::kUnsupported);
  // Spec typos fail the command, not the first sample.
  st = config.Execute("strgp_add name=t plugin=store_tsdb path=" + dir_ +
                      "/t decomp=active::median");
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("unknown op"), std::string::npos);
  EXPECT_TRUE(daemon->store_policy_names().empty());
}

TEST_F(DaemonQueryTest, QueryVerbServesAcrossRestart) {
  const std::string spec = "hot@active:act:delta,load;raw@free";
  auto ingest = [&](Ldmsd& daemon, std::uint64_t first, std::uint64_t count) {
    MetricSetPtr set = MakeSet("nid1", 1);
    for (std::uint64_t i = first; i < first + count; ++i) {
      WriteSample(set, 100 + i, 2 * i, 0.5, i * 250 * kNsPerMs);
      daemon.StoreLocalSet(set);
    }
  };

  {
    auto daemon = MakeDaemon("qnode");
    ASSERT_TRUE(daemon->Start().ok());  // SimClock mode: no threads spawned
    ConfigProcessor config(*daemon);
    ASSERT_TRUE(config
                    .Execute("strgp_add name=tsdb plugin=store_tsdb path=" +
                             dir_ + "/tsdb segment_rows=4 rollup_sec=1 " +
                             "decomp=" + spec)
                    .ok());
    ingest(*daemon, 0, 10);

    std::string out;
    ASSERT_TRUE(config.Execute("query strgp=tsdb mode=tables", &out).ok());
    EXPECT_NE(out.find("hot"), std::string::npos);
    EXPECT_NE(out.find("raw"), std::string::npos);
    ASSERT_TRUE(
        config.Execute("query strgp=tsdb table=hot metrics=act limit=100",
                       &out)
            .ok());
    EXPECT_NE(out.find("columns=act rows=10"), std::string::npos) << out;
    ASSERT_TRUE(config.Execute("strgp_status name=tsdb", &out).ok());
    EXPECT_NE(out.find("decomp_failures=0"), std::string::npos) << out;

    // Unknown policies / wrong store types are told apart.
    EXPECT_EQ(config.Execute("query strgp=ghost table=hot", &out).code(),
              ErrorCode::kNotFound);
    daemon->Stop();  // shutdown drain + flush: the partial segment seals
  }

  // A new daemon restores the policy — including the decomposition — from
  // the registry alone and serves queries spanning both eras.
  {
    // The decomposition is registry provenance: it survived the shutdown.
    ClusterRegistry registry(dir_ + "/qnode.registry");
    ASSERT_TRUE(registry.Load().ok());
    ASSERT_EQ(registry.snapshot().stores.size(), 1u);
    EXPECT_EQ(registry.snapshot().stores.at("tsdb").at("decomp"), spec);
  }
  auto daemon = MakeDaemon("qnode");
  ASSERT_TRUE(daemon->Start().ok());
  ASSERT_TRUE(
      daemon->RestoreFromRegistry(PluginRegistry::Instance()).ok());
  EXPECT_EQ(daemon->store_policy_names(),
            (std::vector<std::string>{"tsdb"}));
  auto store = daemon->store_for_policy("tsdb");
  ASSERT_NE(store, nullptr);
  auto* tsdb = dynamic_cast<TsdbStore*>(store.get());
  ASSERT_NE(tsdb, nullptr);
  EXPECT_GT(tsdb->segments_attached(), 0u);

  ingest(*daemon, 10, 10);
  ConfigProcessor config(*daemon);
  std::string out;
  ASSERT_TRUE(
      config.Execute("query strgp=tsdb table=hot metrics=act limit=100", &out)
          .ok());
  EXPECT_NE(out.find("rows=20"), std::string::npos) << out;
  // A window straddling the restart boundary (samples 4..15 inclusive).
  ASSERT_TRUE(config
                  .Execute("query strgp=tsdb table=hot t0_us=1000000 "
                           "t1_us=3750000 limit=100",
                           &out)
                  .ok());
  EXPECT_NE(out.find("rows=12"), std::string::npos) << out;
  ASSERT_TRUE(config.Execute("query strgp=tsdb table=raw mode=rollup", &out)
                  .ok());
  EXPECT_NE(out.find("buckets="), std::string::npos);
  EXPECT_EQ(out.find("buckets=0 "), std::string::npos) << out;
  daemon->Stop();
}

TEST_F(DaemonQueryTest, AnnounceRetryReseedsAgainstStandby) {
  auto node = MakeDaemon("nodeA", "dq_nodeA/listen");
  ASSERT_TRUE(node->Start().ok());
  LdmsdOptions standby_opts;
  standby_opts.name = "standby";
  standby_opts.listen_transport = "local";
  standby_opts.listen_address = "dq_standby/listen";
  standby_opts.worker_threads = 0;
  standby_opts.connection_threads = 0;
  standby_opts.store_threads = 0;
  standby_opts.log_level = LogLevel::kOff;
  standby_opts.clock = &clock_;
  standby_opts.accept_advertised_producers = true;
  Ldmsd standby(standby_opts);
  ASSERT_TRUE(standby.Start().ok());  // registers the "local" listener

  EXPECT_EQ(node->AnnounceWithRetry({}, 7).code(),
            ErrorCode::kInvalidArgument);

  // Primary seed is dead: the inline attempt fails, the retry task is armed.
  Status st = node->AnnounceWithRetry(
      {{"local", "dq_dead/listen"}, {"local", "dq_standby/listen"}},
      /*node_id=*/7, /*min_backoff=*/50 * kNsPerMs,
      /*max_backoff=*/1 * kNsPerSec);
  EXPECT_EQ(st.code(), ErrorCode::kDisconnected);
  EXPECT_EQ(node->counters().announce_retries.load(), 0u);
  EXPECT_FALSE(standby.producer_status("nodeA").known);

  // The first backoff tick rotates to the standby and re-seeds.
  node->RunUntil(clock_, clock_.Now() + 200 * kNsPerMs);
  EXPECT_GE(node->counters().announce_retries.load(), 1u);
  EXPECT_TRUE(standby.producer_status("nodeA").known);

  // Success cancelled the task: the counter stays put from here on.
  const std::uint64_t settled = node->counters().announce_retries.load();
  node->RunUntil(clock_, clock_.Now() + 5 * kNsPerSec);
  EXPECT_EQ(node->counters().announce_retries.load(), settled);
  node->Stop();
  standby.Stop();
}

TEST_F(DaemonQueryTest, MemoryStoreRingCapsAndReportsEvictions) {
  // Store-level: drop-oldest past the cap, surfaced via rows_evicted().
  MemoryStore ring(/*max_samples=*/3);
  MetricSetPtr set = MakeSet("nid1", 1);
  for (std::uint64_t i = 0; i < 5; ++i) {
    WriteSample(set, i, 0, 0.0, (i + 1) * kNsPerSec);
    ASSERT_TRUE(ring.StoreSet(*set).ok());
  }
  const std::vector<MemRow> rows = ring.Rows("memtest");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows.front().values[0], 2.0);  // samples 0 and 1 evicted
  EXPECT_EQ(rows.back().values[0], 4.0);
  EXPECT_EQ(ring.rows_evicted(), 2u);
  EXPECT_EQ(ring.max_samples(), 3u);

  // Daemon-level: max_samples= flows through strgp_add, evictions through
  // strgp_status.
  auto daemon = MakeDaemon("ring");
  ASSERT_TRUE(daemon->Start().ok());
  ConfigProcessor config(*daemon);
  ASSERT_TRUE(
      config.Execute("strgp_add name=mem plugin=store_mem max_samples=2")
          .ok());
  MetricSetPtr local = MakeSet("nid2", 2);
  for (std::uint64_t i = 0; i < 5; ++i) {
    WriteSample(local, i, 0, 0.0, (i + 1) * kNsPerSec);
    daemon->StoreLocalSet(local);
  }
  std::string out;
  ASSERT_TRUE(config.Execute("strgp_status name=mem", &out).ok());
  EXPECT_NE(out.find("evictions=3"), std::string::npos) << out;
  daemon->Stop();
}

TEST(QueryWireCodecTest, RequestAndResponseRoundTrip) {
  QueryRequest req;
  req.strgp = "tsdb";
  req.table = "meminfo";
  req.t0 = 5 * kNsPerSec;
  req.t1 = 9 * kNsPerSec;
  req.nodes = {3, 7};
  req.metrics = {"free", "cached"};
  req.limit = 128;
  QueryRequest req2;
  ASSERT_TRUE(DecodeQueryRequest(EncodeQueryRequest(req), &req2));
  EXPECT_EQ(req2.strgp, req.strgp);
  EXPECT_EQ(req2.table, req.table);
  EXPECT_EQ(req2.t0, req.t0);
  EXPECT_EQ(req2.t1, req.t1);
  EXPECT_EQ(req2.nodes, req.nodes);
  EXPECT_EQ(req2.metrics, req.metrics);
  EXPECT_EQ(req2.limit, req.limit);

  QueryResponse resp;
  resp.code = 0;
  resp.result.columns = {"free", "cached"};
  resp.result.rows = {{1 * kNsPerSec, 3, {1.5, 2.5}},
                      {2 * kNsPerSec, 7, {3.5, 4.5}}};
  resp.total_rows = 100;
  resp.truncated = 1;
  resp.result.segments_considered = 12;
  resp.result.segments_pruned = 9;
  resp.result.segments_read = 3;
  resp.result.bytes_read = 4096;
  resp.result.bytes_decoded = 16384;
  QueryResponse resp2;
  ASSERT_TRUE(DecodeQueryResponse(EncodeQueryResponse(resp), &resp2));
  EXPECT_EQ(resp2.result.columns, resp.result.columns);
  ASSERT_EQ(resp2.result.rows.size(), 2u);
  EXPECT_EQ(resp2.result.rows[1].ts, 2 * kNsPerSec);
  EXPECT_EQ(resp2.result.rows[1].node, 7u);
  EXPECT_EQ(resp2.result.rows[1].values, (std::vector<double>{3.5, 4.5}));
  EXPECT_EQ(resp2.total_rows, 100u);
  EXPECT_EQ(resp2.truncated, 1);
  EXPECT_EQ(resp2.result.segments_pruned, 9u);
  EXPECT_EQ(resp2.result.bytes_decoded, 16384u);

  // An error response round-trips its code and message.
  QueryResponse err;
  err.code = static_cast<std::uint8_t>(ErrorCode::kNotFound);
  err.error = "no such table";
  ASSERT_TRUE(DecodeQueryResponse(EncodeQueryResponse(err), &resp2));
  EXPECT_EQ(resp2.code, err.code);
  EXPECT_EQ(resp2.error, err.error);
}

std::string Hex(const std::vector<std::byte>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::byte b : bytes) {
    out.push_back(kDigits[static_cast<unsigned>(b) >> 4]);
    out.push_back(kDigits[static_cast<unsigned>(b) & 0xf]);
  }
  return out;
}

TEST(QueryWireCodecTest, FixedFramesKeepTheirBytes) {
  // Both payloads spelled out byte for byte: a codec change that moves one
  // byte of kQueryReq or kQueryResp fails here.
  QueryRequest req;
  req.strgp = "tsdb";
  req.table = "memtest";
  req.t0 = 1 * kNsPerSec;
  req.t1 = 9 * kNsPerSec;
  req.nodes = {3, 258};
  req.metrics = {"free", "load"};
  req.limit = kMaxQueryRespRows;
  EXPECT_EQ(Hex(EncodeQueryRequest(req)),
            "04007473646207006d656d7465737400ca9a3b00000000001a71180200000002"
            "000000030000000000000002010000000000000200000004006672656504006c"
            "6f616400000100");

  QueryResponse resp;
  resp.result.columns = {"free", "load"};
  resp.result.rows = {
      {1 * kNsPerSec, 3, {1.5, std::numeric_limits<double>::quiet_NaN()}},
      {2 * kNsPerSec, 258, {-0.0, 2.25}},
      {3 * kNsPerSec, 3, {1e300, -7.0}}};
  resp.total_rows = 5;
  resp.truncated = 1;
  resp.result.segments_considered = 12;
  resp.result.segments_pruned = 9;
  resp.result.segments_read = 3;
  resp.result.bytes_read = 4096;
  resp.result.bytes_decoded = 16384;
  const std::vector<std::byte> enc = EncodeQueryResponse(resp);
  EXPECT_EQ(Hex(enc),
            "000000020004006672656504006c6f61640300000000ca9a3b00000000030000"
            "0000000000000000000000f83f000000000000f87f0094357700000000020100"
            "000000000000000000000000800000000000000240005ed0b200000000030000"
            "00000000009c7500883ce4377e0000000000001cc00500000000000000010c00"
            "0000000000000900000000000000030000000000000000100000000000000040"
            "000000000000");
  QueryResponse back;
  ASSERT_TRUE(DecodeQueryResponse(enc, &back));
  EXPECT_EQ(RowBits(back.result.rows), RowBits(resp.result.rows));
  EXPECT_EQ(Hex(EncodeQueryResponse(back)), Hex(enc));
}

TEST(QueryWireCodecTest, RejectsTruncationAndHostileCounts) {
  QueryRequest req;
  req.strgp = "tsdb";
  req.table = "meminfo";
  req.nodes = {1, 2, 3};
  req.metrics = {"free"};
  const std::vector<std::byte> enc = EncodeQueryRequest(req);
  QueryRequest out;
  // The full frame decodes; every strict prefix fails and none crash.
  ASSERT_TRUE(DecodeQueryRequest(enc, &out));
  for (std::size_t len = 0; len < enc.size(); ++len) {
    EXPECT_FALSE(DecodeQueryRequest({enc.data(), len}, &out)) << len;
  }

  // A node count that promises more array than the payload holds is
  // rejected before any reserve, not trusted into an allocation.
  ByteWriter w;
  w.Str("s");
  w.Str("t");
  w.U64(0);
  w.U64(~0ull);
  w.U32(0xffffffffu);  // nnodes, but zero node bytes follow
  EXPECT_FALSE(DecodeQueryRequest(w.buffer(), &out));

  QueryResponse resp;
  resp.result.columns = {"a"};
  resp.result.rows = {{1, 1, {1.0}}};
  const std::vector<std::byte> renc = EncodeQueryResponse(resp);
  QueryResponse rout;
  ASSERT_TRUE(DecodeQueryResponse(renc, &rout));
  for (std::size_t len = 0; len < renc.size(); ++len) {
    EXPECT_FALSE(DecodeQueryResponse({renc.data(), len}, &rout)) << len;
  }
  ByteWriter rw;
  rw.U8(0);
  rw.Str("");
  rw.U16(1);
  rw.Str("a");
  rw.U32(0xffffffffu);  // nrows with no row bytes behind it
  EXPECT_FALSE(DecodeQueryResponse(rw.buffer(), &rout));
}

TEST_F(DaemonQueryTest, FanoutQueryMergesLeavesAndSurvivesLeafDeath) {
  // Three leaf daemons, each with its own tsdb store holding one node's
  // samples; a root fans the predicate out and merges. Killing a leaf
  // mid-flight degrades to partial results with honest accounting — the
  // T-query/fanout drill.
  std::vector<std::unique_ptr<Ldmsd>> leaves;
  std::vector<std::unique_ptr<ConfigProcessor>> leaf_cfgs;
  for (int i = 1; i <= 3; ++i) {
    const std::string name = "leaf" + std::to_string(i);
    auto leaf = MakeDaemon(name, "dqfan/" + name);
    ASSERT_TRUE(leaf->Start().ok());
    auto cfg = std::make_unique<ConfigProcessor>(*leaf);
    ASSERT_TRUE(cfg->Execute("strgp_add name=tsdb plugin=store_tsdb path=" +
                             dir_ + "/" + name +
                             " segment_rows=4 rollup_sec=1")
                    .ok());
    MetricSetPtr set = MakeSet(name, static_cast<std::uint64_t>(i));
    for (std::uint64_t s = 0; s < 6; ++s) {
      WriteSample(set, 100 * static_cast<std::uint64_t>(i) + s, 2 * s,
                  0.5 * static_cast<double>(s), (s + 1) * 250 * kNsPerMs);
      leaf->StoreLocalSet(set);
    }
    leaves.push_back(std::move(leaf));
    leaf_cfgs.push_back(std::move(cfg));
  }

  auto root = MakeDaemon("root");
  ASSERT_TRUE(root->Start().ok());
  ConfigProcessor config(*root);
  for (int i = 1; i <= 3; ++i) {
    const std::string name = "leaf" + std::to_string(i);
    ASSERT_TRUE(config
                    .Execute("prdcr_add name=" + name +
                             " xprt=local host=dqfan/" + name +
                             " interval=100000")
                    .ok());
  }
  root->RunUntil(clock_, clock_.Now() + kNsPerSec);  // connect cycles

  QueryRequest req;
  req.strgp = "tsdb";
  req.table = "memtest";
  req.limit = 100;
  Ldmsd::FanoutResult fan;
  ASSERT_TRUE(root->FanoutQuery(req, &fan).ok());
  EXPECT_EQ(fan.leaves_ok, 3u);
  EXPECT_EQ(fan.leaves_failed, 0u);
  EXPECT_EQ(fan.merged.result.columns,
            (std::vector<std::string>{"active", "free", "load"}));
  ASSERT_EQ(fan.merged.result.rows.size(), 18u);
  EXPECT_EQ(fan.merged.total_rows, 18u);
  // Globally (ts, node)-ordered regardless of leaf answer order.
  for (std::size_t i = 1; i < fan.merged.result.rows.size(); ++i) {
    const auto& prev = fan.merged.result.rows[i - 1];
    const auto& cur = fan.merged.result.rows[i];
    EXPECT_TRUE(prev.ts < cur.ts ||
                (prev.ts == cur.ts && prev.node < cur.node));
  }
  // Row content: sample s of node n carries active = 100 * n + s.
  for (const auto& row : fan.merged.result.rows) {
    const std::uint64_t s = row.ts / (250 * kNsPerMs) - 1;
    EXPECT_EQ(row.values[0], static_cast<double>(100 * row.node + s));
  }

  // The same fan-out through the control verb, accounting included.
  std::string out;
  ASSERT_TRUE(
      config.Execute("query strgp=tsdb table=memtest mode=fanout limit=100",
                     &out)
          .ok());
  EXPECT_NE(out.find("rows=18"), std::string::npos) << out;
  EXPECT_NE(out.find("leaves_ok=3 leaves_failed=0"), std::string::npos) << out;

  // A root-side page limit truncates after the deterministic merge.
  req.limit = 5;
  ASSERT_TRUE(root->FanoutQuery(req, &fan).ok());
  EXPECT_EQ(fan.merged.result.rows.size(), 5u);
  EXPECT_EQ(fan.merged.truncated, 1);
  EXPECT_EQ(fan.merged.total_rows, 18u);

  // Kill leaf2. The fan-out returns the survivors' rows and counts the
  // death instead of failing the whole query.
  leaves[1]->Stop();
  leaves[1].reset();
  req.limit = 100;
  ASSERT_TRUE(root->FanoutQuery(req, &fan).ok());
  EXPECT_EQ(fan.leaves_ok, 2u);
  EXPECT_EQ(fan.leaves_failed, 1u);
  ASSERT_EQ(fan.merged.result.rows.size(), 12u);
  for (const auto& row : fan.merged.result.rows) EXPECT_NE(row.node, 2u);

  ASSERT_TRUE(
      config.Execute("query strgp=tsdb table=memtest mode=fanout limit=100",
                     &out)
          .ok());
  EXPECT_NE(out.find("leaves_ok=2 leaves_failed=1"), std::string::npos) << out;

  // A predicate asking only for dead-leaf rows still answers (empty page,
  // same accounting) — partial results are the contract, not an error.
  req.nodes = {2};
  ASSERT_TRUE(root->FanoutQuery(req, &fan).ok());
  EXPECT_EQ(fan.leaves_ok, 2u);
  EXPECT_EQ(fan.leaves_failed, 1u);
  EXPECT_TRUE(fan.merged.result.rows.empty());

  root->Stop();
  for (auto& leaf : leaves) {
    if (leaf != nullptr) leaf->Stop();
  }
}

TEST_F(DaemonQueryTest, QueryRepliesMatchToStringText) {
  // Rows, rollup and fan-out replies over fixed data, byte for byte against
  // the same reply built with std::to_string.
  auto leaf1 = MakeLeaf("dqtext", "text1", 1, 10);
  auto leaf2 = MakeLeaf("dqtext", "text2", 2, 10);
  auto root = MakeRoot("dqtext", {"text1", "text2"});
  std::shared_ptr<Store> store = leaf1->store_for_policy("tsdb");
  auto* tsdb = dynamic_cast<TsdbStore*>(store.get());
  ASSERT_NE(tsdb, nullptr);
  ConfigProcessor leaf_cfg(*leaf1);
  std::string out;

  TsdbQuery q;
  q.table = "memtest";
  TsdbQueryResult r;
  ASSERT_TRUE(tsdb->Query(q, &r).ok());
  ASSERT_EQ(r.rows.size(), 10u);
  ASSERT_TRUE(leaf_cfg.Execute("query strgp=tsdb table=memtest limit=7", &out)
                  .ok());
  EXPECT_EQ(out, ToStringRowsReply(r, 7));

  q.t0 = 500 * kNsPerMs;
  q.t1 = 2000 * kNsPerMs;
  q.metrics = {"load", "active"};
  ASSERT_TRUE(tsdb->Query(q, &r).ok());
  ASSERT_TRUE(leaf_cfg
                  .Execute("query strgp=tsdb table=memtest t0_us=500000 "
                           "t1_us=2000000 metrics=load,active",
                           &out)
                  .ok());
  EXPECT_EQ(out, ToStringRowsReply(r, 64));

  TsdbQuery all;
  all.table = "memtest";
  std::vector<TsdbRollupRow> rollups;
  ASSERT_TRUE(tsdb->QueryRollup(all, &rollups).ok());
  ASSERT_GT(rollups.size(), 5u);
  ASSERT_TRUE(
      leaf_cfg.Execute("query strgp=tsdb table=memtest mode=rollup limit=5",
                       &out)
          .ok());
  EXPECT_EQ(out, ToStringRollupReply(rollups, 5));

  QueryRequest req;
  req.strgp = "tsdb";
  req.table = "memtest";
  req.limit = 100;
  Ldmsd::FanoutResult fan;
  ASSERT_TRUE(root->FanoutQuery(req, &fan).ok());
  ASSERT_EQ(fan.leaves_ok, 2u);
  ASSERT_EQ(fan.merged.result.rows.size(), 20u);
  ConfigProcessor root_cfg(*root);
  ASSERT_TRUE(root_cfg
                  .Execute("query strgp=tsdb table=memtest mode=fanout "
                           "limit=100",
                           &out)
                  .ok());
  EXPECT_EQ(out, ToStringFanoutReply(fan));

  root->Stop();
  leaf1->Stop();
  leaf2->Stop();
}

TEST_F(DaemonQueryTest, QueryLimitBoundsPrintedRowsInEveryMode) {
  auto leaf1 = MakeLeaf("dqlimit", "limit1", 1, 10);
  auto leaf2 = MakeLeaf("dqlimit", "limit2", 2, 10);
  auto root = MakeRoot("dqlimit", {"limit1", "limit2"});
  ConfigProcessor leaf_cfg(*leaf1);
  ConfigProcessor root_cfg(*root);
  std::string out;

  // limit=0 prints no row in any mode; the counts still say what matched.
  ASSERT_TRUE(leaf_cfg.Execute("query strgp=tsdb table=memtest limit=0", &out)
                  .ok());
  EXPECT_NE(out.find("rows=10 "), std::string::npos) << out;
  EXPECT_EQ(CountOf(out, " row="), 0u) << out;
  ASSERT_TRUE(
      leaf_cfg.Execute("query strgp=tsdb table=memtest mode=rollup limit=0",
                       &out)
          .ok());
  EXPECT_EQ(CountOf(out, " rollup="), 0u) << out;
  ASSERT_TRUE(
      root_cfg.Execute("query strgp=tsdb table=memtest mode=fanout limit=0",
                       &out)
          .ok());
  EXPECT_NE(out.find("leaves_ok=2 "), std::string::npos) << out;
  EXPECT_EQ(CountOf(out, " row="), 0u) << out;

  // A limit past the u32 the wire carries is clamped to the page ceiling,
  // not wrapped: 4294967301 asks each leaf for 65536 rows, not 5.
  std::string capped;
  ASSERT_TRUE(root_cfg
                  .Execute("query strgp=tsdb table=memtest mode=fanout "
                           "limit=65536",
                           &capped)
                  .ok());
  EXPECT_EQ(CountOf(capped, " row="), 20u) << capped;
  ASSERT_TRUE(root_cfg
                  .Execute("query strgp=tsdb table=memtest mode=fanout "
                           "limit=4294967301",
                           &out)
                  .ok());
  EXPECT_EQ(out, capped);

  // A small limit prints exactly that many rows in fan-out mode too.
  ASSERT_TRUE(
      root_cfg.Execute("query strgp=tsdb table=memtest mode=fanout limit=3",
                       &out)
          .ok());
  EXPECT_EQ(CountOf(out, " row="), 3u) << out;

  root->Stop();
  leaf1->Stop();
  leaf2->Stop();
}

}  // namespace
}  // namespace ldmsxx

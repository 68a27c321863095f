// Time-partitioned columnar segments (ISSUE 9 tentpole part 2; compressed
// format v2 in ISSUE 10). A segment is an append-only batch of rows for one
// table, stored column-major. Segments are built in memory (preallocated
// column buffers) and sealed to disk in one AtomicWriteFile — a reader
// never sees a torn segment.
//
// On-disk layout (ByteWriter little-endian), format v2:
//
//   header : u32 magic "LSG2" | str table | u16 ncols
//   body   : 3 + ncols encoded column blocks (ts, node, prod_idx, data
//            columns), each under the codec the footer records for it
//   footer : str table | u64 min_ts | u64 max_ts | u64 row_count |
//            u8 node_overflow | u16 nnodes | nnodes x u64 (sorted unique) |
//            u16 nproducers | nproducers x str |
//            u16 ncols | ncols x (str name, u8 type) |
//            (3 + ncols) x u64 column offsets | (3 + ncols) x u64 CRCs |
//            (3 + ncols) x u8 codec ids | (3 + ncols) x u64 encoded lengths
//   trailer: u64 footer_offset | u64 footer_crc | u32 magic "LSGG"
//
// A file with any other trailer magic (including the retired uncompressed
// format v1, "LSGF") is rejected as foreign; a restart skips it.
//
// Codecs (store/tsdb/codec.hpp) are chosen per column at seal time:
// delta-of-delta varints for timestamps, RLE for the node and producer-
// index columns, XOR-with-byte-suppression for double columns, delta
// varints for integer columns — each falling back to raw whenever it fails
// to beat the 8-byte slots. Column CRCs cover the *encoded* bytes (word-
// folded FNV-1a for raw columns, byte-wise for compressed ones), so
// corruption is rejected before any decode runs.
//
// The footer is the index: a reader seeks to the 20-byte trailer, reads the
// CRC-sealed footer, and can then prune the whole segment on min/max
// timestamp or the node dictionary — or seek straight to the few columns a
// query asks for. The node dictionary degrades to an "any node" overflow
// flag past kMaxNodeDict distinct ids so a pathological segment cannot
// bloat the index.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/value.hpp"
#include "store/tsdb/codec.hpp"
#include "util/clock.hpp"
#include "util/status.hpp"

namespace ldmsxx {

/// Name + output type of one data column.
struct SegmentColumn {
  std::string name;
  MetricType type = MetricType::kU64;
};

/// Parsed footer of a sealed segment: everything a query needs to prune the
/// segment or locate its columns, without touching the body. Per-column
/// arrays are indexed uniformly: kTsCol, kNodeCol, kProdCol, then
/// DataCol(i) for data column i.
struct SegmentFooter {
  static constexpr std::size_t kTsCol = 0;
  static constexpr std::size_t kNodeCol = 1;
  static constexpr std::size_t kProdCol = 2;
  static constexpr std::size_t DataCol(std::size_t i) { return 3 + i; }

  std::string table;
  TimeNs min_ts = 0;
  TimeNs max_ts = 0;
  std::uint64_t row_count = 0;
  /// Distinct component ids in this segment, sorted. When node_overflow is
  /// set the dictionary was abandoned (too many distinct ids) and node
  /// pruning must treat the segment as "may contain any node".
  bool node_overflow = false;
  std::vector<std::uint64_t> nodes;
  std::vector<std::string> producers;
  std::vector<SegmentColumn> columns;
  /// Per-column byte offset, CRC, codec, and encoded length (3 + ncols
  /// entries each).
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint64_t> crcs;
  std::vector<std::uint8_t> codecs;
  std::vector<std::uint64_t> enc_lens;

  /// Index of the data column named @p name, or -1.
  int FindColumn(const std::string& name) const;
};

/// In-memory segment under construction; also serves queries over the active
/// (not yet sealed) segment. Not thread-safe — the owning store serializes.
class SegmentBuilder {
 public:
  SegmentBuilder(std::string table, std::vector<SegmentColumn> columns,
                 std::size_t capacity);

  /// Map a producer name to its per-segment dictionary index.
  std::uint16_t InternProducer(const std::string& producer);

  /// Append one row; @p slots must hold columns().size() values.
  void Append(TimeNs ts, std::uint64_t node, std::uint16_t producer,
              const std::uint64_t* slots);

  const std::string& table() const { return table_; }
  const std::vector<SegmentColumn>& columns() const { return columns_; }
  std::size_t row_count() const { return ts_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool full() const { return ts_.size() >= capacity_; }
  bool empty() const { return ts_.empty(); }
  TimeNs min_ts() const { return min_ts_; }
  TimeNs max_ts() const { return max_ts_; }

  const std::vector<std::uint64_t>& ts() const { return ts_; }
  const std::vector<std::uint64_t>& nodes() const { return nodes_; }
  const std::vector<std::uint64_t>& producers_idx() const { return prod_; }
  const std::vector<std::uint64_t>& column(std::size_t i) const {
    return cols_[i];
  }
  const std::vector<std::string>& producer_dict() const { return prod_dict_; }

  /// Serialize the whole segment file (header + body + footer + trailer) in
  /// format v2. With @p compress false every column is written raw (codec
  /// ids all kRaw) — the ablation/debug path; the layout stays v2 either
  /// way. One scratch encode buffer is reused across all columns.
  std::string Serialize(bool compress = true) const;

  /// How many distinct node ids the footer dictionary will index before
  /// degrading to the overflow flag.
  static constexpr std::size_t kMaxNodeDict = 256;

 private:
  std::string table_;
  std::vector<SegmentColumn> columns_;
  std::size_t capacity_;
  TimeNs min_ts_ = ~TimeNs{0};
  TimeNs max_ts_ = 0;
  std::vector<std::uint64_t> ts_;
  std::vector<std::uint64_t> nodes_;
  std::vector<std::uint64_t> prod_;
  std::vector<std::vector<std::uint64_t>> cols_;
  std::vector<std::string> prod_dict_;
  // Interning index over prod_dict_: the append path runs once per stored
  // row, so the lookup must not scale with the number of producers.
  std::unordered_map<std::string, std::uint16_t> prod_index_;
};

/// Seal @p builder to @p path via AtomicWriteFile (tmp + rename; with
/// @p durable false the fsyncs are the caller's to batch — store_tsdb
/// queues them on a background syncer drained by Flush).
Status WriteSegmentFile(const std::string& path, const SegmentBuilder& builder,
                        bool durable = true, bool compress = true);

/// Read and validate a sealed segment's footer (one seek + one small read).
Status ReadSegmentFooter(const std::string& path, SegmentFooter* out);

/// Read column @p col (uniform index: SegmentFooter::kTsCol / kNodeCol /
/// kProdCol / DataCol(i)), verify its CRC over the encoded bytes, and
/// decode it into @p out (resized to row_count). @p scratch, when given,
/// receives the compressed read buffer, so a caller reading many columns
/// allocates it once.
Status ReadSegmentColumn(const std::string& path, const SegmentFooter& footer,
                         std::size_t col, std::vector<std::uint64_t>* out,
                         std::vector<std::uint8_t>* scratch = nullptr);

}  // namespace ldmsxx

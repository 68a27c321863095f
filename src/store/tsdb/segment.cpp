#include "store/tsdb/segment.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "core/wire.hpp"
#include "util/atomic_file.hpp"
#include "util/hash.hpp"

namespace ldmsxx {
namespace {

constexpr std::uint32_t kSegMagicV2 = 0x3247534c;      // "LSG2"
constexpr std::uint32_t kTrailerMagicV2 = 0x4747534c;  // "LSGG"
constexpr std::size_t kTrailerSize = 8 + 8 + 4;

/// FNV-1a folded one u64 lane per step. Raw columns are dense 8-byte slot
/// arrays, and the byte-serial variant's dependent multiply per byte is the
/// single largest CPU cost of sealing a segment; folding a word at a time
/// keeps the same corruption-detection role at 1/8th the multiplies. Used
/// for kRaw column CRCs (writer and reader agree).
std::uint64_t Fnv1aWords(const std::uint64_t* p, std::size_t n_words) {
  std::uint64_t h = kFnv1aBasis;
  for (std::size_t i = 0; i < n_words; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

/// Word-folded FNV-1a over a byte-granular stream: full 8-byte chunks fold
/// as u64 lanes, the (< 8 byte) tail folds byte-wise. Compressed column
/// blocks use this — the byte-serial form's dependent-multiply chain costs
/// more than the varint decode it guards, which would put the CRC, not the
/// codec, on the query's critical path.
std::uint64_t Fnv1aBytes(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = kFnv1aBasis;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, p + i, 8);
    h ^= word;
    h *= kFnv1aPrime;
  }
  for (; i < n; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

Status Corrupt(const std::string& path, const char* what) {
  return {ErrorCode::kInconsistent,
          "segment " + path + ": " + what};
}

/// RAII stdio handle.
struct File {
  std::FILE* f = nullptr;
  explicit File(const std::string& path) : f(std::fopen(path.c_str(), "rb")) {}
  ~File() {
    if (f != nullptr) std::fclose(f);
  }
};

}  // namespace

int SegmentFooter::FindColumn(const std::string& name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

SegmentBuilder::SegmentBuilder(std::string table,
                               std::vector<SegmentColumn> columns,
                               std::size_t capacity)
    : table_(std::move(table)),
      columns_(std::move(columns)),
      capacity_(capacity == 0 ? 1 : capacity) {
  ts_.reserve(capacity_);
  nodes_.reserve(capacity_);
  prod_.reserve(capacity_);
  cols_.resize(columns_.size());
  for (auto& col : cols_) col.reserve(capacity_);
}

std::uint16_t SegmentBuilder::InternProducer(const std::string& producer) {
  auto it = prod_index_.find(producer);
  if (it != prod_index_.end()) return it->second;
  const auto idx = static_cast<std::uint16_t>(prod_dict_.size());
  prod_dict_.push_back(producer);
  prod_index_.emplace(producer, idx);
  return idx;
}

void SegmentBuilder::Append(TimeNs ts, std::uint64_t node,
                            std::uint16_t producer,
                            const std::uint64_t* slots) {
  ts_.push_back(ts);
  nodes_.push_back(node);
  prod_.push_back(producer);
  for (std::size_t i = 0; i < cols_.size(); ++i) cols_[i].push_back(slots[i]);
  min_ts_ = std::min(min_ts_, ts);
  max_ts_ = std::max(max_ts_, ts);
}

void SegmentBuilder::Reset() {
  min_ts_ = ~TimeNs{0};
  max_ts_ = 0;
  ts_.clear();
  nodes_.clear();
  prod_.clear();
  for (auto& col : cols_) col.clear();
  prod_dict_.clear();
  prod_index_.clear();
}

Status WriteSegmentFile(const std::string& path, const SegmentBuilder& seg,
                        bool durable, bool compress, SegmentFooter* footer) {
  const auto& columns = seg.columns();
  const auto& producers = seg.producer_dict();
  if (producers.size() > 0xffff || columns.size() > 0xffff) {
    return {ErrorCode::kInvalidArgument,
            "segment " + path + ": too many producers or columns"};
  }
  // Streamed: each column block is written as it is encoded, so a seal
  // holds one column's encoding, never the whole file.
  AtomicFileWriter file(path);
  ByteWriter header;
  header.U32(kSegMagicV2);
  header.Str(seg.table());
  header.U16(static_cast<std::uint16_t>(columns.size()));
  file.Append(header.buffer().data(), header.size());

  const std::size_t n_cols = 3 + columns.size();
  std::vector<std::uint64_t> offsets(n_cols), crcs(n_cols), enc_lens(n_cols);
  std::vector<std::uint8_t> codecs(n_cols);
  // One scratch encode buffer shared by every column: cleared per column,
  // capacity retained, so a seal does at most one encode allocation total.
  std::vector<std::uint8_t> scratch;
  auto put_column = [&](const std::vector<std::uint64_t>& col,
                        ColumnCodec want, std::size_t idx) {
    offsets[idx] = file.size();
    const std::size_t raw_bytes = col.size() * sizeof(std::uint64_t);
    if (compress && want != ColumnCodec::kRaw) {
      scratch.clear();
      EncodeColumn(want, col.data(), col.size(), &scratch);
      if (scratch.size() < raw_bytes) {
        codecs[idx] = static_cast<std::uint8_t>(want);
        enc_lens[idx] = scratch.size();
        crcs[idx] = Fnv1aBytes(scratch.data(), scratch.size());
        file.Append(scratch.data(), scratch.size());
        return;
      }
    }
    codecs[idx] = static_cast<std::uint8_t>(ColumnCodec::kRaw);
    enc_lens[idx] = raw_bytes;
    crcs[idx] = Fnv1aWords(col.data(), col.size());
    file.Append(col.data(), raw_bytes);
  };
  put_column(seg.ts(), ColumnCodec::kDeltaOfDelta, SegmentFooter::kTsCol);
  put_column(seg.nodes(), ColumnCodec::kRle, SegmentFooter::kNodeCol);
  put_column(seg.producers_idx(), ColumnCodec::kRle, SegmentFooter::kProdCol);
  for (std::size_t i = 0; i < columns.size(); ++i) {
    const bool is_double = columns[i].type == MetricType::kD64 ||
                           columns[i].type == MetricType::kF32;
    put_column(seg.column(i), PreferredDataCodec(is_double),
               SegmentFooter::DataCol(i));
  }

  // Footer: the index. Node dictionary is sorted-unique with an overflow
  // escape so the footer stays small no matter what the segment holds.
  const std::uint64_t footer_offset = file.size();
  const TimeNs min_ts = seg.empty() ? 0 : seg.min_ts();
  ByteWriter w;
  w.Str(seg.table());
  w.U64(min_ts);
  w.U64(seg.max_ts());
  w.U64(seg.row_count());
  std::vector<std::uint64_t> dict(seg.nodes());
  std::sort(dict.begin(), dict.end());
  dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
  const bool overflow = dict.size() > SegmentBuilder::kMaxNodeDict;
  w.U8(overflow ? 1 : 0);
  if (overflow) dict.clear();
  w.U16(static_cast<std::uint16_t>(dict.size()));
  for (const std::uint64_t node : dict) w.U64(node);
  w.U16(static_cast<std::uint16_t>(producers.size()));
  for (const auto& p : producers) w.Str(p);
  w.U16(static_cast<std::uint16_t>(columns.size()));
  for (const auto& col : columns) {
    w.Str(col.name);
    w.U8(static_cast<std::uint8_t>(col.type));
  }
  for (const std::uint64_t off : offsets) w.U64(off);
  for (const std::uint64_t crc : crcs) w.U64(crc);
  for (const std::uint8_t codec : codecs) w.U8(codec);
  for (const std::uint64_t len : enc_lens) w.U64(len);
  const std::uint64_t footer_crc = Fnv1a(w.buffer().data(), w.size());
  w.U64(footer_offset);
  w.U64(footer_crc);
  w.U32(kTrailerMagicV2);
  if (!header.ok() || !w.ok()) {
    return {ErrorCode::kInvalidArgument,
            "segment " + path + ": a name is too long to encode"};
  }
  file.Append(w.buffer().data(), w.size());
  Status st = file.Commit(durable);
  if (!st.ok() || footer == nullptr) return st;

  footer->table = seg.table();
  footer->min_ts = min_ts;
  footer->max_ts = seg.max_ts();
  footer->row_count = seg.row_count();
  footer->node_overflow = overflow;
  // Exact size: the footer lives as long as the segment does.
  footer->nodes.assign(dict.begin(), dict.end());
  footer->producers = producers;
  footer->columns = columns;
  footer->offsets = std::move(offsets);
  footer->crcs = std::move(crcs);
  footer->codecs = std::move(codecs);
  footer->enc_lens = std::move(enc_lens);
  return Status::Ok();
}

Status ReadSegmentFooter(const std::string& path, SegmentFooter* out) {
  *out = SegmentFooter{};
  File file(path);
  if (file.f == nullptr) {
    return {ErrorCode::kNotFound, "segment " + path + ": cannot open"};
  }
  if (std::fseek(file.f, 0, SEEK_END) != 0) {
    return Corrupt(path, "seek failed");
  }
  const long size = std::ftell(file.f);
  if (size < 0 || static_cast<std::size_t>(size) < kTrailerSize) {
    return Corrupt(path, "shorter than trailer");
  }
  std::uint8_t trailer[kTrailerSize];
  if (std::fseek(file.f, -static_cast<long>(kTrailerSize), SEEK_END) != 0 ||
      std::fread(trailer, 1, kTrailerSize, file.f) != kTrailerSize) {
    return Corrupt(path, "trailer read failed");
  }
  ByteReader tr({reinterpret_cast<const std::byte*>(trailer), kTrailerSize});
  const std::uint64_t footer_offset = tr.U64();
  const std::uint64_t footer_crc = tr.U64();
  if (tr.U32() != kTrailerMagicV2) return Corrupt(path, "bad trailer magic");
  const std::size_t footer_end = static_cast<std::size_t>(size) - kTrailerSize;
  if (footer_offset >= footer_end) {
    return Corrupt(path, "footer offset out of range");
  }
  std::vector<std::byte> footer(footer_end - footer_offset);
  if (std::fseek(file.f, static_cast<long>(footer_offset), SEEK_SET) != 0 ||
      std::fread(footer.data(), 1, footer.size(), file.f) != footer.size()) {
    return Corrupt(path, "footer read failed");
  }
  if (Fnv1a(footer.data(), footer.size()) != footer_crc) {
    return Corrupt(path, "footer checksum mismatch");
  }
  ByteReader r(footer);
  out->table = r.Str();
  out->min_ts = r.U64();
  out->max_ts = r.U64();
  out->row_count = r.U64();
  out->node_overflow = r.U8() != 0;
  const std::uint16_t n_nodes = r.U16();
  out->nodes.reserve(n_nodes);
  for (std::uint16_t i = 0; i < n_nodes; ++i) out->nodes.push_back(r.U64());
  const std::uint16_t n_prod = r.U16();
  out->producers.reserve(n_prod);
  for (std::uint16_t i = 0; i < n_prod; ++i) out->producers.push_back(r.Str());
  const std::uint16_t n_cols = r.U16();
  out->columns.reserve(n_cols);
  for (std::uint16_t i = 0; i < n_cols; ++i) {
    SegmentColumn col;
    col.name = r.Str();
    col.type = static_cast<MetricType>(r.U8());
    out->columns.push_back(std::move(col));
  }
  const std::size_t total_cols = 3 + static_cast<std::size_t>(n_cols);
  out->offsets.reserve(total_cols);
  for (std::size_t i = 0; i < total_cols; ++i) out->offsets.push_back(r.U64());
  out->crcs.reserve(total_cols);
  for (std::size_t i = 0; i < total_cols; ++i) out->crcs.push_back(r.U64());
  out->codecs.reserve(total_cols);
  for (std::size_t i = 0; i < total_cols; ++i) out->codecs.push_back(r.U8());
  out->enc_lens.reserve(total_cols);
  for (std::size_t i = 0; i < total_cols; ++i) out->enc_lens.push_back(r.U64());
  if (!r.ok() || out->table.empty()) {
    return Corrupt(path, "malformed footer");
  }
  // Column blocks must fit inside the body (before the footer), raw blocks
  // must be exactly the slot run, and codec ids must be ones we know.
  for (std::size_t i = 0; i < total_cols; ++i) {
    const std::uint64_t off = out->offsets[i];
    const std::uint64_t len = out->enc_lens[i];
    if (off > footer_offset || len > footer_offset - off) {
      return Corrupt(path, "column run out of range");
    }
    if (out->codecs[i] > static_cast<std::uint8_t>(ColumnCodec::kDelta)) {
      return Corrupt(path, "unknown column codec");
    }
    if (out->codecs[i] == static_cast<std::uint8_t>(ColumnCodec::kRaw) &&
        len != out->row_count * sizeof(std::uint64_t)) {
      return Corrupt(path, "raw column length mismatch");
    }
  }
  return Status::Ok();
}

Status ReadSegmentColumn(const std::string& path, const SegmentFooter& footer,
                         std::size_t col, std::vector<std::uint64_t>* out,
                         std::vector<std::uint8_t>* scratch) {
  if (col >= footer.offsets.size()) {
    return Corrupt(path, "column index out of range");
  }
  File file(path);
  if (file.f == nullptr) {
    return {ErrorCode::kNotFound, "segment " + path + ": cannot open"};
  }
  const std::uint64_t offset = footer.offsets[col];
  const std::size_t enc_len = static_cast<std::size_t>(footer.enc_lens[col]);
  const auto codec = static_cast<ColumnCodec>(footer.codecs[col]);
  out->resize(footer.row_count);
  if (codec == ColumnCodec::kRaw) {
    // Raw blocks decode in place: read straight into the slot vector and
    // verify the word-folded CRC over it.
    if (enc_len > 0 &&
        (std::fseek(file.f, static_cast<long>(offset), SEEK_SET) != 0 ||
         std::fread(out->data(), 1, enc_len, file.f) != enc_len)) {
      return Corrupt(path, "column read failed");
    }
    if (Fnv1aWords(out->data(), footer.row_count) != footer.crcs[col]) {
      return Corrupt(path, "column checksum mismatch");
    }
    return Status::Ok();
  }
  std::vector<std::uint8_t> local;
  std::vector<std::uint8_t>& buf = scratch != nullptr ? *scratch : local;
  buf.resize(enc_len);
  if (enc_len > 0 &&
      (std::fseek(file.f, static_cast<long>(offset), SEEK_SET) != 0 ||
       std::fread(buf.data(), 1, enc_len, file.f) != enc_len)) {
    return Corrupt(path, "column read failed");
  }
  if (Fnv1aBytes(buf.data(), enc_len) != footer.crcs[col]) {
    return Corrupt(path, "column checksum mismatch");
  }
  if (!DecodeColumn(codec, buf.data(), enc_len, footer.row_count,
                    out->data())) {
    return Corrupt(path, "column decode failed");
  }
  return Status::Ok();
}

}  // namespace ldmsxx

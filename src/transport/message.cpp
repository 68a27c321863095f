#include "transport/message.hpp"

#include <cstring>
#include <unordered_set>
#include <utility>

#include "core/metric_set.hpp"

namespace ldmsxx {
namespace {

// Batch entry layout: u32 handle | u8 kind | body.
constexpr std::size_t kEntryKindAt = 4;
constexpr std::size_t kEntryLenAt = 5;
constexpr std::size_t kEntryPayloadAt = 9;

bool HasPayload(BatchEntryKind kind) {
  return kind == BatchEntryKind::kData || kind == BatchEntryKind::kDelta;
}

}  // namespace

std::size_t BeginFrame(ByteWriter& w, MsgType type, std::uint64_t request_id) {
  const std::size_t start = w.size();
  w.U32(0);  // payload length, patched by EndFrame
  w.U8(static_cast<std::uint8_t>(type));
  w.U64(request_id);
  return start;
}

void EndFrame(ByteWriter& w, std::size_t frame_start) {
  w.PatchU32(frame_start, static_cast<std::uint32_t>(
                              w.size() - frame_start - kFrameHeaderSize));
}

std::vector<std::byte> EncodeFrame(MsgType type, std::uint64_t request_id,
                                   std::span<const std::byte> payload) {
  ByteWriter w;
  const std::size_t start = BeginFrame(w, type, request_id);
  w.Raw(payload.data(), payload.size());
  EndFrame(w, start);
  return w.Take();
}

FrameHeader DecodeFrameHeader(std::span<const std::byte> bytes) {
  FrameHeader hdr;
  ByteReader r(bytes);
  hdr.payload_len = r.U32();
  hdr.type = static_cast<MsgType>(r.U8());
  hdr.request_id = r.U64();
  return hdr;
}

void WriteDirResponse(ByteWriter& w, const DirResponse& msg) {
  w.U8(msg.code);
  w.U32(static_cast<std::uint32_t>(msg.instances.size()));
  for (const auto& name : msg.instances) w.Str(name);
}

std::vector<std::byte> EncodeDirResponse(const DirResponse& msg) {
  ByteWriter w;
  WriteDirResponse(w, msg);
  return w.Take();
}

bool DecodeDirResponse(std::span<const std::byte> payload, DirResponse* out) {
  ByteReader r(payload);
  out->code = r.U8();
  const std::uint32_t n = r.U32();
  // Each instance costs at least the 2-byte length prefix on the wire, so a
  // count exceeding the remaining bytes is malformed — reject before
  // allocating anything proportional to it.
  if (static_cast<std::size_t>(n) > r.remaining() / 2) return false;
  out->instances.clear();
  out->instances.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    out->instances.push_back(r.Str());
  }
  return r.ok();
}

std::vector<std::byte> EncodeLookupRequest(const LookupRequest& msg) {
  ByteWriter w;
  w.Str(msg.instance);
  return w.Take();
}

bool DecodeLookupRequest(std::span<const std::byte> payload,
                         LookupRequest* out) {
  ByteReader r(payload);
  out->instance = r.Str();
  return r.ok();
}

void WriteLookupResponse(ByteWriter& w, const LookupResponse& msg) {
  w.U8(msg.code);
  w.Bytes(msg.metadata);
  w.U32(msg.handle);
}

std::vector<std::byte> EncodeLookupResponse(const LookupResponse& msg) {
  ByteWriter w;
  WriteLookupResponse(w, msg);
  return w.Take();
}

bool DecodeLookupResponse(std::span<const std::byte> payload,
                          LookupResponse* out) {
  ByteReader r(payload);
  out->code = r.U8();
  out->metadata = r.Bytes();
  out->handle = r.U32();
  return r.ok();
}

std::size_t LookupResponseSize(std::size_t metadata_bytes) {
  return 1 + 4 + metadata_bytes + 4;
}

std::vector<std::byte> EncodeAdvertise(const AdvertiseMsg& msg) {
  ByteWriter w;
  w.Str(msg.producer);
  w.Str(msg.dialback_address);
  w.Str(msg.transport);
  w.U8(msg.announce ? 1 : 0);
  w.U64(msg.node_id);
  return w.Take();
}

bool DecodeAdvertise(std::span<const std::byte> payload, AdvertiseMsg* out) {
  ByteReader r(payload);
  out->producer = r.Str();
  out->dialback_address = r.Str();
  out->transport = r.Str();
  out->announce = r.U8() != 0;
  out->node_id = r.U64();
  return r.ok();
}

std::vector<std::byte> EncodeUpdateBatchRequest(const UpdateBatchRequest& msg) {
  ByteWriter w;
  w.U32(static_cast<std::uint32_t>(msg.entries.size()));
  for (const auto& e : msg.entries) {
    w.U32(e.handle);
    w.U64(e.last_dgn);
  }
  w.U8(msg.accept_delta ? kBatchRevisionDelta : kBatchRevisionFull);
  return w.Take();
}

bool DecodeUpdateBatchRequest(std::span<const std::byte> payload,
                              UpdateBatchRequest* out) {
  ByteReader r(payload);
  const std::uint32_t n = r.U32();
  // Each entry is exactly 12 bytes; a count that cannot fit in the remaining
  // payload is malformed — reject before allocating proportional to it.
  if (static_cast<std::size_t>(n) > r.remaining() / 12) return false;
  out->entries.clear();
  out->entries.reserve(n);
  std::unordered_set<std::uint32_t> seen;
  seen.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    UpdateBatchRequest::Entry e;
    e.handle = r.U32();
    e.last_dgn = r.U64();
    // Response entries are keyed by handle, so duplicates would make the
    // reply ambiguous; treat them as malformed.
    if (!seen.insert(e.handle).second) return false;
    out->entries.push_back(e);
  }
  const std::uint8_t revision = r.U8();
  if (revision != kBatchRevisionFull && revision != kBatchRevisionDelta) {
    return false;
  }
  out->accept_delta = revision == kBatchRevisionDelta;
  return r.ok();
}

std::size_t UpdateBatchRequestSize(std::size_t entries) {
  return 4 + 12 * entries + 1;
}

void WriteUpdateBatchResponseHeader(ByteWriter& w, std::uint8_t code,
                                    std::size_t entries) {
  w.U8(code);
  w.U32(static_cast<std::uint32_t>(entries));
}

std::size_t UpdateBatchResponseHeaderSize() { return 1 + 4; }

std::size_t BeginBatchEntry(ByteWriter& w, std::uint32_t handle) {
  const std::size_t start = w.size();
  w.U32(handle);
  w.U8(0);   // kind, set by EndBatchEntry
  w.U32(0);  // payload length, patched (or dropped) by EndBatchEntry
  return start;
}

void EndBatchEntry(ByteWriter& w, std::size_t entry_start, BatchEntryKind kind,
                   std::uint8_t code) {
  if (HasPayload(kind)) {
    const std::span<std::byte> kind_byte =
        w.MutableSpan(entry_start + kEntryKindAt, 1);
    if (!kind_byte.empty()) kind_byte[0] = static_cast<std::byte>(kind);
    w.PatchU32(entry_start + kEntryLenAt,
               static_cast<std::uint32_t>(w.size() - entry_start -
                                          kEntryPayloadAt));
    return;
  }
  w.Truncate(entry_start + kEntryKindAt);
  w.U8(static_cast<std::uint8_t>(kind));
  if (kind == BatchEntryKind::kError) w.U8(code);
}

std::size_t BatchEntrySize(BatchEntryKind kind, std::size_t payload_bytes) {
  if (HasPayload(kind)) return kEntryPayloadAt + payload_bytes;
  return kEntryKindAt + 1 + (kind == BatchEntryKind::kError ? 1 : 0);
}

std::vector<std::byte> EncodeUpdateBatchResponse(
    const UpdateBatchResponse& msg) {
  ByteWriter w;
  WriteUpdateBatchResponseHeader(w, msg.code, msg.entries.size());
  for (const auto& e : msg.entries) {
    const std::size_t start = BeginBatchEntry(w, e.handle);
    if (HasPayload(e.kind)) w.Raw(e.data.data(), e.data.size());
    EndBatchEntry(w, start, e.kind, e.code);
  }
  return w.Take();
}

bool VisitUpdateBatchResponse(
    std::span<const std::byte> payload, std::uint8_t* code,
    const std::function<void(const BatchEntryView&)>& visit) {
  ByteReader r(payload);
  *code = r.U8();
  const std::uint32_t n = r.U32();
  // The smallest entry (kUnchanged) is 5 bytes on the wire.
  if (static_cast<std::size_t>(n) > r.remaining() / 5) return false;
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    BatchEntryView e;
    e.handle = r.U32();
    const std::uint8_t kind = r.U8();
    switch (kind) {
      case static_cast<std::uint8_t>(BatchEntryKind::kUnchanged):
        e.kind = BatchEntryKind::kUnchanged;
        break;
      case static_cast<std::uint8_t>(BatchEntryKind::kData):
        e.kind = BatchEntryKind::kData;
        e.data = r.View(r.U32());
        break;
      case static_cast<std::uint8_t>(BatchEntryKind::kDelta):
        e.kind = BatchEntryKind::kDelta;
        e.data = r.View(r.U32());
        // Reject structurally malformed deltas (truncated extent table,
        // overlapping/unsorted extents, value bytes not matching the table)
        // at the framing layer, before they reach any mirror.
        if (!r.ok() || !MetricSet::ValidateDeltaPayload(e.data)) return false;
        break;
      case static_cast<std::uint8_t>(BatchEntryKind::kError):
        e.kind = BatchEntryKind::kError;
        e.code = r.U8();
        break;
      default:
        return false;  // unknown entry kind
    }
    if (!r.ok()) return false;
    visit(e);
  }
  return r.ok();
}

bool DecodeUpdateBatchResponse(std::span<const std::byte> payload,
                               UpdateBatchResponse* out) {
  out->entries.clear();
  return VisitUpdateBatchResponse(
      payload, &out->code, [out](const BatchEntryView& e) {
        out->entries.push_back(
            {e.handle, e.kind, e.code, {e.data.begin(), e.data.end()}});
      });
}

std::vector<std::byte> EncodeQueryRequest(const QueryRequest& msg) {
  ByteWriter w;
  w.Str(msg.strgp);
  w.Str(msg.table);
  w.U64(msg.t0);
  w.U64(msg.t1);
  w.U32(static_cast<std::uint32_t>(msg.nodes.size()));
  for (const std::uint64_t n : msg.nodes) w.U64(n);
  w.U32(static_cast<std::uint32_t>(msg.metrics.size()));
  for (const auto& m : msg.metrics) w.Str(m);
  w.U32(msg.limit);
  return w.Take();
}

bool DecodeQueryRequest(std::span<const std::byte> payload, QueryRequest* out) {
  ByteReader r(payload);
  out->strgp = r.Str();
  out->table = r.Str();
  out->t0 = r.U64();
  out->t1 = r.U64();
  const std::uint32_t nnodes = r.U32();
  if (static_cast<std::size_t>(nnodes) > r.remaining() / 8) return false;
  out->nodes.clear();
  out->nodes.reserve(nnodes);
  for (std::uint32_t i = 0; i < nnodes && r.ok(); ++i) {
    out->nodes.push_back(r.U64());
  }
  const std::uint32_t nmetrics = r.U32();
  // Each metric name costs at least its 2-byte length prefix.
  if (static_cast<std::size_t>(nmetrics) > r.remaining() / 2) return false;
  out->metrics.clear();
  out->metrics.reserve(nmetrics);
  for (std::uint32_t i = 0; i < nmetrics && r.ok(); ++i) {
    out->metrics.push_back(r.Str());
  }
  out->limit = r.U32();
  return r.ok();
}

void WriteQueryResponse(ByteWriter& w, const QueryResponse& msg) {
  const TsdbQueryResult& r = msg.result;
  w.U8(msg.code);
  w.Str(msg.error);
  w.U16(static_cast<std::uint16_t>(r.columns.size()));
  for (const auto& c : r.columns) w.Str(c);
  w.U32(static_cast<std::uint32_t>(r.rows.size()));
  for (const auto& row : r.rows) {
    w.U64(row.ts);
    w.U64(row.node);
    for (const double v : row.values) w.D64(v);
  }
  w.U64(msg.total_rows);
  w.U8(msg.truncated);
  w.U64(r.segments_considered);
  w.U64(r.segments_pruned);
  w.U64(r.segments_read);
  w.U64(r.bytes_read);
  w.U64(r.bytes_decoded);
}

std::vector<std::byte> EncodeQueryResponse(const QueryResponse& msg) {
  ByteWriter w;
  WriteQueryResponse(w, msg);
  return w.Take();
}

std::size_t QueryResponseSize(const QueryResponse& msg) {
  // ByteWriter::Str refuses (writes nothing for) a string past its u16.
  auto str = [](const std::string& s) {
    return s.size() > 0xffff ? 0 : 2 + s.size();
  };
  const TsdbQueryResult& r = msg.result;
  std::size_t size = 1 + str(msg.error) + 2;
  for (const auto& c : r.columns) size += str(c);
  size += 4;
  for (const auto& row : r.rows) size += 16 + 8 * row.values.size();
  return size + 8 + 1 + 5 * 8;
}

bool DecodeQueryResponse(std::span<const std::byte> payload,
                         QueryResponse* out) {
  TsdbQueryResult& res = out->result;
  ByteReader r(payload);
  out->code = r.U8();
  out->error = r.Str();
  const std::uint16_t ncols = r.U16();
  if (static_cast<std::size_t>(ncols) > r.remaining() / 2) return false;
  res.columns.clear();
  res.columns.reserve(ncols);
  for (std::uint16_t i = 0; i < ncols && r.ok(); ++i) {
    res.columns.push_back(r.Str());
  }
  const std::uint32_t nrows = r.U32();
  // Each row is exactly 16 + 8 * ncols bytes.
  const std::size_t row_bytes = 16 + 8 * static_cast<std::size_t>(ncols);
  if (static_cast<std::size_t>(nrows) > r.remaining() / row_bytes) return false;
  res.rows.clear();
  res.rows.reserve(nrows);
  for (std::uint32_t i = 0; i < nrows && r.ok(); ++i) {
    TsdbQueryRow& row = res.rows.emplace_back();
    row.ts = r.U64();
    row.node = r.U64();
    row.values.reserve(ncols);
    for (std::uint16_t c = 0; c < ncols; ++c) row.values.push_back(r.D64());
  }
  out->total_rows = r.U64();
  out->truncated = r.U8();
  res.segments_considered = r.U64();
  res.segments_pruned = r.U64();
  res.segments_read = r.U64();
  res.bytes_read = r.U64();
  res.bytes_decoded = r.U64();
  return r.ok();
}

}  // namespace ldmsxx

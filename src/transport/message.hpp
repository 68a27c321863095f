// Wire protocol between ldmsd peers, mirroring the paper's Figure 2 flows:
// dir (set discovery), lookup (returns the metadata chunk and a set handle
// once), the batch update (pulls only data chunks, one frame per producer
// per interval), plus an advertise control message supporting connection
// initiation from the sampler side ("mechanisms to enable initiation of a
// connection from either side", §IV-B).
//
// Frame layout: u32 payload_len | u8 type | u64 request_id | payload.
//
// This is the one encoder module. The response writers (Write*, and the
// batch response's header/entry steps) append through a ByteWriter, which
// the sock listener points at a connection's output buffer to encode in
// place; Encode* return a fresh vector and share those writers. Decoders
// return false on malformed input, including any strict prefix of a valid
// payload.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/wire.hpp"
#include "store/tsdb/query_result.hpp"
#include "util/status.hpp"

namespace ldmsxx {

enum class MsgType : std::uint8_t {
  kDirReq = 1,
  kDirResp,
  kLookupReq,
  kLookupResp,
  // 5 and 6 carried the per-set update pull, which the batch frames
  // replaced; the numbers stay retired so every other type keeps its value.
  kAdvertise = 7,    // sampler -> aggregator: "connect back to me"
  kUpdateBatchReq,   // aggregator -> producer: (handle, last_dgn) pairs
  kUpdateBatchResp,  // producer -> aggregator: data / unchanged / error entries
  kQueryReq,   // aggregator -> leaf: run a tsdb predicate on your local store
  kQueryResp,  // leaf -> aggregator: bounded result page + scan counters
};

/// The batch request's trailing revision byte: kBatchRevisionDelta lets the
/// server answer with kDelta entries, kBatchRevisionFull asks for full
/// chunks only (prdcr_add delta=0).
constexpr std::uint8_t kBatchRevisionFull = 1;
constexpr std::uint8_t kBatchRevisionDelta = 2;

/// "No handle assigned." Handles are compact u32 ids a producer assigns at
/// lookup time; they address the set in batch updates without re-sending the
/// instance name on every cycle.
constexpr std::uint32_t kInvalidSetHandle = 0xffffffffu;

/// Upper bound on a frame payload. Metric sets are tens of kB; anything
/// near this limit is a corrupt or hostile peer, and both ends of the sock
/// transport drop the connection rather than allocate unbounded buffers.
constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/// Fixed part of every frame.
struct FrameHeader {
  std::uint32_t payload_len = 0;
  MsgType type = MsgType::kDirReq;
  std::uint64_t request_id = 0;
};
constexpr std::size_t kFrameHeaderSize = 4 + 1 + 8;

struct DirResponse {
  std::uint8_t code = 0;  // ErrorCode as u8
  std::vector<std::string> instances;
};

struct LookupRequest {
  std::string instance;
};

/// Lookup answer. Wire form: u8 code | u32 len, metadata | u32 handle. The
/// handle addresses the set in batch updates; a failed lookup carries no
/// metadata and kInvalidSetHandle.
struct LookupResponse {
  std::uint8_t code = 0;
  std::vector<std::byte> metadata;
  std::uint32_t handle = kInvalidSetHandle;
};

/// One batched pull for every set on a producer. Wire form:
///   u32 count | count x (u32 handle, u64 last_dgn) | u8 revision
/// The decoder rejects duplicate handles (response entries are keyed by
/// handle, so a duplicate would make the reply ambiguous) and any revision
/// other than kBatchRevisionFull/kBatchRevisionDelta.
struct UpdateBatchRequest {
  struct Entry {
    std::uint32_t handle = kInvalidSetHandle;
    std::uint64_t last_dgn = 0;
  };
  std::vector<Entry> entries;
  /// Revision byte: whether the server may answer with kDelta entries.
  bool accept_delta = true;
};

/// Per-entry result kind inside a batch response.
enum class BatchEntryKind : std::uint8_t {
  kUnchanged = 0,  // DGN has not advanced past last_dgn; no payload
  kData = 1,       // full data chunk follows
  kError = 2,      // per-set failure (unknown handle, torn snapshot, ...)
  kDelta = 3,      // changed-extents delta against the client's last_dgn
};

/// Batch response. Wire form:
///   u8 code | u32 count | count x entry
///   entry: u32 handle | u8 kind | (kData: u32 len, bytes)
///                                 (kDelta: u32 len, delta payload)
///                                 (kError: u8 code)
///                                 (kUnchanged: nothing)  -- exactly 5 bytes
/// A kDelta payload is the MetricSet delta format (see metric_set.hpp):
///   u32 meta_gn | u64 base_dgn | u64 new_dgn | u32 ts_sec | u32 ts_usec |
///   u16 extent_count | extents | packed values
/// and is structurally validated at decode time, so a malformed delta is a
/// framing error, never a half-applied mirror.
/// A non-zero top-level code means the whole request failed (e.g. malformed)
/// and count is 0.
struct UpdateBatchResponse {
  struct Entry {
    std::uint32_t handle = kInvalidSetHandle;
    BatchEntryKind kind = BatchEntryKind::kError;
    std::uint8_t code = 0;  // ErrorCode, kError entries only
    std::vector<std::byte> data;
  };
  std::uint8_t code = 0;
  std::vector<Entry> entries;
};

/// Tree-sharded query fan-out: the root aggregator forwards a tsdb
/// predicate to each leaf, which runs it against its local store and
/// answers with a bounded page of rows. Wire form:
///   str strgp | str table | u64 t0 | u64 t1 |
///   u32 nnodes | nnodes x u64 | u32 nmetrics | nmetrics x str | u32 limit
struct QueryRequest {
  std::string strgp;  ///< storage policy name the store is registered under
  std::string table;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = ~std::uint64_t{0};
  std::vector<std::uint64_t> nodes;   ///< empty = all nodes
  std::vector<std::string> metrics;   ///< empty = all columns
  /// Row cap for the response page; 0 = the server's default cap. The server
  /// never exceeds its own kMaxQueryRespRows regardless.
  std::uint32_t limit = 0;
};

/// Hard server-side ceiling on rows in one kQueryResp page; a fan-out over
/// many leaves must stay bounded no matter what limit the client asked for.
constexpr std::uint32_t kMaxQueryRespRows = 65536;

/// Query answer: one page of the leaf's result, its scan counters
/// included, so the root can aggregate pruning/compression effectiveness
/// across the tree. Wire form:
///   u8 code | str error | u16 ncols | ncols x str |
///   u32 nrows | nrows x (u64 ts, u64 node, ncols x f64) |
///   u64 total_rows | u8 truncated |
///   u64 segments_considered | u64 segments_pruned | u64 segments_read |
///   u64 bytes_read | u64 bytes_decoded
struct QueryResponse {
  std::uint8_t code = 0;  // ErrorCode as u8; non-zero => result empty
  std::string error;
  TsdbQueryResult result;
  /// Rows the predicate matched on this leaf (>= result.rows.size(); they
  /// differ exactly when truncated is set).
  std::uint64_t total_rows = 0;
  std::uint8_t truncated = 0;
};

struct AdvertiseMsg {
  std::string producer;
  std::string dialback_address;  // where the aggregator should connect
  std::string transport;         // transport plugin name for dialback
  /// Both always on the wire; a frame without them is refused. announce
  /// upgrades a plain advertise to self-assembly: "place me in the
  /// aggregation tree" — the receiving seed aggregator consults its
  /// TreeManager, assigns a leaf, and persists the assignment. node_id is
  /// the announcing host's torus node id, the rendezvous placement input.
  bool announce = false;
  std::uint64_t node_id = 0;
};

/// Encode a complete frame (header + payload).
std::vector<std::byte> EncodeFrame(MsgType type, std::uint64_t request_id,
                                   std::span<const std::byte> payload);

/// Parse a frame header from exactly kFrameHeaderSize bytes.
FrameHeader DecodeFrameHeader(std::span<const std::byte> bytes);

/// Start a frame on @p w: a header whose payload length EndFrame patches
/// once the payload is appended. Returns the frame's offset in the buffer.
std::size_t BeginFrame(ByteWriter& w, MsgType type, std::uint64_t request_id);
void EndFrame(ByteWriter& w, std::size_t frame_start);

void WriteDirResponse(ByteWriter& w, const DirResponse& msg);
std::vector<std::byte> EncodeDirResponse(const DirResponse& msg);
bool DecodeDirResponse(std::span<const std::byte> payload, DirResponse* out);

std::vector<std::byte> EncodeLookupRequest(const LookupRequest& msg);
bool DecodeLookupRequest(std::span<const std::byte> payload, LookupRequest* out);

void WriteLookupResponse(ByteWriter& w, const LookupResponse& msg);
std::vector<std::byte> EncodeLookupResponse(const LookupResponse& msg);
bool DecodeLookupResponse(std::span<const std::byte> payload,
                          LookupResponse* out);

std::vector<std::byte> EncodeAdvertise(const AdvertiseMsg& msg);
bool DecodeAdvertise(std::span<const std::byte> payload, AdvertiseMsg* out);

std::vector<std::byte> EncodeUpdateBatchRequest(const UpdateBatchRequest& msg);
bool DecodeUpdateBatchRequest(std::span<const std::byte> payload,
                              UpdateBatchRequest* out);

/// The batch response is written in three steps so a server can produce
/// each entry's payload straight into the frame: the header, then per entry
/// BeginBatchEntry, the payload bytes (kData/kDelta only), and EndBatchEntry,
/// which fills in the kind and either the payload length or the error code.
void WriteUpdateBatchResponseHeader(ByteWriter& w, std::uint8_t code,
                                    std::size_t entries);
std::size_t BeginBatchEntry(ByteWriter& w, std::uint32_t handle);
void EndBatchEntry(ByteWriter& w, std::size_t entry_start, BatchEntryKind kind,
                   std::uint8_t code);
std::vector<std::byte> EncodeUpdateBatchResponse(const UpdateBatchResponse& msg);
bool DecodeUpdateBatchResponse(std::span<const std::byte> payload,
                               UpdateBatchResponse* out);

/// One entry of a kUpdateBatchResp payload, its data a view of the payload.
struct BatchEntryView {
  std::uint32_t handle = kInvalidSetHandle;
  BatchEntryKind kind = BatchEntryKind::kError;
  std::uint8_t code = 0;
  std::span<const std::byte> data;
};

/// Decode a kUpdateBatchResp payload without copying entry data: store the
/// top-level code in @p code and hand each well-formed entry to @p visit.
/// False when the payload is malformed (truncated, an unknown entry kind, a
/// delta the validator rejects); the entries before the fault have been
/// visited by then. DecodeUpdateBatchResponse is this walk keeping copies.
bool VisitUpdateBatchResponse(
    std::span<const std::byte> payload, std::uint8_t* code,
    const std::function<void(const BatchEntryView&)>& visit);

/// Payload sizes of the frames above, for a transport that models a frame
/// instead of encoding it (local): the same layouts, counted.
std::size_t LookupResponseSize(std::size_t metadata_bytes);
std::size_t UpdateBatchRequestSize(std::size_t entries);
std::size_t UpdateBatchResponseHeaderSize();
std::size_t BatchEntrySize(BatchEntryKind kind, std::size_t payload_bytes);

std::vector<std::byte> EncodeQueryRequest(const QueryRequest& msg);
bool DecodeQueryRequest(std::span<const std::byte> payload, QueryRequest* out);

void WriteQueryResponse(ByteWriter& w, const QueryResponse& msg);
std::vector<std::byte> EncodeQueryResponse(const QueryResponse& msg);
/// EncodeQueryResponse(msg).size(), counted without encoding a row.
std::size_t QueryResponseSize(const QueryResponse& msg);
bool DecodeQueryResponse(std::span<const std::byte> payload,
                         QueryResponse* out);

}  // namespace ldmsxx

// Endpoint base-class bodies and the batch serving policy every transport
// shares: sock runs ServeBatchEntry into its connection buffer, local and
// rdma into the result's data, so the three answer alike by construction.
#include "transport/transport.hpp"

namespace ldmsxx {

Status Endpoint::RemoteQuery(const QueryRequest& req, QueryResponse* resp) {
  (void)req;
  *resp = QueryResponse{};
  resp->code = static_cast<std::uint8_t>(ErrorCode::kUnsupported);
  resp->error = "transport does not carry query frames";
  return {ErrorCode::kUnsupported, "transport does not carry query frames"};
}

Status Endpoint::Lookup(const std::string& instance,
                        std::vector<std::byte>* metadata) {
  return LookupEx(instance, metadata, nullptr);
}

void Endpoint::LookupAsync(const std::string& instance, AsyncHandler handler) {
  std::vector<std::byte> metadata;
  Status st = Lookup(instance, &metadata);
  handler(std::move(st), std::move(metadata));
}

Status Endpoint::UpdateRaw(const std::string& instance,
                           std::vector<std::byte>* data) {
  (void)data;
  return {ErrorCode::kUnsupported,
          "per-set pulls are retired; use LookupEx + UpdateBatch for " +
              instance};
}

void Endpoint::UpdateAsync(const std::string& instance, AsyncHandler handler) {
  std::vector<std::byte> data;
  Status st = UpdateRaw(instance, &data);
  handler(std::move(st), std::move(data));
}

void ServedEntry::CountInto(TransportStats* stats) const {
  if (stats == nullptr) return;
  if (kind == BatchEntryKind::kUnchanged) {
    stats->updates_unchanged.fetch_add(1, std::memory_order_relaxed);
  } else if (kind == BatchEntryKind::kDelta) {
    stats->updates_delta.fetch_add(1, std::memory_order_relaxed);
    stats->delta_bytes_saved.fetch_add(bytes_saved, std::memory_order_relaxed);
  }
}

ServedEntry ServeBatchEntry(const MetricSet* set, std::uint64_t last_dgn,
                            bool accept_delta, ByteWriter& out) {
  if (set == nullptr) return {BatchEntryKind::kError, ErrorCode::kNotFound};
  // DGN gate: only an exact match means "the chunk you already hold". A
  // producer restart can reset the DGN below last_dgn, and that chunk is
  // new data the aggregator must see.
  if (set->data_gn() == last_dgn && set->consistent()) {
    return {BatchEntryKind::kUnchanged};
  }
  const std::size_t start = out.size();
  // Delta: the changed extents go straight from the live chunk into @p out.
  // SnapshotDelta declines (rolling @p out back) when the set did not
  // advance exactly one transaction past last_dgn (no delta chains), when
  // the delta would not be smaller than the chunk, or on a torn read; the
  // full chunk follows.
  if (accept_delta && set->SnapshotDelta(last_dgn, out).ok()) {
    return {BatchEntryKind::kDelta, ErrorCode::kOk,
            set->data_size() - (out.size() - start)};
  }
  const std::size_t size = set->data_size();
  const Status st = set->SnapshotData(out.MutableSpan(out.Extend(size), size));
  if (!st.ok()) {
    out.Truncate(start);
    return {BatchEntryKind::kError, st.code()};
  }
  return {BatchEntryKind::kData};
}

}  // namespace ldmsxx

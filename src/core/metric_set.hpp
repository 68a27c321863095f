// The metric set: LDMS's unit of collection. Two contiguous chunks live in
// the daemon's MemManager pool (§IV-B):
//
//   metadata chunk — serialized set/schema description plus a metadata
//     generation number (MGN); sent once per lookup.
//   data chunk — header {MGN copy, data generation number (DGN), timestamp,
//     consistent flag} followed by the packed metric values; this is the only
//     part pulled on each update (~10% of the set size, §IV-B).
//
// Writers use Begin/EndTransaction around a sampling pass; readers take
// seqlock-style snapshots so a torn concurrent read is detected, never
// silently stored (§IV-B "Storage").
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/mem_manager.hpp"
#include "core/schema.hpp"
#include "core/value.hpp"
#include "core/wire.hpp"
#include "util/clock.hpp"
#include "util/status.hpp"

namespace ldmsxx {

class MetricSet;
using MetricSetPtr = std::shared_ptr<MetricSet>;

/// A metric set resident in a daemon's memory pool. Local sets are created
/// from a Schema by samplers; mirror sets are reconstructed on aggregators
/// from a peer's serialized metadata.
class MetricSet {
 public:
  /// Header prepended to the data chunk. Standard layout; data_gn is accessed
  /// through std::atomic_ref for the seqlock protocol.
  struct DataHeader {
    std::uint32_t magic;
    std::uint32_t meta_gn;
    std::uint64_t data_gn;
    std::uint32_t ts_sec;
    std::uint32_t ts_usec;
    std::uint32_t consistent;
    std::uint32_t reserved;
  };
  static_assert(sizeof(DataHeader) == 32);

  /// Create a local (writable) set.
  /// @param mem       pool the chunks are carved from
  /// @param schema    metric definitions (layout is finalized here; do not
  ///                  add metrics to @p schema afterwards)
  /// @param instance  set instance name, e.g. "nid00042/meminfo"
  /// @param producer  producer (host) name stored with the set
  /// @param component_id default component ID for metrics defined with 0
  /// Returns nullptr and sets @p status on pool exhaustion (kOutOfMemory) or
  /// when a name is longer than the metadata's u16 length prefix can hold
  /// (kInvalidArgument; nothing is allocated then).
  static MetricSetPtr Create(MemManager& mem, const Schema& schema,
                             std::string instance, std::string producer,
                             std::uint64_t component_id, Status* status);

  /// Reconstruct a read-mostly mirror from serialized metadata received in a
  /// lookup reply. The mirror's data chunk is overwritten by ApplyData().
  static MetricSetPtr CreateMirror(MemManager& mem,
                                   std::span<const std::byte> metadata,
                                   Status* status);

  ~MetricSet();

  MetricSet(const MetricSet&) = delete;
  MetricSet& operator=(const MetricSet&) = delete;

  const Schema& schema() const { return schema_; }
  const std::string& instance_name() const { return instance_; }
  const std::string& producer_name() const { return producer_; }
  std::uint64_t component_id() const { return component_id_; }

  std::uint32_t meta_gn() const;
  std::uint64_t data_gn() const;
  bool consistent() const;
  /// Timestamp of the last completed transaction.
  TimeNs timestamp() const;

  std::size_t meta_size() const { return meta_size_; }
  std::size_t data_size() const { return data_size_; }
  /// Total pool bytes this set occupies.
  std::size_t total_size() const { return meta_size_ + data_size_; }

  // --- writer side (sampling plugins) ---------------------------------

  /// Mark the set inconsistent and open a write pass.
  void BeginTransaction();
  /// Stamp @p ts, bump the DGN, and mark the set consistent.
  void EndTransaction(TimeNs ts);

  void SetU64(std::size_t idx, std::uint64_t v) { StoreScalar(idx, &v); }
  void SetS64(std::size_t idx, std::int64_t v) { StoreScalar(idx, &v); }
  void SetD64(std::size_t idx, double v) { StoreScalar(idx, &v); }
  void SetU32(std::size_t idx, std::uint32_t v) { StoreScalar(idx, &v); }
  void SetValue(std::size_t idx, const MetricValue& v);

  // --- reader side ------------------------------------------------------

  std::uint64_t GetU64(std::size_t idx) const;
  std::int64_t GetS64(std::size_t idx) const;
  double GetD64(std::size_t idx) const;
  /// Type-erased read honoring the metric's declared type.
  MetricValue GetValue(std::size_t idx) const;

  /// Serialized metadata (the lookup-reply payload).
  std::span<const std::byte> metadata_bytes() const {
    return {meta_, meta_size_};
  }
  /// Raw data chunk (header + values). Reading this while a writer is active
  /// can tear; use SnapshotData() when consistency matters.
  std::span<const std::byte> data_bytes() const { return {data_, data_size_}; }

  /// Copy the data chunk into @p out with a seqlock retry loop. Fails with
  /// kInconsistent if a stable, consistent snapshot cannot be obtained in a
  /// bounded number of retries (writer continuously active).
  Status SnapshotData(std::span<std::byte> out) const;

  /// Overwrite this mirror's data chunk with @p data pulled from a peer.
  /// Rejects wrong-size chunks, MGN mismatches (kInvalidArgument), torn or
  /// stale payloads (kInconsistent) — the aggregator then skips the store and
  /// retries next interval, exactly the paper's behaviour.
  Status ApplyData(std::span<const std::byte> data);

  // --- delta update path ------------------------------------------------
  //
  // A writer-side dirty bitmap (maintained by the Set* calls between
  // Begin/EndTransaction) is compiled at commit into run-length {offset,len}
  // extents over the value area. A reader that already holds the previous
  // DGN can then pull just the changed bytes. Payload layout (all LE):
  //
  //   u32 meta_gn | u64 base_dgn | u64 new_dgn | u32 ts_sec | u32 ts_usec |
  //   u16 extent_count | extent_count x (u32 offset, u32 len) |
  //   packed values (sum of extent lengths bytes)
  //
  // Extents are value-area-relative, strictly increasing, non-overlapping.
  // There are no delta chains: a delta is only offered for the exact
  // predecessor DGN, so a missed cycle forces a full chunk.

  /// One changed byte range in the value area. Matches the wire encoding.
  struct DeltaExtent {
    std::uint32_t offset;
    std::uint32_t len;
  };
  static_assert(sizeof(DeltaExtent) == 8);

  /// Bytes before the extent table in a delta payload.
  static constexpr std::size_t kDeltaPayloadHeaderSize = 4 + 8 + 8 + 4 + 4 + 2;

  /// Gather-encode a delta payload for a reader whose mirror holds
  /// @p base_dgn, appending to @p w (extent bytes go straight from the live
  /// chunk into the writer via Extend/MutableSpan — no staging buffer) under
  /// the same seqlock validation as SnapshotData. Returns kOk with the
  /// payload appended, kNotFound when no delta exists for that base (never
  /// for base 0, a reader that has not received a sample yet) or the delta
  /// would not be smaller than the full chunk (caller ships kData), or
  /// kInconsistent when the writer stayed active through every retry. On
  /// anything but kOk the writer is rolled back to its original size.
  Status SnapshotDelta(std::uint64_t base_dgn, ByteWriter& w) const;

  /// Apply a delta payload to this mirror's chunk. Validates structure
  /// (ValidateDeltaPayload), MGN, that base_dgn matches the chunk's current
  /// DGN with the chunk consistent (a torn or skipped apply forces a full
  /// chunk), and that every extent is inside the value area; then copies
  /// extent bytes straight from @p payload into the chunk and stamps the
  /// header. The applied extents are recorded so a second-level aggregator
  /// can be served deltas off this mirror.
  Status ApplyDelta(std::span<const std::byte> payload);

  /// Structural validation only (no schema knowledge): header present,
  /// extent table complete, extents strictly increasing and non-overlapping,
  /// new_dgn > base_dgn, and the value region exactly the sum of extent
  /// lengths. Transports use this to reject malformed frames early.
  static bool ValidateDeltaPayload(std::span<const std::byte> payload);

  /// Seqlock contention counters: retries = snapshot attempts that observed
  /// a concurrent writer and looped; starved = snapshot calls that exhausted
  /// every retry (kInconsistent against a continuously-active writer).
  std::uint64_t snapshot_retries() const {
    return snapshot_retries_.load(std::memory_order_relaxed);
  }
  std::uint64_t snapshot_starved() const {
    return snapshot_starved_.load(std::memory_order_relaxed);
  }

  static constexpr std::uint32_t kDataMagic = 0x4c444d44;  // "LDMD"
  static constexpr std::uint32_t kMetaMagic = 0x4c444d4d;  // "LDMM"

 private:
  MetricSet(MemPoolPtr mem, Schema schema, std::string instance,
            std::string producer, std::uint64_t component_id);

  Status AllocateChunks(std::span<const std::byte> serialized_meta);
  DataHeader* header() { return reinterpret_cast<DataHeader*>(data_); }
  const DataHeader* header() const {
    return reinterpret_cast<const DataHeader*>(data_);
  }
  std::byte* value_area() { return data_ + sizeof(DataHeader); }
  const std::byte* value_area() const { return data_ + sizeof(DataHeader); }

  void StoreScalar(std::size_t idx, const void* src);

  void MarkDirty(std::size_t idx) {
    dirty_words_[idx >> 6] |= 1ull << (idx & 63);
  }
  /// Compile the dirty bitmap into delta_extents_ for the transaction
  /// committing at @p base_dgn -> base_dgn + 1. Writer-side only, called
  /// inside the transaction window (consistent == 0).
  void CompileDirtyExtents(std::uint64_t base_dgn);

  /// Serialize header+schema into metadata bytes; MGN is a content hash so
  /// identical schemas produce identical MGNs across restarts. Empty when a
  /// name does not fit its u16 length prefix.
  static std::vector<std::byte> SerializeMetadata(
      const Schema& schema, const std::string& instance,
      const std::string& producer, std::uint64_t component_id);

  /// Shared: keeps the pool alive while this set (or a remote pin of it)
  /// exists, regardless of daemon teardown order.
  MemPoolPtr mem_;
  Schema schema_;
  std::string instance_;
  std::string producer_;
  std::uint64_t component_id_ = 0;

  std::byte* meta_ = nullptr;
  std::byte* data_ = nullptr;
  std::size_t meta_size_ = 0;
  std::size_t data_size_ = 0;

  /// Sentinel for "no delta information" (fresh set, or after a full-chunk
  /// ApplyData which loses per-metric change knowledge).
  static constexpr std::uint64_t kNoDeltaBase = ~0ull;

  /// One bit per metric, set by the Set* writers, cleared at
  /// BeginTransaction. Only meaningful between Begin and EndTransaction.
  std::vector<std::uint64_t> dirty_words_;
  /// Compiled extents for the last committed transaction (or last applied
  /// delta, on mirrors). Fixed capacity = metric count, allocated once, so a
  /// concurrent seqlock-validated reader never races a reallocation.
  std::unique_ptr<DeltaExtent[]> delta_extents_;
  std::uint32_t delta_extent_cap_ = 0;
  std::uint32_t delta_extent_count_ = 0;
  std::uint64_t delta_base_dgn_ = kNoDeltaBase;

  mutable std::atomic<std::uint64_t> snapshot_retries_{0};
  mutable std::atomic<std::uint64_t> snapshot_starved_{0};
};

}  // namespace ldmsxx

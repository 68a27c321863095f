#include "core/metric_set.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <optional>

#include "core/wire.hpp"

namespace ldmsxx {
namespace {

/// FNV-1a over the serialized metadata with the MGN field zeroed, reduced to
/// 32 bits. Content addressing means a restarted sampler with an unchanged
/// schema presents the same MGN, so aggregators keep their mirrors.
std::uint32_t HashMetadata(std::span<const std::byte> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ull;
  }
  std::uint32_t folded = static_cast<std::uint32_t>(h ^ (h >> 32));
  return folded == 0 ? 1 : folded;  // 0 is reserved for "unset"
}

constexpr std::size_t kMgnFieldOffset = 4;  // after magic

// Adjacent dirty extents closer than this many clean bytes are merged:
// shipping a few unchanged padding/neighbour bytes is cheaper than another
// 8-byte extent table entry (and keeps the gather loop cache-friendly).
constexpr std::uint32_t kDeltaMergeSlack = 16;

// Bounded seqlock retries, shared by SnapshotData and SnapshotDelta.
constexpr int kSnapshotAttempts = 8;

// Per-metric name field width in the serialized metadata. Fixed-width, like
// the C implementation's metric descriptors — this is what puts the paper's
// set sizes at ~124 B/metric (24 kB for the 194-metric Blue Waters set) and
// the data chunk at "roughly 10%" of the set.
constexpr std::size_t kNameFieldWidth = 80;
constexpr std::size_t kMaxMetricName = kNameFieldWidth - 2;  // after its u16

/// One metric record: type, component id, offset, fixed-width name.
constexpr std::size_t kMetricRecordSize = 1 + 8 + 4 + kNameFieldWidth;

/// Metadata bytes before the instance name: magic, MGN, cardinality, data
/// size and the set's component id.
constexpr std::size_t kMetaFixedSize = 4 + 4 + 4 + 4 + 8;

void WriteFixedName(ByteWriter& w, const std::string& name) {
  w.U16(static_cast<std::uint16_t>(name.size()));
  w.Raw(name.data(), name.size());
  static const char kZeros[kMaxMetricName] = {};
  w.Raw(kZeros, kMaxMetricName - name.size());
}

/// The schema records of a set's metadata: everything from the schema name
/// on. They depend on the schema alone, never on the set's names, so they
/// are what SchemaTable interns by.
std::span<const std::byte> SchemaRecords(std::span<const std::byte> metadata,
                                         const std::string& instance,
                                         const std::string& producer) {
  return metadata.subspan(kMetaFixedSize + 2 + instance.size() + 2 +
                          producer.size());
}

/// The schema a peer's records describe: the schema name, then exactly
/// @p card metric records, each at the offset this side's layout gives it.
/// Null and @p error set when the records are anything else.
std::optional<Schema> ParseSchemaRecords(std::span<const std::byte> records,
                                         std::uint32_t card,
                                         const char** error) {
  ByteReader r(records);
  Schema schema(r.Str());
  if (!r.ok() || r.remaining() != card * kMetricRecordSize) {
    *error = "metric records do not match the metric count";
    return std::nullopt;
  }
  for (std::uint32_t i = 0; i < card; ++i) {
    const std::uint8_t type = r.U8();
    const std::uint64_t comp = r.U64();
    const std::uint32_t offset = r.U32();
    const std::uint16_t len = r.U16();
    const std::span<const std::byte> field = r.View(kMaxMetricName);
    if (type > static_cast<std::uint8_t>(MetricType::kD64) ||
        len > kMaxMetricName) {
      *error = "malformed metric record";
      return std::nullopt;
    }
    const std::size_t idx = schema.AddMetric(
        std::string_view(reinterpret_cast<const char*>(field.data()), len),
        static_cast<MetricType>(type), comp);
    if (schema.metric(idx).data_offset != offset) {
      *error = "metadata layout mismatch";
      return std::nullopt;
    }
  }
  return schema;
}

}  // namespace

MetricSet::MetricSet(MemPoolPtr mem, std::shared_ptr<const Schema> schema,
                     std::string instance, std::string producer,
                     std::uint64_t component_id)
    : mem_(std::move(mem)),
      schema_(std::move(schema)),
      instance_(std::move(instance)),
      producer_(std::move(producer)),
      component_id_(component_id) {}

MetricSet::~MetricSet() {
  mem_->Free(meta_);
  mem_->Free(data_);
}

std::vector<std::byte> MetricSet::SerializeMetadata(
    const Schema& schema, const std::string& instance,
    const std::string& producer, std::uint64_t component_id) {
  ByteWriter w;
  w.U32(kMetaMagic);
  w.U32(0);  // MGN patched below
  w.U32(static_cast<std::uint32_t>(schema.metric_count()));
  w.U32(static_cast<std::uint32_t>(sizeof(DataHeader)) +
        schema.value_area_size());
  w.U64(component_id);
  w.Str(instance);
  w.Str(producer);
  w.Str(schema.name());
  for (std::size_t i = 0; i < schema.metric_count(); ++i) {
    const MetricDef& def = schema.metric(i);
    if (def.name.size() > kMaxMetricName) return {};
    w.U8(static_cast<std::uint8_t>(def.type));
    w.U64(def.component_id);
    w.U32(def.data_offset);
    WriteFixedName(w, def.name);
  }
  if (!w.ok()) return {};  // a name too long for its u16 length prefix
  auto bytes = w.Take();
  const std::uint32_t mgn = HashMetadata(bytes);
  std::memcpy(bytes.data() + kMgnFieldOffset, &mgn, sizeof mgn);
  return bytes;
}

Status MetricSet::AllocateChunks(std::span<const std::byte> serialized_meta) {
  meta_size_ = serialized_meta.size();
  data_size_ = sizeof(DataHeader) + schema_->value_area_size();
  meta_ = static_cast<std::byte*>(mem_->Allocate(meta_size_, 8));
  data_ = static_cast<std::byte*>(mem_->Allocate(data_size_, 8));
  if (meta_ == nullptr || data_ == nullptr) {
    mem_->Free(meta_);
    mem_->Free(data_);
    meta_ = data_ = nullptr;
    return {ErrorCode::kOutOfMemory,
            "set memory pool exhausted creating " + instance_};
  }
  std::memcpy(meta_, serialized_meta.data(), meta_size_);
  std::memset(data_, 0, data_size_);
  const std::size_t metrics = schema_->metric_count();
  dirty_words_.assign((metrics + 63) / 64, 0);
  delta_extent_cap_ = static_cast<std::uint32_t>(metrics);
  if (metrics > 0) {
    delta_extents_ = std::make_unique<DeltaExtent[]>(metrics);
  }
  std::uint32_t mgn;
  std::memcpy(&mgn, meta_ + kMgnFieldOffset, sizeof mgn);
  auto* hdr = header();
  hdr->magic = kDataMagic;
  hdr->meta_gn = mgn;
  hdr->data_gn = 0;
  hdr->consistent = 0;
  return Status::Ok();
}

MetricSetPtr MetricSet::Create(MemManager& mem, const Schema& schema,
                               std::string instance, std::string producer,
                               std::uint64_t component_id, Status* status) {
  auto meta_bytes =
      SerializeMetadata(schema, instance, producer, component_id);
  if (meta_bytes.empty()) {
    // Refused before allocating: metadata that cannot carry the names would
    // make every mirror of this set fail to parse.
    if (status != nullptr) {
      *status = {ErrorCode::kInvalidArgument,
                 "instance, producer or schema name longer than 65535 "
                 "bytes, or a metric name longer than 78"};
    }
    return nullptr;
  }
  const auto records = SchemaRecords(meta_bytes, instance, producer);
  std::shared_ptr<const Schema> shared = mem.schemas().Find(records);
  if (shared == nullptr) shared = mem.schemas().Intern(records, schema);
  // shared_ptr with private ctor: wrap manually.
  MetricSetPtr set(new MetricSet(mem.pool(), std::move(shared),
                                 std::move(instance), std::move(producer),
                                 component_id));
  Status st = set->AllocateChunks(meta_bytes);
  if (status != nullptr) *status = st;
  if (!st.ok()) return nullptr;
  return set;
}

MetricSetPtr MetricSet::CreateMirror(MemManager& mem,
                                     std::span<const std::byte> metadata,
                                     Status* status) {
  auto fail = [status](const char* why) -> MetricSetPtr {
    if (status != nullptr) *status = {ErrorCode::kInvalidArgument, why};
    return nullptr;
  };
  ByteReader r(metadata);
  const std::uint32_t magic = r.U32();
  const std::uint32_t mgn = r.U32();
  const std::uint32_t card = r.U32();
  const std::uint32_t data_size = r.U32();
  const std::uint64_t component_id = r.U64();
  std::string instance = r.Str();
  std::string producer = r.Str();
  if (!r.ok() || magic != kMetaMagic || mgn == 0) {
    return fail("malformed set metadata");
  }
  const auto records = SchemaRecords(metadata, instance, producer);
  std::shared_ptr<const Schema> schema = mem.schemas().Find(records);
  if (schema == nullptr) {
    const char* error = nullptr;
    std::optional<Schema> parsed = ParseSchemaRecords(records, card, &error);
    if (!parsed) return fail(error);
    schema = mem.schemas().Intern(records, std::move(*parsed));
  }
  // Equal records fix the metrics and their offsets; the header fields
  // outside them must agree.
  if (schema->metric_count() != card ||
      sizeof(DataHeader) + schema->value_area_size() != data_size) {
    return fail("metadata layout mismatch");
  }
  MetricSetPtr set(new MetricSet(mem.pool(), std::move(schema),
                                 std::move(instance), std::move(producer),
                                 component_id));
  Status st = set->AllocateChunks(metadata);
  if (status != nullptr) *status = st;
  if (!st.ok()) return nullptr;
  return set;
}

std::uint32_t MetricSet::meta_gn() const { return header()->meta_gn; }

std::uint64_t MetricSet::data_gn() const {
  return std::atomic_ref<const std::uint64_t>(header()->data_gn)
      .load(std::memory_order_acquire);
}

bool MetricSet::consistent() const {
  return std::atomic_ref<const std::uint32_t>(header()->consistent)
             .load(std::memory_order_acquire) != 0;
}

TimeNs MetricSet::timestamp() const {
  const auto* hdr = header();
  return static_cast<TimeNs>(hdr->ts_sec) * kNsPerSec +
         static_cast<TimeNs>(hdr->ts_usec) * kNsPerUs;
}

void MetricSet::BeginTransaction() {
  auto* hdr = header();
  std::atomic_ref<std::uint32_t>(hdr->consistent)
      .store(0, std::memory_order_release);
  // Make the inconsistent mark visible before any value writes.
  std::atomic_thread_fence(std::memory_order_release);
  // Start recording this transaction's change set.
  std::fill(dirty_words_.begin(), dirty_words_.end(), 0);
}

void MetricSet::CompileDirtyExtents(std::uint64_t base_dgn) {
  std::uint32_t count = 0;
  const std::size_t metrics = schema_->metric_count();
  // Layout assigns offsets in index order, so scanning by index walks the
  // value area monotonically and extents come out sorted.
  for (std::size_t i = 0; i < metrics; ++i) {
    if ((dirty_words_[i >> 6] & (1ull << (i & 63))) == 0) continue;
    const MetricDef& def = schema_->metric(i);
    const std::uint32_t off = def.data_offset;
    const auto len = static_cast<std::uint32_t>(MetricTypeSize(def.type));
    if (count > 0) {
      DeltaExtent& last = delta_extents_[count - 1];
      if (off <= last.offset + last.len + kDeltaMergeSlack) {
        last.len = std::max(last.len, off + len - last.offset);
        continue;
      }
    }
    delta_extents_[count] = {off, len};
    ++count;
  }
  delta_extent_count_ = count;
  delta_base_dgn_ = base_dgn;
}

void MetricSet::EndTransaction(TimeNs ts) {
  auto* hdr = header();
  hdr->ts_sec = static_cast<std::uint32_t>(ts / kNsPerSec);
  hdr->ts_usec = static_cast<std::uint32_t>((ts % kNsPerSec) / kNsPerUs);
  // Compile the change set while still inside the transaction window, so a
  // seqlock reader can never observe a half-written extent table as valid.
  CompileDirtyExtents(std::atomic_ref<const std::uint64_t>(hdr->data_gn)
                          .load(std::memory_order_relaxed));
  // Publish values before bumping the DGN and consistent flag.
  std::atomic_thread_fence(std::memory_order_release);
  std::atomic_ref<std::uint64_t>(hdr->data_gn)
      .fetch_add(1, std::memory_order_acq_rel);
  std::atomic_ref<std::uint32_t>(hdr->consistent)
      .store(1, std::memory_order_release);
}

void MetricSet::StoreScalar(std::size_t idx, const void* src) {
  const MetricDef& def = schema_->metric(idx);
  std::memcpy(value_area() + def.data_offset, src, MetricTypeSize(def.type));
  MarkDirty(idx);
}

void MetricSet::SetValue(std::size_t idx, const MetricValue& v) {
  const MetricDef& def = schema_->metric(idx);
  switch (def.type) {
    case MetricType::kU8: {
      auto x = static_cast<std::uint8_t>(v.v.u64);
      StoreScalar(idx, &x);
      break;
    }
    case MetricType::kS8: {
      auto x = static_cast<std::int8_t>(v.v.s64);
      StoreScalar(idx, &x);
      break;
    }
    case MetricType::kU16: {
      auto x = static_cast<std::uint16_t>(v.v.u64);
      StoreScalar(idx, &x);
      break;
    }
    case MetricType::kS16: {
      auto x = static_cast<std::int16_t>(v.v.s64);
      StoreScalar(idx, &x);
      break;
    }
    case MetricType::kU32: {
      auto x = static_cast<std::uint32_t>(v.v.u64);
      StoreScalar(idx, &x);
      break;
    }
    case MetricType::kS32: {
      auto x = static_cast<std::int32_t>(v.v.s64);
      StoreScalar(idx, &x);
      break;
    }
    case MetricType::kU64:
      StoreScalar(idx, &v.v.u64);
      break;
    case MetricType::kS64:
      StoreScalar(idx, &v.v.s64);
      break;
    case MetricType::kF32: {
      float x = v.type == MetricType::kF32 ? v.v.f32
                                           : static_cast<float>(v.AsDouble());
      StoreScalar(idx, &x);
      break;
    }
    case MetricType::kD64: {
      double x = v.AsDouble();
      StoreScalar(idx, &x);
      break;
    }
  }
}

std::uint64_t MetricSet::GetU64(std::size_t idx) const {
  const MetricDef& def = schema_->metric(idx);
  std::uint64_t v = 0;
  std::memcpy(&v, value_area() + def.data_offset, MetricTypeSize(def.type));
  return v;
}

std::int64_t MetricSet::GetS64(std::size_t idx) const {
  return GetValue(idx).v.s64;
}

double MetricSet::GetD64(std::size_t idx) const {
  const MetricDef& def = schema_->metric(idx);
  if (def.type == MetricType::kD64) {
    double v;
    std::memcpy(&v, value_area() + def.data_offset, sizeof v);
    return v;
  }
  return GetValue(idx).AsDouble();
}

MetricValue MetricSet::GetValue(std::size_t idx) const {
  const MetricDef& def = schema_->metric(idx);
  const std::byte* src = value_area() + def.data_offset;
  MetricValue out;
  out.type = def.type;
  switch (def.type) {
    case MetricType::kU8: {
      std::uint8_t x;
      std::memcpy(&x, src, 1);
      out.v.u64 = x;
      break;
    }
    case MetricType::kS8: {
      std::int8_t x;
      std::memcpy(&x, src, 1);
      out.v.s64 = x;
      break;
    }
    case MetricType::kU16: {
      std::uint16_t x;
      std::memcpy(&x, src, 2);
      out.v.u64 = x;
      break;
    }
    case MetricType::kS16: {
      std::int16_t x;
      std::memcpy(&x, src, 2);
      out.v.s64 = x;
      break;
    }
    case MetricType::kU32: {
      std::uint32_t x;
      std::memcpy(&x, src, 4);
      out.v.u64 = x;
      break;
    }
    case MetricType::kS32: {
      std::int32_t x;
      std::memcpy(&x, src, 4);
      out.v.s64 = x;
      break;
    }
    case MetricType::kU64:
      std::memcpy(&out.v.u64, src, 8);
      break;
    case MetricType::kS64:
      std::memcpy(&out.v.s64, src, 8);
      break;
    case MetricType::kF32:
      std::memcpy(&out.v.f32, src, 4);
      break;
    case MetricType::kD64:
      std::memcpy(&out.v.d64, src, 8);
      break;
  }
  return out;
}

Status MetricSet::SnapshotData(std::span<std::byte> out) const {
  if (out.size() < data_size_) {
    return {ErrorCode::kInvalidArgument, "snapshot buffer too small"};
  }
  const auto* hdr = header();
  for (int attempt = 0; attempt < kSnapshotAttempts; ++attempt) {
    if (attempt > 0) snapshot_retries_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t gn_before =
        std::atomic_ref<const std::uint64_t>(hdr->data_gn)
            .load(std::memory_order_acquire);
    const bool consistent_before =
        std::atomic_ref<const std::uint32_t>(hdr->consistent)
            .load(std::memory_order_acquire) != 0;
    if (!consistent_before) continue;  // writer active; retry
    std::memcpy(out.data(), data_, data_size_);
    std::atomic_thread_fence(std::memory_order_acquire);
    // Flag before DGN: a writer that ends its transaction between the two
    // loads bumps the DGN before it sets the flag, so this order can never
    // pair the old DGN with the new flag and pass a torn copy.
    const bool consistent_after =
        std::atomic_ref<const std::uint32_t>(hdr->consistent)
            .load(std::memory_order_acquire) != 0;
    const std::uint64_t gn_after =
        std::atomic_ref<const std::uint64_t>(hdr->data_gn)
            .load(std::memory_order_acquire);
    if (gn_before == gn_after && consistent_after) return Status::Ok();
  }
  snapshot_starved_.fetch_add(1, std::memory_order_relaxed);
  return {ErrorCode::kInconsistent, "could not obtain stable snapshot"};
}

Status MetricSet::SnapshotDelta(std::uint64_t base_dgn, ByteWriter& w) const {
  // A reader at DGN 0 never received a sample: its fresh mirror is marked
  // inconsistent and must reject every delta, so it needs the full chunk.
  if (base_dgn == 0) {
    return {ErrorCode::kNotFound, "no delta for a reader without a sample"};
  }
  const auto* hdr = header();
  const std::size_t rollback = w.size();
  const std::size_t value_size = data_size_ - sizeof(DataHeader);
  for (int attempt = 0; attempt < kSnapshotAttempts; ++attempt) {
    if (attempt > 0) snapshot_retries_.fetch_add(1, std::memory_order_relaxed);
    w.Truncate(rollback);
    const std::uint64_t gn_before =
        std::atomic_ref<const std::uint64_t>(hdr->data_gn)
            .load(std::memory_order_acquire);
    const bool consistent_before =
        std::atomic_ref<const std::uint32_t>(hdr->consistent)
            .load(std::memory_order_acquire) != 0;
    if (!consistent_before) continue;  // writer active; retry
    // Plain reads of the delta bookkeeping. A torn read either fails the
    // checks below (downgrading to "no delta", which is always safe — the
    // caller ships a full chunk) or is caught by the gn re-check at the end.
    const std::uint64_t delta_base = delta_base_dgn_;
    const std::uint32_t count = delta_extent_count_;
    if (delta_base != base_dgn || gn_before != base_dgn + 1 ||
        count > delta_extent_cap_ || count > 0xffff) {
      return {ErrorCode::kNotFound, "no delta for base dgn"};
    }
    w.U32(hdr->meta_gn);
    w.U64(base_dgn);
    w.U64(gn_before);
    w.U32(hdr->ts_sec);
    w.U32(hdr->ts_usec);
    w.U16(static_cast<std::uint16_t>(count));
    const std::size_t table_bytes = static_cast<std::size_t>(count) * 8;
    const std::size_t table_off = w.Extend(table_bytes);
    if (count > 0) {
      std::memcpy(w.MutableSpan(table_off, table_bytes).data(),
                  delta_extents_.get(), table_bytes);
    }
    // Validate the private copy of the table just written into the frame
    // (the live table may still be racing): monotonic, non-overlapping,
    // inside the value area. Any violation means a torn read — retry.
    std::size_t total = 0;
    std::uint64_t prev_end = 0;
    bool valid = true;
    for (std::uint32_t i = 0; i < count; ++i) {
      DeltaExtent e;
      std::memcpy(&e, w.buffer().data() + table_off + i * 8, sizeof e);
      const std::uint64_t end =
          static_cast<std::uint64_t>(e.offset) + e.len;
      if (e.len == 0 || e.offset < prev_end || end > value_size) {
        valid = false;
        break;
      }
      prev_end = end;
      total += e.len;
    }
    if (!valid) continue;
    // Size gate: a delta no smaller than the full chunk is pointless.
    if (kDeltaPayloadHeaderSize + table_bytes + total >= data_size_) {
      w.Truncate(rollback);
      return {ErrorCode::kNotFound, "delta not smaller than chunk"};
    }
    const std::size_t values_off = w.Extend(total);
    auto dst = w.MutableSpan(values_off, total);
    std::size_t o = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      DeltaExtent e;
      std::memcpy(&e, w.buffer().data() + table_off + i * 8, sizeof e);
      std::memcpy(dst.data() + o, value_area() + e.offset, e.len);
      o += e.len;
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    // Flag before DGN, as in SnapshotData.
    const bool consistent_after =
        std::atomic_ref<const std::uint32_t>(hdr->consistent)
            .load(std::memory_order_acquire) != 0;
    const std::uint64_t gn_after =
        std::atomic_ref<const std::uint64_t>(hdr->data_gn)
            .load(std::memory_order_acquire);
    if (gn_before == gn_after && consistent_after) return Status::Ok();
  }
  w.Truncate(rollback);
  snapshot_starved_.fetch_add(1, std::memory_order_relaxed);
  return {ErrorCode::kInconsistent, "could not obtain stable delta snapshot"};
}

bool MetricSet::ValidateDeltaPayload(std::span<const std::byte> payload) {
  ByteReader r(payload);
  r.U32();  // meta_gn: schema-aware checks happen in ApplyDelta
  const std::uint64_t base_dgn = r.U64();
  const std::uint64_t new_dgn = r.U64();
  r.U32();  // ts_sec
  r.U32();  // ts_usec
  const std::uint32_t count = r.U16();
  if (!r.ok() || new_dgn <= base_dgn) return false;
  // Each extent costs 8 table bytes and at least 1 value byte.
  if (static_cast<std::size_t>(count) > r.remaining() / 8) return false;
  std::uint64_t prev_end = 0;
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t off = r.U32();
    const std::uint32_t len = r.U32();
    if (!r.ok() || len == 0 || off < prev_end) return false;
    prev_end = static_cast<std::uint64_t>(off) + len;
    total += len;
  }
  return r.ok() && r.remaining() == total;
}

Status MetricSet::ApplyDelta(std::span<const std::byte> payload) {
  if (!ValidateDeltaPayload(payload)) {
    return {ErrorCode::kInvalidArgument, "malformed delta payload"};
  }
  ByteReader r(payload);
  const std::uint32_t mgn = r.U32();
  const std::uint64_t base_dgn = r.U64();
  const std::uint64_t new_dgn = r.U64();
  const std::uint32_t ts_sec = r.U32();
  const std::uint32_t ts_usec = r.U32();
  const std::uint32_t count = r.U16();
  if (mgn != meta_gn()) {
    return {ErrorCode::kInvalidArgument, "metadata generation mismatch"};
  }
  // No delta chains: the delta must extend exactly the state this chunk
  // holds. A gap (missed cycle) or a previously torn apply forces the
  // caller back to a full chunk.
  if (base_dgn != data_gn() || !consistent()) {
    return {ErrorCode::kInconsistent, "delta base does not match mirror dgn"};
  }
  if (count > delta_extent_cap_) {
    return {ErrorCode::kInvalidArgument, "delta extent count exceeds schema"};
  }
  const std::size_t value_size = data_size_ - sizeof(DataHeader);
  const std::size_t table_bytes = static_cast<std::size_t>(count) * 8;
  // Bounds pass before touching the chunk: every extent inside the value
  // area. (Monotonicity/overlap already established by the validator.)
  {
    ByteReader t(payload.subspan(kDeltaPayloadHeaderSize, table_bytes));
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t off = t.U32();
      const std::uint32_t len = t.U32();
      if (static_cast<std::uint64_t>(off) + len > value_size) {
        return {ErrorCode::kInvalidArgument, "delta extent out of bounds"};
      }
    }
  }
  // Apply under the writer-side seqlock discipline so a local reader (e.g.
  // this mirror being re-served to a second-level aggregator) never sees a
  // half-applied delta as consistent.
  auto* hdr = header();
  std::atomic_ref<std::uint32_t>(hdr->consistent)
      .store(0, std::memory_order_release);
  std::atomic_thread_fence(std::memory_order_release);
  ByteReader t(payload.subspan(kDeltaPayloadHeaderSize, table_bytes));
  const std::byte* src = payload.data() + kDeltaPayloadHeaderSize + table_bytes;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t off = t.U32();
    const std::uint32_t len = t.U32();
    std::memcpy(value_area() + off, src, len);
    delta_extents_[i] = {off, len};
    src += len;
  }
  hdr->ts_sec = ts_sec;
  hdr->ts_usec = ts_usec;
  delta_extent_count_ = count;
  delta_base_dgn_ = base_dgn;
  std::atomic_thread_fence(std::memory_order_release);
  std::atomic_ref<std::uint64_t>(hdr->data_gn)
      .store(new_dgn, std::memory_order_release);
  std::atomic_ref<std::uint32_t>(hdr->consistent)
      .store(1, std::memory_order_release);
  return Status::Ok();
}

Status MetricSet::ApplyData(std::span<const std::byte> data) {
  if (data.size() != data_size_) {
    return {ErrorCode::kInvalidArgument, "data chunk size mismatch"};
  }
  DataHeader incoming;
  std::memcpy(&incoming, data.data(), sizeof incoming);
  if (incoming.magic != kDataMagic) {
    return {ErrorCode::kInvalidArgument, "bad data chunk magic"};
  }
  if (incoming.meta_gn != meta_gn()) {
    return {ErrorCode::kInvalidArgument, "metadata generation mismatch"};
  }
  if (incoming.consistent == 0) {
    return {ErrorCode::kInconsistent, "peer sample was torn"};
  }
  // A full chunk carries no per-metric change information, so this set can
  // no longer serve deltas until the next delta apply (or transaction).
  delta_base_dgn_ = kNoDeltaBase;
  delta_extent_count_ = 0;
  std::memcpy(data_, data.data(), data_size_);
  return Status::Ok();
}

}  // namespace ldmsxx

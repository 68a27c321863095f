#include "store/tsdb/tsdb_store.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "core/wire.hpp"
#include "util/atomic_file.hpp"
#include "util/hash.hpp"

namespace ldmsxx {
namespace {

constexpr std::uint32_t kRollupMagic = 0x3155524c;  // "LRU1"

bool SortedContains(const std::vector<std::uint64_t>& sorted,
                    std::uint64_t v) {
  return std::binary_search(sorted.begin(), sorted.end(), v);
}

/// Do two sorted vectors share any element?
bool SortedIntersect(const std::vector<std::uint64_t>& a,
                     const std::vector<std::uint64_t>& b) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

/// The columns a query reads from one segment, as slots: ts, node and the
/// selected data columns, plus the buffer encoded columns are read into.
struct ScanColumns {
  std::vector<std::uint64_t> ts, nodes;
  std::vector<std::vector<std::uint64_t>> data;  ///< one per selected column
  std::vector<std::uint8_t> encoded;
};

/// Read the ts, node and @p cols columns of a sealed segment into @p buf,
/// counting the bytes in @p out.
Status ReadScanColumns(const std::string& path, const SegmentFooter& f,
                       const std::vector<std::uint32_t>& cols,
                       ScanColumns* buf, TsdbQueryResult* out) {
  Status st = ReadSegmentColumn(path, f, SegmentFooter::kTsCol, &buf->ts,
                                &buf->encoded);
  if (!st.ok()) return st;
  st = ReadSegmentColumn(path, f, SegmentFooter::kNodeCol, &buf->nodes,
                         &buf->encoded);
  if (!st.ok()) return st;
  if (buf->data.size() < cols.size()) buf->data.resize(cols.size());
  out->bytes_read += f.enc_lens[SegmentFooter::kTsCol] +
                     f.enc_lens[SegmentFooter::kNodeCol];
  for (std::size_t c = 0; c < cols.size(); ++c) {
    st = ReadSegmentColumn(path, f, SegmentFooter::DataCol(cols[c]),
                           &buf->data[c], &buf->encoded);
    if (!st.ok()) return st;
    out->bytes_read += f.enc_lens[SegmentFooter::DataCol(cols[c])];
  }
  out->bytes_decoded += (2 + cols.size()) * f.row_count * sizeof(std::uint64_t);
  return Status::Ok();
}

/// Does a row at @p ts from @p node answer @p q? @p node_filter is q.nodes
/// sorted.
bool RowMatches(const TsdbQuery& q,
                const std::vector<std::uint64_t>& node_filter, TimeNs ts,
                std::uint64_t node) {
  return ts >= q.t0 && ts <= q.t1 &&
         (node_filter.empty() || SortedContains(node_filter, node));
}

/// Copy the ts, node and @p cols slots of each row of an in-memory segment
/// (frozen or active; null for none) that answers @p q into @p buf.
void CopyMatches(const SegmentBuilder* seg,
                 const std::vector<std::uint32_t>& cols, const TsdbQuery& q,
                 const std::vector<std::uint64_t>& node_filter,
                 ScanColumns* buf) {
  buf->ts.clear();
  buf->nodes.clear();
  if (buf->data.size() < cols.size()) buf->data.resize(cols.size());
  for (std::size_t c = 0; c < cols.size(); ++c) buf->data[c].clear();
  if (seg == nullptr || seg->max_ts() < q.t0 || seg->min_ts() > q.t1) return;
  for (std::size_t r = 0; r < seg->row_count(); ++r) {
    if (!RowMatches(q, node_filter, seg->ts()[r], seg->nodes()[r])) continue;
    buf->ts.push_back(seg->ts()[r]);
    buf->nodes.push_back(seg->nodes()[r]);
    for (std::size_t c = 0; c < cols.size(); ++c) {
      buf->data[c].push_back(seg->column(cols[c])[r]);
    }
  }
}

/// Append each row of @p seg that answers @p q to @p rows, with one value
/// per selected column.
void AppendMatches(const ScanColumns& seg, const std::vector<MetricType>& types,
                   const TsdbQuery& q,
                   const std::vector<std::uint64_t>& node_filter,
                   std::vector<TsdbQueryRow>* rows) {
  for (std::size_t r = 0; r < seg.ts.size(); ++r) {
    if (!RowMatches(q, node_filter, seg.ts[r], seg.nodes[r])) continue;
    TsdbQueryRow& row = rows->emplace_back();
    row.ts = seg.ts[r];
    row.node = seg.nodes[r];
    row.values.reserve(types.size());
    for (std::size_t c = 0; c < types.size(); ++c) {
      row.values.push_back(SlotAsDouble(seg.data[c][r], types[c]));
    }
  }
}

Status ShapeMismatch(const std::string& table) {
  return {ErrorCode::kInvalidArgument,
          "store_tsdb: row shape does not match table '" + table + "'"};
}

}  // namespace

TsdbStore::TsdbStore(TsdbOptions opts) : opts_(std::move(opts)) {
  std::lock_guard<std::mutex> lock(mu_);
  AttachExistingLocked();
}

TsdbStore::~TsdbStore() {
  {
    std::lock_guard<std::mutex> lock(sync_mu_);
    sync_stop_ = true;
  }
  sync_cv_.notify_all();
  if (syncer_.joinable()) syncer_.join();
}

void TsdbStore::QueueSealLocked(Table& t) {
  t.sealing = true;
  ++seals_in_flight_;
  std::lock_guard<std::mutex> lock(sync_mu_);
  if (!syncer_.joinable()) {
    syncer_ = std::thread([this] { SyncerMain(); });
  }
  sync_queue_.push_back({&t, t.frozen.get(), t.frozen_path});
  sync_cv_.notify_all();
}

Status TsdbStore::RunSeal(const SealJob& job) {
  SegmentFooter footer;
  Status st = EnsureDirectories(opts_.root_path);
  if (st.ok()) {
    // Renamed into place now (a reader never sees it torn); the fsync
    // follows publication. A crash before it lands leaves a file the CRC
    // checks reject at the next attach, like a crash mid-write.
    st = WriteSegmentFile(job.path, *job.segment, /*durable=*/false,
                          opts_.compress, &footer);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    Table& t = *job.table;
    t.sealing = false;
    --seals_in_flight_;
    if (st.ok()) {
      // One critical section swaps the frozen rows for the file holding
      // them, so a query answers each row exactly once.
      t.sealed.push_back({job.path, std::move(footer)});
      ++segments_sealed_;
      t.frozen->Reset();
      t.spare = std::move(t.frozen);
      t.seal_err = Status::Ok();
    } else {
      t.seal_err = st;
    }
  }
  seal_cv_.notify_all();
  return st.ok() ? SyncFile(job.path) : Status::Ok();
}

void TsdbStore::SyncerMain() {
  std::unique_lock<std::mutex> lock(sync_mu_);
  for (;;) {
    sync_cv_.wait(lock, [this] { return sync_stop_ || !sync_queue_.empty(); });
    // Drain the remaining queue even on stop: destruction finishes the
    // seals a caller already handed over.
    if (sync_queue_.empty()) {
      if (sync_stop_) return;
      continue;
    }
    const SealJob job = std::move(sync_queue_.front());
    sync_queue_.pop_front();
    ++sync_in_flight_;
    lock.unlock();
    Status st = RunSeal(job);
    lock.lock();
    --sync_in_flight_;
    if (!st.ok() && sync_err_.ok()) sync_err_ = st;
    if (sync_queue_.empty() && sync_in_flight_ == 0) sync_cv_.notify_all();
  }
}

Status TsdbStore::DrainSyncs() {
  std::unique_lock<std::mutex> lock(sync_mu_);
  sync_cv_.wait(lock, [this] {
    return sync_queue_.empty() && sync_in_flight_ == 0;
  });
  Status st = sync_err_;
  sync_err_ = Status::Ok();
  return st;
}

void TsdbStore::AttachExistingLocked() {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(opts_.root_path, ec)) return;
  std::vector<std::string> segs, rollups;
  for (const auto& entry : fs::directory_iterator(opts_.root_path, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const fs::path& p = entry.path();
    if (p.extension() == ".seg") segs.push_back(p.string());
    if (p.extension() == ".rollup") rollups.push_back(p.string());
  }
  // Attach in (table, numeric seq) order, not directory or lexicographic
  // order — "t.10.seg" must follow "t.9.seg" so sealed history replays in
  // write order regardless of how the filesystem iterates.
  auto seg_key = [](const std::string& path) {
    std::string stem = fs::path(path).filename().string();
    if (stem.size() > 4 && stem.ends_with(".seg")) {
      stem.resize(stem.size() - 4);
    }
    const std::size_t dot = stem.rfind('.');
    std::uint64_t seq = 0;
    std::string table = stem;
    if (dot != std::string::npos && dot + 1 < stem.size()) {
      bool numeric = true;
      for (std::size_t i = dot + 1; i < stem.size(); ++i) {
        if (stem[i] < '0' || stem[i] > '9') {
          numeric = false;
          break;
        }
        seq = seq * 10 + static_cast<std::uint64_t>(stem[i] - '0');
      }
      if (numeric) {
        table = stem.substr(0, dot);
      } else {
        seq = 0;
      }
    }
    return std::make_pair(std::move(table), seq);
  };
  std::sort(segs.begin(), segs.end(),
            [&seg_key](const std::string& a, const std::string& b) {
              return seg_key(a) < seg_key(b);
            });
  std::sort(rollups.begin(), rollups.end());
  for (const std::string& path : segs) {
    Sealed sealed;
    sealed.path = path;
    if (!ReadSegmentFooter(path, &sealed.footer).ok()) {
      // Torn/corrupt segment (should be impossible with atomic seals, but a
      // disk can rot): skip it rather than refusing to start.
      ++attach_rejects_;
      continue;
    }
    Table& t = tables_[sealed.footer.table];
    if (t.columns.empty()) {
      t.name = sealed.footer.table;
      t.columns = sealed.footer.columns;
    } else if (t.columns.size() != sealed.footer.columns.size()) {
      ++attach_rejects_;
      continue;
    }
    t.sealed.push_back(std::move(sealed));
    ++segments_attached_;
  }
  for (const std::string& path : rollups) LoadRollupFileLocked(path);
}

void TsdbStore::LoadRollupFileLocked(const std::string& path) {
  std::string text;
  if (!ReadFileToString(path, &text).ok() || text.size() < 8) {
    ++attach_rejects_;
    return;
  }
  const std::size_t body_size = text.size() - 8;
  std::uint64_t want_crc;
  std::memcpy(&want_crc, text.data() + body_size, 8);
  if (Fnv1a(text.data(), body_size) != want_crc) {
    ++attach_rejects_;
    return;
  }
  ByteReader r({reinterpret_cast<const std::byte*>(text.data()), body_size});
  if (r.U32() != kRollupMagic) {
    ++attach_rejects_;
    return;
  }
  const std::string table = r.Str();
  const DurationNs granularity = r.U64();
  const std::uint32_t n = r.U32();
  auto it = tables_.find(table);
  if (it == tables_.end() || granularity != opts_.rollup_granularity) {
    ++attach_rejects_;
    return;
  }
  Table& t = it->second;
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    const std::string column = r.Str();
    const std::uint64_t node = r.U64();
    const std::uint64_t bucket = r.U64();
    RollupAccum acc;
    acc.min = r.D64();
    acc.max = r.D64();
    acc.sum = r.D64();
    acc.count = r.U64();
    int col = -1;
    for (std::size_t c = 0; c < t.columns.size(); ++c) {
      if (t.columns[c].name == column) {
        col = static_cast<int>(c);
        break;
      }
    }
    if (col < 0 || !r.ok()) continue;  // column gone: drop the bucket
    std::vector<RollupAccum>& accs = t.rollups[{node, bucket}];
    if (accs.size() != t.columns.size()) accs.resize(t.columns.size());
    accs[static_cast<std::size_t>(col)] = acc;
  }
}

TsdbStore::Table* TsdbStore::TableForLocked(const RowPlan* plan,
                                            std::uint32_t group_idx) {
  auto& slots = group_tables_[plan];
  if (slots.size() != plan->groups.size()) {
    slots.assign(plan->groups.size(), nullptr);
  }
  if (slots[group_idx] != nullptr) return slots[group_idx];
  const RowGroup& group = plan->groups[group_idx];
  Table& t = tables_[group.table];
  if (t.columns.empty() && t.sealed.empty() && t.active == nullptr) {
    t.name = group.table;
    t.columns.reserve(group.columns.size());
    for (const RowColumn& col : group.columns) {
      t.columns.push_back({col.name, col.type});
    }
  } else {
    // Existing table: the incoming rows must match its column layout.
    if (t.columns.size() != group.columns.size()) return nullptr;
    for (std::size_t i = 0; i < t.columns.size(); ++i) {
      if (t.columns[i].name != group.columns[i].name) return nullptr;
    }
  }
  slots[group_idx] = &t;
  return &t;
}

Status TsdbStore::AppendRowLocked(std::unique_lock<std::mutex>& lock,
                                  Table& t, TimeNs ts, std::uint64_t node,
                                  const std::string& producer,
                                  const std::uint64_t* slots) {
  Status st = MakeRoomLocked(lock, t);
  if (!st.ok()) {
    // The table is full and its previous seal still fails: refuse the row,
    // so the failure reaches the breaker, rather than grow a third builder.
    CountFailedRow();
    return st;
  }
  SegmentBuilder& seg = *t.active;
  seg.Append(ts, node, seg.InternProducer(producer), slots);
  FoldRowLocked(t, ts, node, slots);
  CountRow(8 * t.columns.size() + 24);
  // Freeze as soon as the segment fills, so its seal overlaps the next
  // appends. The row has landed either way; a seal that cannot start now is
  // retried when the next row needs the room.
  if (seg.full()) (void)MakeRoomLocked(lock, t);
  return Status::Ok();
}

Status TsdbStore::MakeRoomLocked(std::unique_lock<std::mutex>& lock,
                                 Table& t) {
  if (t.active != nullptr && t.active->full()) {
    Status st = AwaitFrozenLocked(lock, t);
    if (!st.ok()) return st;
    // mu_ dropped while waiting: another caller may have frozen it already.
    if (t.active != nullptr && t.active->full()) FreezeLocked(t);
  }
  if (t.active == nullptr) {
    t.active = t.spare != nullptr
                   ? std::move(t.spare)
                   : std::make_unique<SegmentBuilder>(t.name, t.columns,
                                                      opts_.segment_rows);
  }
  return Status::Ok();
}

Status TsdbStore::AwaitFrozenLocked(std::unique_lock<std::mutex>& lock,
                                    Table& t) {
  for (bool retried = false;; retried = true) {
    seal_cv_.wait(lock, [&t] { return !t.sealing; });
    if (t.frozen == nullptr) return Status::Ok();
    if (retried) return t.seal_err;
    QueueSealLocked(t);
  }
}

void TsdbStore::FreezeLocked(Table& t) {
  namespace fs = std::filesystem;
  for (;;) {
    t.frozen_path = opts_.root_path + "/" + t.name + "." +
                    std::to_string(t.seq) + ".seg";
    std::error_code ec;
    if (!fs::exists(t.frozen_path, ec)) break;
    ++t.seq;
  }
  ++t.seq;
  t.frozen = std::move(t.active);
  t.active = std::move(t.spare);
  QueueSealLocked(t);
}

void TsdbStore::FoldRowLocked(Table& t, TimeNs ts, std::uint64_t node,
                              const std::uint64_t* slots) {
  const DurationNs g = opts_.rollup_granularity;
  if (g == 0) return;
  const std::uint64_t bucket = ts - ts % g;
  const std::size_t ncols = t.columns.size();
  RollupCursor& cursor = t.cursors[node];
  if (cursor.accs == nullptr || cursor.bucket != bucket) {
    cursor.bucket = bucket;
    cursor.accs = &t.rollups[{node, bucket}];
    if (cursor.accs->size() != ncols) cursor.accs->resize(ncols);
  }
  RollupAccum* accs = cursor.accs->data();
  for (std::size_t c = 0; c < ncols; ++c) {
    const double v = SlotAsDouble(slots[c], t.columns[c].type);
    RollupAccum& acc = accs[c];
    if (acc.count == 0) {
      acc.min = acc.max = v;
    } else {
      acc.min = std::min(acc.min, v);
      acc.max = std::max(acc.max, v);
    }
    acc.sum += v;
    ++acc.count;
  }
  t.rollup_dirty = true;
}

Status TsdbStore::PersistRollupsLocked(Table& t) {
  ByteWriter w;
  w.U32(kRollupMagic);
  w.Str(t.name);
  w.U64(opts_.rollup_granularity);
  std::uint32_t records = 0;
  for (const auto& [key, accs] : t.rollups) {
    for (const RollupAccum& acc : accs) records += acc.count > 0 ? 1 : 0;
  }
  w.U32(records);
  for (const auto& [key, accs] : t.rollups) {
    for (std::size_t c = 0; c < accs.size(); ++c) {
      const RollupAccum& acc = accs[c];
      if (acc.count == 0) continue;
      w.Str(t.columns[c].name);
      w.U64(key.first);
      w.U64(key.second);
      w.D64(acc.min);
      w.D64(acc.max);
      w.D64(acc.sum);
      w.U64(acc.count);
    }
  }
  const std::uint64_t crc = Fnv1a(w.buffer().data(), w.size());
  w.U64(crc);
  if (!w.ok()) {
    return {ErrorCode::kInvalidArgument, "store_tsdb: rollup encode failed"};
  }
  const auto& buf = w.buffer();
  Status st = AtomicWriteFile(
      opts_.root_path + "/" + t.name + ".rollup",
      std::string_view(reinterpret_cast<const char*>(buf.data()), buf.size()));
  if (st.ok()) t.rollup_dirty = false;
  return st;
}

const RowPlan& TsdbStore::IdentityPlanLocked(const MetricSet& set) {
  auto [it, inserted] = identity_plans_.try_emplace(&set.schema());
  if (inserted) {
    it->second = {set.shared_schema(), BuildIdentityPlan(set.schema())};
  }
  return it->second.plan;
}

Status TsdbStore::StoreSetLocked(std::unique_lock<std::mutex>& lock,
                                 const MetricSet& set, std::mutex* set_mu) {
  const RowPlan& plan = IdentityPlanLocked(set);
  Table* t = TableForLocked(&plan, 0);
  if (t == nullptr) {
    CountFailedRow();
    return ShapeMismatch(plan.groups[0].table);
  }
  // Room first: waiting for a seal must not hold the set's lock, which is
  // always taken after mu_.
  Status st = MakeRoomLocked(lock, *t);
  if (!st.ok()) {
    CountFailedRow();
    return st;
  }
  // The row is staged per thread, not per store: mu_ may drop while the
  // append waits for a seal, and another caller may append meanwhile.
  thread_local std::vector<std::uint64_t> row;
  row.resize(plan.total_slots);
  TimeNs ts = 0;
  std::uint64_t node = 0;
  {
    std::unique_lock<std::mutex> set_lock;
    if (set_mu != nullptr) set_lock = std::unique_lock<std::mutex>(*set_mu);
    WriteGroupSlots(set, plan.groups[0], row.data());
    ts = set.timestamp();
    node = set.component_id();
  }
  return AppendRowLocked(lock, *t, ts, node, set.producer_name(), row.data());
}

Status TsdbStore::StoreSet(const MetricSet& set) {
  std::unique_lock<std::mutex> lock(mu_);
  return StoreSetLocked(lock, set, nullptr);
}

Status TsdbStore::StoreRows(const RowBatch& batch) {
  static const std::string kNoProducer;
  std::unique_lock<std::mutex> lock(mu_);
  for (const RowBatch::Row& row : batch.rows) {
    Table* t = TableForLocked(row.plan, row.group);
    if (t == nullptr) {
      CountFailedRow();
      return ShapeMismatch(row.plan->groups[row.group].table);
    }
    Status st = AppendRowLocked(
        lock, *t, row.ts, row.component_id,
        row.producer != nullptr ? *row.producer : kNoProducer,
        batch.slots.data() + row.slot_offset);
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

Status TsdbStore::StoreSetBatch(const BatchItem* items, std::size_t n,
                                std::size_t* stored) {
  std::unique_lock<std::mutex> lock(mu_);
  Status st;
  std::size_t landed = 0;
  for (; landed < n; ++landed) {
    st = StoreSetLocked(lock, *items[landed].set, items[landed].mu);
    if (!st.ok()) break;
  }
  // The samples before a failing one are stored (and queryable).
  if (stored != nullptr) *stored = landed;
  return st;
}

Status TsdbStore::Flush() {
  Status first;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (auto& [name, t] : tables_) {
      const bool rows = t.active != nullptr && !t.active->empty();
      if (!rows && t.frozen == nullptr) continue;
      Status st = AwaitFrozenLocked(lock, t);
      if (!st.ok()) {
        if (first.ok()) first = st;
        continue;
      }
      if (t.active != nullptr && !t.active->empty()) FreezeLocked(t);
    }
  }
  // Outside mu_: waiting for seals and fsyncs must not block queries.
  const Status synced = DrainSyncs();
  if (!synced.ok() && first.ok()) first = synced;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, t] : tables_) {
    if (t.frozen != nullptr) {
      if (first.ok()) first = t.seal_err;
      continue;
    }
    // Rollups count every row folded so far, so they persist only while
    // all of those rows sit in landed, synced segments: a .rollup file
    // never counts a row that no segment holds.
    if (!t.rollup_dirty || !synced.ok() ||
        (t.active != nullptr && !t.active->empty())) {
      continue;
    }
    Status st = PersistRollupsLocked(t);
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

const TsdbStore::Table* TsdbStore::FindTableLocked(
    const std::string& name) const {
  auto it = tables_.find(name);
  return it != tables_.end() ? &it->second : nullptr;
}

Status TsdbStore::ResolveColumns(const Table& t,
                                 const std::vector<std::string>& want,
                                 std::vector<std::uint32_t>* idx,
                                 std::vector<std::string>* names) const {
  idx->clear();
  names->clear();
  if (want.empty()) {
    for (std::size_t i = 0; i < t.columns.size(); ++i) {
      idx->push_back(static_cast<std::uint32_t>(i));
      names->push_back(t.columns[i].name);
    }
    return Status::Ok();
  }
  for (const std::string& metric : want) {
    int found = -1;
    for (std::size_t i = 0; i < t.columns.size(); ++i) {
      if (t.columns[i].name == metric) {
        found = static_cast<int>(i);
        break;
      }
    }
    if (found < 0) {
      return {ErrorCode::kNotFound,
              "store_tsdb: no metric '" + metric + "' in table '" + t.name +
                  "'"};
    }
    idx->push_back(static_cast<std::uint32_t>(found));
    names->push_back(metric);
  }
  return Status::Ok();
}

Status TsdbStore::Query(const TsdbQuery& q, TsdbQueryResult* out) const {
  *out = TsdbQueryResult{};
  // Queries run on their callers' threads, concurrently. Per-thread buffers
  // let each caller reuse its decode and copy allocations across segments
  // and queries without sharing them.
  thread_local ScanColumns segment, frozen, active;
  std::vector<std::uint32_t> cols;
  std::vector<MetricType> types;
  std::vector<std::uint64_t> node_filter(q.nodes);
  std::sort(node_filter.begin(), node_filter.end());
  std::vector<Sealed> survivors;
  {
    // Under mu_: prune on footers, snapshot the surviving sealed entries
    // (path + footer copies — sealed files are immutable), and copy the
    // slots of the frozen and active segments' matching rows, since the
    // syncer may publish the one and ingest grows the other once mu_ drops.
    // Disk reads and row building happen after the lock drops, so a long
    // scan never stalls ingest.
    std::lock_guard<std::mutex> lock(mu_);
    const Table* t = FindTableLocked(q.table);
    if (t == nullptr) {
      return {ErrorCode::kNotFound, "store_tsdb: no table '" + q.table + "'"};
    }
    Status st = ResolveColumns(*t, q.metrics, &cols, &out->columns);
    if (!st.ok()) return st;
    types.reserve(cols.size());
    for (const std::uint32_t c : cols) types.push_back(t->columns[c].type);
    for (const Sealed& seg : t->sealed) {
      ++out->segments_considered;
      const SegmentFooter& f = seg.footer;
      if (f.max_ts < q.t0 || f.min_ts > q.t1 ||
          (!node_filter.empty() && !f.node_overflow &&
           !SortedIntersect(f.nodes, node_filter))) {
        ++out->segments_pruned;
        continue;
      }
      survivors.push_back(seg);
    }
    CopyMatches(t->frozen.get(), cols, q, node_filter, &frozen);
    CopyMatches(t->active.get(), cols, q, node_filter, &active);
  }
  out->segments_read = survivors.size();
  // Append order: sealed segments in sequence order, then the frozen
  // segment, then the active one.
  for (const Sealed& seg : survivors) {
    Status st = ReadScanColumns(seg.path, seg.footer, cols, &segment, out);
    if (!st.ok()) return st;
    AppendMatches(segment, types, q, node_filter, &out->rows);
  }
  AppendMatches(frozen, types, q, node_filter, &out->rows);
  AppendMatches(active, types, q, node_filter, &out->rows);
  return Status::Ok();
}

Status TsdbStore::QueryFullScan(const TsdbQuery& q,
                                TsdbQueryResult* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  *out = TsdbQueryResult{};
  const Table* t = FindTableLocked(q.table);
  if (t == nullptr) {
    return {ErrorCode::kNotFound, "store_tsdb: no table '" + q.table + "'"};
  }
  std::vector<std::uint32_t> cols;
  Status st = ResolveColumns(*t, q.metrics, &cols, &out->columns);
  if (!st.ok()) return st;
  std::vector<std::uint64_t> node_filter(q.nodes);
  std::sort(node_filter.begin(), node_filter.end());

  for (const Sealed& seg : t->sealed) {
    ++out->segments_considered;
    ++out->segments_read;
    const SegmentFooter& f = seg.footer;
    // The honest row-store comparison: reconstruct every row by reading
    // every column, then filter row-wise.
    std::vector<std::uint64_t> ts, nodes, prod;
    st = ReadSegmentColumn(seg.path, f, SegmentFooter::kTsCol, &ts);
    if (!st.ok()) return st;
    st = ReadSegmentColumn(seg.path, f, SegmentFooter::kNodeCol, &nodes);
    if (!st.ok()) return st;
    st = ReadSegmentColumn(seg.path, f, SegmentFooter::kProdCol, &prod);
    if (!st.ok()) return st;
    std::vector<std::vector<std::uint64_t>> data(t->columns.size());
    for (std::size_t c = 0; c < t->columns.size(); ++c) {
      st = ReadSegmentColumn(seg.path, f, SegmentFooter::DataCol(c), &data[c]);
      if (!st.ok()) return st;
    }
    for (const std::uint64_t len : f.enc_lens) out->bytes_read += len;
    out->bytes_decoded +=
        (3 + t->columns.size()) * f.row_count * sizeof(std::uint64_t);
    for (std::size_t r = 0; r < f.row_count; ++r) {
      if (ts[r] < q.t0 || ts[r] > q.t1) continue;
      if (!node_filter.empty() && !SortedContains(node_filter, nodes[r])) {
        continue;
      }
      TsdbQueryRow row;
      row.ts = ts[r];
      row.node = nodes[r];
      row.values.reserve(cols.size());
      for (std::size_t c = 0; c < cols.size(); ++c) {
        row.values.push_back(
            SlotAsDouble(data[cols[c]][r], t->columns[cols[c]].type));
      }
      out->rows.push_back(std::move(row));
    }
  }
  for (const SegmentBuilder* mem : {t->frozen.get(), t->active.get()}) {
    if (mem == nullptr) continue;
    const SegmentBuilder& seg = *mem;
    for (std::size_t r = 0; r < seg.row_count(); ++r) {
      const TimeNs ts = seg.ts()[r];
      const std::uint64_t node = seg.nodes()[r];
      if (ts < q.t0 || ts > q.t1) continue;
      if (!node_filter.empty() && !SortedContains(node_filter, node)) continue;
      TsdbQueryRow row;
      row.ts = ts;
      row.node = node;
      row.values.reserve(cols.size());
      for (std::size_t c = 0; c < cols.size(); ++c) {
        row.values.push_back(
            SlotAsDouble(seg.column(cols[c])[r], t->columns[cols[c]].type));
      }
      out->rows.push_back(std::move(row));
    }
  }
  return Status::Ok();
}

Status TsdbStore::QueryRollup(const TsdbQuery& q,
                              std::vector<TsdbRollupRow>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out->clear();
  const Table* t = FindTableLocked(q.table);
  if (t == nullptr) {
    return {ErrorCode::kNotFound, "store_tsdb: no table '" + q.table + "'"};
  }
  std::vector<std::uint32_t> cols;
  std::vector<std::string> names;
  Status st = ResolveColumns(*t, q.metrics, &cols, &names);
  if (!st.ok()) return st;
  auto emit = [&](const RollupMap::value_type& entry) {
    const auto& [node, bucket] = entry.first;
    if (bucket + opts_.rollup_granularity <= q.t0 || bucket > q.t1) return;
    for (const std::uint32_t col : cols) {
      if (col >= entry.second.size()) continue;
      const RollupAccum& acc = entry.second[col];
      if (acc.count == 0) continue;
      TsdbRollupRow row;
      row.bucket = bucket;
      row.node = node;
      row.metric = t->columns[col].name;
      row.min = acc.min;
      row.max = acc.max;
      row.avg = acc.sum / static_cast<double>(acc.count);
      row.count = acc.count;
      out->push_back(std::move(row));
    }
  };
  if (q.nodes.empty()) {
    for (const auto& entry : t->rollups) emit(entry);
    return Status::Ok();
  }
  // Seek each requested node's first entry instead of walking every
  // (node, bucket): the map's (node, bucket) order is the reply's order, so
  // a sorted, deduplicated filter yields the same rows a full walk would.
  std::vector<std::uint64_t> node_filter(q.nodes);
  std::sort(node_filter.begin(), node_filter.end());
  node_filter.erase(std::unique(node_filter.begin(), node_filter.end()),
                    node_filter.end());
  for (const std::uint64_t node : node_filter) {
    for (auto it = t->rollups.lower_bound({node, 0});
         it != t->rollups.end() && it->first.first == node; ++it) {
      emit(*it);
    }
  }
  return Status::Ok();
}

std::vector<std::string> TsdbStore::Tables() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, t] : tables_) out.push_back(name);
  return out;
}

std::uint64_t TsdbStore::segments_sealed() const {
  std::unique_lock<std::mutex> lock(mu_);
  seal_cv_.wait(lock, [this] { return seals_in_flight_ == 0; });
  return segments_sealed_;
}

}  // namespace ldmsxx

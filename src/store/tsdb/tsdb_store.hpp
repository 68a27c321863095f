// store_tsdb: the queryable columnar time-series backend. Rows (decomposed
// by the strgp's RowPlan, or the identity plan for plain StoreSet calls) are
// appended to an in-memory columnar segment per table and folded, as they
// land, into min/max/avg/count rollups at a configurable granularity, so
// rollups cover the active segment too. At segment_rows the segment is
// frozen and sealed to disk on the store's syncer thread (atomic write,
// CRC-sealed footer index) while ingest continues in a second builder; the
// frozen rows stay queryable in memory until their file is published.
// Queries (time range × node set × metric list) prune whole segments on the
// footer's min/max timestamp and node dictionary, then read only the
// requested columns — versus the full-scan path that re-reads every column
// of every segment the way a CSV consumer would.
//
// A store constructed over an existing directory re-attaches every sealed
// segment (and the persisted rollups), so a daemon restarted via
// RestoreFromRegistry serves queries spanning segments written before and
// after the restart.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "store/store.hpp"
#include "store/tsdb/query_result.hpp"
#include "store/tsdb/segment.hpp"
#include "util/clock.hpp"

namespace ldmsxx {

struct TsdbOptions {
  std::string root_path = "tsdb";
  /// Rows per segment before it is sealed to disk.
  std::size_t segment_rows = 4096;
  /// Rollup bucket width; 0 disables rollup compaction.
  DurationNs rollup_granularity = 60 * kNsPerSec;
  /// Seal segments with per-column codecs (format v2); false writes every
  /// column raw — same v2 layout, ~v1 sizes (the ablation escape hatch).
  bool compress = true;
  /// Read by nothing: queries decode on the calling thread. The field stays
  /// only because the pipeline benchmark assigns it.
  std::size_t scan_threads = 0;
};

/// A time-range × node-set × metric query.
struct TsdbQuery {
  std::string table;
  TimeNs t0 = 0;
  TimeNs t1 = ~TimeNs{0};
  std::vector<std::uint64_t> nodes;   ///< empty = all nodes
  std::vector<std::string> metrics;   ///< empty = all columns
};

/// One rollup bucket for one (metric, node).
struct TsdbRollupRow {
  TimeNs bucket = 0;
  std::uint64_t node = 0;
  std::string metric;
  double min = 0, max = 0, avg = 0;
  std::uint64_t count = 0;
};

class TsdbStore final : public Store {
 public:
  explicit TsdbStore(TsdbOptions opts);
  ~TsdbStore() override;

  const std::string& name() const override { return name_; }
  bool row_capable() const override { return true; }
  bool batch_capable() const override { return true; }

  Status StoreSet(const MetricSet& set) override;
  Status StoreRows(const RowBatch& batch) override;
  Status StoreSetBatch(const BatchItem* items, std::size_t n,
                       std::size_t* stored) override;
  /// Freeze every non-empty active segment, wait for every seal and fsync
  /// (retrying a seal that failed), then persist the rollups of each table
  /// whose rows all sit in landed segments. Returns the first seal or fsync
  /// error.
  Status Flush() override;

  /// Indexed query: footer-pruned segment selection, column-selective reads.
  Status Query(const TsdbQuery& q, TsdbQueryResult* out) const;
  /// Comparison path: no pruning, reads every column of every segment (what
  /// answering the same question from a row-oriented store costs).
  Status QueryFullScan(const TsdbQuery& q, TsdbQueryResult* out) const;
  /// Downsampled rollup buckets overlapping the query window.
  Status QueryRollup(const TsdbQuery& q,
                     std::vector<TsdbRollupRow>* out) const;

  std::vector<std::string> Tables() const;
  /// Segments published (sealed to disk and queried from their files),
  /// counted once every seal in flight has landed or failed.
  std::uint64_t segments_sealed() const;
  /// Sealed segments found on disk at attach (restart-resume).
  std::uint64_t segments_attached() const { return segments_attached_; }
  /// Segment/rollup files skipped at attach because they failed validation.
  std::uint64_t attach_rejects() const { return attach_rejects_; }

 private:
  struct Sealed {
    std::string path;
    SegmentFooter footer;
  };
  struct RollupAccum {
    double min = 0, max = 0, sum = 0;
    std::uint64_t count = 0;
  };
  /// (node, bucket start) -> one accumulator per table column.
  using RollupMap = std::map<std::pair<std::uint64_t, std::uint64_t>,
                             std::vector<RollupAccum>>;
  /// The accumulators a node's rows last folded into, so the append-time
  /// fold walks the map once per (node, bucket) rather than once per row.
  struct RollupCursor {
    std::uint64_t bucket = 0;
    std::vector<RollupAccum>* accs = nullptr;
  };
  // A table holds at most two builders: `active` takes rows, and either
  // `frozen` (full, sealing) or `spare` (its seal landed; reset for reuse).
  struct Table {
    std::string name;
    std::vector<SegmentColumn> columns;
    std::unique_ptr<SegmentBuilder> active;
    /// Full, queued on the syncer (`sealing`) or waiting to retry a failed
    /// seal (`seal_err`). Queries read it until its Sealed entry replaces it.
    std::unique_ptr<SegmentBuilder> frozen;
    std::string frozen_path;
    bool sealing = false;
    Status seal_err;
    std::unique_ptr<SegmentBuilder> spare;
    std::vector<Sealed> sealed;
    std::uint64_t seq = 0;  ///< next segment file number
    RollupMap rollups;
    std::unordered_map<std::uint64_t, RollupCursor> cursors;  ///< by node
    bool rollup_dirty = false;
  };
  /// One frozen builder for the syncer to seal. Its fields are fixed while
  /// the job is queued or running, so the syncer reads them without mu_.
  struct SealJob {
    Table* table;
    const SegmentBuilder* segment;
    std::string path;
  };

  /// Append one row to @p t (slots: one per column) and fold it into its
  /// rollups. mu_ may drop while a full table waits for its seal.
  Status AppendRowLocked(std::unique_lock<std::mutex>& lock, Table& t,
                         TimeNs ts, std::uint64_t node,
                         const std::string& producer,
                         const std::uint64_t* slots);
  /// Append @p set as one row of its identity plan's table, reading its
  /// values under @p set_mu (null: the caller holds the set's lock).
  Status StoreSetLocked(std::unique_lock<std::mutex>& lock,
                        const MetricSet& set, std::mutex* set_mu);
  /// Leave @p t with an active builder that has room: a full one is frozen
  /// once the previous frozen builder has landed.
  Status MakeRoomLocked(std::unique_lock<std::mutex>& lock, Table& t);
  /// Wait until @p t has no frozen builder. A seal that failed is retried
  /// once, and its error returned if the retry fails too.
  Status AwaitFrozenLocked(std::unique_lock<std::mutex>& lock, Table& t);
  /// Move @p t's active builder to its (free) frozen slot and queue the seal.
  void FreezeLocked(Table& t);
  void QueueSealLocked(Table& t);
  void FoldRowLocked(Table& t, TimeNs ts, std::uint64_t node,
                     const std::uint64_t* slots);
  /// Syncer side of a seal: write the file, publish it under mu_, fsync it.
  /// Returns the fsync's status (a failed write is kept on the table).
  Status RunSeal(const SealJob& job);
  /// Block until every queued seal (and its fsync) has completed; returns
  /// (and clears) the first fsync error since the last drain.
  Status DrainSyncs();
  void SyncerMain();
  /// Find-or-create the destination table for one plan row group, via the
  /// pointer-keyed cache so steady state does no string lookups.
  Table* TableForLocked(const RowPlan* plan, std::uint32_t group_idx);
  /// The identity plan of @p set's shape, compiled on first contact.
  const RowPlan& IdentityPlanLocked(const MetricSet& set);
  Status PersistRollupsLocked(Table& t);
  void AttachExistingLocked();
  void LoadRollupFileLocked(const std::string& path);
  const Table* FindTableLocked(const std::string& name) const;
  Status ResolveColumns(const Table& t, const std::vector<std::string>& want,
                        std::vector<std::uint32_t>* idx,
                        std::vector<std::string>* names) const;

  TsdbOptions opts_;
  std::string name_ = "store_tsdb";
  mutable std::mutex mu_;
  std::map<std::string, Table> tables_;
  /// Identity plans for plain StoreSet ingest, one per interned schema.
  SchemaPlanCache identity_plans_;
  /// plan pointer -> per-group destination table; plans are stable for the
  /// life of their Decomposer (or this store, for identity plans).
  std::unordered_map<const RowPlan*, std::vector<Table*>> group_tables_;
  std::uint64_t segments_sealed_ = 0;
  std::uint64_t segments_attached_ = 0;
  std::uint64_t attach_rejects_ = 0;
  /// Tables whose `sealing` is set; seal_cv_ (with mu_) signals each
  /// change of a table's frozen slot.
  std::uint64_t seals_in_flight_ = 0;
  mutable std::condition_variable seal_cv_;

  // The syncer seals frozen segments off the ingest path: it writes and
  // renames the file (a reader never sees it torn), publishes it under mu_,
  // and then fsyncs it. Flush() drains the queue, so the store's durability
  // contract is "everything stored before a successful Flush".
  std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  std::deque<SealJob> sync_queue_;
  std::size_t sync_in_flight_ = 0;
  Status sync_err_;
  bool sync_stop_ = false;
  std::thread syncer_;
};

}  // namespace ldmsxx

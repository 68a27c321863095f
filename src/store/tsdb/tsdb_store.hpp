// store_tsdb: the queryable columnar time-series backend (ISSUE 9 tentpole).
// Rows (decomposed by the strgp's RowPlan, or the identity plan for plain
// StoreSet calls) are appended to an in-memory columnar segment per table;
// at segment_rows the segment is sealed to disk (atomic write, CRC-sealed
// footer index) and folded into min/max/avg/count rollups at a configurable
// granularity. Queries (time range × node set × metric list) prune whole
// segments on the footer's min/max timestamp and node dictionary, then read
// only the requested columns — versus the full-scan path that re-reads every
// column of every segment the way a CSV consumer would.
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
  /// Seal non-empty active segments and persist dirty rollups.
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
  /// (node, bucket start) -> one accumulator per table column. Keyed per
  /// row rather than per value so the seal-time fold costs one map lookup
  /// per row run, not one per cell.
  using RollupMap = std::map<std::pair<std::uint64_t, std::uint64_t>,
                             std::vector<RollupAccum>>;
  struct Table {
    std::string name;
    std::vector<SegmentColumn> columns;
    std::unique_ptr<SegmentBuilder> active;
    std::vector<Sealed> sealed;
    std::uint64_t seq = 0;  ///< next segment file number
    RollupMap rollups;
    bool rollup_dirty = false;
  };

  Status AppendRowsLocked(const RowBatch& batch);
  /// Hand a freshly renamed segment file to the background syncer; its
  /// fsync happens off the ingest path and is awaited by DrainSyncs.
  void EnqueueSync(std::string path);
  /// Block until every queued fsync has completed; returns (and clears) the
  /// first error the syncer hit since the last drain.
  Status DrainSyncs();
  void SyncerMain();
  /// Find-or-create the destination table for one plan row group, via the
  /// pointer-keyed cache so steady state does no string lookups.
  Table* TableForLocked(const RowPlan* plan, std::uint32_t group_idx);
  Status SealLocked(Table& t);
  void FoldRollupsLocked(Table& t, const SegmentBuilder& seg);
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
  /// Identity plans for plain StoreSet ingest, keyed by schema digest.
  std::unordered_map<std::uint32_t, RowPlan> identity_plans_;
  /// plan pointer -> per-group destination table; plans are stable for the
  /// life of their Decomposer (or this store, for identity plans).
  std::unordered_map<const RowPlan*, std::vector<Table*>> group_tables_;
  RowBatch scratch_;  ///< reused by StoreSet/StoreSetBatch (under mu_)
  std::uint64_t segments_sealed_ = 0;
  std::uint64_t segments_attached_ = 0;
  std::uint64_t attach_rejects_ = 0;

  // Background durability: seals rename the segment into place inline (a
  // reader never sees a torn file) but the fsyncs — the dominant cost of a
  // seal — run on this thread. Flush() drains the queue, so the store's
  // durability contract is "everything stored before a successful Flush".
  // The syncer touches only this state, never the tables above.
  std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  std::deque<std::string> sync_queue_;
  std::size_t sync_in_flight_ = 0;
  Status sync_err_;
  bool sync_stop_ = false;
  std::thread syncer_;
};

}  // namespace ldmsxx

// Storage plugin API (§IV-B "Storage"). Stores run on aggregators and write
// metric-set contents to stable storage. The aggregator only hands a store a
// mirror set that just passed the DGN/consistent checks, so stores never see
// torn or stale data ("collection of a metric set whose data has not been
// updated or is incomplete does not result in a write to storage").
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "core/metric_set.hpp"
#include "store/rows.hpp"
#include "util/status.hpp"

namespace ldmsxx {

/// Base class for storage plugins.
class Store {
 public:
  virtual ~Store() = default;

  /// Plugin name ("store_csv", "store_flatfile", "store_mem", "store_tsdb").
  virtual const std::string& name() const = 0;

  /// Append one sample: the current contents of @p set, stamped with the
  /// set's transaction timestamp. Called from the aggregator's dedicated
  /// storage thread pool; implementations must be thread-safe across
  /// different sets but may assume per-set serialization. A non-ok status
  /// means the sample did NOT reach storage (disk full, stream failure);
  /// the aggregator's circuit breaker counts these, so implementations must
  /// not swallow write errors.
  virtual Status StoreSet(const MetricSet& set) = 0;

  /// Flush buffered data to stable storage. A non-ok status means buffered
  /// rows may not have reached the device.
  virtual Status Flush() { return Status::Ok(); }

  // --- decomposed / batched ingest (ISSUE 9) ----------------------------

  /// True when this store accepts decomposed rows via StoreRows. Only
  /// row-capable stores may be targeted by a strgp with a decomp= spec.
  virtual bool row_capable() const { return false; }

  /// Append decomposed rows. The batch may span many source samples (the
  /// drain hands over up to kDrainBatch samples' worth in one call), so
  /// implementations should take their internal lock once per call, not per
  /// row. Default: unsupported.
  virtual Status StoreRows(const RowBatch& batch);

  /// One queued sample handed to StoreSetBatch: the set plus the mutex that
  /// serializes the read against concurrent ApplyData on the mirror.
  struct BatchItem {
    const MetricSet* set = nullptr;
    std::mutex* mu = nullptr;
  };

  /// True when StoreSetBatch is cheaper than n StoreSet calls (the store
  /// can amortize locking/appends across the whole drain batch).
  virtual bool batch_capable() const { return false; }

  /// Store @p n samples in one call. @p stored receives the number that
  /// reached storage; on a non-ok status the remaining samples did not.
  /// Default implementation: loop StoreSet under each item's mutex.
  virtual Status StoreSetBatch(const BatchItem* items, std::size_t n,
                               std::size_t* stored);

  std::uint64_t rows_written() const {
    return rows_.load(std::memory_order_relaxed);
  }
  /// Rows whose write failed (StoreSet returned non-ok).
  std::uint64_t rows_failed() const {
    return failed_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_written() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  /// Rows dropped by the store's own retention policy (e.g. the
  /// memory store's max_samples ring). Surfaced in strgp_status.
  std::uint64_t rows_evicted() const {
    return evicted_.load(std::memory_order_relaxed);
  }

 protected:
  void CountRow(std::uint64_t bytes) {
    rows_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void CountFailedRow() { failed_.fetch_add(1, std::memory_order_relaxed); }
  void CountEvicted(std::uint64_t n = 1) {
    evicted_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> rows_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> evicted_{0};
};

}  // namespace ldmsxx

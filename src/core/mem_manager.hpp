// Custom memory manager for metric-set chunks (§IV-D: "A custom memory
// manager is employed to manage memory allocation"). Each ldmsd reserves a
// fixed pool at startup (the real ldmsd's -m flag); metric sets are carved
// out of it so the daemon's footprint is bounded and RDMA transports can
// register the whole pool once.
//
// Ownership: the allocator state (MemPool) is shared. Metric sets hold a
// reference to the pool they were carved from, so a set pinned by a remote
// RDMA endpoint keeps the pool alive even after its daemon is destroyed —
// exactly like registered memory outliving the registering process's
// bookkeeping would be a bug on real hardware, here the shared_ptr makes
// teardown order a non-issue.
//
// The manager also interns the daemon's schemas (SchemaTable): every set
// carved from its pool shares one immutable Schema per shape, so a daemon
// holding thousands of same-shaped sets keeps one copy of their metric
// definitions instead of one per set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include "core/schema.hpp"
#include "util/status.hpp"

namespace ldmsxx {

/// Best-fit allocator with coalescing over a single contiguous region.
/// Blocks tile the region, each behind a 16-byte in-band header. Free blocks
/// are also indexed by (size, offset), so Allocate takes the smallest block
/// that fits and the lowest offset among equal sizes, and by offset, so Free
/// finds the free block to its left to merge with. Free reaches its header
/// straight from the pointer. Both calls are O(log n) in the number of
/// blocks, and placement is a pure function of the call sequence.
/// Thread-safe. Usually used through MemManager.
class MemPool {
 public:
  explicit MemPool(std::size_t pool_size);
  ~MemPool();

  MemPool(const MemPool&) = delete;
  MemPool& operator=(const MemPool&) = delete;

  /// Allocate @p size bytes aligned to @p align (power of two, <= 64).
  /// Returns nullptr when the pool is exhausted.
  void* Allocate(std::size_t size, std::size_t align = 8);

  /// Return a block obtained from Allocate(). Null is a no-op; a pointer
  /// this pool did not hand out, or one already freed, is rejected (an
  /// assert in debug builds, ignored otherwise).
  void Free(void* ptr);

  /// True when @p ptr lies inside the managed pool.
  bool Contains(const void* ptr) const;

  std::size_t pool_size() const { return pool_size_; }
  std::size_t bytes_in_use() const;
  std::size_t peak_bytes_in_use() const;
  std::size_t allocation_count() const;

 private:
  struct BlockHeader;

  BlockHeader* HeaderAt(std::size_t offset);
  /// Add or remove a free block in both indexes; caller holds mu_.
  void IndexFree(std::size_t offset, std::size_t size);
  void UnindexFree(std::size_t offset, std::size_t size);

  std::size_t pool_size_;
  std::unique_ptr<std::byte[]> pool_;
  mutable std::mutex mu_;
  /// Free blocks as (payload size, header offset) and by header offset.
  std::set<std::pair<std::size_t, std::size_t>> free_by_size_;
  std::set<std::size_t> free_by_offset_;
  std::size_t in_use_ = 0;
  std::size_t peak_in_use_ = 0;
  std::size_t live_allocations_ = 0;
};

using MemPoolPtr = std::shared_ptr<MemPool>;

/// Handle a daemon owns; hands out the shared pool and the daemon's
/// interned schemas to metric sets.
class MemManager {
 public:
  /// @param pool_size bytes reserved for all metric sets of this daemon
  explicit MemManager(std::size_t pool_size)
      : pool_(std::make_shared<MemPool>(pool_size)),
        schemas_(std::make_shared<SchemaTable>()) {}

  void* Allocate(std::size_t size, std::size_t align = 8) {
    return pool_->Allocate(size, align);
  }
  void Free(void* ptr) { pool_->Free(ptr); }
  bool Contains(const void* ptr) const { return pool_->Contains(ptr); }

  std::size_t pool_size() const { return pool_->pool_size(); }
  std::size_t bytes_in_use() const { return pool_->bytes_in_use(); }
  std::size_t peak_bytes_in_use() const { return pool_->peak_bytes_in_use(); }
  std::size_t allocation_count() const { return pool_->allocation_count(); }

  /// Shared handle for objects that must keep the pool alive (metric sets).
  const MemPoolPtr& pool() const { return pool_; }

  /// This daemon's schemas, one per shape among its live sets. Never shared
  /// with another MemManager: in a deployment each daemon is its own process.
  SchemaTable& schemas() { return *schemas_; }
  const SchemaTable& schemas() const { return *schemas_; }

 private:
  MemPoolPtr pool_;
  /// Shared: an interned schema's release hook keeps the table alive.
  std::shared_ptr<SchemaTable> schemas_;
};

}  // namespace ldmsxx

#include "core/mem_manager.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace ldmsxx {

// Every block (free or allocated) starts with a header, so the blocks tile
// the pool in address order and a block's right neighbour sits right after
// its payload. The indexes hold only the offsets and sizes of free blocks;
// the headers stay the record of every block.
struct MemPool::BlockHeader {
  std::size_t size;  // payload size, excluding header
  bool free;
  std::uint32_t magic;  // guards double-free / stray pointers
};

namespace {
constexpr std::uint32_t kBlockMagic = 0x4c444d53;  // "LDMS"
// Marks the 16 bytes before a payload that was padded for align > 16; its
// size field holds the padding, i.e. the distance back to the payload start.
constexpr std::uint32_t kPadMagic = 0x4c444d50;  // "LDMP"
constexpr std::size_t kRawHeaderSize = sizeof(std::size_t) + sizeof(bool) +
                                       sizeof(std::uint32_t);
constexpr std::size_t kHeaderSize = (kRawHeaderSize + 15) / 16 * 16;

std::size_t RoundUp(std::size_t v, std::size_t align) {
  return (v + align - 1) / align * align;
}
}  // namespace

static_assert(kHeaderSize == 16);
// The pool comes from operator new[], so headers and payloads are 16-byte
// aligned and the padding for larger alignments is a multiple of 16.
static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= 16);

MemPool::MemPool(std::size_t pool_size)
    : pool_size_(RoundUp(pool_size, 16)),
      pool_(new std::byte[pool_size_]) {
  static_assert(sizeof(BlockHeader) <= kHeaderSize);
  auto* first = HeaderAt(0);
  first->size = pool_size_ - kHeaderSize;
  first->free = true;
  first->magic = kBlockMagic;
  IndexFree(0, first->size);
}

MemPool::~MemPool() = default;

MemPool::BlockHeader* MemPool::HeaderAt(std::size_t offset) {
  return reinterpret_cast<BlockHeader*>(pool_.get() + offset);
}

void MemPool::IndexFree(std::size_t offset, std::size_t size) {
  free_by_size_.emplace(size, offset);
  free_by_offset_.insert(offset);
}

void MemPool::UnindexFree(std::size_t offset, std::size_t size) {
  free_by_size_.erase({size, offset});
  free_by_offset_.erase(offset);
}

void* MemPool::Allocate(std::size_t size, std::size_t align) {
  assert(align > 0 && (align & (align - 1)) == 0 && align <= 64);
  if (size > pool_size_) return nullptr;  // also keeps the rounding in range
  // Headers are 16-byte aligned, so payloads are too; larger alignments are
  // satisfied by padding the request.
  std::size_t need = RoundUp(size, 16);
  if (align > 16) need = RoundUp(need + align, 16);

  std::lock_guard<std::mutex> lock(mu_);
  // Best fit: the smallest free block that holds the request, the lowest
  // offset among equal sizes.
  const auto fit = free_by_size_.lower_bound({need, 0});
  if (fit == free_by_size_.end()) return nullptr;
  const auto [block_size, offset] = *fit;
  UnindexFree(offset, block_size);
  BlockHeader* block = HeaderAt(offset);
  // Split when the remainder can hold another block.
  if (block_size >= need + kHeaderSize + 16) {
    const std::size_t rest_offset = offset + kHeaderSize + need;
    BlockHeader* rest = HeaderAt(rest_offset);
    rest->size = block_size - need - kHeaderSize;
    rest->free = true;
    rest->magic = kBlockMagic;
    IndexFree(rest_offset, rest->size);
    block->size = need;
  }
  block->free = false;
  in_use_ += block->size + kHeaderSize;
  peak_in_use_ = std::max(peak_in_use_, in_use_);
  ++live_allocations_;
  std::byte* payload = pool_.get() + offset + kHeaderSize;
  if (align > 16) {
    const std::size_t pad =
        RoundUp(reinterpret_cast<std::uintptr_t>(payload), align) -
        reinterpret_cast<std::uintptr_t>(payload);
    if (pad > 0) {
      // The padding is a multiple of 16, so a marker fits right before the
      // returned pointer and Free can step back to the header.
      payload += pad;
      auto* marker = reinterpret_cast<BlockHeader*>(payload - kHeaderSize);
      marker->size = pad;
      marker->free = false;
      marker->magic = kPadMagic;
    }
  }
  return payload;
}

void MemPool::Free(void* ptr) {
  if (ptr == nullptr) return;
  auto* target = static_cast<std::byte*>(ptr);
  // Every pointer Allocate returns is 16-byte aligned and past a header.
  const std::size_t at =
      Contains(ptr) ? static_cast<std::size_t>(target - pool_.get()) : 0;
  const bool plausible = at >= kHeaderSize && at % 16 == 0;
  assert(plausible && "Free of pointer not allocated from this pool");
  if (!plausible) return;
  std::lock_guard<std::mutex> lock(mu_);
  // The 16 bytes before the pointer are its block's header, or the marker
  // of a payload padded for align > 16, which says how far back the payload
  // starts.
  auto* behind = reinterpret_cast<BlockHeader*>(target - kHeaderSize);
  std::size_t pad = 0;
  if (behind->magic == kPadMagic) {
    pad = behind->size;
    const bool valid_pad =
        pad > 0 && pad < 64 && pad % 16 == 0 && at >= pad + kHeaderSize;
    assert(valid_pad && "Free of pointer not allocated from this pool");
    if (!valid_pad) return;
  }
  auto* owner = reinterpret_cast<BlockHeader*>(target - pad - kHeaderSize);
  const bool owned =
      owner->magic == kBlockMagic && !owner->free && pad <= owner->size;
  assert(owned && "Free of pointer not allocated from this pool");
  if (!owned) return;
  // A cleared marker makes a second Free of a padded pointer fail above.
  if (pad > 0) behind->magic = 0;
  owner->free = true;
  in_use_ -= owner->size + kHeaderSize;
  --live_allocations_;

  // Coalesce with the free neighbours on either side. An absorbed header
  // loses its magic, so a stale pointer to it is rejected as foreign.
  std::size_t offset = static_cast<std::size_t>(
      reinterpret_cast<std::byte*>(owner) - pool_.get());
  std::size_t size = owner->size;
  const std::size_t next_offset = offset + kHeaderSize + size;
  if (next_offset < pool_size_) {
    BlockHeader* next = HeaderAt(next_offset);
    if (next->free) {
      UnindexFree(next_offset, next->size);
      size += kHeaderSize + next->size;
      next->magic = 0;
    }
  }
  const auto after = free_by_offset_.lower_bound(offset);
  if (after != free_by_offset_.begin()) {
    const std::size_t prev_offset = *std::prev(after);
    BlockHeader* prev = HeaderAt(prev_offset);
    if (prev_offset + kHeaderSize + prev->size == offset) {
      UnindexFree(prev_offset, prev->size);
      size += kHeaderSize + prev->size;
      owner->magic = 0;
      offset = prev_offset;
    }
  }
  HeaderAt(offset)->size = size;
  IndexFree(offset, size);
}

bool MemPool::Contains(const void* ptr) const {
  const auto* p = static_cast<const std::byte*>(ptr);
  return p >= pool_.get() && p < pool_.get() + pool_size_;
}

std::size_t MemPool::bytes_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_use_;
}

std::size_t MemPool::peak_bytes_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_in_use_;
}

std::size_t MemPool::allocation_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_allocations_;
}

}  // namespace ldmsxx

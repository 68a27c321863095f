// Crash-safe file writes, the lokinet-nodedb pattern: write the whole
// payload to a sibling temp file, fsync it, rename() over the target, then
// fsync the directory so the rename itself is durable. A reader never sees
// a half-written file — it sees the old contents or the new ones. Shared by
// the cluster registry (src/daemon/registry) and the file stores' directory
// creation paths so there is exactly one audited implementation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace ldmsxx {

/// Non-throwing mkdir -p. Ok when the directories already exist; the error
/// message carries errno detail otherwise. File stores call this at open
/// time so a probe after disk recovery can succeed (never throw from a
/// store constructor — the breaker needs a Status to count).
Status EnsureDirectories(const std::string& path);

/// Atomically replace @p path with @p contents: write "<path>.tmp.<pid>",
/// fsync, rename over @p path, fsync the parent directory. On any failure
/// the temp file is unlinked and @p path is untouched.
/// @param mode permission bits for a newly created file (e.g. 0600 for key
///        material, 0644 for world-readable state).
/// @param durable when false, skip both fsyncs: readers still never see a
///        torn file (tmp + rename), but after a power loss the target may
///        hold stale or zero-length contents. For callers whose on-disk
///        format is self-validating and who batch durability themselves
///        (store_tsdb fsyncs sealed segments from a background thread and
///        drains the queue on Flush).
Status AtomicWriteFile(const std::string& path, std::string_view contents,
                       unsigned mode = 0644, bool durable = true);

/// The streaming form of AtomicWriteFile, for payloads built piecewise:
/// Append() buffers bytes into "<path>.tmp.<pid>" and Commit() renames it
/// over @p path (with both fsyncs when durable). A writer destroyed before
/// a successful Commit unlinks its temp file, leaving @p path untouched.
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path, unsigned mode = 0644);
  ~AtomicFileWriter();
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// Append @p n bytes. Once a call fails, every later call (and Commit)
  /// returns that error.
  Status Append(const void* data, std::size_t n);
  /// Bytes appended so far.
  std::uint64_t size() const { return size_; }
  Status Commit(bool durable = true);

 private:
  Status WriteOut(const void* data, std::size_t n);

  std::string path_;
  std::string tmp_;
  int fd_ = -1;
  Status st_;
  std::vector<char> buf_;  ///< appended bytes not yet written
  std::uint64_t size_ = 0;
};

/// fsync @p path (and its parent directory) in place; the second half of an
/// AtomicWriteFile(durable=false) write.
Status SyncFile(const std::string& path);

/// Read a whole file into @p out. kNotFound when it does not exist.
Status ReadFileToString(const std::string& path, std::string* out);

}  // namespace ldmsxx

#include "util/atomic_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace ldmsxx {
namespace {

// AtomicFileWriter appends smaller than this gather into one write(2);
// larger ones go straight through.
constexpr std::size_t kWriteBuffer = 64 << 10;

std::string ParentDir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status ErrnoStatus(const std::string& what) {
  return {ErrorCode::kInternal, what + ": " + std::strerror(errno)};
}

}  // namespace

Status EnsureDirectories(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec && !std::filesystem::is_directory(path)) {
    return {ErrorCode::kInternal, "mkdir " + path + ": " + ec.message()};
  }
  return Status::Ok();
}

AtomicFileWriter::AtomicFileWriter(std::string path, unsigned mode)
    : path_(std::move(path)),
      tmp_(path_ + ".tmp." + std::to_string(::getpid())) {
  fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               static_cast<mode_t>(mode));
  if (fd_ < 0) {
    st_ = ErrnoStatus("open " + tmp_);
    return;
  }
  // O_CREAT mode is filtered by umask; key files need the exact bits.
  if (::fchmod(fd_, static_cast<mode_t>(mode)) != 0) {
    st_ = ErrnoStatus("fchmod " + tmp_);
  }
}

AtomicFileWriter::~AtomicFileWriter() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(tmp_.c_str());
  }
}

Status AtomicFileWriter::WriteOut(const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (st_.ok() && n > 0) {
    const ssize_t w = ::write(fd_, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      st_ = ErrnoStatus("write " + tmp_);
      break;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return st_;
}

Status AtomicFileWriter::Append(const void* data, std::size_t n) {
  if (!st_.ok()) return st_;
  size_ += n;
  if (buf_.size() + n > kWriteBuffer) {
    WriteOut(buf_.data(), buf_.size());
    buf_.clear();
    if (n >= kWriteBuffer) return WriteOut(data, n);
  }
  const char* p = static_cast<const char*>(data);
  buf_.insert(buf_.end(), p, p + n);
  return st_;
}

Status AtomicFileWriter::Commit(bool durable) {
  if (!buf_.empty()) {
    WriteOut(buf_.data(), buf_.size());
    buf_.clear();
  }
  if (!st_.ok()) return st_;
  if (durable && ::fsync(fd_) != 0) return st_ = ErrnoStatus("fsync " + tmp_);
  const int rc = ::close(fd_);
  fd_ = -1;
  if (rc != 0) {
    st_ = ErrnoStatus("close " + tmp_);
    ::unlink(tmp_.c_str());
    return st_;
  }
  if (::rename(tmp_.c_str(), path_.c_str()) != 0) {
    st_ = ErrnoStatus("rename " + tmp_ + " -> " + path_);
    ::unlink(tmp_.c_str());
    return st_;
  }
  if (!durable) return Status::Ok();
  // Make the rename durable: fsync the containing directory. Failure here is
  // reported (the caller may retry) but the file content is already safe.
  const std::string dir = ParentDir(path_);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    const int drc = ::fsync(dfd);
    ::close(dfd);
    if (drc != 0) return ErrnoStatus("fsync " + dir);
  }
  return Status::Ok();
}

Status AtomicWriteFile(const std::string& path, std::string_view contents,
                       unsigned mode, bool durable) {
  AtomicFileWriter writer(path, mode);
  writer.Append(contents.data(), contents.size());
  return writer.Commit(durable);
}

Status SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoStatus("fsync " + path);
  const std::string dir = ParentDir(path);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    const int drc = ::fsync(dfd);
    ::close(dfd);
    if (drc != 0) return ErrnoStatus("fsync " + dir);
  }
  return Status::Ok();
}

Status ReadFileToString(const std::string& path, std::string* out) {
  out->clear();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return {ErrorCode::kNotFound, "no file: " + path};
    return ErrnoStatus("open " + path);
  }
  char buf[1 << 14];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status st = ErrnoStatus("read " + path);
      ::close(fd);
      return st;
    }
    if (n == 0) break;
    out->append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return Status::Ok();
}

}  // namespace ldmsxx

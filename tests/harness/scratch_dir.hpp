// A fresh directory under /tmp for one test. It is removed, with everything
// written into it, when the object goes out of scope: at the end of the
// test body, or when the fixture holding it is destroyed.
#pragma once

#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace ldmsxx::harness {

class ScratchDir {
 public:
  /// Creates /tmp/ldmsxx_<tag>_XXXXXX.
  explicit ScratchDir(const std::string& tag)
      : path_("/tmp/ldmsxx_" + tag + "_XXXXXX") {
    EXPECT_NE(::mkdtemp(path_.data()), nullptr) << path_;
  }

  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace ldmsxx::harness

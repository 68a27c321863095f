// FNV-1a 64, the one hash whose values this tree relies on staying fixed
// across runs and builds (std::hash promises neither): it seeds the
// producers' and store policies' jitter streams, places samplers on tree
// leaves, and checksums the registry file, tsdb rollups and segment footers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ldmsxx {

/// The offset basis every stored checksum and placement was computed with.
/// It is one digit short of the published 14695981039346656037, which makes
/// it a different but equally usable seed; changing it would invalidate
/// every file and placement written so far.
constexpr std::uint64_t kFnv1aBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

inline std::uint64_t Fnv1a(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = kFnv1aBasis;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

inline std::uint64_t Fnv1a(std::string_view s) {
  return Fnv1a(s.data(), s.size());
}

}  // namespace ldmsxx

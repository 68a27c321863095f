// The three workloads and the small helpers they share.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "daemon/ldmsd.hpp"
#include "pipeline.hpp"
#include "util/rng.hpp"

namespace perfbench {

std::unique_ptr<Pipeline> MakeChamaDense(const RunOptions& opts,
                                         Tracer* tracer,
                                         const std::string& dir);
std::unique_ptr<Pipeline> MakeBwSparse(const RunOptions& opts, Tracer* tracer,
                                       const std::string& dir);
std::unique_ptr<Pipeline> MakeDashboardMix(const RunOptions& opts,
                                           Tracer* tracer,
                                           const std::string& dir);

/// splitmix64 over the inputs: the seeded value generator.
inline std::uint64_t Mix(std::uint64_t a, std::uint64_t b,
                         std::uint64_t c = 0) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b * 0xbf58476d1ce4e5b9ull +
                    c * 0x94d049bb133111ebull + 0x2545f4914f6cdd1dull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// @p k distinct values from [0, n), sorted.
inline std::vector<std::uint64_t> PickDistinct(ldmsxx::Rng& rng,
                                               std::uint64_t n,
                                               std::size_t k) {
  std::vector<std::uint64_t> out;
  while (out.size() < k) {
    const std::uint64_t v = rng.Next() % n;
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// A query front end's link to a storing daemon: connected and looked up
/// (one set) but never pulled from, so `query mode=fanout` can reach it.
inline ldmsxx::ProducerConfig FrontProducer(const std::string& name,
                                            const std::string& address,
                                            const std::string& one_set,
                                            ldmsxx::DurationNs interval) {
  ldmsxx::ProducerConfig pc;
  pc.name = name;
  pc.transport = "local";
  pc.address = address;
  pc.interval = interval;
  pc.standby = true;
  pc.set_instances = {one_set};
  return pc;
}

}  // namespace perfbench

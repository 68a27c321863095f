#include "bench_support/psnap.hpp"

#include <mutex>
#include <thread>
#include <vector>

namespace ldmsxx::bench {
namespace {

/// Fixed work unit: integer FMA chain. The asm constraint defeats
/// constant-folding without memory traffic, so the loop measures CPU time,
/// not cache behaviour.
inline std::uint64_t SpinWork(std::uint64_t reps, std::uint64_t seed) {
  std::uint64_t acc = seed | 1;
  for (std::uint64_t i = 0; i < reps; ++i) {
    acc = acc * 6364136223846793005ull + 1442695040888963407ull;
    asm volatile("" : "+r"(acc));
  }
  return acc;
}

}  // namespace

std::uint64_t CalibrateLoop(DurationNs target) {
  // Measure the per-rep cost over a long spin, then refine twice.
  std::uint64_t reps = 100000;
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t t0 = NowSteadyNs();
    SpinWork(reps, t0);
    const std::uint64_t elapsed = NowSteadyNs() - t0;
    if (elapsed == 0) {
      reps *= 10;
      continue;
    }
    const double per_rep =
        static_cast<double>(elapsed) / static_cast<double>(reps);
    reps = static_cast<std::uint64_t>(static_cast<double>(target) / per_rep);
    if (reps == 0) reps = 1;
  }
  return reps;
}

std::uint64_t PsnapResult::TailEvents(double extra_us) const {
  return histogram.TailCount(100.0 + extra_us);
}

PsnapResult RunPsnap(const PsnapConfig& config) {
  const std::uint64_t reps = CalibrateLoop(config.loop_target);

  std::mutex merge_mu;
  PsnapResult result;
  result.histogram =
      Histogram(config.hist_lo_us, config.hist_hi_us,
                static_cast<std::size_t>(config.hist_hi_us - config.hist_lo_us));

  auto worker = [&](unsigned tid) {
    Histogram local(config.hist_lo_us, config.hist_hi_us,
                    static_cast<std::size_t>(config.hist_hi_us -
                                             config.hist_lo_us));
    RunningStats stats;
    for (std::uint64_t i = 0; i < config.iterations; ++i) {
      const std::uint64_t t0 = NowSteadyNs();
      SpinWork(reps, t0 + tid);
      const double us =
          static_cast<double>(NowSteadyNs() - t0) / 1000.0;
      local.Add(us);
      stats.Add(us);
    }
    std::lock_guard<std::mutex> lock(merge_mu);
    result.histogram.Merge(local);
    result.stats.Merge(stats);
    result.total_iterations += config.iterations;
  };

  std::vector<std::thread> threads;
  threads.reserve(config.threads);
  for (unsigned t = 0; t < config.threads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();
  return result;
}

}  // namespace ldmsxx::bench

#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// A fixed amount of integer work the optimizer cannot fold away.
std::uint64_t Spin(std::uint64_t iters) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

std::atomic<std::uint64_t> g_sink{0};

/// Seconds for @p threads threads to each run @p iters spin iterations.
double SpinSeconds(unsigned threads, std::uint64_t iters) {
  const std::uint64_t t0 = NowNs();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([iters] {
      g_sink.fetch_add(Spin(iters), std::memory_order_relaxed);
    });
  }
  for (auto& th : pool) th.join();
  return static_cast<double>(NowNs() - t0) / 1e9;
}

}  // namespace

HostStamp StampHost() {
  HostStamp host;
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  host.nproc = n > 0 ? static_cast<unsigned>(n) : 1;
  host.compiler = __VERSION__;
  host.build_type = PERFBENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
  host.optimized = true;
#endif
  // Size the work to ~100 ms on one thread, then run it on one thread and
  // on nproc threads at once; best of three for each.
  std::uint64_t iters = 1u << 20;
  while (SpinSeconds(1, iters) < 0.05) iters *= 2;
  double one = 1e9, all = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    one = std::min(one, SpinSeconds(1, iters));
    all = std::min(all, SpinSeconds(host.nproc, iters));
  }
  host.effective_cores = static_cast<double>(host.nproc) * one / all;
  host.spin_ms = one * 1e3;
  return host;
}

std::string HostStampJson(const HostStamp& host) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"effective_cores\": %.3f, "
                "\"spin_ms\": %.2f, "
                "\"compiler\": \"gcc %s\", \"build_type\": \"%s\", "
                "\"optimized\": %s}",
                host.nproc, host.effective_cores, host.spin_ms,
                host.compiler.c_str(),
                host.build_type.c_str(), host.optimized ? "true" : "false");
  return buf;
}

int ThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

double PeakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench

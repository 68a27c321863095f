// Host stamp printed with every result: what the numbers were measured on.
#pragma once

#include <string>

namespace perfbench {

struct HostStamp {
  unsigned nproc = 0;
  /// Work a calibrated spin loop completes on nproc threads at once, in
  /// units of what one thread completes alone: the cores really available,
  /// which on a shared host is fewer than nproc.
  double effective_cores = 0.0;
  /// Milliseconds one thread took for the calibration work alone: the
  /// single-thread speed the run had, to compare runs on a shared host.
  double spin_ms = 0.0;
  std::string compiler;
  std::string build_type;
  bool optimized = false;
};

/// Measure the host. Runs the spin calibration (about half a second), so
/// call it before the workload starts, never during.
HostStamp StampHost();

std::string HostStampJson(const HostStamp& host);

/// Threads of this process right now (Linux /proc/self/status).
int ThreadCount();
/// Peak resident set size of this process so far, MB.
double PeakRssMb();

}  // namespace perfbench

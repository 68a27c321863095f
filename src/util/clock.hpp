// Time source abstraction. The paper's evaluation mixes two regimes:
//  * real-time overhead measurements (PSNAP, application impact), which need
//    the machine's actual clocks, and
//  * 24-hour system characterizations (Figures 9-12), which we drive from a
//    simulated clock so a day of cluster telemetry runs in seconds.
// All ldmsxx components take a Clock& so either regime works unchanged.
#pragma once

#include <atomic>
#include <cstdint>

namespace ldmsxx {

/// Nanoseconds since the UNIX epoch (real clock) or since simulation start.
using TimeNs = std::uint64_t;

/// Duration in nanoseconds.
using DurationNs = std::uint64_t;

constexpr DurationNs kNsPerUs = 1000ull;
constexpr DurationNs kNsPerMs = 1000ull * kNsPerUs;
constexpr DurationNs kNsPerSec = 1000ull * kNsPerMs;
constexpr DurationNs kNsPerMin = 60ull * kNsPerSec;
constexpr DurationNs kNsPerHour = 60ull * kNsPerMin;

/// Abstract monotonic time source.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Current time in nanoseconds. Must be monotonic non-decreasing.
  virtual TimeNs Now() const = 0;
};

/// Wall clock backed by std::chrono::system_clock (so stored timestamps are
/// meaningful) with steady_clock monotonicity for interval math.
class RealClock final : public Clock {
 public:
  TimeNs Now() const override;

  /// Process-wide instance.
  static RealClock& Instance();
};

/// Manually advanced clock for simulations and deterministic tests.
/// Thread-safe: samplers on worker threads may read while the simulation
/// driver advances.
class SimClock final : public Clock {
 public:
  explicit SimClock(TimeNs start = 0) : now_(start) {}

  TimeNs Now() const override { return now_.load(std::memory_order_acquire); }

  /// Move time forward by @p delta nanoseconds.
  void Advance(DurationNs delta) {
    now_.fetch_add(delta, std::memory_order_acq_rel);
  }

  /// Jump to an absolute time; must not go backwards.
  void SetTime(TimeNs t);

 private:
  std::atomic<TimeNs> now_;
};

/// Nanoseconds on the machine's steady (monotonic) clock, for measuring
/// durations and setting deadlines; unrelated to any Clock's time.
std::uint64_t NowSteadyNs();

/// Cycle-accurate-ish busy-wait timer for microbenchmarks (PSNAP loop).
/// Returns elapsed nanoseconds of the spin.
DurationNs SpinFor(DurationNs duration);

}  // namespace ldmsxx

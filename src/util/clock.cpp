#include "util/clock.hpp"

#include <cassert>
#include <chrono>

namespace ldmsxx {

TimeNs RealClock::Now() const {
  return static_cast<TimeNs>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

RealClock& RealClock::Instance() {
  static RealClock clock;
  return clock;
}

void SimClock::SetTime(TimeNs t) {
  TimeNs prev = now_.load(std::memory_order_acquire);
  assert(t >= prev);
  (void)prev;
  now_.store(t, std::memory_order_release);
}

std::uint64_t NowSteadyNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

DurationNs SpinFor(DurationNs duration) {
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::nanoseconds(duration);
  // Volatile sink defeats loop elision without touching memory bandwidth.
  volatile std::uint64_t sink = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    sink = sink + 1;
  }
  return static_cast<DurationNs>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace ldmsxx

// In-memory span recorder for the traced run. A span is one call into a
// layer, recorded by the benchmark around that call: name, start, end, the
// span that was open on the same thread when it began (its parent), and the
// cycle or query id it belongs to. Spans stay in memory until the run ends;
// self time is a span's duration minus the part of it its children cover.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace perfbench {

std::uint64_t NowNs();

struct Span {
  std::uint32_t name = 0;     ///< index into Tracer::names()
  std::int64_t parent = -1;   ///< index of the enclosing span, -1 = root
  std::uint64_t group = 0;    ///< cycle or query id
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Self time of every span in @p spans (same order): its duration minus the
/// union of its children's intervals, clipped to its own interval.
std::vector<std::uint64_t> SelfTimes(const std::vector<Span>& spans);

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Id stamped on spans opened from now on (the current cycle or query).
  void set_group(std::uint64_t group);

  /// Open a span on the calling thread; returns its index, or -1 when
  /// tracing is off.
  std::int64_t Begin(std::string_view name);
  void End(std::int64_t id);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name)
        : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name) : -1) {}
    ~Scope() {
      if (id_ >= 0) tracer_->End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int64_t id_;
  };

  /// Durations (or self times) in ns of every closed span named @p name.
  std::vector<double> Durations(std::string_view name, bool self) const;

  /// Drop every span recorded so far (call with no span open).
  void Clear();
  std::size_t span_count() const;
  /// Write every span as CSV (name,group,parent,start_ns,end_ns,self_ns).
  bool WriteCsv(const std::string& path) const;

 private:
  std::uint32_t InternLocked(std::string_view name);

  const bool enabled_;
  mutable std::mutex mu_;  // guards everything below
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> name_ids_;
  std::unordered_map<std::thread::id, std::vector<std::int64_t>> open_;
  std::uint64_t group_ = 0;
};

}  // namespace perfbench

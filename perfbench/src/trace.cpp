#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::vector<std::uint64_t> SelfTimes(const std::vector<Span>& spans) {
  // Children's intervals per parent, clipped to the parent.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::uint64_t a = std::max(s.start_ns, p.start_ns);
    const std::uint64_t b = std::min(s.end_ns, p.end_ns);
    if (a < b) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t dur =
        spans[i].end_ns > spans[i].start_ns
            ? spans[i].end_ns - spans[i].start_ns
            : 0;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[i] = dur > covered ? dur - covered : 0;
  }
  return self;
}

void Tracer::set_group(std::uint64_t group) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  group_ = group;
}

std::uint32_t Tracer::InternLocked(std::string_view name) {
  auto it = name_ids_.find(std::string(name));
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(std::string(name), id);
  return id;
}

std::int64_t Tracer::Begin(std::string_view name) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  auto& stack = open_[std::this_thread::get_id()];
  Span s;
  s.name = InternLocked(name);
  s.parent = stack.empty() ? -1 : stack.back();
  s.group = group_;
  const auto id = static_cast<std::int64_t>(spans_.size());
  stack.push_back(id);
  s.start_ns = NowNs();
  spans_.push_back(s);
  return id;
}

void Tracer::End(std::int64_t id) {
  const std::uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
  auto& stack = open_[std::this_thread::get_id()];
  if (!stack.empty() && stack.back() == id) stack.pop_back();
}

std::vector<double> Tracer::Durations(std::string_view name,
                                      bool self) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  auto it = name_ids_.find(std::string(name));
  if (it == name_ids_.end()) return out;
  std::vector<std::uint64_t> selfs;
  if (self) selfs = SelfTimes(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != it->second || s.end_ns == 0) continue;
    out.push_back(self ? static_cast<double>(selfs[i])
                       : static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  open_.clear();
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<std::uint64_t> selfs = SelfTimes(spans_);
  std::fprintf(f, "name,group,parent,start_ns,end_ns,self_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s,%llu,%lld,%llu,%llu,%llu\n", names_[s.name].c_str(),
                 static_cast<unsigned long long>(s.group),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(selfs[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

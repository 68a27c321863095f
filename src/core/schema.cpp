#include "core/schema.hpp"

#include <cstring>
#include <functional>

namespace ldmsxx {
namespace {

/// Bucket digest of a shape's records. std::hash mixes eight bytes per step,
/// so a 194-metric set's ~18 kB of records costs a few microseconds, where a
/// byte-at-a-time FNV costs ~32 µs. Collisions only share a bucket: every
/// match is confirmed byte for byte.
std::uint64_t Digest(std::span<const std::byte> records) {
  return std::hash<std::string_view>{}(std::string_view(
      reinterpret_cast<const char*>(records.data()), records.size()));
}

}  // namespace

std::size_t Schema::AddMetric(std::string_view metric_name, MetricType type,
                              std::uint64_t component_id) {
  const auto align = static_cast<std::uint32_t>(MetricTypeAlign(type));
  MetricDef def;
  def.name = std::string(metric_name);
  def.type = type;
  def.component_id = component_id;
  def.data_offset = (value_area_size_ + align - 1) / align * align;
  value_area_size_ =
      def.data_offset + static_cast<std::uint32_t>(MetricTypeSize(type));
  metrics_.push_back(std::move(def));
  return metrics_.size() - 1;
}

std::optional<std::size_t> Schema::FindMetric(
    std::string_view metric_name) const {
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (metrics_[i].name == metric_name) return i;
  }
  return std::nullopt;
}

std::shared_ptr<const Schema> SchemaTable::FindLocked(
    std::uint64_t digest, std::span<const std::byte> records) const {
  auto [it, end] = entries_.equal_range(digest);
  for (; it != end; ++it) {
    const std::vector<std::byte>& have = it->second.records;
    if (have.size() != records.size() ||
        std::memcmp(have.data(), records.data(), have.size()) != 0) {
      continue;
    }
    // Null when the last holder is releasing it right now: Release (blocked
    // on mu_) drops that entry, and the caller interns a fresh one.
    if (auto live = it->second.live.lock()) return live;
  }
  return nullptr;
}

std::shared_ptr<const Schema> SchemaTable::Find(
    std::span<const std::byte> records) {
  const std::uint64_t digest = Digest(records);
  std::lock_guard<std::mutex> lock(mu_);
  return FindLocked(digest, records);
}

std::shared_ptr<const Schema> SchemaTable::Intern(
    std::span<const std::byte> records, Schema schema) {
  const std::uint64_t digest = Digest(records);
  std::lock_guard<std::mutex> lock(mu_);
  if (auto live = FindLocked(digest, records)) return live;
  // The release hook keeps this table alive for as long as any schema it
  // handed out, whatever order the daemon and its sets are torn down in.
  std::shared_ptr<const Schema> interned(
      new Schema(std::move(schema)),
      [table = shared_from_this(), digest](const Schema* s) {
        table->Release(digest, s);
        delete s;
      });
  Entry entry;
  entry.records.assign(records.begin(), records.end());
  entry.schema = interned.get();
  entry.live = interned;
  entries_.emplace(digest, std::move(entry));
  return interned;
}

void SchemaTable::Release(std::uint64_t digest, const Schema* schema) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, end] = entries_.equal_range(digest);
  for (; it != end; ++it) {
    if (it->second.schema == schema) {
      entries_.erase(it);
      return;
    }
  }
}

std::size_t SchemaTable::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace ldmsxx

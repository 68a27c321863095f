// A Schema defines the metrics of a metric set: names, types, per-metric
// component IDs, and the byte offset of each value in the data chunk
// (§IV-B: metadata records "name, user-defined component ID, data type,
// offset of the element from the beginning of the data chunk").
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/value.hpp"

namespace ldmsxx {

/// One metric's definition within a schema.
struct MetricDef {
  std::string name;
  MetricType type = MetricType::kU64;
  /// User-defined component ID associated with this metric (typically the
  /// node ID the value describes); written alongside every stored value.
  std::uint64_t component_id = 0;
  /// Byte offset of the value from the start of the data chunk's value area.
  std::uint32_t data_offset = 0;
};

/// Ordered collection of metric definitions plus their layout. A plain
/// value: AddMetric places each metric at its aligned offset as it appends,
/// so the layout is complete after every call. Sets never hold a Schema that
/// can still change; they share one immutable copy per shape (SchemaTable).
class Schema {
 public:
  explicit Schema(std::string name) : name_(std::move(name)) {}

  /// Append a metric; returns its index. Duplicate names are allowed by LDMS
  /// (different component IDs can share a name); lookup-by-name returns the
  /// first.
  std::size_t AddMetric(std::string_view metric_name, MetricType type,
                        std::uint64_t component_id = 0);

  const std::string& name() const { return name_; }
  std::size_t metric_count() const { return metrics_.size(); }
  const MetricDef& metric(std::size_t i) const { return metrics_[i]; }

  /// Index of the first metric with @p metric_name, if any. A linear scan:
  /// row plans resolve names once per shape, never per sample.
  std::optional<std::size_t> FindMetric(std::string_view metric_name) const;

  /// Total bytes of the value area (excludes the data-chunk header).
  std::uint32_t value_area_size() const { return value_area_size_; }

 private:
  std::string name_;
  std::vector<MetricDef> metrics_;
  std::uint32_t value_area_size_ = 0;
};

/// One daemon's interned schemas: a single immutable Schema per shape among
/// the sets carved from its MemManager. A shape is the metadata's own schema
/// records (the schema name, then each metric's type, component id, offset
/// and fixed-width name); a set's instance and producer names are not part
/// of it, so every node's meminfo set shares one Schema. Two sets share only
/// when those record bytes are equal: a word-wise digest picks the bucket
/// and memcmp confirms the match. An entry lives exactly as long as some
/// holder of its Schema (a set, or a row-plan cache) does. Thread-safe:
/// aggregators create mirrors concurrently on connector threads.
class SchemaTable : public std::enable_shared_from_this<SchemaTable> {
 public:
  /// The live schema whose records are @p records, or null.
  std::shared_ptr<const Schema> Find(std::span<const std::byte> records);

  /// The live schema whose records are @p records; when there is none,
  /// @p schema (which those records describe) becomes it.
  std::shared_ptr<const Schema> Intern(std::span<const std::byte> records,
                                       Schema schema);

  /// Shapes with at least one live holder.
  std::size_t size() const;

 private:
  struct Entry {
    std::vector<std::byte> records;
    const Schema* schema = nullptr;  ///< identity, for the release hook
    std::weak_ptr<const Schema> live;
  };

  std::shared_ptr<const Schema> FindLocked(
      std::uint64_t digest, std::span<const std::byte> records) const;
  /// Drop the entry of @p schema, whose last holder just released it.
  void Release(std::uint64_t digest, const Schema* schema);

  mutable std::mutex mu_;
  std::unordered_multimap<std::uint64_t, Entry> entries_;
};

}  // namespace ldmsxx

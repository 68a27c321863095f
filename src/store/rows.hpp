// Row-decomposition interchange types. A RowPlan is the compiled form of a
// per-strgp decomposition config: which schema metrics feed which output
// columns of which destination table, resolved to metric *indices* once per
// interned schema (one per shape) so the per-sample hot path is index-driven
// copies with zero string lookups. A RowBatch is the flat buffer those copies
// land in: one slot vector shared by every row emitted from a drain batch, so
// a 16-sample drain hands the store one contiguous append instead of 16
// per-sample StoreSet calls.
//
// The plan/batch types live in the store layer (not daemon/decomp) because
// they are the argument type of Store::StoreRows; the config grammar that
// *produces* plans (`strgp_add decomp=...`) is the daemon-side mapping layer
// in src/daemon/decomp/.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/metric_set.hpp"
#include "core/schema.hpp"
#include "core/value.hpp"
#include "util/clock.hpp"

namespace ldmsxx {

/// How a source metric becomes an output column.
enum class ColumnOp : std::uint8_t {
  kCopy = 0,  ///< value copied as-is (default)
  kDelta,     ///< difference vs. the previous sample, clamped at 0 on reset
  kRate,      ///< delta / elapsed seconds, always emitted as D64
  kScale,     ///< value * scale factor
};

const char* ColumnOpName(ColumnOp op);

/// One output column of a row group, resolved against a concrete schema.
struct RowColumn {
  std::string name;  ///< output column name (alias or source metric name)
  MetricType type = MetricType::kU64;  ///< output value type
  std::uint32_t metric_index = 0;      ///< source index into the schema
  ColumnOp op = ColumnOp::kCopy;
  std::uint64_t scale = 1;  ///< factor for kScale
};

/// One destination table: a sample contributes one row per group, so a spec
/// with N groups turns one set sample into N rows.
struct RowGroup {
  std::string table;
  std::vector<RowColumn> columns;
  bool has_derived = false;  ///< any kDelta/kRate column (needs history)
};

/// A decomposition spec compiled against one schema.
struct RowPlan {
  std::vector<RowGroup> groups;
  /// Sum of all groups' column counts: slots one sample contributes.
  std::size_t total_slots = 0;
};

/// Compiled plans, one per interned schema (MetricSet::shared_schema). The
/// key is the schema's address; each entry holds the schema, so no other
/// shape can take that address while the plan is cached. Keying by MGN
/// instead would be unsafe: it hashes the set's names too, so two sets of
/// different shapes can share one.
struct SchemaPlan {
  std::shared_ptr<const Schema> schema;
  RowPlan plan;
};
using SchemaPlanCache = std::unordered_map<const Schema*, SchemaPlan>;

/// 8-byte slot encoding: every output value travels as the raw bits of its
/// declared type widened to 64 bits (sign-extended for signed integers,
/// double bits for F32/D64). Segments store slots verbatim, so encode and
/// decode must stay inverses. Both are inline: stores call them per stored
/// value, queries per decoded cell.
inline std::uint64_t SlotFromValue(const MetricValue& v,
                                   MetricType out_type) {
  switch (out_type) {
    case MetricType::kF32:
    case MetricType::kD64:
      return std::bit_cast<std::uint64_t>(v.AsDouble());
    case MetricType::kS8:
    case MetricType::kS16:
    case MetricType::kS32:
    case MetricType::kS64:
      // Sign-extend through the union's s64 view.
      return static_cast<std::uint64_t>(v.v.s64);
    default:
      return v.v.u64;
  }
}

inline double SlotAsDouble(std::uint64_t slot, MetricType type) {
  switch (type) {
    case MetricType::kF32:
    case MetricType::kD64:
      return std::bit_cast<double>(slot);
    case MetricType::kS8:
    case MetricType::kS16:
    case MetricType::kS32:
    case MetricType::kS64:
      return static_cast<double>(static_cast<std::int64_t>(slot));
    default:
      return static_cast<double>(slot);
  }
}

inline std::uint64_t SlotFromDouble(double d) {
  return std::bit_cast<std::uint64_t>(d);
}

/// Rows emitted by decomposing one or more samples. `slots` is one flat
/// buffer; each row covers `plan->groups[group].columns.size()` slots
/// starting at `slot_offset`.
struct RowBatch {
  struct Row {
    const RowPlan* plan = nullptr;
    std::uint32_t group = 0;
    TimeNs ts = 0;
    std::uint64_t component_id = 0;
    /// Producer of the source set. Points into the MetricSet; valid only for
    /// the duration of the StoreRows call that consumes this batch.
    const std::string* producer = nullptr;
    std::uint32_t slot_offset = 0;
  };
  std::vector<Row> rows;
  std::vector<std::uint64_t> slots;

  void Clear() {
    rows.clear();
    slots.clear();
  }
  bool empty() const { return rows.empty(); }
};

/// The identity decomposition: one row group named after the schema, every
/// metric copied under its own name. Row-capable stores use this for plain
/// StoreSet calls so the batched and unbatched ingest paths share one
/// append implementation.
RowPlan BuildIdentityPlan(const Schema& schema);

/// Write the slots of @p group's columns for @p set's current values to
/// @p out (group.columns.size() of them). Derived columns (kDelta/kRate)
/// are not handled here, as in AppendPlanRows.
void WriteGroupSlots(const MetricSet& set, const RowGroup& group,
                     std::uint64_t* out);

/// Append @p set's current values to @p out following @p plan. Derived
/// columns (kDelta/kRate) are not handled here — plans built by
/// BuildIdentityPlan never contain them; the daemon-side Decomposer owns the
/// history state those need.
void AppendPlanRows(const MetricSet& set, const RowPlan& plan, RowBatch* out);

}  // namespace ldmsxx

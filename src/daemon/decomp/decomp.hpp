// Per-strgp row decomposition (ISSUE 9 tentpole part 1): the mapping layer
// between the `strgp_add decomp=...` config language and the RowPlan/RowBatch
// interchange types the row-capable stores consume.
//
// Spec grammar (one whitespace-free config token — the control protocol
// splits commands on whitespace before the first '='):
//
//   spec   := group (';' group)*
//   group  := [table '@'] col (',' col)*
//   col    := metric [':' alias [':' op]]
//   op     := 'delta' | 'rate' | 'scale' uint
//
// One set sample emits one row per group, so `rx@rx_bytes::rate;tx@tx_bytes`
// turns each sample into two rows bound for tables "rx" and "tx". An empty
// alias ("m::rate") keeps the metric's own name. Ops:
//
//   delta  — value minus the previous sample's value, clamped at 0 when a
//            counter resets (node reboot) instead of emitting a huge wrap.
//   rate   — delta divided by elapsed seconds, emitted as D64.
//   scaleN — value * N (e.g. scale1024 to turn kB counters into bytes).
//
// The spec is parsed once at strgp_add (config errors are synchronous) and
// compiled once per interned schema (one per shape, whatever the set's
// names) into a flat RowPlan — so the per-sample hot path is index-driven
// copies with zero string lookups. Derived columns keep per-series history
// keyed by set instance name; a counter reset or first sample emits 0.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/metric_set.hpp"
#include "core/schema.hpp"
#include "store/rows.hpp"
#include "util/status.hpp"

namespace ldmsxx {

/// One column of the (unresolved) spec.
struct DecompColSpec {
  std::string metric;
  std::string alias;  ///< empty = use the metric name
  ColumnOp op = ColumnOp::kCopy;
  std::uint64_t scale = 1;
};

/// One row group of the spec.
struct DecompGroupSpec {
  std::string table;  ///< empty = use the schema name
  std::vector<DecompColSpec> cols;
};

struct DecompSpec {
  std::string text;  ///< original spec, for provenance / registry round-trip
  std::vector<DecompGroupSpec> groups;
  bool has_derived = false;
  bool empty() const { return groups.empty(); }
};

/// Parse @p text. Rejects: empty select lists, empty metric names, duplicate
/// output columns within a group, unknown ops, and scale factors that do not
/// fit in a u64 (derived-column overflow).
Status ParseDecompSpec(std::string_view text, DecompSpec* out);

/// Resolve @p spec against @p schema. Fails with kNotFound when the spec
/// names a metric the schema does not have.
Status CompileRowPlan(const DecompSpec& spec, const Schema& schema,
                      RowPlan* out);

/// Applies one parsed spec to samples, caching compiled plans per interned
/// schema and per-series history for derived columns. Not thread-safe; the
/// store runtime serializes calls per policy.
class Decomposer {
 public:
  explicit Decomposer(DecompSpec spec) : spec_(std::move(spec)) {}

  const DecompSpec& spec() const { return spec_; }

  /// Append rows for @p set's current sample to @p out. Compiles (and
  /// caches) the plan on first contact with a shape; a compile failure is
  /// returned on every call for that shape.
  Status Decompose(const MetricSet& set, RowBatch* out);

 private:
  struct Series {
    std::vector<std::uint64_t> prev;  ///< raw slots, one per plan slot
    TimeNs prev_ts = 0;
    bool valid = false;
  };

  DecompSpec spec_;
  SchemaPlanCache plans_;
  /// Per-series history for derived columns, keyed by instance name. Only
  /// touched when the spec has derived columns.
  std::unordered_map<std::string, Series> series_;
};

}  // namespace ldmsxx

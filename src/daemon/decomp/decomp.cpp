#include "daemon/decomp/decomp.hpp"

#include "util/strings.hpp"

namespace ldmsxx {
namespace {

bool IsFloatType(MetricType t) {
  return t == MetricType::kF32 || t == MetricType::kD64;
}

bool IsSignedType(MetricType t) {
  return t == MetricType::kS8 || t == MetricType::kS16 ||
         t == MetricType::kS32 || t == MetricType::kS64;
}

Status Invalid(std::string msg) {
  return {ErrorCode::kInvalidArgument, std::move(msg)};
}

}  // namespace

Status ParseDecompSpec(std::string_view text, DecompSpec* out) {
  *out = DecompSpec{};
  out->text = std::string(text);
  if (Trim(text).empty()) {
    return Invalid("decomp: empty select list");
  }
  for (const auto group_sv : Split(text, ';')) {
    if (group_sv.empty()) {
      return Invalid("decomp: empty row group");
    }
    DecompGroupSpec group;
    std::string_view cols_sv = group_sv;
    if (const auto at = group_sv.find('@'); at != std::string_view::npos) {
      if (at == 0) return Invalid("decomp: empty table name");
      group.table = std::string(group_sv.substr(0, at));
      cols_sv = group_sv.substr(at + 1);
    }
    for (const auto col_sv : Split(cols_sv, ',')) {
      const auto parts = Split(col_sv, ':');
      if (parts.empty() || parts[0].empty()) {
        return Invalid("decomp: empty column name");
      }
      if (parts.size() > 3) {
        return Invalid("decomp: too many ':' fields in '" +
                       std::string(col_sv) + "'");
      }
      DecompColSpec col;
      col.metric = std::string(parts[0]);
      if (parts.size() >= 2) col.alias = std::string(parts[1]);
      if (parts.size() == 3 && !parts[2].empty()) {
        const std::string_view op = parts[2];
        if (op == "delta") {
          col.op = ColumnOp::kDelta;
        } else if (op == "rate") {
          col.op = ColumnOp::kRate;
        } else if (StartsWith(op, "scale")) {
          const auto factor = ParseU64(op.substr(5));
          if (!factor) {
            // Covers both garbage ("scaleX") and literals past u64 range —
            // the derived-column overflow case.
            return Invalid("decomp: bad or overflowing scale factor in '" +
                           std::string(col_sv) + "'");
          }
          col.op = ColumnOp::kScale;
          col.scale = *factor;
        } else {
          return Invalid("decomp: unknown op '" + std::string(op) + "'");
        }
      }
      if (col.op == ColumnOp::kDelta || col.op == ColumnOp::kRate) {
        out->has_derived = true;
      }
      group.cols.push_back(std::move(col));
    }
    if (group.cols.empty()) {
      return Invalid("decomp: empty select list");
    }
    for (std::size_t i = 0; i < group.cols.size(); ++i) {
      const std::string& a = group.cols[i].alias.empty()
                                 ? group.cols[i].metric
                                 : group.cols[i].alias;
      for (std::size_t j = i + 1; j < group.cols.size(); ++j) {
        const std::string& b = group.cols[j].alias.empty()
                                   ? group.cols[j].metric
                                   : group.cols[j].alias;
        if (a == b) {
          return Invalid("decomp: duplicate output column '" + a + "'");
        }
      }
    }
    out->groups.push_back(std::move(group));
  }
  return Status::Ok();
}

Status CompileRowPlan(const DecompSpec& spec, const Schema& schema,
                      RowPlan* out) {
  *out = RowPlan{};
  for (const DecompGroupSpec& gspec : spec.groups) {
    RowGroup group;
    group.table = gspec.table.empty() ? schema.name() : gspec.table;
    group.columns.reserve(gspec.cols.size());
    for (const DecompColSpec& cspec : gspec.cols) {
      const auto idx = schema.FindMetric(cspec.metric);
      if (!idx) {
        return {ErrorCode::kNotFound, "decomp: unknown metric '" +
                                          cspec.metric + "' in schema '" +
                                          schema.name() + "'"};
      }
      RowColumn col;
      col.name = cspec.alias.empty() ? cspec.metric : cspec.alias;
      col.metric_index = static_cast<std::uint32_t>(*idx);
      col.op = cspec.op;
      col.scale = cspec.scale;
      const MetricType src = schema.metric(*idx).type;
      col.type = cspec.op == ColumnOp::kRate ? MetricType::kD64 : src;
      if (cspec.op == ColumnOp::kDelta || cspec.op == ColumnOp::kRate) {
        group.has_derived = true;
      }
      group.columns.push_back(std::move(col));
    }
    out->total_slots += group.columns.size();
    out->groups.push_back(std::move(group));
  }
  return Status::Ok();
}

Status Decomposer::Decompose(const MetricSet& set, RowBatch* out) {
  auto it = plans_.find(&set.schema());
  if (it == plans_.end()) {
    SchemaPlan compiled{set.shared_schema(), {}};
    Status st = CompileRowPlan(spec_, set.schema(), &compiled.plan);
    if (!st.ok()) return st;
    it = plans_.emplace(&set.schema(), std::move(compiled)).first;
  }
  const RowPlan& plan = it->second.plan;
  if (!spec_.has_derived) {
    AppendPlanRows(set, plan, out);
    return Status::Ok();
  }

  // Derived path: same index-driven copies, plus per-slot history in the
  // source metric's own domain so u64 counter deltas stay exact.
  Series& series = series_[set.instance_name()];
  if (series.prev.size() != plan.total_slots) {
    series.prev.assign(plan.total_slots, 0);
    series.valid = false;
  }
  const TimeNs ts = set.timestamp();
  const bool have_prev = series.valid && ts > series.prev_ts;
  const double dt_sec =
      have_prev ? static_cast<double>(ts - series.prev_ts) / 1e9 : 0.0;
  std::size_t slot_idx = 0;
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    const RowGroup& group = plan.groups[g];
    RowBatch::Row row;
    row.plan = &plan;
    row.group = static_cast<std::uint32_t>(g);
    row.ts = ts;
    row.component_id = set.component_id();
    row.producer = &set.producer_name();
    row.slot_offset = static_cast<std::uint32_t>(out->slots.size());
    for (const RowColumn& col : group.columns) {
      const MetricValue v = set.GetValue(col.metric_index);
      const MetricType src = set.schema().metric(col.metric_index).type;
      const std::uint64_t raw = SlotFromValue(v, src);
      std::uint64_t slot = 0;
      switch (col.op) {
        case ColumnOp::kCopy:
          slot = raw;
          break;
        case ColumnOp::kScale:
          if (IsFloatType(src)) {
            slot = SlotFromDouble(std::bit_cast<double>(raw) *
                                  static_cast<double>(col.scale));
          } else {
            slot = raw * col.scale;
          }
          break;
        case ColumnOp::kDelta: {
          const std::uint64_t prev = series.prev[slot_idx];
          if (!have_prev) {
            slot = 0;
          } else if (IsFloatType(src)) {
            slot = SlotFromDouble(std::bit_cast<double>(raw) -
                                  std::bit_cast<double>(prev));
          } else if (IsSignedType(src)) {
            slot = raw - prev;  // two's-complement difference
          } else {
            // Counter reset (reboot) clamps to 0 instead of a huge wrap.
            slot = raw >= prev ? raw - prev : 0;
          }
          break;
        }
        case ColumnOp::kRate: {
          double rate = 0.0;
          if (have_prev && dt_sec > 0) {
            rate = (SlotAsDouble(raw, src) -
                    SlotAsDouble(series.prev[slot_idx], src)) /
                   dt_sec;
            if (rate < 0 && !IsSignedType(src) && !IsFloatType(src)) {
              rate = 0.0;  // counter reset
            }
          }
          slot = SlotFromDouble(rate);
          break;
        }
      }
      series.prev[slot_idx] = raw;
      ++slot_idx;
      out->slots.push_back(slot);
    }
    out->rows.push_back(row);
  }
  series.prev_ts = ts;
  series.valid = true;
  return Status::Ok();
}

}  // namespace ldmsxx

#include "store/rows.hpp"

namespace ldmsxx {

const char* ColumnOpName(ColumnOp op) {
  switch (op) {
    case ColumnOp::kCopy:
      return "copy";
    case ColumnOp::kDelta:
      return "delta";
    case ColumnOp::kRate:
      return "rate";
    case ColumnOp::kScale:
      return "scale";
  }
  return "?";
}

RowPlan BuildIdentityPlan(const Schema& schema) {
  RowPlan plan;
  RowGroup group;
  group.table = schema.name();
  group.columns.reserve(schema.metric_count());
  for (std::size_t i = 0; i < schema.metric_count(); ++i) {
    const MetricDef& def = schema.metric(i);
    RowColumn col;
    col.name = def.name;
    col.type = def.type;
    col.metric_index = static_cast<std::uint32_t>(i);
    group.columns.push_back(std::move(col));
  }
  plan.total_slots = group.columns.size();
  plan.groups.push_back(std::move(group));
  return plan;
}

void WriteGroupSlots(const MetricSet& set, const RowGroup& group,
                     std::uint64_t* out) {
  for (const RowColumn& col : group.columns) {
    const MetricValue v = set.GetValue(col.metric_index);
    std::uint64_t slot = SlotFromValue(v, col.type);
    if (col.op == ColumnOp::kScale) {
      if (col.type == MetricType::kF32 || col.type == MetricType::kD64) {
        slot = SlotFromDouble(std::bit_cast<double>(slot) *
                              static_cast<double>(col.scale));
      } else {
        slot *= col.scale;
      }
    }
    *out++ = slot;
  }
}

void AppendPlanRows(const MetricSet& set, const RowPlan& plan, RowBatch* out) {
  const TimeNs ts = set.timestamp();
  const std::uint64_t node = set.component_id();
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    const RowGroup& group = plan.groups[g];
    RowBatch::Row row;
    row.plan = &plan;
    row.group = static_cast<std::uint32_t>(g);
    row.ts = ts;
    row.component_id = node;
    row.producer = &set.producer_name();
    row.slot_offset = static_cast<std::uint32_t>(out->slots.size());
    out->slots.resize(out->slots.size() + group.columns.size());
    WriteGroupSlots(set, group, out->slots.data() + row.slot_offset);
    out->rows.push_back(row);
  }
}

}  // namespace ldmsxx

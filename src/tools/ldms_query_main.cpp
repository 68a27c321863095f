// ldms_query: query a store_tsdb directory of sealed columnar segments —
// offline analysis against the same files a running daemon is writing (a
// reader only ever sees fully-sealed, CRC-verified segments, so pointing
// this at a live store directory is safe).
//
//   ldms_query -d /data/tsdb                       # list tables
//   ldms_query -d /data/tsdb -t meminfo            # dump all rows
//   ldms_query -d /data/tsdb -t meminfo -0 5000000 -1 9000000
//              -n 3,7 -m free,cached               # range x nodes x metrics
//   ldms_query -d /data/tsdb -t meminfo --rollup   # min/max/avg buckets
//   ldms_query ... --scan                          # force the full-scan path
//   ldms_query ... -v                              # index stats to stderr
//
// Against a running daemon, the same query goes through the control socket:
//   ldmsd_controller -S ctl.sock -c "query strgp=tsdb table=meminfo ..."
#include <cstdio>
#include <string>
#include <vector>

#include "store/tsdb/tsdb_store.hpp"
#include "util/strings.hpp"

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s -d <tsdb dir> [-t table] [-0 t0_us] [-1 t1_us]\n"
      "          [-n node,node,...] [-m metric,metric,...]\n"
      "          [--rollup] [-g rollup_sec] [--scan]\n"
      "          [--format tsv|csv|json] [--stats] [-v]\n"
      "  -g must match the granularity the store was written with\n"
      "     (strgp_add rollup_sec=); mismatched .rollup sidecars are\n"
      "     skipped as if corrupt. Default 60.\n"
      "  --stats prints pruning/compression counters after the rows\n"
      "     (stdout for json, stderr otherwise; -v implies it).\n",
      argv0);
  return 2;
}

/// Minimal JSON string escaping (column names are config-controlled, but a
/// quote or backslash must not produce invalid output).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ldmsxx;

  TsdbOptions opts;
  opts.root_path.clear();
  TsdbQuery query;
  bool rollup = false;
  bool full_scan = false;
  bool verbose = false;
  bool stats = false;
  std::string format = "tsv";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-d" && i + 1 < argc) {
      opts.root_path = argv[++i];
    } else if (arg == "-t" && i + 1 < argc) {
      query.table = argv[++i];
    } else if (arg == "-0" && i + 1 < argc) {
      if (auto us = ParseU64(argv[++i])) query.t0 = *us * kNsPerUs;
      else return Usage(argv[0]);
    } else if (arg == "-1" && i + 1 < argc) {
      if (auto us = ParseU64(argv[++i])) query.t1 = *us * kNsPerUs;
      else return Usage(argv[0]);
    } else if (arg == "-n" && i + 1 < argc) {
      for (auto node : Split(argv[++i], ',')) {
        if (auto id = ParseU64(node)) query.nodes.push_back(*id);
        else return Usage(argv[0]);
      }
    } else if (arg == "-m" && i + 1 < argc) {
      for (auto metric : Split(argv[++i], ',')) {
        if (!metric.empty()) query.metrics.emplace_back(metric);
      }
    } else if (arg == "-g" && i + 1 < argc) {
      if (auto sec = ParseU64(argv[++i])) {
        opts.rollup_granularity = *sec * kNsPerSec;
      } else {
        return Usage(argv[0]);
      }
    } else if (arg == "--rollup") {
      rollup = true;
    } else if (arg == "--scan") {
      full_scan = true;
    } else if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
      if (format != "tsv" && format != "csv" && format != "json") {
        return Usage(argv[0]);
      }
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "-v") {
      verbose = true;
      stats = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (opts.root_path.empty()) return Usage(argv[0]);

  TsdbStore store(opts);
  if (store.attach_rejects() > 0) {
    std::fprintf(stderr, "warning: %llu corrupt file(s) skipped\n",
                 static_cast<unsigned long long>(store.attach_rejects()));
  }

  if (query.table.empty()) {
    for (const auto& table : store.Tables()) {
      std::printf("%s\n", table.c_str());
    }
    return 0;
  }

  // Values print through TextWriter::F64, as the `query` verb prints them:
  // fixed with six decimals, so every integer below 2^53 comes out exact.
  std::string out;
  TextWriter w(&out);
  constexpr std::size_t kFlushBytes = 1 << 16;
  auto flush = [&out](std::size_t min_bytes) {
    if (out.size() < min_bytes) return;
    std::fwrite(out.data(), 1, out.size(), stdout);
    out.clear();
  };

  if (rollup) {
    std::vector<TsdbRollupRow> rows;
    if (Status st = store.QueryRollup(query, &rows); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    if (format == "json") {
      w.Str("{\"buckets\":[");
      bool first = true;
      for (const auto& r : rows) {
        w.Str(first ? "{" : ",{");
        w.Str("\"bucket_us\":").U64(r.bucket / kNsPerUs);
        w.Str(",\"node\":").U64(r.node);
        w.Str(",\"metric\":\"").Str(JsonEscape(r.metric)).Char('"');
        w.Str(",\"min\":").F64(r.min).Str(",\"max\":").F64(r.max);
        w.Str(",\"avg\":").F64(r.avg).Str(",\"count\":").U64(r.count);
        w.Char('}');
        first = false;
        flush(kFlushBytes);
      }
      w.Str("]}\n");
      flush(0);
      return 0;
    }
    const char sep = format == "csv" ? ',' : '\t';
    w.Str(format == "csv" ? "bucket_us,node,metric,min,max,avg,count\n"
                          : "#bucket_us\tnode\tmetric\tmin\tmax\tavg"
                            "\tcount\n");
    for (const auto& r : rows) {
      w.U64(r.bucket / kNsPerUs).Char(sep).U64(r.node).Char(sep);
      w.Str(r.metric).Char(sep).F64(r.min).Char(sep).F64(r.max).Char(sep);
      w.F64(r.avg).Char(sep).U64(r.count).Char('\n');
      flush(kFlushBytes);
    }
    flush(0);
    return 0;
  }

  TsdbQueryResult result;
  const Status st = full_scan ? store.QueryFullScan(query, &result)
                              : store.Query(query, &result);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  // Decoded-vs-read is the compression ratio the query actually enjoyed;
  // equal when every column it touched was stored raw.
  const double ratio =
      result.bytes_read > 0
          ? static_cast<double>(result.bytes_decoded) /
                static_cast<double>(result.bytes_read)
          : 1.0;
  if (format == "json") {
    w.Str("{\"columns\":[\"ts_us\",\"node\"");
    for (const auto& column : result.columns) {
      w.Str(",\"").Str(JsonEscape(column)).Char('"');
    }
    w.Str("],\"rows\":[");
    bool first = true;
    for (const auto& row : result.rows) {
      w.Str(first ? "[" : ",[").U64(row.ts / kNsPerUs);
      w.Char(',').U64(row.node);
      for (const double v : row.values) w.Char(',').F64(v);
      w.Char(']');
      first = false;
      flush(kFlushBytes);
    }
    w.Char(']');
    flush(0);
    if (stats) {
      std::printf(
          ",\"stats\":{\"segments_considered\":%llu,\"segments_pruned\":%llu,"
          "\"segments_read\":%llu,\"bytes_read\":%llu,\"bytes_decoded\":%llu,"
          "\"compression_ratio\":%.3f,\"rows\":%zu}",
          static_cast<unsigned long long>(result.segments_considered),
          static_cast<unsigned long long>(result.segments_pruned),
          static_cast<unsigned long long>(result.segments_read),
          static_cast<unsigned long long>(result.bytes_read),
          static_cast<unsigned long long>(result.bytes_decoded), ratio,
          result.rows.size());
    }
    std::printf("}\n");
  } else {
    const char sep = format == "csv" ? ',' : '\t';
    w.Str(format == "csv" ? "ts_us,node" : "#ts_us\tnode");
    for (const auto& column : result.columns) w.Char(sep).Str(column);
    w.Char('\n');
    for (const auto& row : result.rows) {
      w.U64(row.ts / kNsPerUs).Char(sep).U64(row.node);
      for (const double v : row.values) w.Char(sep).F64(v);
      w.Char('\n');
      flush(kFlushBytes);
    }
    flush(0);
    if (stats) {
      std::fprintf(stderr,
                   "segments: considered=%llu pruned=%llu read=%llu "
                   "bytes_read=%llu bytes_decoded=%llu "
                   "compression_ratio=%.3f rows=%zu\n",
                   static_cast<unsigned long long>(result.segments_considered),
                   static_cast<unsigned long long>(result.segments_pruned),
                   static_cast<unsigned long long>(result.segments_read),
                   static_cast<unsigned long long>(result.bytes_read),
                   static_cast<unsigned long long>(result.bytes_decoded),
                   ratio, result.rows.size());
    }
  }
  (void)verbose;
  return 0;
}

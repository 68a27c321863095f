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

  if (rollup) {
    std::vector<TsdbRollupRow> rows;
    if (Status st = store.QueryRollup(query, &rows); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    if (format == "json") {
      std::printf("{\"buckets\":[");
      bool first = true;
      for (const auto& r : rows) {
        std::printf("%s{\"bucket_us\":%llu,\"node\":%llu,\"metric\":\"%s\","
                    "\"min\":%g,\"max\":%g,\"avg\":%g,\"count\":%llu}",
                    first ? "" : ",",
                    static_cast<unsigned long long>(r.bucket / kNsPerUs),
                    static_cast<unsigned long long>(r.node),
                    JsonEscape(r.metric).c_str(), r.min, r.max, r.avg,
                    static_cast<unsigned long long>(r.count));
        first = false;
      }
      std::printf("]}\n");
      return 0;
    }
    const char sep = format == "csv" ? ',' : '\t';
    std::printf(format == "csv" ? "bucket_us,node,metric,min,max,avg,count\n"
                                : "#bucket_us\tnode\tmetric\tmin\tmax\tavg"
                                  "\tcount\n");
    for (const auto& r : rows) {
      std::printf("%llu%c%llu%c%s%c%g%c%g%c%g%c%llu\n",
                  static_cast<unsigned long long>(r.bucket / kNsPerUs), sep,
                  static_cast<unsigned long long>(r.node), sep,
                  r.metric.c_str(), sep, r.min, sep, r.max, sep, r.avg, sep,
                  static_cast<unsigned long long>(r.count));
    }
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
    std::printf("{\"columns\":[\"ts_us\",\"node\"");
    for (const auto& column : result.columns) {
      std::printf(",\"%s\"", JsonEscape(column).c_str());
    }
    std::printf("],\"rows\":[");
    bool first = true;
    for (const auto& row : result.rows) {
      std::printf("%s[%llu,%llu", first ? "" : ",",
                  static_cast<unsigned long long>(row.ts / kNsPerUs),
                  static_cast<unsigned long long>(row.node));
      for (const double v : row.values) std::printf(",%g", v);
      std::printf("]");
      first = false;
    }
    std::printf("]");
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
    if (format == "csv") {
      std::printf("ts_us,node");
      for (const auto& column : result.columns) {
        std::printf(",%s", column.c_str());
      }
    } else {
      std::printf("#ts_us\tnode");
      for (const auto& column : result.columns) {
        std::printf("\t%s", column.c_str());
      }
    }
    std::printf("\n");
    for (const auto& row : result.rows) {
      std::printf("%llu%c%llu",
                  static_cast<unsigned long long>(row.ts / kNsPerUs), sep,
                  static_cast<unsigned long long>(row.node));
      for (const double v : row.values) std::printf("%c%g", sep, v);
      std::printf("\n");
    }
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

// One page of tsdb query results. The same type runs from the segment scan
// (TsdbStore::Query) through the wire (QueryResponse carries it in
// kQueryResp) and the fan-out merge to the `query` verb's reply text.
// Header-only, so the transport library carries it without linking the
// store.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/clock.hpp"

namespace ldmsxx {

struct TsdbQueryRow {
  TimeNs ts = 0;
  std::uint64_t node = 0;
  std::vector<double> values;  ///< one per result column
};

struct TsdbQueryResult {
  std::vector<std::string> columns;
  std::vector<TsdbQueryRow> rows;
  /// Index effectiveness: sealed segments considered, pruned by the footer
  /// index without touching the body, and actually read.
  std::uint64_t segments_considered = 0;
  std::uint64_t segments_pruned = 0;
  std::uint64_t segments_read = 0;
  /// Encoded column bytes fetched from disk (0 for the active in-memory
  /// segment). With compressed segments this is the on-disk cost...
  std::uint64_t bytes_read = 0;
  /// ...and this is the uncompressed slot bytes those reads decoded into;
  /// bytes_decoded / bytes_read is the effective compression ratio the
  /// query enjoyed (equal when every column was raw).
  std::uint64_t bytes_decoded = 0;
};

}  // namespace ldmsxx

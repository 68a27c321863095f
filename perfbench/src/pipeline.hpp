// The pipeline every workload runs: sampler daemons -> leaf aggregator(s) ->
// root aggregator -> store_tsdb -> the `query` verb, all in one process on
// inline pools and SimClocks, driven from outside through public calls only.
//
// One closed-loop cycle (Pipeline::Cycle):
//   1. Generate  — advance the simulated node world; untimed, it is the load
//                  generator, not the system under test.
//   2. sample    — every host daemon runs its samplers for this tick.
//   3. collect   — the leaf tier pulls from the hosts, then the root pulls
//                  from the leaves.
//   4. visible   — wait until the store has taken every committed sample and
//                  an indexed query sees the cycle's probe row. Freshness is
//                  the time from the last sampler commit to this point.
//   5. queries   — the workload's dashboard mix through the `query` verb.
// The next cycle starts when the previous one finished.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "daemon/config.hpp"
#include "daemon/ldmsd.hpp"
#include "store/tsdb/tsdb_store.hpp"
#include "trace.hpp"
#include "transport/fabric.hpp"
#include "transport/registry.hpp"
#include "util/rng.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One row of a `query` verb reply: "row=<ts_us>:<node>:<v>:<v>...".
struct VerbRow {
  std::uint64_t ts_us = 0;
  std::uint64_t node = 0;
  std::vector<std::string> values;
  bool operator==(const VerbRow&) const = default;
  bool operator<(const VerbRow& o) const {
    return ts_us != o.ts_us ? ts_us < o.ts_us : node < o.node;
  }
};

struct VerbReply {
  std::map<std::string, std::string> fields;  ///< key=value tokens
  std::vector<VerbRow> rows;
};

/// Parse the single-line reply of the `query` verb.
VerbReply ParseVerbReply(const std::string& text);
/// A stored value exactly as the verb prints it.
std::string VerbValue(double v);

/// Every store's policy the `query` verb names (strgp=).
constexpr const char* kQueriedPolicy = "tsdb";

/// A tsdb store the benchmark reads back, on the daemon that writes it.
struct StoreRef {
  ldmsxx::Ldmsd* daemon = nullptr;
  std::shared_ptr<ldmsxx::TsdbStore> tsdb;
  std::unique_ptr<ldmsxx::ConfigProcessor> verbs;  ///< that daemon's verbs
  std::vector<std::string> policies;  ///< every policy writing into tsdb
  std::string path;
};

/// Counts that a seed fixes exactly; the traced and untraced runs of one
/// seed must agree on them.
struct DetCounts {
  std::uint64_t wire_bytes = 0;
  std::uint64_t rows = 0;
  std::uint64_t segments = 0;
  bool operator==(const DetCounts&) const = default;
};

enum class QueryKind { kWindow, kRollup, kScan, kFanout };

struct QueryRecord {
  QueryKind kind = QueryKind::kWindow;
  double verb_ns = 0;
  double tsdb_ns = -1;  ///< same predicate straight to TsdbStore::Query
  /// Counters of that direct call (its rows cleared).
  ldmsxx::TsdbQueryResult direct;
  std::uint64_t rows = 0;
};

struct CycleRecord {
  double freshness_ns = 0;
  double leaf_ns = 0;
  /// The root's collect when it runs before the rows are visible, else 0
  /// (dashboard_mix stores at the leaves, so its root pull is off the path).
  double path_root_ns = 0;
  double visible_ns = 0;  ///< storing tier's collect end -> rows visible
  double store_tier_ns = 0;  ///< the storing tier's collect (pull + store)
  std::uint64_t stored = 0;
  bool sealed = false;  ///< a segment was sealed during the cycle
};

/// Everything one measured run produced; the metrics come from here.
struct RunRecord {
  std::vector<CycleRecord> cycles;
  std::vector<double> node_sample_ns;
  std::vector<QueryRecord> queries;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> oracle_failures;
  double wire_bytes_per_set = 0;
  double disk_bytes_per_row = 0;
  // Ldmsd counter deltas over the measured cycles.
  std::uint64_t leaf_bytes = 0, root_bytes = 0, batched = 0, deltas = 0,
                unchanged = 0, delta_saved = 0;
  std::uint64_t rows_stored = 0, segments_sealed = 0;
  std::uint64_t queue_high_water = 0, shed = 0, decompose_failures = 0;
  int threads = 0;
  DetCounts det;
};

class Pipeline {
 public:
  /// Cycles whose wire and disk bytes form the seed-determined counts.
  static constexpr std::uint64_t kFixCycles = 16;

  Pipeline(const RunOptions& opts, Tracer* tracer, std::string dir);
  virtual ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Build every daemon, connect, look up and run the first cycle.
  ldmsxx::Status Setup();
  /// Start counting: counter baselines for the measured cycles.
  void BeginMeasure();
  /// One closed-loop cycle, recorded into record().
  void Cycle();
  /// Oracle checks that need the whole run; fills record().
  void Finish();

  std::uint64_t cycle() const { return cycle_; }
  const RunRecord& record() const { return record_; }
  /// Threads this workload may use (main + the pools it is built with).
  virtual int thread_budget() const = 0;
  /// Measured cycles a run needs at least (a p90 needs 100).
  virtual std::size_t min_cycles() const { return 100; }

 protected:
  // --- workload hooks -----------------------------------------------------
  virtual ldmsxx::Status Build() = 0;
  /// Untimed load-generator step before cycle @p cycle samples.
  virtual void Generate(std::uint64_t cycle) { (void)cycle; }
  /// Samples committed by the sampler tier so far that must reach the store.
  virtual std::uint64_t committed_total() const = 0;
  /// A row this cycle must make visible: its store and predicate.
  virtual ldmsxx::TsdbQuery ProbeQuery(std::uint64_t cycle,
                                       std::size_t* store) const = 0;
  /// The cycle's dashboard queries (use Window/Rollup/Scan/Fanout).
  virtual void Queries(std::uint64_t cycle, ldmsxx::Rng& rng) = 0;
  /// Rows the generator says @p q must return, in (ts, node) order.
  virtual std::vector<VerbRow> Reference(const ldmsxx::TsdbQuery& q) const = 0;
  /// End-of-run conservation and spot checks.
  virtual void FinalChecks() = 0;
  virtual bool stores_at_leaves() const { return false; }

  // --- helpers for the hooks ----------------------------------------------
  ldmsxx::TimeNs TimeOf(std::uint64_t cycle) const {
    return (base_ticks_ + cycle) * interval_;
  }
  std::unique_ptr<ldmsxx::Ldmsd> MakeDaemon(const std::string& name,
                                            const std::string& listen_xprt,
                                            const std::string& listen_addr,
                                            ldmsxx::SimClock* clock,
                                            ldmsxx::TransportRegistry* reg,
                                            std::size_t set_memory,
                                            std::size_t store_threads = 0);
  /// A store_tsdb in dir_/@p name on @p daemon, queried through its policy
  /// kQueriedPolicy; the caller adds the policies that write into it.
  StoreRef MakeStore(ldmsxx::Ldmsd& daemon, const std::string& name,
                     std::size_t segment_rows);
  /// Add a sampler host serving @p nodes nodes; node_sample_us divides the
  /// host's sampling pass by them.
  void AddHost(std::unique_ptr<ldmsxx::Ldmsd> host, std::size_t nodes);

  void Window(StoreRef& s, const ldmsxx::TsdbQuery& q);
  void Rollup(StoreRef& s, const ldmsxx::TsdbQuery& q);
  void Scan(StoreRef& s, const ldmsxx::TsdbQuery& q, std::uint64_t expected);
  /// `query mode=fanout` on @p at, checked against the union of direct
  /// queries to every store in stores_ and against Reference().
  void Fanout(ldmsxx::Ldmsd& at, const ldmsxx::TsdbQuery& q);
  void Fail(std::string why) {
    record_.oracle_failures.push_back(std::move(why));
  }

  const RunOptions opts_;
  Tracer* tracer_;  // nullptr when untraced
  const std::string dir_;
  ldmsxx::DurationNs interval_ = ldmsxx::kNsPerSec;
  std::uint64_t base_ticks_ = 0;  ///< cycle c samples at (base + c) * interval

  ldmsxx::Fabric fabric_;
  // One registry per tier so the decorators know which hop they time.
  ldmsxx::TransportRegistry host_reg_, leaf_reg_, root_reg_, front_reg_;
  ldmsxx::SimClock host_clock_, leaf_clock_, root_clock_, front_clock_;
  std::vector<std::unique_ptr<ldmsxx::Ldmsd>> hosts_;
  std::vector<std::size_t> host_nodes_;
  std::vector<std::unique_ptr<ldmsxx::Ldmsd>> leaves_;
  std::unique_ptr<ldmsxx::Ldmsd> root_;
  std::unique_ptr<ldmsxx::Ldmsd> front_;  ///< fan-out entry when not root
  std::vector<StoreRef> stores_;

 private:
  void RunCycle(bool measured);
  void WaitVisible(std::uint64_t cycle);
  std::uint64_t StoredTotal() const;
  std::uint64_t TierBytes() const;
  DetCounts Counts() const;
  void SnapshotFixed();
  std::string VerbLine(const char* mode, const ldmsxx::TsdbQuery& q,
                       std::uint64_t limit) const;
  bool RunVerb(ldmsxx::ConfigProcessor& verbs, const std::string& line,
               const char* span, QueryRecord* rec, VerbReply* reply);

  std::uint64_t cycle_ = 0;
  std::uint64_t query_seq_ = 0;
  RunRecord record_;
  // Counter baselines taken at BeginMeasure.
  std::uint64_t base_leaf_bytes_ = 0, base_root_bytes_ = 0, base_batched_ = 0,
                base_deltas_ = 0, base_unchanged_ = 0, base_saved_ = 0,
                base_rows_ = 0, base_segments_ = 0;
};

/// Make the workload named @p name; nullptr for an unknown name.
std::unique_ptr<Pipeline> MakePipeline(const RunOptions& opts, Tracer* tracer,
                                       const std::string& dir);

}  // namespace perfbench

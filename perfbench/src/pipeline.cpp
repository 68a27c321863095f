#include "pipeline.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <thread>

#include "decorators.hpp"
#include "host.hpp"
#include "store/tsdb/segment.hpp"
#include "transport/local_transport.hpp"
#include "transport/sock_transport.hpp"

namespace perfbench {

using ldmsxx::Ldmsd;
using ldmsxx::Status;
using ldmsxx::TsdbQuery;
using ldmsxx::TsdbQueryResult;

namespace {

/// Query spans get group ids above every cycle id.
constexpr std::uint64_t kQueryGroupBase = 1ull << 40;
/// Longest the benchmark waits for a cycle's rows before calling it lost.
constexpr std::uint64_t kVisibleTimeoutNs = 60ull * 1000 * 1000 * 1000;

std::string JoinU64(const std::vector<std::uint64_t>& v) {
  std::string out;
  for (const std::uint64_t x : v) {
    if (!out.empty()) out.push_back(',');
    out += std::to_string(x);
  }
  return out;
}

std::string Join(const std::vector<std::string>& v) {
  std::string out;
  for (const std::string& x : v) {
    if (!out.empty()) out.push_back(',');
    out += x;
  }
  return out;
}

/// A numeric key=value field of a verb reply; nullopt when absent.
std::optional<std::uint64_t> Field(const VerbReply& reply, const char* key) {
  auto it = reply.fields.find(key);
  if (it == reply.fields.end() || it->second.empty()) return std::nullopt;
  return std::stoull(it->second);
}

std::vector<VerbRow> RowsOf(const TsdbQueryResult& r) {
  std::vector<VerbRow> rows;
  rows.reserve(r.rows.size());
  for (const auto& row : r.rows) {
    VerbRow v;
    v.ts_us = row.ts / ldmsxx::kNsPerUs;
    v.node = row.node;
    for (const double x : row.values) v.values.push_back(VerbValue(x));
    rows.push_back(std::move(v));
  }
  return rows;
}

/// Pins the calling thread to one of the CPUs it may run on, chosen by
/// @p turn, and restores the full set when it goes out of scope.
class PinnedCpu {
 public:
  explicit PinnedCpu(std::uint64_t turn) {
    if (::sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    const int count = CPU_COUNT(&allowed_);
    if (count < 2) return;
    int skip = static_cast<int>(turn % static_cast<std::uint64_t>(count));
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_) && skip-- == 0) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinnedCpu() {
    if (pinned_) (void)::sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  PinnedCpu(const PinnedCpu&) = delete;
  PinnedCpu& operator=(const PinnedCpu&) = delete;

 private:
  cpu_set_t allowed_;
  bool pinned_ = false;
};

}  // namespace

VerbReply ParseVerbReply(const std::string& text) {
  VerbReply reply;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(' ', pos);
    if (end == std::string::npos) end = text.size();
    const std::string token = text.substr(pos, end - pos);
    pos = end + 1;
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key != "row") {
      reply.fields[key] = value;
      continue;
    }
    VerbRow row;
    std::size_t p = 0;
    int field = 0;
    while (p <= value.size()) {
      std::size_t q = value.find(':', p);
      if (q == std::string::npos) q = value.size();
      const std::string part = value.substr(p, q - p);
      if (field == 0) {
        row.ts_us = std::stoull(part);
      } else if (field == 1) {
        row.node = std::stoull(part);
      } else {
        row.values.push_back(part);
      }
      ++field;
      p = q + 1;
    }
    reply.rows.push_back(std::move(row));
  }
  return reply;
}

std::string VerbValue(double v) { return std::to_string(v); }

Pipeline::Pipeline(const RunOptions& opts, Tracer* tracer, std::string dir)
    : opts_(opts), tracer_(tracer), dir_(std::move(dir)) {
  auto local = std::make_shared<ldmsxx::LocalTransport>(&fabric_);
  auto sock = std::make_shared<ldmsxx::SockTransport>();
  auto wrap = [this](std::shared_ptr<ldmsxx::Transport> t,
                     const char* role) -> std::shared_ptr<ldmsxx::Transport> {
    if (tracer_ == nullptr) return t;
    return std::make_shared<TracingTransport>(std::move(t), tracer_, role);
  };
  host_reg_.Add(local);
  leaf_reg_.Add(wrap(local, "leaf"));
  leaf_reg_.Add(sock);
  root_reg_.Add(wrap(local, "root"));
  root_reg_.Add(wrap(sock, "root"));
  front_reg_.Add(wrap(local, "front"));
}

Pipeline::~Pipeline() {
  // Tear down top-down so no daemon outlives a peer it still dials.
  for (auto& s : stores_) s.verbs.reset();
  front_.reset();
  root_.reset();
  leaves_.clear();
  hosts_.clear();
  stores_.clear();
}

std::unique_ptr<Ldmsd> Pipeline::MakeDaemon(const std::string& name,
                                            const std::string& listen_xprt,
                                            const std::string& listen_addr,
                                            ldmsxx::SimClock* clock,
                                            ldmsxx::TransportRegistry* reg,
                                            std::size_t set_memory,
                                            std::size_t store_threads) {
  ldmsxx::LdmsdOptions o;
  o.name = name;
  o.listen_transport = listen_xprt;
  o.listen_address = listen_addr;
  o.set_memory = set_memory;
  o.worker_threads = 0;
  o.connection_threads = 0;
  o.store_threads = store_threads;
  o.log_level = ldmsxx::LogLevel::kOff;
  o.clock = clock;
  o.transports = reg;
  return std::make_unique<Ldmsd>(o);
}

StoreRef Pipeline::MakeStore(Ldmsd& daemon, const std::string& name,
                             std::size_t segment_rows) {
  StoreRef ref;
  ref.daemon = &daemon;
  ref.path = dir_ + "/" + name;
  ldmsxx::TsdbOptions o;
  o.root_path = ref.path;
  o.segment_rows = segment_rows;
  o.rollup_granularity = 60 * ldmsxx::kNsPerSec;
  o.scan_threads = 0;
  ref.tsdb = std::make_shared<ldmsxx::TsdbStore>(o);
  ref.verbs = std::make_unique<ldmsxx::ConfigProcessor>(daemon);
  return ref;
}

void Pipeline::AddHost(std::unique_ptr<Ldmsd> host, std::size_t nodes) {
  hosts_.push_back(std::move(host));
  host_nodes_.push_back(nodes);
}

Status Pipeline::Setup() {
  // Clocks first: schedules are laid out from the time at AddSampler.
  host_clock_.SetTime(TimeOf(0));
  leaf_clock_.SetTime(TimeOf(0));
  root_clock_.SetTime(TimeOf(0));
  front_clock_.SetTime(TimeOf(0));
  Status st = Build();
  if (!st.ok()) return st;
  // Cycle 1 connects, looks up and pulls everything once.
  RunCycle(/*measured=*/false);
  if (front_ != nullptr) front_->RunUntil(front_clock_, TimeOf(cycle_));
  return Status::Ok();
}

std::uint64_t Pipeline::TierBytes() const {
  std::uint64_t bytes = 0;
  for (const auto& l : leaves_) bytes += l->counters().update_bytes_on_wire;
  if (root_ != nullptr) bytes += root_->counters().update_bytes_on_wire;
  return bytes;
}

DetCounts Pipeline::Counts() const {
  DetCounts c;
  c.wire_bytes = TierBytes();
  for (const auto& s : stores_) {
    c.rows += s.tsdb->rows_written();
    c.segments += s.tsdb->segments_sealed();
  }
  return c;
}

std::uint64_t Pipeline::StoredTotal() const {
  std::uint64_t n = 0;
  for (const auto& s : stores_) {
    for (const auto& p : s.policies) {
      const auto st = s.daemon->store_policy_status(p);
      n += st.stores + st.shed_samples + st.store_failures +
           st.decompose_failures;
    }
  }
  return n;
}

void Pipeline::BeginMeasure() {
  // Set-up spans (connect, lookup, first pull) are not the steady state.
  if (tracer_ != nullptr) tracer_->Clear();
  std::vector<Ldmsd*> aggs;
  for (auto& l : leaves_) aggs.push_back(l.get());
  if (root_ != nullptr) aggs.push_back(root_.get());
  for (Ldmsd* d : aggs) {
    const auto& c = d->counters();
    base_batched_ += c.updates_batched;
    base_deltas_ += c.updates_delta;
    base_unchanged_ += c.updates_unchanged;
    base_saved_ += c.delta_bytes_saved;
  }
  for (auto& l : leaves_) {
    base_leaf_bytes_ += l->counters().update_bytes_on_wire;
  }
  if (root_ != nullptr) {
    base_root_bytes_ = root_->counters().update_bytes_on_wire;
  }
  const DetCounts c = Counts();
  base_rows_ = c.rows;
  base_segments_ = c.segments;
}

void Pipeline::WaitVisible(std::uint64_t cycle) {
  Tracer::Scope span(tracer_, "pipeline.visible");
  const std::uint64_t deadline = NowNs() + kVisibleTimeoutNs;
  const std::uint64_t expected = committed_total();
  while (StoredTotal() < expected) {
    if (NowNs() > deadline) {
      std::string detail;
      for (const auto& s : stores_) {
        for (const auto& p : s.policies) {
          const auto st = s.daemon->store_policy_status(p);
          detail += " " + p + ":stores=" + std::to_string(st.stores) +
                    ",shed=" + std::to_string(st.shed_samples) +
                    ",fail=" + std::to_string(st.store_failures) +
                    ",decomp=" + std::to_string(st.decompose_failures) +
                    ",queue=" + std::to_string(st.queue_depth) +
                    ",breaker=" + ldmsxx::BreakerStateName(st.breaker);
        }
      }
      Fail("cycle " + std::to_string(cycle) + ": store took " +
           std::to_string(StoredTotal()) + " of " + std::to_string(expected) +
           " committed samples;" + detail);
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  std::size_t idx = 0;
  const TsdbQuery q = ProbeQuery(cycle, &idx);
  TsdbQueryResult res;
  for (;;) {
    Status st = stores_[idx].tsdb->Query(q, &res);
    if (st.ok() && !res.rows.empty()) return;
    if (NowNs() > deadline) {
      Fail("cycle " + std::to_string(cycle) + ": probe row never visible");
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

void Pipeline::SnapshotFixed() {
  const std::uint64_t committed = committed_total();
  const double hops = root_ != nullptr ? 2.0 : 1.0;
  if (committed > 0) {
    record_.wire_bytes_per_set = static_cast<double>(TierBytes()) /
                                 (static_cast<double>(committed) * hops);
  }
  namespace fs = std::filesystem;
  std::uint64_t bytes = 0, rows = 0;
  for (const auto& s : stores_) {
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(s.path, ec)) {
      if (e.path().extension() != ".seg") continue;
      ldmsxx::SegmentFooter footer;
      if (!ldmsxx::ReadSegmentFooter(e.path().string(), &footer).ok()) {
        Fail("unreadable segment " + e.path().string());
        continue;
      }
      bytes += fs::file_size(e.path(), ec);
      rows += footer.row_count;
    }
  }
  if (rows == 0) {
    Fail("no sealed segment after " + std::to_string(kFixCycles) + " cycles");
    return;
  }
  record_.disk_bytes_per_row =
      static_cast<double>(bytes) / static_cast<double>(rows);
}

void Pipeline::Cycle() { RunCycle(/*measured=*/true); }

void Pipeline::RunCycle(bool measured) {
  ++cycle_;
  const ldmsxx::TimeNs t = TimeOf(cycle_);
  if (tracer_ != nullptr) tracer_->set_group(cycle_);
  const std::uint64_t committed_before = committed_total();
  const std::uint64_t segs_before = Counts().segments;
  Generate(cycle_);
  CycleRecord rec;
  std::uint64_t t_commit = 0, t_vis = 0;
  {
    Tracer::Scope cycle_span(tracer_, "pipeline.cycle");
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      const std::uint64_t t0 = NowNs();
      {
        Tracer::Scope span(tracer_, "daemon.host_sample");
        hosts_[i]->RunUntil(host_clock_, t);
      }
      if (measured) {
        record_.node_sample_ns.push_back(static_cast<double>(NowNs() - t0) /
                                         static_cast<double>(host_nodes_[i]));
      }
    }
    t_commit = NowNs();
    {
      Tracer::Scope span(tracer_, "daemon.leaf_collect");
      for (auto& leaf : leaves_) leaf->RunUntil(leaf_clock_, t);
    }
    const std::uint64_t t_leaf = NowNs();
    rec.leaf_ns = static_cast<double>(t_leaf - t_commit);
    if (stores_at_leaves()) {
      WaitVisible(cycle_);
      t_vis = NowNs();
      rec.store_tier_ns = rec.leaf_ns;
      rec.visible_ns = static_cast<double>(t_vis - t_leaf);
    }
    const std::uint64_t t_root = NowNs();
    if (root_ != nullptr) {
      Tracer::Scope span(tracer_, "daemon.root_collect");
      root_->RunUntil(root_clock_, t);
    }
    const std::uint64_t t_root_end = NowNs();
    if (!stores_at_leaves()) {
      WaitVisible(cycle_);
      t_vis = NowNs();
      rec.store_tier_ns = static_cast<double>(t_root_end - t_root);
      rec.path_root_ns = rec.store_tier_ns;
      rec.visible_ns = static_cast<double>(t_vis - t_root_end);
    }
  }
  rec.freshness_ns = static_cast<double>(t_vis - t_commit);
  rec.stored = committed_total() - committed_before;
  rec.sealed = Counts().segments != segs_before;
  if (cycle_ == kFixCycles) SnapshotFixed();
  if (!measured) return;
  record_.cycles.push_back(rec);
  ldmsxx::Rng rng(opts_.seed * 0x9e3779b97f4a7c15ull + cycle_);
  // Each cycle's queries run on the next CPU in turn. On a shared 4-vCPU
  // KVM guest one vCPU ran the same float-formatting loop up to 1.9x slower
  // than another for tens of seconds at a time; visiting every CPU in turn
  // averages that out within the run instead of leaving it to whichever
  // CPU the run landed on.
  PinnedCpu pin(cycle_);
  Queries(cycle_, rng);
}

std::string Pipeline::VerbLine(const char* mode, const TsdbQuery& q,
                               std::uint64_t limit) const {
  std::string line = std::string("query strgp=") + kQueriedPolicy +
                     " table=" + q.table;
  if (mode != nullptr) line += std::string(" mode=") + mode;
  line += " t0_us=" + std::to_string(q.t0 / ldmsxx::kNsPerUs);
  if (q.t1 != ~ldmsxx::TimeNs{0}) {
    line += " t1_us=" + std::to_string(q.t1 / ldmsxx::kNsPerUs);
  }
  if (!q.nodes.empty()) line += " nodes=" + JoinU64(q.nodes);
  if (!q.metrics.empty()) line += " metrics=" + Join(q.metrics);
  line += " limit=" + std::to_string(limit);
  return line;
}

bool Pipeline::RunVerb(ldmsxx::ConfigProcessor& verbs, const std::string& line,
                       const char* span, QueryRecord* rec, VerbReply* reply) {
  if (tracer_ != nullptr) tracer_->set_group(kQueryGroupBase + ++query_seq_);
  std::string out;
  Status st;
  const std::uint64_t t0 = NowNs();
  {
    Tracer::Scope s(tracer_, span);
    st = verbs.Execute(line, &out);
  }
  rec->verb_ns = static_cast<double>(NowNs() - t0);
  ++record_.attempted;
  if (!st.ok()) {
    ++record_.failed;
    Fail("verb failed: " + line + ": " + st.ToString());
    return false;
  }
  *reply = ParseVerbReply(out);
  return true;
}

void Pipeline::Window(StoreRef& s, const TsdbQuery& q) {
  QueryRecord rec;
  rec.kind = QueryKind::kWindow;
  VerbReply reply;
  if (!RunVerb(*s.verbs, VerbLine(nullptr, q, 1u << 20),
               "query.window", &rec, &reply)) {
    return;
  }
  if (tracer_ != nullptr) {
    const std::uint64_t t0 = NowNs();
    {
      Tracer::Scope span(tracer_, "query.tsdb_window");
      (void)s.tsdb->Query(q, &rec.direct);
    }
    rec.tsdb_ns = static_cast<double>(NowNs() - t0);
    rec.direct.rows.clear();
  }
  rec.rows = reply.rows.size();
  std::sort(reply.rows.begin(), reply.rows.end());
  if (reply.rows != Reference(q)) {
    Fail("window on " + q.table + " t0=" + std::to_string(q.t0) +
         " returned rows that differ from the generator");
  }
  record_.queries.push_back(std::move(rec));
}

void Pipeline::Rollup(StoreRef& s, const TsdbQuery& q) {
  QueryRecord rec;
  rec.kind = QueryKind::kRollup;
  VerbReply reply;
  if (!RunVerb(*s.verbs, VerbLine("rollup", q, 1u << 20),
               "query.rollup", &rec, &reply)) {
    return;
  }
  if (reply.fields.count("buckets") == 0) Fail("rollup reply has no buckets=");
  record_.queries.push_back(std::move(rec));
}

void Pipeline::Scan(StoreRef& s, const TsdbQuery& q, std::uint64_t expected) {
  QueryRecord rec;
  rec.kind = QueryKind::kScan;
  VerbReply reply;
  if (!RunVerb(*s.verbs, VerbLine(nullptr, q, 1), "query.scan", &rec,
               &reply)) {
    return;
  }
  if (tracer_ != nullptr) {
    const std::uint64_t t0 = NowNs();
    {
      Tracer::Scope span(tracer_, "query.tsdb_scan");
      (void)s.tsdb->Query(q, &rec.direct);
    }
    rec.tsdb_ns = static_cast<double>(NowNs() - t0);
    rec.direct.rows.clear();
  }
  rec.rows = Field(reply, "rows").value_or(0);
  if (rec.rows != expected) {
    Fail("scan of " + q.table + " returned " + std::to_string(rec.rows) +
         " rows, expected " + std::to_string(expected));
  }
  record_.queries.push_back(std::move(rec));
}

void Pipeline::Fanout(Ldmsd& at, const TsdbQuery& q) {
  ldmsxx::ConfigProcessor verbs(at);
  QueryRecord rec;
  rec.kind = QueryKind::kFanout;
  VerbReply reply;
  if (!RunVerb(verbs, VerbLine("fanout", q, 1u << 20), "query.fanout",
               &rec, &reply)) {
    return;
  }
  const auto leaves_ok = Field(reply, "leaves_ok");
  const auto leaves_failed = Field(reply, "leaves_failed");
  if (!leaves_ok || !leaves_failed) {
    Fail("fan-out reply lacks leaves_ok/leaves_failed");
    return;
  }
  record_.attempted += *leaves_ok + *leaves_failed;
  record_.failed += *leaves_failed;
  rec.rows = reply.rows.size();
  // The union of the same predicate sent to every leaf store directly.
  std::vector<VerbRow> expected;
  for (const auto& s : stores_) {
    TsdbQueryResult r;
    if (!s.tsdb->Query(q, &r).ok()) continue;
    std::vector<VerbRow> part = RowsOf(r);
    expected.insert(expected.end(), part.begin(), part.end());
  }
  std::sort(expected.begin(), expected.end());
  if (reply.rows != expected) {
    Fail("fan-out rows differ from the (ts, node)-ordered union of leaves");
  }
  if (expected != Reference(q)) {
    Fail("fan-out rows differ from the generator");
  }
  record_.queries.push_back(std::move(rec));
}

void Pipeline::Finish() {
  RunRecord& r = record_;
  if (cycle_ < kFixCycles) {
    Fail("run ended after " + std::to_string(cycle_) + " cycles, before the " +
         std::to_string(kFixCycles) + " that fix the byte counts");
  }
  r.threads = ThreadCount();
  if (r.threads > thread_budget()) {
    Fail("workload ran " + std::to_string(r.threads) + " threads, budget " +
         std::to_string(thread_budget()));
  }
  std::uint64_t batched = 0, deltas = 0, unchanged = 0, saved = 0,
                update_failures = 0;
  for (auto& l : leaves_) {
    const auto& c = l->counters();
    batched += c.updates_batched;
    deltas += c.updates_delta;
    unchanged += c.updates_unchanged;
    saved += c.delta_bytes_saved;
    update_failures += c.updates_failed;
    r.leaf_bytes += c.update_bytes_on_wire;
  }
  if (root_ != nullptr) {
    const auto& c = root_->counters();
    batched += c.updates_batched;
    deltas += c.updates_delta;
    unchanged += c.updates_unchanged;
    saved += c.delta_bytes_saved;
    update_failures += c.updates_failed;
    r.root_bytes = c.update_bytes_on_wire - base_root_bytes_;
  }
  r.leaf_bytes -= base_leaf_bytes_;
  r.batched = batched - base_batched_;
  r.deltas = deltas - base_deltas_;
  r.unchanged = unchanged - base_unchanged_;
  r.delta_saved = saved - base_saved_;
  r.det = Counts();
  r.rows_stored = r.det.rows - base_rows_;
  r.segments_sealed = r.det.segments - base_segments_;
  std::uint64_t store_failures = 0;
  for (const auto& s : stores_) {
    for (const auto& p : s.policies) {
      const auto st = s.daemon->store_policy_status(p);
      r.queue_high_water = std::max<std::uint64_t>(r.queue_high_water,
                                                   st.queue_high_water);
      r.shed += st.shed_samples;
      r.decompose_failures += st.decompose_failures;
      store_failures += st.store_failures;
    }
  }
  std::uint64_t stored = 0;
  for (const auto& c : r.cycles) stored += c.stored;
  r.attempted += stored;
  r.failed += update_failures + store_failures + r.shed + r.decompose_failures;
  FinalChecks();
}

}  // namespace perfbench

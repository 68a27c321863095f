// perfbench: the LDMS pipeline benchmark.
//
//   perfbench --workload chama_dense|bw_sparse|dashboard_mix --seed N
//             --seconds S --trace 0|1 [--tmp DIR] [--trace-out FILE]
//
// --trace 0 sets the world up three times (setup_s is their median), then
// runs closed-loop cycles for S seconds and prints every end-to-end metric.
// --trace 1 runs one untraced world for S seconds, then a traced world of
// the same seed for the same number of cycles, checks both produced the
// same wire bytes, rows and segments, and prints the per-layer metrics.
// The last stdout line is the JSON result; a host stamp line precedes it.
// Exit status is non-zero when the run could not be made or measured.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "host.hpp"
#include "pipeline.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Stage medians must account for the end-to-end median within this share.
constexpr double kAccountTolerance = 0.25;
/// Samples the reported percentiles need (p90 over cycles — the workload's
/// min_cycles() — p99 over dashboard windows, medians of the rarer queries);
/// a run is extended past --seconds until it has them, up to kMaxStretch
/// times --seconds.
constexpr std::size_t kMinWindows = 1000;
constexpr std::size_t kMinScans = 5;
constexpr double kMaxStretch = 4.0;

std::vector<double> Scaled(const std::vector<double>& ns, double div) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (const double v : ns) out.push_back(v / div);
  return out;
}

std::vector<double> QueryField(const RunRecord& r, QueryKind kind,
                               double QueryRecord::*field) {
  std::vector<double> out;
  for (const auto& q : r.queries) {
    if (q.kind == kind) out.push_back(q.*field);
  }
  return out;
}

class Reporter {
 public:
  explicit Reporter(std::vector<std::string>* problems)
      : problems_(problems) {}

  /// Percentile @p q of @p samples; a refused one is a problem when
  /// @p required, else reported as 0.
  void Pct(Metrics* m, const std::string& name, const std::string& unit,
           const std::vector<double>& samples, double q, bool required) {
    const Percentile p = TakePercentile(samples, q);
    if (!p.ok) {
      if (required) {
        problems_->push_back(name + ": refused over " + std::to_string(p.n) +
                             " samples");
      }
      m->push_back({name, 0.0, unit});
      return;
    }
    m->push_back({name, p.value, unit});
  }

 private:
  std::vector<std::string>* problems_;
};

double Find(const Metrics& m, const std::string& name) {
  for (const auto& x : m) {
    if (x.name == name) return x.value;
  }
  return 0.0;
}

bool Enough(const Pipeline& p) {
  const RunRecord& r = p.record();
  std::size_t windows = 0, scans = 0;
  for (const auto& q : r.queries) {
    windows += q.kind == QueryKind::kWindow ? 1 : 0;
    scans += q.kind == QueryKind::kScan ? 1 : 0;
  }
  return r.cycles.size() >= p.min_cycles() && windows >= kMinWindows &&
         scans >= kMinScans;
}

/// @p required: a refused percentile makes the run fail (the measured
/// run); otherwise it reads 0 (the halves of a traced run).
Metrics EndToEnd(const RunRecord& r, std::vector<std::string>* problems,
                 bool required) {
  Metrics m;
  Reporter rep(problems);
  std::vector<double> fresh;
  for (const auto& c : r.cycles) fresh.push_back(c.freshness_ns / 1e6);
  rep.Pct(&m, "freshness_ms_p50", "ms", fresh, 0.5, required);
  rep.Pct(&m, "freshness_ms_p90", "ms", fresh, 0.9, required);
  rep.Pct(&m, "node_sample_us_p50", "us", Scaled(r.node_sample_ns, 1e3), 0.5,
          required);
  m.push_back({"wire_bytes_per_set", r.wire_bytes_per_set, "B"});
  m.push_back({"disk_bytes_per_row", r.disk_bytes_per_row, "B"});
  const auto windows =
      Scaled(QueryField(r, QueryKind::kWindow, &QueryRecord::verb_ns), 1e3);
  rep.Pct(&m, "query_us_p50", "us", windows, 0.5, required);
  rep.Pct(&m, "query_us_p99", "us", windows, 0.99, required);
  rep.Pct(&m, "scan_ms_p50", "ms",
          Scaled(QueryField(r, QueryKind::kScan, &QueryRecord::verb_ns), 1e6),
          0.5, required);
  rep.Pct(&m, "fanout_ms_p50", "ms",
          Scaled(QueryField(r, QueryKind::kFanout, &QueryRecord::verb_ns), 1e6),
          0.5, required);
  double query_ns = 0;
  for (const auto& q : r.queries) query_ns += q.verb_ns;
  m.push_back({"queries_per_s",
               query_ns > 0 ? static_cast<double>(r.queries.size()) /
                                  (query_ns / 1e9)
                            : 0,
               "1/s"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  return m;
}

Metrics PerLayer(const RunRecord& r, const Tracer& tr, const Metrics& untraced,
                 const Metrics& traced, const HostStamp& host,
                 std::vector<std::string>* problems) {
  Metrics m;
  Reporter rep(problems);
  const double cycles = static_cast<double>(std::max<std::size_t>(
      1, r.cycles.size()));
  auto span_pct = [&](const std::string& name, const std::string& span,
                      double div, const char* unit, double q,
                      bool self = false) {
    rep.Pct(&m, name, unit, Scaled(tr.Durations(span, self), div), q, false);
  };
  for (const char* p : {"meminfo", "procstat", "loadavg", "lustre", "nfs",
                        "netdev", "synthetic"}) {
    span_pct(std::string("sampler.") + p + "_us_p50",
             std::string("sampler.") + p, 1e3, "us", 0.5);
  }
  span_pct("core.commit_us_p50", "core.commit", 1e3, "us", 0.5);
  span_pct("transport.leaf_batch_us_p50", "transport.leaf_batch", 1e3, "us",
           0.5);
  span_pct("transport.root_batch_us_p50", "transport.root_batch", 1e3, "us",
           0.5);
  span_pct("transport.root_batch_us_p90", "transport.root_batch", 1e3, "us",
           0.9);
  m.push_back({"transport.leaf_bytes_per_cycle",
               static_cast<double>(r.leaf_bytes) / cycles, "B"});
  m.push_back({"transport.root_bytes_per_cycle",
               static_cast<double>(r.root_bytes) / cycles, "B"});
  m.push_back({"transport.batch_entries_per_cycle",
               static_cast<double>(r.batched) / cycles, "count"});
  m.push_back({"transport.deltas_per_cycle",
               static_cast<double>(r.deltas) / cycles, "count"});
  m.push_back({"transport.unchanged_per_cycle",
               static_cast<double>(r.unchanged) / cycles, "count"});
  m.push_back({"transport.delta_bytes_saved_per_cycle",
               static_cast<double>(r.delta_saved) / cycles, "B"});
  span_pct("daemon.leaf_collect_ms_p50", "daemon.leaf_collect", 1e6, "ms",
           0.5);
  span_pct("daemon.root_collect_ms_p50", "daemon.root_collect", 1e6, "ms",
           0.5);
  span_pct("daemon.root_collect_ms_p90", "daemon.root_collect", 1e6, "ms",
           0.9);
  span_pct("daemon.root_apply_self_ms_p50", "daemon.root_collect", 1e6, "ms",
           0.5, /*self=*/true);
  std::vector<double> visible, sealing, plain, tier;
  for (const auto& c : r.cycles) {
    visible.push_back(c.visible_ns / 1e6);
    (c.sealed ? sealing : plain).push_back(c.freshness_ns / 1e6);
    tier.push_back(c.store_tier_ns / 1e3);
  }
  rep.Pct(&m, "daemon.store_queue_wait_ms_p50", "ms", visible, 0.5, false);
  m.push_back({"daemon.store_queue_high_water",
               static_cast<double>(r.queue_high_water), "count"});
  m.push_back({"daemon.store_shed_samples", static_cast<double>(r.shed),
               "count"});
  m.push_back({"daemon.decompose_failures",
               static_cast<double>(r.decompose_failures), "count"});
  span_pct("store.write_us_p50", "store.write", 1e3, "us", 0.5);
  span_pct("store.write_us_p99", "store.write", 1e3, "us", 0.99);
  rep.Pct(&m, "store.sealing_cycle_ms_p50", "ms", sealing, 0.5, false);
  rep.Pct(&m, "store.plain_cycle_ms_p50", "ms", plain, 0.5, false);
  m.push_back({"store.rows_per_cycle",
               static_cast<double>(r.rows_stored) / cycles, "count"});
  m.push_back({"store.segments_sealed",
               static_cast<double>(r.segments_sealed), "count"});
  rep.Pct(&m, "store.ingest_tick_us_p50", "us", tier, 0.5, false);

  std::vector<double> tsdb_us, self_us, segs, bytes, decoded, rows;
  std::vector<double> scan_ms, scan_bytes, scan_rows;
  for (const auto& q : r.queries) {
    if (q.kind == QueryKind::kWindow && q.tsdb_ns >= 0) {
      tsdb_us.push_back(q.tsdb_ns / 1e3);
      self_us.push_back((q.verb_ns - q.tsdb_ns) / 1e3);
      segs.push_back(static_cast<double>(q.direct.segments_read));
      bytes.push_back(static_cast<double>(q.direct.bytes_read));
      decoded.push_back(static_cast<double>(q.direct.bytes_decoded));
      rows.push_back(static_cast<double>(q.rows));
    } else if (q.kind == QueryKind::kScan && q.tsdb_ns >= 0) {
      scan_ms.push_back(q.tsdb_ns / 1e6);
      scan_bytes.push_back(static_cast<double>(q.direct.bytes_read));
      scan_rows.push_back(static_cast<double>(q.rows));
    }
  }
  rep.Pct(&m, "query.tsdb_window_us_p50", "us", tsdb_us, 0.5, false);
  rep.Pct(&m, "query.tsdb_window_us_p99", "us", tsdb_us, 0.99, false);
  rep.Pct(&m, "daemon.query_verb_self_us_p50", "us", self_us, 0.5, false);
  rep.Pct(&m, "query.window_segments_read", "count", segs, 0.5, false);
  rep.Pct(&m, "query.window_bytes_read", "B", bytes, 0.5, false);
  rep.Pct(&m, "query.window_bytes_decoded", "B", decoded, 0.5, false);
  rep.Pct(&m, "query.window_rows", "count", rows, 0.5, false);
  rep.Pct(&m, "query.tsdb_scan_ms_p50", "ms", scan_ms, 0.5, false);
  rep.Pct(&m, "query.scan_bytes_read", "B", scan_bytes, 0.5, false);
  rep.Pct(&m, "query.scan_rows", "count", scan_rows, 0.5, false);
  rep.Pct(&m, "query.rollup_us_p50", "us",
          Scaled(QueryField(r, QueryKind::kRollup, &QueryRecord::verb_ns),
                 1e3),
          0.5, false);
  std::vector<double> remote = tr.Durations("transport.front_remote_query",
                                            false);
  const auto root_remote = tr.Durations("transport.root_remote_query", false);
  remote.insert(remote.end(), root_remote.begin(), root_remote.end());
  rep.Pct(&m, "query.remote_us_p50", "us", Scaled(remote, 1e3), 0.5, false);
  span_pct("daemon.fanout_merge_self_us_p50", "query.fanout", 1e3, "us", 0.5,
           /*self=*/true);

  // Tracing overhead and stage accounting.
  m.push_back({"trace.overhead_freshness_ms_p50",
               Find(traced, "freshness_ms_p50") -
                   Find(untraced, "freshness_ms_p50"),
               "ms"});
  m.push_back({"trace.overhead_query_us_p50",
               Find(traced, "query_us_p50") - Find(untraced, "query_us_p50"),
               "us"});
  // Freshness = leaf collect + root collect (when before the store) +
  // wait until visible, cycle by cycle; their medians must add up.
  std::vector<double> leaf, root, fresh;
  for (const auto& c : r.cycles) {
    leaf.push_back(c.leaf_ns);
    root.push_back(c.path_root_ns);
    fresh.push_back(c.freshness_ns);
  }
  const double stages = Median(leaf).value + Median(root).value +
                        Median(Scaled(visible, 1e-6)).value;
  const double fresh_ratio = stages / Median(fresh).value;
  const double query_ratio =
      (Median(tsdb_us).value + Median(self_us).value) /
      Find(traced, "query_us_p50");
  m.push_back({"trace.freshness_stage_ratio", fresh_ratio, "ratio"});
  m.push_back({"trace.query_stage_ratio", query_ratio, "ratio"});
  for (const auto& [label, ratio] :
       {std::pair<const char*, double>{"freshness", fresh_ratio},
        {"query", query_ratio}}) {
    if (!(ratio > 1 - kAccountTolerance && ratio < 1 + kAccountTolerance)) {
      problems->push_back(std::string("stage medians account for ") +
                          std::to_string(ratio) + " of the " + label +
                          " median");
    }
  }
  m.push_back({"trace.spans", static_cast<double>(tr.span_count()), "count"});
  m.push_back({"host.nproc", static_cast<double>(host.nproc), "count"});
  m.push_back({"host.effective_cores", host.effective_cores, "count"});
  m.push_back({"pipeline.threads", static_cast<double>(r.threads), "count"});
  m.push_back({"error_rate",
               r.attempted > 0 ? static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted)
                               : 0,
               "ratio"});
  return m;
}

std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const Metrics& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& x : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", x.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + x.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           x.unit + "\"}";
  }
  return out + "}}";
}

struct Args {
  RunOptions run;
  std::string tmp = ".bench_out";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->run.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->run.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->run.seconds = std::stod(value);
    } else if (key == "--trace") {
      args->run.trace = value != "0";
    } else if (key == "--tmp") {
      args->tmp = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

/// Run @p p until it has run @p cycles cycles when cycles > 0; else for
/// @p seconds, and with @p extend on until Enough() (bounded).
void Measure(Pipeline& p, double seconds, std::uint64_t cycles, bool extend) {
  p.BeginMeasure();
  const std::uint64_t start = NowNs();
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t hard_end =
      start + static_cast<std::uint64_t>(kMaxStretch * seconds * 1e9);
  if (cycles > 0) {
    while (p.cycle() < cycles) p.Cycle();
  } else {
    while (NowNs() < end ||
           (extend && !Enough(p) && NowNs() < hard_end)) {
      p.Cycle();
    }
  }
  p.Finish();
}

/// Run @p fn in a forked child and return the text it produced, or nullopt
/// when the child failed. The child leaves with _Exit, so its world is never
/// torn down piece by piece: the kernel reclaims it at once, where freeing
/// thousands of mirrors through the daemon's pool allocator takes seconds.
/// Call only while this process has no other thread.
std::optional<std::string> InChild(const std::function<std::string()>& fn) {
  int fds[2];
  if (::pipe(fds) != 0) return std::nullopt;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    ::close(fds[0]);
    const std::string out = fn();
    std::size_t done = 0;
    while (done < out.size()) {
      const ssize_t n = ::write(fds[1], out.data() + done, out.size() - done);
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    std::fflush(stderr);
    std::_Exit(!out.empty() && done == out.size() ? 0 : 1);
  }
  ::close(fds[1]);
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  return out;
}

bool KnownWorkload(const std::string& name) {
  return name == "chama_dense" || name == "bw_sparse" ||
         name == "dashboard_mix";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args) || !KnownWorkload(args.run.workload)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload chama_dense|bw_sparse|"
                 "dashboard_mix --seed N --seconds S --trace 0|1 "
                 "[--tmp DIR] [--trace-out FILE]\n");
    return 2;
  }
  const HostStamp host = StampHost();
  std::printf("host %s\n", HostStampJson(host).c_str());
  std::fflush(stdout);
  if (!host.optimized) {
    std::fprintf(stderr, "refusing to measure a non-optimised build\n");
    return 2;
  }
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(args.tmp, ec);
  std::string dir = args.tmp + "/run-XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) {
    std::fprintf(stderr, "mkdtemp under %s failed\n", args.tmp.c_str());
    return 2;
  }
  const RunOptions& opts = args.run;
  // Every failure below leaves without a result line.
  auto give_up = [&](const char* what) {
    std::fprintf(stderr, "%s failed\n", what);
    fs::remove_all(dir, ec);
    return 1;
  };
  auto setup = [&](Tracer* tracer, const std::string& sub) {
    auto p = MakePipeline(opts, tracer, dir + "/" + sub);
    const ldmsxx::Status st = p->Setup();
    if (!st.ok()) {
      std::fprintf(stderr, "setup: %s\n", st.ToString().c_str());
      p.reset();
    }
    return p;
  };

  std::vector<std::string> problems;
  Metrics metrics;
  std::uint64_t attempted = 0, failed = 0;
  auto collect = [&](const RunRecord& r) {
    attempted += r.attempted;
    failed += r.failed;
    problems.insert(problems.end(), r.oracle_failures.begin(),
                    r.oracle_failures.end());
  };
  std::unique_ptr<Pipeline> p;  // the measured world; never torn down

  if (!opts.trace) {
    // Three set-ups; the first two in children that exit without teardown.
    constexpr int kSetups = 3;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetups; ++i) {
      const std::string sub = "world" + std::to_string(i);
      const std::uint64_t t0 = NowNs();
      if (i + 1 < kSetups) {
        const auto out = InChild([&] {
          const std::uint64_t c0 = NowNs();
          auto child = setup(nullptr, sub);
          const double secs = static_cast<double>(NowNs() - c0) / 1e9;
          // Left for the child's _Exit to reclaim, not torn down.
          return child.release() == nullptr ? std::string()
                                            : std::to_string(secs);
        });
        if (!out) return give_up("setup");
        setup_s.push_back(std::stod(*out));
        fs::remove_all(dir + "/" + sub, ec);
      } else {
        p = setup(nullptr, sub);
        if (p == nullptr) return give_up("setup");
        setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      }
      std::fprintf(stderr, "setup %d: %.2f s\n", i + 1, setup_s.back());
    }
    Measure(*p, opts.seconds, 0, /*extend=*/true);
    collect(p->record());
    metrics = EndToEnd(p->record(), &problems, /*required=*/true);
    metrics.insert(metrics.begin(), {"setup_s", Median(setup_s).value, "s"});
    std::fprintf(stderr, "%s: %llu cycles, %zu queries\n",
                 opts.workload.c_str(),
                 static_cast<unsigned long long>(p->cycle()),
                 p->record().queries.size());
  } else {
    // The untraced world runs in a child; it reports its cycle count, the
    // seed-fixed counts and the end-to-end figures the overhead needs.
    const auto out = InChild([&] {
      auto plain = setup(nullptr, "untraced");
      if (plain == nullptr) return std::string();
      Measure(*plain, opts.seconds, 0, /*extend=*/true);
      const RunRecord& r = plain->record();
      std::vector<std::string> child_problems = r.oracle_failures;
      std::string text = "cycles " + std::to_string(plain->cycle()) + "\n" +
                         "det " + std::to_string(r.det.wire_bytes) + " " +
                         std::to_string(r.det.rows) + " " +
                         std::to_string(r.det.segments) + "\n" + "count " +
                         std::to_string(r.attempted) + " " +
                         std::to_string(r.failed) + "\n";
      char buf[64];
      for (const auto& m : EndToEnd(r, &child_problems, false)) {
        std::snprintf(buf, sizeof buf, "%.17g", m.value);
        text += "metric " + m.name + " " + buf + " " + m.unit + "\n";
      }
      for (const auto& why : child_problems) text += "problem " + why + "\n";
      (void)plain.release();  // left for the child's _Exit to reclaim
      return text;
    });
    if (!out) return give_up("untraced run");
    std::uint64_t cycles = 0;
    DetCounts want;
    Metrics untraced;
    std::istringstream in(*out);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string tag;
      fields >> tag;
      if (tag == "cycles") {
        fields >> cycles;
      } else if (tag == "det") {
        fields >> want.wire_bytes >> want.rows >> want.segments;
      } else if (tag == "count") {
        std::uint64_t a = 0, f = 0;
        fields >> a >> f;
        attempted += a;
        failed += f;
      } else if (tag == "metric") {
        Metric m;
        fields >> m.name >> m.value >> m.unit;
        untraced.push_back(m);
      } else if (tag == "problem") {
        problems.push_back(line.substr(8));
      }
    }
    fs::remove_all(dir + "/untraced", ec);
    Tracer tracer(true);
    p = setup(&tracer, "traced");
    if (p == nullptr) return give_up("setup");
    Measure(*p, 0, cycles, /*extend=*/false);
    collect(p->record());
    const Metrics traced =
        EndToEnd(p->record(), &problems, /*required=*/false);
    if (!(p->record().det == want)) {
      problems.push_back("traced and untraced runs of one seed disagree on "
                         "wire bytes, rows or segments");
    }
    metrics = PerLayer(p->record(), tracer, untraced, traced, host, &problems);
    if (!args.trace_out.empty() && !tracer.WriteCsv(args.trace_out)) {
      problems.push_back("could not write " + args.trace_out);
    }
  }
  fs::remove_all(dir, ec);
  for (const auto& why : problems) {
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
  }
  const std::string result =
      ResultJson(problems.empty(), std::max<std::uint64_t>(1, attempted),
                 failed, metrics);
  std::printf("%s\n", result.c_str());
  // Leave without tearing the measured world down (see InChild); its
  // threads end with the process.
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(0);
}

}  // namespace

std::unique_ptr<Pipeline> MakePipeline(const RunOptions& opts, Tracer* tracer,
                                       const std::string& dir) {
  if (opts.workload == "chama_dense") return MakeChamaDense(opts, tracer, dir);
  if (opts.workload == "bw_sparse") return MakeBwSparse(opts, tracer, dir);
  if (opts.workload == "dashboard_mix") {
    return MakeDashboardMix(opts, tracer, dir);
  }
  return nullptr;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

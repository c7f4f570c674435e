/// \file perfbench.cpp
/// The repository benchmark: four workloads driven through the library's
/// public entry points, timed in host seconds, with the simulated results
/// checked for identity.
///
///   perfbench --workload sweep|serve-distinct|serve-churn|fleet-churn
///             [--seed 42] [--seconds 20] [--trace 0|1] [--size full|tiny]
///             [--trace-out spans.json] [--expect-checksum HEX]
///
/// A run builds the workload's graph several times (set-up, reported as
/// the median), makes one untimed reference pass, then repeats the
/// workload until --seconds have passed and reports the median rate.
/// With --trace 1 it splits the time between untraced repetitions (the
/// baseline for the tap overhead) and traced ones: metering-only
/// telemetry is attached to the library and every call into a layer is
/// wrapped in a host-time span, kept in memory and written out as Chrome
/// trace-event JSON when the run ends.
///
/// Simulated results are deterministic, so every repetition's checksum
/// must equal the reference pass's; a mismatch, a broken conservation law
/// or a library exception fails the gate, makes `correct` false and the
/// exit code nonzero. The model has not been validated against hardware,
/// so no accuracy figure is reported.
///
/// The last stdout line is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
/// (--trace 1).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algo/bfs.hpp"
#include "core/runtime.hpp"
#include "core/system_config.hpp"
#include "fault/fault.hpp"
#include "graph/datasets.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_check.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

using namespace cxlgraph;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------
struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
  std::optional<std::uint64_t> expect_checksum;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") {
        throw std::invalid_argument("--size takes full or tiny");
      }
      a.tiny = value == "tiny";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--expect-checksum") {
      a.expect_checksum = std::stoull(value, nullptr, 16);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  const std::string known[] = {"sweep", "serve-distinct", "serve-churn",
                               "fleet-churn"};
  if (std::find(std::begin(known), std::end(known), a.workload) ==
      std::end(known)) {
    throw std::invalid_argument("--workload must be one of sweep, "
                                "serve-distinct, serve-churn, fleet-churn");
  }
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// ---------------------------------------------------------------------------
// Correctness gate. Every library call and every check is one attempted
// operation; a call that throws or a check that fails is one failure.
// ---------------------------------------------------------------------------
class Gate {
 public:
  void calls(std::uint64_t n = 1) { attempted_ += n; }

  bool check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) fail(what);
    return ok;
  }

  void fail(const std::string& what) {
    ++failed_;
    std::printf("GATE FAIL: %s\n", what.c_str());
  }

  /// The first checksum seen becomes the reference; every later one must
  /// equal it.
  void same_checksum(std::uint64_t got, const std::string& what) {
    if (!reference_) {
      reference_ = got;
      return;
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, " checksum %016" PRIx64
                  " != reference %016" PRIx64, got, *reference_);
    check(got == *reference_, what + buf);
  }

  std::optional<std::uint64_t> reference() const { return reference_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::optional<std::uint64_t> reference_;
};

// ---------------------------------------------------------------------------
// FNV-1a folding of simulated results; doubles fold bit-exactly.
// ---------------------------------------------------------------------------
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t x) { h = (h ^ x) * 0x100000001b3ULL; }
  void mix_double(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
};

void fold_report(Fnv& f, const core::RunReport& r) {
  f.mix_double(r.runtime_sec);
  f.mix(r.used_bytes);
  f.mix(r.fetched_bytes);
  f.mix(r.transactions);
  f.mix(r.steps);
  f.mix(r.frontier_vertices);
  f.mix(r.written_bytes);
  f.mix(r.write_transactions);
  f.mix(r.rmw_reads);
  f.mix(r.source);
  f.mix(r.graph_edges);
  f.mix_double(r.observed_read_latency_us);
  f.mix_double(r.avg_outstanding_reads);
}

void fold_serve(Fnv& f, const serve::ServeReport& r) {
  f.mix(r.offered);
  f.mix(r.admitted);
  f.mix(r.completed);
  f.mix(r.shed);
  f.mix(r.failed);
  f.mix(r.link_bytes);
  f.mix(r.query_bytes);
  f.mix(r.lost_bytes);
  f.mix(r.query_retries);
  f.mix_double(r.makespan_sec);
  f.mix_double(r.utilization);
  f.mix_double(r.latency_us.p50);
  f.mix_double(r.latency_us.p99);
  for (const serve::QueryRecord& q : r.queries) {
    f.mix(q.completion);
    f.mix(q.replica);
    f.mix(q.shed ? 1 : 0);
  }
}

void fold_fleet(Fnv& f, const serve::FleetReport& r) {
  fold_serve(f, r.serve);
  f.mix(r.shed_queue);
  f.mix(r.shed_quota);
  f.mix(r.shed_deadline);
  f.mix(r.crashes);
  f.mix(r.restarts);
  f.mix(r.io_error_retries);
  f.mix(r.link_degrade_windows);
  f.mix(r.incidents.size());
  for (const serve::ReplicaStats& s : r.replica_stats) {
    f.mix(s.served);
    f.mix(s.quanta);
    f.mix(s.link_bytes);
  }
}

// ---------------------------------------------------------------------------
// Host-time spans around calls into the library. Spans nest strictly (one
// thread, sequential calls), so a span's self time is its duration minus
// the summed durations of its direct children.
// ---------------------------------------------------------------------------
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
  };

  SpanLog() : t0_(Clock::now()) {}

  bool enabled = false;

  int open(const std::string& name) {
    if (!enabled) return -1;
    spans_.push_back(Span{name, now_us(), 0.0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[id].end_us = now_us();
    current_ = spans_[id].parent;
  }

  /// Self seconds summed per span name.
  std::map<std::string, double> self_seconds() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name] += (s.end_us - s.start_us - child_us[i]) * 1e-6;
    }
    return out;
  }

  /// Total seconds per span name.
  std::map<std::string, double> total_seconds() const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) out[s.name] += (s.end_us - s.start_us) * 1e-6;
    return out;
  }

  void write_chrome(std::ostream& os, const std::string& workload) const {
    os << "{\"traceEvents\":[\n"
          "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":1,"
          "\"args\":{\"name\":\"perfbench\"}},\n"
          "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,"
          "\"args\":{\"name\":\""
       << workload << "\"}}";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    ",\n{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"host\","
                    "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"id\":%zu,\"parent\":%d,\"workload\":\"%s\"}}",
                    s.name.c_str(), s.start_us, s.end_us - s.start_us, i,
                    s.parent, workload.c_str());
      os << buf;
    }
    os << "\n]}\n";
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }

  Clock::time_point t0_;
  std::vector<Span> spans_;
  int current_ = -1;
};

class Scoped {
 public:
  Scoped(SpanLog& log, const std::string& name)
      : log_(log), id_(log.open(name)) {}
  ~Scoped() { log_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Raw simulator churn: 256 self-rescheduling event chains drained through
// the public schedule/run API. The machine's speed on the library's own
// inner loop, used to normalise host times across machines.
// ---------------------------------------------------------------------------
struct Churn {
  sim::Simulator* sim = nullptr;
  std::uint16_t listener = 0;
  std::uint64_t remaining = 0;
  std::uint64_t rng = 42;
};

void churn_handler(void* self, std::uint16_t opcode, std::uint32_t a,
                   std::uint32_t b) {
  Churn& c = *static_cast<Churn*>(self);
  if (c.remaining == 0) return;
  --c.remaining;
  c.rng = c.rng * 6364136223846793005ULL + 1442695040888963407ULL;
  c.sim->schedule_after(1 + (c.rng >> 54), c.listener, opcode, a, b);
}

double sim_ns_per_event(std::uint64_t events) {
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    sim::Simulator sim;
    Churn churn;
    churn.sim = &sim;
    churn.remaining = events;
    churn.listener = sim.add_listener(&churn, churn_handler);
    for (std::uint32_t i = 0; i < 256; ++i) {
      sim.schedule_at(i, churn.listener, 0, i, 0);
    }
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t n = sim.run();
    samples.push_back(seconds_since(t0) * 1e9 / static_cast<double>(n));
  }
  return median(samples);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------
constexpr unsigned kGenJobs = 2;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one repetition did: its simulated-result checksum and how much
/// work it carried (for the rate metrics).
struct RepResult {
  std::uint64_t checksum = 0;
  std::uint64_t runs = 0;     // top-level library calls (run / serve)
  std::uint64_t queries = 0;  // graph queries those calls answered
  /// Traced repetitions only: host seconds spent in calls an untraced
  /// repetition does not make, left out of the tap-overhead comparison.
  double extra_s = 0.0;
};

/// Per-layer facts a traced repetition collects beyond its spans.
using Facts = std::map<std::string, double>;

/// Traced repetitions attach telemetry with metrics only: the event and
/// byte counters run, the span tracer and samplers stay off.
obs::TelemetryConfig metering_only() {
  obs::TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.trace = false;
  cfg.sample = false;
  return cfg;
}

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual graph::DatasetId dataset() const = 0;
  virtual unsigned scale() const = 0;
  virtual bool weighted() const { return false; }
  /// Untimed reference pass; its checksum seeds the gate.
  virtual RepResult reference(const graph::CsrGraph& g, Gate& gate) = 0;
  /// One timed, untraced repetition.
  virtual RepResult rep(const graph::CsrGraph& g, Gate& gate) = 0;
  /// One traced repetition: spans around each layer call, telemetry taps
  /// attached, per-layer facts accumulated into `facts`.
  virtual RepResult traced_rep(const graph::CsrGraph& g, Gate& gate,
                               SpanLog& spans, Facts& facts) = 0;
};

/// The paper's Fig. 9-11 grid plus the storage path (Fig. 6) and the
/// Sec.-5 write-back extension: 20 ExternalGraphRuntime runs on one graph.
class SweepWorkload final : public Workload {
 public:
  explicit SweepWorkload(bool tiny) : tiny_(tiny) {
    using core::Algorithm;
    using core::BackendKind;
    for (Algorithm alg : {Algorithm::kBfs, Algorithm::kPagerankScan,
                          Algorithm::kSsspDelta}) {
      points_.push_back({alg, BackendKind::kHostDram, std::nullopt});
      for (double us : {0.0, 1.0, 2.0, 4.0}) {
        points_.push_back({alg, BackendKind::kCxl, us});
      }
    }
    for (Algorithm alg : {Algorithm::kBfs, Algorithm::kPagerankScan}) {
      points_.push_back({alg, BackendKind::kXlfdd, std::nullopt});
      points_.push_back({alg, BackendKind::kBamNvme, std::nullopt});
    }
    points_.push_back({Algorithm::kBfsWriteback, BackendKind::kXlfdd,
                       std::nullopt});
  }

  graph::DatasetId dataset() const override { return graph::DatasetId::kUrand; }
  unsigned scale() const override { return tiny_ ? 10 : 16; }
  bool weighted() const override { return true; }

  RepResult reference(const graph::CsrGraph& g, Gate& gate) override {
    Fnv f;
    for (const Point& p : points_) {
      const core::TraceRunResult res = runtime(p).run_profiled(g, request(p));
      gate.calls();
      check_steps(res, p, gate);
      fold_report(f, res.report);
    }
    return {f.h, points_.size(), points_.size()};
  }

  RepResult rep(const graph::CsrGraph& g, Gate& gate) override {
    Fnv f;
    for (const Point& p : points_) {
      fold_report(f, runtime(p).run(g, request(p)));
      gate.calls();
    }
    return {f.h, points_.size(), points_.size()};
  }

  RepResult traced_rep(const graph::CsrGraph& g, Gate& gate, SpanLog& spans,
                       Facts& facts) override {
    obs::Telemetry telemetry(metering_only());
    memory_rt_.set_telemetry(&telemetry);
    storage_rt_.set_telemetry(&telemetry);
    Fnv f;
    std::uint64_t fetched = 0, used = 0, transactions = 0, reads = 0;
    double bfs_dram_sec = 0.0, bfs_cxl4_sec = 0.0;
    for (const Point& p : points_) {
      const core::RunRequest req = request(p);
      const graph::VertexId source = algo::pick_source(g, req.source_seed);
      algo::AccessTrace trace;
      {
        Scoped span(spans, "algo.make_trace");
        trace = runtime(p).make_trace(g, p.algorithm, source);
      }
      core::TraceRunResult res;
      {
        Scoped span(spans, is_memory(p) ? "replay.memory" : "replay.storage");
        res = runtime(p).run_trace(trace, req, g.edge_list_bytes());
      }
      gate.calls(2);
      res.report.source = source;
      res.report.graph_edges = g.num_edges();
      check_steps(res, p, gate);
      fold_report(f, res.report);
      if (p.algorithm == core::Algorithm::kBfs) {
        if (p.backend == core::BackendKind::kHostDram) {
          bfs_dram_sec = res.report.runtime_sec;
        } else if (p.added_us == 4.0) {
          bfs_cxl4_sec = res.report.runtime_sec;
        }
      }
      reads += trace.total_reads;
      fetched += res.report.fetched_bytes;
      used += res.report.used_bytes;
      transactions += res.report.transactions;
    }
    memory_rt_.set_telemetry(nullptr);
    storage_rt_.set_telemetry(nullptr);
    facts["algo.trace_reads"] += static_cast<double>(reads);
    facts["replay.events"] += static_cast<double>(
        telemetry.metrics().counter("sim", "events").value());
    facts["replay.fetched_mb"] += static_cast<double>(fetched) / 1e6;
    facts["replay.transactions"] += static_cast<double>(transactions);
    facts["replay.used_bytes"] += static_cast<double>(used);
    // Simulated BFS runtime at CXL +4 us over host DRAM: the paper's
    // headline latency-tolerance ratio.
    facts["paper.bfs_cxl4us_vs_dram"] += bfs_cxl4_sec / bfs_dram_sec;
    return {f.h, points_.size(), points_.size()};
  }

 private:
  struct Point {
    core::Algorithm algorithm;
    core::BackendKind backend;
    std::optional<double> added_us;
  };

  static bool is_memory(const Point& p) {
    return p.backend == core::BackendKind::kHostDram ||
           p.backend == core::BackendKind::kCxl;
  }

  /// Memory-path points run on the Table-4 (CXL) testbed, storage-path
  /// points on the Table-3 (XLFDD / NVMe) testbed, as in the paper.
  core::ExternalGraphRuntime& runtime(const Point& p) {
    return is_memory(p) ? memory_rt_ : storage_rt_;
  }

  static core::RunRequest request(const Point& p) {
    core::RunRequest req;
    req.algorithm = p.algorithm;
    req.backend = p.backend;
    if (p.added_us) req.cxl_added_latency = util::ps_from_us(*p.added_us);
    return req;
  }

  static void check_steps(const core::TraceRunResult& res, const Point& p,
                          Gate& gate) {
    std::uint64_t sum = 0;
    for (const std::uint64_t b : res.step_fetched_bytes) sum += b;
    gate.check(sum == res.report.fetched_bytes,
               "sweep " + core::to_string(p.algorithm) + "/" +
                   core::to_string(p.backend) +
                   ": step_fetched_bytes does not sum to fetched_bytes");
  }

  bool tiny_;
  std::vector<Point> points_;
  core::ExternalGraphRuntime memory_rt_{core::table4_system()};
  core::ExternalGraphRuntime storage_rt_{core::table3_system()};
};

/// The bfs / cc / pagerank-scan mix every serving workload offers, open-loop
/// Poisson. Serving stacks are the Table-3 system (PCIe Gen4) with the edge
/// list on CXL memory.
serve::WorkloadSpec serving_mix(std::uint64_t seed, std::uint32_t queries,
                                double qps, std::uint32_t source_pool,
                                double slo_ms) {
  serve::WorkloadSpec w;
  w.process = serve::ArrivalProcess::kOpenLoopPoisson;
  w.offered_qps = qps;
  w.num_queries = queries;
  w.seed = seed;
  w.source_pool = source_pool;
  for (core::Algorithm alg : {core::Algorithm::kBfs, core::Algorithm::kCc,
                              core::Algorithm::kPagerankScan}) {
    serve::QueryClass c;
    c.algorithm = alg;
    c.weight = 1.0;
    c.slo = util::ps_from_us(slo_ms * 1000.0);
    w.mix.push_back(c);
  }
  return w;
}

core::RunRequest cxl_base() {
  core::RunRequest base;
  base.backend = core::BackendKind::kCxl;
  return base;
}

void check_dispositions(const serve::ServeReport& r, const std::string& who,
                        Gate& gate) {
  gate.check(r.conservation_ok(), who + ": byte conservation broken");
  gate.check(r.completed + r.shed + r.failed == r.offered,
             who + ": completed + shed + failed != offered");
}

/// A solo QueryServer: profile-bound (serve-distinct) or queue-bound
/// (serve-churn) depending on the source pool and load.
class SoloServeWorkload final : public Workload {
 public:
  SoloServeWorkload(std::string name, graph::DatasetId dataset, unsigned scale,
                    unsigned jobs, serve::ServeRequest request)
      : name_(std::move(name)),
        dataset_(dataset),
        scale_(scale),
        jobs_(jobs),
        request_(std::move(request)) {}

  graph::DatasetId dataset() const override { return dataset_; }
  unsigned scale() const override { return scale_; }

  /// The reference pass profiles on one thread, so every timed repetition
  /// (at `jobs` threads) is checked against serial.
  RepResult reference(const graph::CsrGraph& g, Gate& gate) override {
    serve::QueryServer server(core::table3_system(), 1);
    return finish(server.serve(g, request_), gate);
  }

  RepResult rep(const graph::CsrGraph& g, Gate& gate) override {
    serve::QueryServer server(core::table3_system(), jobs_);
    return finish(server.serve(g, request_), gate);
  }

  RepResult traced_rep(const graph::CsrGraph& g, Gate& gate, SpanLog& spans,
                       Facts& facts) override {
    obs::Telemetry telemetry(metering_only());
    serve::QueryServer server(core::table3_system(), jobs_);
    server.set_telemetry(&telemetry);
    {
      Scoped span(spans, "serve.profile_workload");
      server.profile_workload(g, request_.base, request_.workload);
    }
    gate.calls();
    const std::uint64_t profiles = server.profiles_computed();
    serve::ServeReport report;
    {
      Scoped span(spans, "serve.serve");
      report = server.serve(g, request_);
    }
    gate.check(server.profiles_computed() == profiles,
               name_ + ": warm serve re-profiled");
    facts["serve.profiles"] += static_cast<double>(profiles);
    facts["serve.sim_p50_ms"] += report.latency_us.p50 / 1000.0;
    facts["serve.sim_p99_ms"] += report.latency_us.p99 / 1000.0;
    return finish(report, gate);
  }

 private:
  RepResult finish(const serve::ServeReport& r, Gate& gate) {
    gate.calls();
    check_dispositions(r, name_, gate);
    Fnv f;
    fold_serve(f, r);
    return {f.h, 1, r.offered};
  }

  std::string name_;
  graph::DatasetId dataset_;
  unsigned scale_;
  unsigned jobs_;
  serve::ServeRequest request_;
};

/// A 4-replica FleetServer under shedding and an active fault plan.
class FleetWorkload final : public Workload {
 public:
  FleetWorkload(unsigned scale, serve::FleetRequest request)
      : scale_(scale), request_(std::move(request)) {}

  graph::DatasetId dataset() const override { return graph::DatasetId::kUrand; }
  unsigned scale() const override { return scale_; }

  RepResult reference(const graph::CsrGraph& g, Gate& gate) override {
    return rep(g, gate);
  }

  RepResult rep(const graph::CsrGraph& g, Gate& gate) override {
    serve::FleetServer fleet(core::table3_system(), 1);
    return finish(fleet.serve(g, request_), gate);
  }

  RepResult traced_rep(const graph::CsrGraph& g, Gate& gate, SpanLog& spans,
                       Facts& facts) override {
    obs::Telemetry telemetry(metering_only());
    serve::FleetServer fleet(core::table3_system(), 1);
    fleet.set_telemetry(&telemetry);
    serve::FleetReport report;
    {
      Scoped span(spans, "fleet.serve.cold");
      report = fleet.serve(g, request_);
    }
    RepResult cold = finish(report, gate);
    const Clock::time_point t_warm = Clock::now();
    {
      Scoped span(spans, "fleet.serve.warm");
      report = fleet.serve(g, request_);
    }
    cold.extra_s = seconds_since(t_warm);
    const RepResult warm = finish(report, gate);
    gate.check(warm.checksum == cold.checksum,
               "fleet-churn: warm serve differs from cold serve");
    facts["fleet.sim_p99_ms"] += report.serve.latency_us.p99 / 1000.0;
    facts["fleet.utilization"] += report.serve.utilization;
    facts["fleet.shed"] += report.serve.shed;
    facts["fleet.failed"] += report.serve.failed;
    facts["fleet.query_retries"] += report.serve.query_retries;
    facts["fleet.io_retries"] += static_cast<double>(report.io_error_retries);
    facts["fleet.incidents"] += static_cast<double>(report.incidents.size());
    return cold;
  }

 private:
  RepResult finish(const serve::FleetReport& r, Gate& gate) {
    gate.calls();
    check_dispositions(r.serve, "fleet-churn", gate);
    gate.check(r.crashes >= 1, "fleet-churn: fault plan drew no crash");
    gate.check(r.serve.query_retries >= 1,
               "fleet-churn: no query was retried after a crash");
    gate.check(r.serve.makespan_sec >= request_.fleet.faults.horizon_sec,
               "fleet-churn: fault horizon outruns the simulated makespan");
    Fnv f;
    fold_fleet(f, r);
    return {f.h, 1, r.serve.offered};
  }

  unsigned scale_;
  serve::FleetRequest request_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny) {
  if (name == "sweep") return std::make_unique<SweepWorkload>(tiny);
  if (name == "serve-distinct") {
    serve::ServeRequest req;
    req.base = cxl_base();
    req.workload = serving_mix(seed, tiny ? 12 : 48, 2000.0, 0, 20.0);
    req.config.policy = serve::SchedulingPolicy::kFifo;
    return std::make_unique<SoloServeWorkload>(
        name, graph::DatasetId::kKron, tiny ? 10 : 14, 2, req);
  }
  if (name == "serve-churn") {
    serve::ServeRequest req;
    req.base = cxl_base();
    req.workload = serving_mix(seed, tiny ? 4000 : 1000000, 8000.0, 8, 20.0);
    req.config.policy = serve::SchedulingPolicy::kRoundRobin;
    req.config.quantum_supersteps = 2;
    return std::make_unique<SoloServeWorkload>(
        name, graph::DatasetId::kUrand, tiny ? 10 : 12, 1, req);
  }
  if (name == "fleet-churn") {
    serve::FleetRequest req;
    req.base = cxl_base();
    req.workload = serving_mix(seed, tiny ? 6000 : 1000000, 30000.0, 8, 2.0);
    req.fleet.replicas = 4;
    req.fleet.router = serve::RouterKind::kJoinShortestQueue;
    req.fleet.serve.policy = serve::SchedulingPolicy::kSloPriority;
    req.fleet.serve.quantum_supersteps = 2;
    req.fleet.slo_shedding = true;
    // Faults land over the first 80% of the arrival span, so every fault
    // meets live traffic; the gate checks the makespan outlasts them.
    const double horizon_ms =
        800.0 * req.workload.num_queries / req.workload.offered_qps;
    req.fleet.faults = fault::parse_fault_spec(
        "seed=7,horizon-ms=" + std::to_string(horizon_ms) +
        ",crashes=6,restart-ms=50,io-bursts=6,io-burst-ms=100,io-rate=0.3,"
        "link-flaps=4,flap-ms=100,flap-derate=0.5,query-retries=2,"
        "backoff-us=80");
    return std::make_unique<FleetWorkload>(tiny ? 10 : 12, req);
  }
  throw std::invalid_argument("unknown workload " + name);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------
void print_result(const Gate& gate, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += gate.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(gate.attempted());
  json += ", \"failed\": " + std::to_string(gate.failed());
  json += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

/// Writes the span log as Chrome trace-event JSON and validates the file
/// with the library's own trace checker.
void export_trace(const SpanLog& spans, const Args& args, Gate& gate) {
  if (args.trace_out.empty()) return;
  {
    std::ofstream out(args.trace_out);
    spans.write_chrome(out, args.workload);
    if (!gate.check(static_cast<bool>(out),
                    "cannot write trace " + args.trace_out)) {
      return;
    }
  }
  std::ifstream in(args.trace_out);
  const obs::TraceCheckResult check =
      obs::check_trace(obs::parse_json(in));
  gate.check(check.ok, "trace " + args.trace_out + ": " + check.error);
  std::printf("trace: %s (%zu spans, check %s)\n", args.trace_out.c_str(),
              check.spans, check.ok ? "ok" : "FAILED");
}

int run(const Args& args, Gate& gate) {
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed,
                                              args.tiny);
  SpanLog spans;
  spans.enabled = args.trace;
  std::printf("workload %s  seed %" PRIu64 "  size %s  trace %d  scale %u\n",
              args.workload.c_str(), args.seed, args.tiny ? "tiny" : "full",
              args.trace ? 1 : 0, w->scale());

  // Set-up: the graph is built at least three times and for at least a
  // second; the median is setup_s and every copy must be identical.
  std::vector<double> setup;
  graph::CsrGraph g;
  std::uint64_t graph_sum = 0;
  {
    Scoped root(spans, "setup");
    const Clock::time_point t_setup = Clock::now();
    for (int i = 0; i < 3 || (i < 25 && seconds_since(t_setup) < 1.0); ++i) {
      g = graph::CsrGraph();  // one graph alive at a time
      const Clock::time_point t0 = Clock::now();
      {
        Scoped span(spans, "graph.make_dataset");
        g = graph::make_dataset(w->dataset(), w->scale(), w->weighted(),
                                args.seed, kGenJobs);
      }
      setup.push_back(seconds_since(t0));
      gate.calls();
      Fnv f;
      for (const auto o : g.offsets()) f.mix(o);
      for (const auto e : g.edges()) f.mix(e);
      for (const auto wt : g.weights()) f.mix(wt);
      if (i == 0) graph_sum = f.h;
      gate.check(f.h == graph_sum, "make_dataset is not deterministic");
    }
  }
  std::printf("graph: %" PRIu64 " vertices, %" PRIu64 " edges\n",
              g.num_vertices(), g.num_edges());

  const RepResult ref = w->reference(g, gate);
  gate.same_checksum(ref.checksum, "reference");

  // Untimed phases above; the measured section starts here. Traced runs
  // give half the budget to untraced repetitions (the overhead baseline).
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  const std::size_t min_reps = args.trace ? 1 : 2;
  std::vector<double> rep_s, runs_rate, query_rate;
  const Clock::time_point t_measure = Clock::now();
  // A repetition starts only if a typical one still fits in the budget.
  while (rep_s.size() < min_reps ||
         seconds_since(t_measure) + median(rep_s) <= untraced_budget) {
    const Clock::time_point t0 = Clock::now();
    const RepResult r = w->rep(g, gate);
    const double dt = seconds_since(t0);
    gate.same_checksum(r.checksum, "rep " + std::to_string(rep_s.size()));
    rep_s.push_back(dt);
    runs_rate.push_back(static_cast<double>(r.runs) / dt);
    query_rate.push_back(static_cast<double>(r.queries) / dt);
  }

  char sum_hex[32];
  std::snprintf(sum_hex, sizeof sum_hex, "%016" PRIx64, *gate.reference());
  std::printf("checksum %s %s\n", args.workload.c_str(), sum_hex);
  if (args.expect_checksum) {
    gate.check(*args.expect_checksum == *gate.reference(),
               "checksum differs from --expect-checksum");
  }

  std::printf("rep seconds:");
  for (const double s : rep_s) std::printf(" %.4f", s);
  std::printf("\n");

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup), "s"},
        {"runs_per_s", median(runs_rate), "runs/s"},
        {"queries_per_s", median(query_rate), "queries/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::printf("end-to-end (%zu timed reps, median):\n", rep_s.size());
    print_table(metrics);
    std::printf("  %-28s %16.6f ratio (%" PRIu64 " failed / %" PRIu64
                " library calls + checks)\n",
                "failed_ops_frac",
                static_cast<double>(gate.failed()) /
                    static_cast<double>(std::max<std::uint64_t>(1, gate.attempted())),
                gate.failed(), gate.attempted());
    print_result(gate, metrics);
    return gate.failed() == 0 ? 0 : 1;
  }

  // Traced phase.
  Facts facts;
  std::vector<double> traced_s;
  const Clock::time_point t_traced = Clock::now();
  while (traced_s.empty() ||
         seconds_since(t_traced) + median(traced_s) <= args.seconds / 2) {
    const Clock::time_point t0 = Clock::now();
    RepResult r;
    {
      Scoped root(spans, args.workload + ".rep");
      r = w->traced_rep(g, gate, spans, facts);
    }
    traced_s.push_back(seconds_since(t0) - r.extra_s);
    gate.same_checksum(r.checksum,
                       "traced rep " + std::to_string(traced_s.size() - 1));
  }
  double sim_ns = 0.0;
  {
    Scoped span(spans, "sim.churn");
    sim_ns = sim_ns_per_event(args.tiny ? 200'000 : 2'000'000);
  }
  export_trace(spans, args, gate);

  const double reps = static_cast<double>(traced_s.size());
  const std::map<std::string, double> self = spans.self_seconds();
  const std::map<std::string, double> total = spans.total_seconds();
  const auto per_rep = [&](const std::map<std::string, double>& m,
                           const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second / reps;
  };
  const auto fact = [&](const std::string& key) { return per_rep(facts, key); };

  const double offered =
      static_cast<double>(ref.queries);  // per serve() call
  const double trace_s = per_rep(self, "algo.make_trace");
  const double memory_s = per_rep(self, "replay.memory");
  const double storage_s = per_rep(self, "replay.storage");
  const double events = fact("replay.events");
  const double profile_s = per_rep(self, "serve.profile_workload");
  const double queue_s = per_rep(self, "serve.serve");
  const double fleet_cold_s = per_rep(total, "fleet.serve.cold");
  const double fleet_warm_s = per_rep(total, "fleet.serve.warm");
  const double profiles = fact("serve.profiles");
  const double rep_total = per_rep(total, args.workload + ".rep");
  const double rep_self = per_rep(self, args.workload + ".rep");
  const double used_bytes = fact("replay.used_bytes");

  metrics = {
      {"graph.gen_s", median(setup), "s"},
      {"algo.trace_s", trace_s, "s"},
      {"algo.trace_reads", fact("algo.trace_reads"), "count"},
      {"replay.memory_s", memory_s, "s"},
      {"replay.storage_s", storage_s, "s"},
      {"replay.events", events, "count"},
      {"replay.ns_per_event",
       events > 0 ? (memory_s + storage_s) * 1e9 / events : 0.0, "ns"},
      {"sim.ns_per_event", sim_ns, "ns"},
      {"replay.fetched_mb", fact("replay.fetched_mb"), "MB"},
      {"replay.transactions", fact("replay.transactions"), "count"},
      {"replay.raf",
       used_bytes > 0 ? fact("replay.fetched_mb") * 1e6 / used_bytes : 0.0,
       "ratio"},
      {"paper.bfs_cxl4us_vs_dram", fact("paper.bfs_cxl4us_vs_dram"), "ratio"},
      {"serve.profile_s", profile_s, "s"},
      {"serve.profiles", profiles, "count"},
      {"serve.profile_reuse",
       profiles > 0 ? 1.0 - profiles / offered : 0.0, "ratio"},
      {"serve.queue_s", queue_s, "s"},
      {"serve.queue_ns_per_query", queue_s * 1e9 / offered, "ns"},
      {"fleet.profile_s", fleet_cold_s - fleet_warm_s, "s"},
      {"fleet.queue_s", fleet_warm_s, "s"},
      {"fleet.queue_ns_per_query", fleet_warm_s * 1e9 / offered, "ns"},
      {"serve.sim_p50_ms", fact("serve.sim_p50_ms"), "ms"},
      {"serve.sim_p99_ms", fact("serve.sim_p99_ms"), "ms"},
      {"fleet.sim_p99_ms", fact("fleet.sim_p99_ms"), "ms"},
      {"fleet.utilization", fact("fleet.utilization"), "ratio"},
      {"fleet.shed", fact("fleet.shed"), "count"},
      {"fleet.failed", fact("fleet.failed"), "count"},
      {"fleet.query_retries", fact("fleet.query_retries"), "count"},
      {"fleet.io_retries", fact("fleet.io_retries"), "count"},
      {"fleet.incidents", fact("fleet.incidents"), "count"},
      {"obs.tap_overhead_frac", median(traced_s) / median(rep_s) - 1.0,
       "ratio"},
      {"norm.host_over_sim_event", median(rep_s) * 1e9 / sim_ns, "events"},
      {"bench.unaccounted_frac", rep_total > 0 ? rep_self / rep_total : 0.0,
       "ratio"},
  };
  std::printf("per-layer (%zu traced reps, per-rep means; %zu untraced "
              "reps):\n", traced_s.size(), rep_s.size());
  print_table(metrics);
  std::printf("self time by span (s, all traced reps):\n");
  for (const auto& [name, s] : self) {
    std::printf("  %-28s %12.6f\n", name.c_str(), s);
  }
  print_result(gate, metrics);
  return gate.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  Gate gate;
  try {
    return run(args, gate);
  } catch (const std::exception& e) {
    gate.calls();  // the call that threw
    gate.fail(std::string("library call threw: ") + e.what());
    print_result(gate, {});
    return 1;
  }
}

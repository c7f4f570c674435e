#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "algo/bfs.hpp"
#include "core/experiment.hpp"
#include "core/experiment_runner.hpp"
#include "core/runtime.hpp"
#include "core/system_config.hpp"
#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "graph/generate.hpp"

namespace cxlgraph::core {
namespace {

graph::CsrGraph test_graph() {
  graph::GeneratorOptions opts;
  opts.max_weight = 63;
  return graph::generate_uniform(1 << 12, 16.0, opts);
}

constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kBfs,          Algorithm::kSssp,      Algorithm::kCc,
    Algorithm::kPagerankScan, Algorithm::kBfsDirOpt, Algorithm::kSsspDelta,
    Algorithm::kBfsWriteback};

/// Every report field, compared exactly (doubles bit for bit).
void expect_same_report(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.access_method, b.access_method);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.runtime_sec, b.runtime_sec);
  EXPECT_EQ(a.throughput_mbps, b.throughput_mbps);
  EXPECT_EQ(a.raf, b.raf);
  EXPECT_EQ(a.avg_transfer_bytes, b.avg_transfer_bytes);
  EXPECT_EQ(a.used_bytes, b.used_bytes);
  EXPECT_EQ(a.fetched_bytes, b.fetched_bytes);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.observed_read_latency_us, b.observed_read_latency_us);
  EXPECT_EQ(a.avg_outstanding_reads, b.avg_outstanding_reads);
  EXPECT_EQ(a.link_return_busy_sec, b.link_return_busy_sec);
  EXPECT_EQ(a.link_upstream_busy_sec, b.link_upstream_busy_sec);
  EXPECT_EQ(a.written_bytes, b.written_bytes);
  EXPECT_EQ(a.write_transactions, b.write_transactions);
  EXPECT_EQ(a.rmw_reads, b.rmw_reads);
  EXPECT_EQ(a.frontier_vertices, b.frontier_vertices);
  EXPECT_EQ(a.graph_edges, b.graph_edges);
}

RunRequest make_request(Algorithm algorithm, BackendKind backend,
                        std::optional<double> added_us = std::nullopt) {
  RunRequest req;
  req.algorithm = algorithm;
  req.backend = backend;
  if (added_us) req.cxl_added_latency = util::ps_from_us(*added_us);
  return req;
}

TEST(SystemConfig, NamesRoundTrip) {
  EXPECT_EQ(to_string(BackendKind::kHostDram), "host-dram");
  EXPECT_EQ(to_string(BackendKind::kCxl), "cxl");
  EXPECT_EQ(to_string(BackendKind::kXlfdd), "xlfdd");
  EXPECT_EQ(to_string(BackendKind::kBamNvme), "bam-nvme");
  EXPECT_EQ(to_string(Algorithm::kBfs), "bfs");
  EXPECT_EQ(to_string(Algorithm::kSssp), "sssp");
}

TEST(SystemConfig, Table3IsGen4AndTable4IsGen3) {
  EXPECT_EQ(table3_system().gpu_link_gen, device::PcieGen::kGen4);
  EXPECT_EQ(table4_system().gpu_link_gen, device::PcieGen::kGen3);
  EXPECT_EQ(table4_system().cxl_devices, 5u);
  EXPECT_EQ(table3_system().xlfdd_drives, 16u);
  EXPECT_EQ(table3_system().nvme_drives, 4u);
}

TEST(Runtime, RunsEveryBackend) {
  ExternalGraphRuntime rt(table4_system());
  const graph::CsrGraph g = test_graph();
  for (const BackendKind backend :
       {BackendKind::kHostDram, BackendKind::kHostDramRemote,
        BackendKind::kCxl, BackendKind::kXlfdd, BackendKind::kBamNvme,
        BackendKind::kUvm}) {
    RunRequest req;
    req.backend = backend;
    const RunReport r = rt.run(g, req);
    EXPECT_GT(r.runtime_sec, 0.0) << to_string(backend);
    EXPECT_GT(r.fetched_bytes, 0u) << to_string(backend);
    EXPECT_GE(r.raf, 0.9) << to_string(backend);
    EXPECT_EQ(r.backend, to_string(backend));
  }
}

TEST(Runtime, RunsEveryAlgorithm) {
  ExternalGraphRuntime rt(table4_system());
  const graph::CsrGraph g = test_graph();
  for (const Algorithm algorithm :
       {Algorithm::kBfs, Algorithm::kSssp, Algorithm::kCc,
        Algorithm::kPagerankScan}) {
    RunRequest req;
    req.algorithm = algorithm;
    const RunReport r = rt.run(g, req);
    EXPECT_GT(r.steps, 0u) << to_string(algorithm);
    EXPECT_GT(r.used_bytes, 0u) << to_string(algorithm);
  }
}

TEST(Runtime, DeterministicReports) {
  ExternalGraphRuntime rt(table4_system());
  const graph::CsrGraph g = test_graph();
  RunRequest req;
  req.backend = BackendKind::kCxl;
  const RunReport a = rt.run(g, req);
  const RunReport b = rt.run(g, req);
  EXPECT_EQ(a.runtime_sec, b.runtime_sec);
  EXPECT_EQ(a.fetched_bytes, b.fetched_bytes);
  EXPECT_EQ(a.source, b.source);
}

TEST(Runtime, ExplicitSourceIsHonored) {
  ExternalGraphRuntime rt(table4_system());
  const graph::CsrGraph g = test_graph();
  RunRequest req;
  req.source = 7;
  EXPECT_EQ(rt.run(g, req).source, 7u);
}

TEST(Runtime, ExplicitSourceRunsOnGraphWithoutEdges) {
  // pick_source needs an edge; a request that names its source must not
  // call it.
  ExternalGraphRuntime rt(table3_system());
  const graph::CsrGraph g = graph::build_csr_from_pairs(3, {});
  RunRequest req;
  req.algorithm = Algorithm::kPagerankScan;
  req.source = 1;
  const RunReport r = rt.run(g, req);
  EXPECT_EQ(r.source, 1u);
  EXPECT_EQ(r.graph_edges, 0u);
}

TEST(Runtime, SsspReadsMoreThanBfs) {
  // Weighted SSSP revisits vertices; its E must be at least BFS's.
  ExternalGraphRuntime rt(table4_system());
  const graph::CsrGraph g = test_graph();
  RunRequest bfs_req;
  bfs_req.algorithm = Algorithm::kBfs;
  RunRequest sssp_req;
  sssp_req.algorithm = Algorithm::kSssp;
  EXPECT_GE(rt.run(g, sssp_req).used_bytes, rt.run(g, bfs_req).used_bytes);
}

TEST(Runtime, CxlAddedLatencyKnobTakesEffect) {
  ExternalGraphRuntime rt(table4_system());
  const graph::CsrGraph g = test_graph();
  RunRequest fast;
  fast.backend = BackendKind::kCxl;
  fast.cxl_added_latency = 0;
  RunRequest slow = fast;
  slow.cxl_added_latency = util::ps_from_us(10.0);
  const RunReport rf = rt.run(g, fast);
  const RunReport rs = rt.run(g, slow);
  EXPECT_GT(rs.runtime_sec, rf.runtime_sec);
  EXPECT_GT(rs.observed_read_latency_us, rf.observed_read_latency_us + 5.0);
}

TEST(Runtime, AlignmentOverrideChangesTraffic) {
  ExternalGraphRuntime rt(table3_system());
  const graph::CsrGraph g = test_graph();
  RunRequest fine;
  fine.backend = BackendKind::kXlfdd;
  fine.alignment = 16;
  RunRequest coarse = fine;
  coarse.alignment = 512;
  EXPECT_LT(rt.run(g, fine).fetched_bytes, rt.run(g, coarse).fetched_bytes);
}

TEST(Runtime, BamLineOutsideDriveLimitsThrows) {
  ExternalGraphRuntime rt(table3_system());
  const graph::CsrGraph g = test_graph();
  RunRequest req;
  req.backend = BackendKind::kBamNvme;
  req.alignment = 16;  // below the NVMe 512 B minimum
  EXPECT_THROW(rt.run(g, req), std::invalid_argument);
}

TEST(Runtime, RemoteDramSlowerThanLocal) {
  ExternalGraphRuntime rt(table4_system());
  EXPECT_GT(rt.measure_latency_us(BackendKind::kHostDramRemote),
            rt.measure_latency_us(BackendKind::kHostDram));
}

TEST(Runtime, MeasuredCxlLatencyTracksKnob) {
  ExternalGraphRuntime rt(table4_system());
  const double base = rt.measure_latency_us(BackendKind::kCxl, 0);
  const double plus2 =
      rt.measure_latency_us(BackendKind::kCxl, util::ps_from_us(2.0));
  // The latency bridge absorbs the DRAM-access portion (Appendix A), so
  // the delta lands slightly under the programmed 2 us.
  EXPECT_NEAR(plus2 - base, 2.0, 0.25);
}

TEST(Runtime, PointerChaseRejectsStorageBackends) {
  ExternalGraphRuntime rt(table3_system());
  EXPECT_THROW(rt.measure_latency_us(BackendKind::kXlfdd),
               std::invalid_argument);
}

TEST(Runtime, MakeTraceMatchesAlgorithms) {
  ExternalGraphRuntime rt(table3_system());
  const graph::CsrGraph g = test_graph();
  const auto t = rt.make_trace(g, Algorithm::kPagerankScan, 0);
  EXPECT_EQ(t.total_sublist_bytes, g.edge_list_bytes());
}

// ---------------------------------------------------------- trace memo ----

// The memo keys source-independent algorithms on source 0; this pins the
// property that makes that sound, independently of the memo.
TEST(SourceIndependent, PredicateMatchesMakeTrace) {
  const ExternalGraphRuntime rt(table3_system());
  for (const graph::DatasetId dataset :
       {graph::DatasetId::kUrand, graph::DatasetId::kKron}) {
    const graph::CsrGraph g = graph::make_dataset(dataset, 10, true, 7, 1);
    std::vector<graph::VertexId> sources;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      sources.push_back(algo::pick_source(g, seed));
    }
    for (const Algorithm algorithm : kAllAlgorithms) {
      const algo::AccessTrace first = rt.make_trace(g, algorithm, sources[0]);
      bool any_differs = false;
      for (std::size_t i = 1; i < sources.size(); ++i) {
        if (!(rt.make_trace(g, algorithm, sources[i]) == first)) {
          any_differs = true;
        }
      }
      EXPECT_EQ(any_differs, !source_independent(algorithm))
          << to_string(algorithm) << " on " << static_cast<int>(dataset);
    }
  }
}

TEST(TraceMemo, RepeatedRunsMatchFreshRuntime) {
  const graph::CsrGraph g = test_graph();
  const std::vector<RunRequest> requests = {
      make_request(Algorithm::kBfs, BackendKind::kHostDram),
      make_request(Algorithm::kBfs, BackendKind::kCxl, 1.0),
      make_request(Algorithm::kPagerankScan, BackendKind::kXlfdd),
      make_request(Algorithm::kSsspDelta, BackendKind::kCxl, 2.0),
      make_request(Algorithm::kCc, BackendKind::kBamNvme),
      make_request(Algorithm::kBfsWriteback, BackendKind::kXlfdd),
  };
  ExternalGraphRuntime memo(table3_system());
  for (int pass = 0; pass < 2; ++pass) {
    for (const RunRequest& req : requests) {
      ExternalGraphRuntime fresh(table3_system());
      const TraceRunResult expected = fresh.run_profiled(g, req);
      const TraceRunResult got = memo.run_profiled(g, req);
      expect_same_report(got.report, expected.report);
      EXPECT_EQ(got.step_durations, expected.step_durations);
      EXPECT_EQ(got.step_fetched_bytes, expected.step_fetched_bytes);
      expect_same_report(memo.run(g, req), expected.report);
    }
  }
}

TEST(TraceMemo, LatencySweepBuildsOneTrace) {
  const graph::CsrGraph g = test_graph();
  ExternalGraphRuntime rt(table4_system());
  EXPECT_EQ(rt.traces_built(), 0u);
  for (const double us : {0.0, 1.0, 2.0, 4.0}) {
    rt.run(g, make_request(Algorithm::kBfs, BackendKind::kCxl, us));
  }
  EXPECT_EQ(rt.traces_built(), 1u);
  // make_trace is the pure builder: it neither fills nor reads the memo.
  rt.make_trace(g, Algorithm::kSssp, 0);
  EXPECT_EQ(rt.traces_built(), 1u);
}

TEST(TraceMemo, SourceIndependentAlgorithmsShareOneTrace) {
  const graph::CsrGraph g = test_graph();
  ExternalGraphRuntime rt(table4_system());
  RunRequest a = make_request(Algorithm::kCc, BackendKind::kCxl);
  a.source = 3;
  RunRequest b = a;
  b.source = 9;
  const RunReport ra = rt.run(g, a);
  const RunReport rb = rt.run(g, b);
  EXPECT_EQ(rt.traces_built(), 1u);
  EXPECT_EQ(ra.source, 3u);
  EXPECT_EQ(rb.source, 9u);
  EXPECT_EQ(ra.runtime_sec, rb.runtime_sec);
  EXPECT_EQ(ra.fetched_bytes, rb.fetched_bytes);

  // BFS depends on its source: two sources, two traces.
  RunRequest c = make_request(Algorithm::kBfs, BackendKind::kCxl);
  c.source = 3;
  RunRequest d = c;
  d.source = 9;
  rt.run(g, c);
  rt.run(g, d);
  EXPECT_EQ(rt.traces_built(), 3u);
}

TEST(TraceMemo, SameShapeDifferentContentMisses) {
  graph::GeneratorOptions opts;
  opts.clean = false;  // no dedup: the edge count is fixed by the shape
  opts.seed = 1;
  const graph::CsrGraph g1 = graph::generate_uniform(1 << 10, 8.0, opts);
  opts.seed = 2;
  const graph::CsrGraph g2 = graph::generate_uniform(1 << 10, 8.0, opts);
  ASSERT_EQ(g1.num_vertices(), g2.num_vertices());
  ASSERT_EQ(g1.num_edges(), g2.num_edges());
  ASSERT_NE(g1.fingerprint(), g2.fingerprint());

  RunRequest req = make_request(Algorithm::kBfs, BackendKind::kHostDram);
  req.source = 5;
  ExternalGraphRuntime rt(table4_system());
  rt.run(g1, req);
  const RunReport second = rt.run(g2, req);
  EXPECT_EQ(rt.traces_built(), 2u);
  ExternalGraphRuntime fresh(table4_system());
  expect_same_report(second, fresh.run(g2, req));

  // A copy has the same content, so it hits wherever it lives.
  const graph::CsrGraph copy = g2;
  rt.run(copy, req);
  EXPECT_EQ(rt.traces_built(), 2u);
}

TEST(TraceMemo, EvictionKeepsResultsIdentical) {
  const graph::CsrGraph g = test_graph();
  constexpr std::size_t kKeys = ExternalGraphRuntime::kTraceMemoCapacity + 2;
  std::vector<RunRequest> requests;
  for (std::size_t i = 0; i < kKeys; ++i) {
    RunRequest req = make_request(Algorithm::kBfs, BackendKind::kHostDram);
    req.source = 10 + i;
    requests.push_back(req);
  }
  ExternalGraphRuntime rt(table4_system());
  std::vector<RunReport> expected;
  for (const RunRequest& req : requests) {
    expected.push_back(ExternalGraphRuntime(table4_system()).run(g, req));
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < kKeys; ++i) {
      expect_same_report(rt.run(g, requests[i]), expected[i]);
    }
  }
  // Cycling through more keys than the capacity misses every time (LRU)...
  EXPECT_EQ(rt.traces_built(), 2 * kKeys);
  // ...while the most recent key is still resident.
  expect_same_report(rt.run(g, requests.back()), expected.back());
  EXPECT_EQ(rt.traces_built(), 2 * kKeys);
}

TEST(TraceMemo, FailedBuildIsNotCached) {
  const graph::CsrGraph g = test_graph();
  ExternalGraphRuntime rt(table4_system());
  RunRequest bad = make_request(Algorithm::kBfs, BackendKind::kHostDram);
  bad.source = g.num_vertices();  // out of range
  EXPECT_THROW(rt.run(g, bad), std::out_of_range);
  EXPECT_THROW(rt.run(g, bad), std::out_of_range);
  EXPECT_EQ(rt.traces_built(), 2u);
  RunRequest good = bad;
  good.source = 1;
  expect_same_report(rt.run(g, good),
                     ExternalGraphRuntime(table4_system()).run(g, good));
}

TEST(TraceMemo, ConcurrentRunsMatchSerial) {
  const graph::CsrGraph g = test_graph();
  std::vector<RunRequest> requests;
  for (const Algorithm algorithm :
       {Algorithm::kBfs, Algorithm::kCc, Algorithm::kPagerankScan,
        Algorithm::kSsspDelta}) {
    requests.push_back(make_request(algorithm, BackendKind::kHostDram));
    requests.push_back(make_request(algorithm, BackendKind::kCxl, 2.0));
  }
  std::vector<RunReport> expected;
  for (const RunRequest& req : requests) {
    expected.push_back(ExternalGraphRuntime(table4_system()).run(g, req));
  }

  constexpr std::size_t kThreads = 4;
  ExternalGraphRuntime shared(table4_system());
  std::vector<std::vector<RunReport>> got(
      kThreads, std::vector<RunReport>(requests.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the requests from a different offset, so the
      // same key is requested concurrently and in different orders.
      for (std::size_t k = 0; k < requests.size(); ++k) {
        const std::size_t i = (k + 2 * t) % requests.size();
        got[t][i] = shared.run(g, requests[i]);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      expect_same_report(got[t][i], expected[i]);
    }
  }
  // Four distinct traces fit the memo, and each is built exactly once.
  EXPECT_EQ(shared.traces_built(), 4u);
}

// --------------------------------------------------- experiment runner ----

TEST(ExperimentRunner, SerialModeCreatesNoPool) {
  ExperimentRunner runner(table3_system(), /*jobs=*/1);
  EXPECT_EQ(runner.workers(), 1u);
}

TEST(ExperimentRunner, EmptySweepReturnsEmpty) {
  ExperimentRunner runner(table3_system(), /*jobs=*/2);
  EXPECT_TRUE(runner.run_all(std::vector<SweepJob>{}).empty());
}

TEST(ExperimentRunner, ResultsComeBackInInsertionOrder) {
  const graph::CsrGraph g = test_graph();
  std::vector<RunRequest> requests;
  for (const BackendKind backend :
       {BackendKind::kHostDram, BackendKind::kCxl, BackendKind::kXlfdd,
        BackendKind::kBamNvme}) {
    RunRequest req;
    req.backend = backend;
    requests.push_back(req);
  }
  ExperimentRunner runner(table3_system(), /*jobs=*/4);
  const std::vector<RunReport> reports = runner.run_all(g, requests);
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(reports[0].backend, "host-dram");
  EXPECT_EQ(reports[1].backend, "cxl");
  EXPECT_EQ(reports[2].backend, "xlfdd");
  EXPECT_EQ(reports[3].backend, "bam-nvme");
}

TEST(ExperimentRunner, PerJobConfigOverrideIsHonored) {
  const graph::CsrGraph g = test_graph();
  SweepJob defaults;
  defaults.graph = &g;
  defaults.request.backend = BackendKind::kHostDram;
  SweepJob gen3 = defaults;
  SystemConfig cfg = table3_system();
  cfg.gpu_link_gen = device::PcieGen::kGen3;
  gen3.config = cfg;

  ExperimentRunner runner(table3_system(), /*jobs=*/2);
  const std::vector<RunReport> reports = runner.run_all({defaults, gen3});
  ASSERT_EQ(reports.size(), 2u);
  // Same workload on a half-bandwidth link must be slower.
  EXPECT_GT(reports[1].runtime_sec, reports[0].runtime_sec);
}

TEST(ExperimentRunner, NullGraphThrows) {
  ExperimentRunner runner(table3_system(), /*jobs=*/2);
  EXPECT_THROW(runner.run_all({SweepJob{}}), std::invalid_argument);
}

TEST(ExperimentRunner, WorkerExceptionPropagates) {
  const graph::CsrGraph g = test_graph();
  SweepJob bad;
  bad.graph = &g;
  bad.request.backend = BackendKind::kBamNvme;
  bad.request.alignment = 1;  // below the NVMe minimum transfer
  SweepJob good;
  good.graph = &g;
  good.request.backend = BackendKind::kHostDram;

  ExperimentRunner runner(table3_system(), /*jobs=*/2);
  EXPECT_THROW(runner.run_all({good, bad, good}), std::invalid_argument);
}

TEST(ExperimentRunner, RunTracesMatchesRun) {
  const graph::CsrGraph g = test_graph();
  RunRequest req;
  req.algorithm = Algorithm::kBfs;
  req.backend = BackendKind::kHostDram;

  ExternalGraphRuntime rt(table3_system());
  const RunReport expected = rt.run(g, req);
  const algo::AccessTrace trace =
      rt.make_trace(g, req.algorithm, expected.source);

  TraceJob job;
  job.trace = &trace;
  job.request = req;
  job.edge_list_bytes = g.edge_list_bytes();
  ExperimentRunner runner(table3_system(), /*jobs=*/2);
  const std::vector<TraceRunResult> results =
      runner.run_traces({job, job});
  ASSERT_EQ(results.size(), 2u);
  for (const TraceRunResult& r : results) {
    EXPECT_EQ(r.report.runtime_sec, expected.runtime_sec);
    EXPECT_EQ(r.report.fetched_bytes, expected.fetched_bytes);
    ASSERT_EQ(r.step_durations.size(), expected.steps);
    util::SimTime total = 0;
    for (const util::SimTime d : r.step_durations) total += d;
    EXPECT_EQ(util::sec_from_ps(total), expected.runtime_sec);
  }
  EXPECT_THROW(runner.run_traces({TraceJob{}}), std::invalid_argument);
}

TEST(ExperimentRunner, ParallelLatencySweepMatchesSerial) {
  const graph::CsrGraph g = test_graph();
  std::vector<RunRequest> requests;
  for (const Algorithm algorithm :
       {Algorithm::kBfs, Algorithm::kSsspDelta, Algorithm::kPagerankScan}) {
    requests.push_back(make_request(algorithm, BackendKind::kHostDram));
    for (const double us : {0.0, 1.0, 2.0, 4.0}) {
      requests.push_back(make_request(algorithm, BackendKind::kCxl, us));
    }
  }
  ExperimentRunner serial(table4_system(), /*jobs=*/1);
  ExperimentRunner parallel(table4_system(), /*jobs=*/4);
  const std::vector<RunReport> a = serial.run_all(g, requests);
  const std::vector<RunReport> b = parallel.run_all(g, requests);
  ASSERT_EQ(a.size(), requests.size());
  ASSERT_EQ(b.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_same_report(a[i], b[i]);
  }
}

TEST(ExperimentRunner, MapTasksPreservesOrderAndPropagates) {
  ExperimentRunner runner(table3_system(), /*jobs=*/4);
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([i] { return i * i; });
  }
  const std::vector<int> results = runner.map_tasks(tasks);
  ASSERT_EQ(results.size(), tasks.size());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(results[i], i * i);

  tasks[7] = []() -> int { throw std::runtime_error("boom"); };
  EXPECT_THROW(runner.map_tasks(tasks), std::runtime_error);
}

TEST(Experiment, MakeDatasetsParallelMatchesSerial) {
  ExperimentOptions serial;
  serial.scale = 10;
  serial.jobs = 1;
  ExperimentOptions parallel = serial;
  parallel.jobs = 0;
  const DatasetBundle a = make_datasets(serial);
  const DatasetBundle b = make_datasets(parallel);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].spec.name, b.entries[i].spec.name);
    EXPECT_EQ(a.entries[i].graph.offsets(), b.entries[i].graph.offsets());
    EXPECT_EQ(a.entries[i].graph.edges(), b.entries[i].graph.edges());
    EXPECT_EQ(a.entries[i].graph.weights(), b.entries[i].graph.weights());
  }
}

}  // namespace
}  // namespace cxlgraph::core

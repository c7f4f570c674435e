/// Serving extension: saturation curve of the multi-tenant query server.
///
/// Sweeps offered load (as multiples of the measured single-stack
/// capacity) x scheduling policy for a mixed analytics workload — BFS,
/// connected components, a PageRank-style scan, and optionally a
/// shard-spanning BFS class routed through ClusterRuntime — all sharing
/// one modeled GPU + interconnect + device stack. Each row reports
/// completed/goodput throughput, the exact per-query latency tail
/// (p50/p95/p99), queue-vs-service split, SLO violation and shed rates,
/// and server utilization: offered load is the new sweep axis the serving
/// layer opens.
///
/// --smoke runs a reduced deterministic sweep and fails (exit 1) if any
/// run breaks SLO-accounting conservation (sum of completed queries'
/// isolated-run bytes != bytes accounted quantum-by-quantum at the shared
/// link), if the exact percentiles are not ordered p50 <= p95 <= p99, or
/// if FIFO latency improves when the offered load rises.
///
/// --soak replaces the sweep with a sustained-load soak: one long serve at
/// a fixed load factor with the stack's thermal-throttling model enabled
/// (budget derived from a cold calibration run), reporting p99 over equal
/// makespan windows. Fails (exit 1) if the hot run's sustained-window p99
/// does not end up strictly above its cold-start-window p99.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graph/datasets.hpp"
#include "obs/telemetry.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace {

using namespace cxlgraph;

serve::WorkloadSpec make_spec(std::uint64_t seed, std::uint32_t queries,
                              double slo_us, std::uint32_t span_shards) {
  serve::WorkloadSpec spec;
  spec.seed = seed;
  spec.num_queries = queries;
  spec.source_pool = 8;
  serve::QueryClass bfs;
  bfs.algorithm = core::Algorithm::kBfs;
  bfs.weight = 3.0;
  bfs.slo = util::ps_from_us(slo_us);
  serve::QueryClass cc;
  cc.algorithm = core::Algorithm::kCc;
  cc.weight = 1.0;
  cc.slo = util::ps_from_us(4.0 * slo_us);
  serve::QueryClass scan;
  scan.algorithm = core::Algorithm::kPagerankScan;
  scan.weight = 1.0;
  scan.slo = util::ps_from_us(4.0 * slo_us);
  spec.mix = {bfs, cc, scan};
  if (span_shards >= 2) {
    serve::QueryClass sharded_bfs = bfs;
    sharded_bfs.weight = 1.0;
    sharded_bfs.shards = span_shards;
    sharded_bfs.strategy = partition::Strategy::kDegreeBalanced;
    spec.mix.push_back(sharded_bfs);
  }
  return spec;
}

/// Sustained-load soak with the stack thermal model on. The thermal budget
/// is calibrated from a cold (model-off) run of the same workload so the
/// soak throttles at any graph scale: the heat rate is the cold run's
/// link-byte rate, cooling absorbs half of it, and the budget is a small
/// fraction of the total heat the run deposits.
int run_soak(serve::ServeRequest request, const graph::CsrGraph& g,
             unsigned jobs, double load_factor, std::size_t windows,
             bool csv, obs::Telemetry* telemetry) {
  request.config.policy = serve::SchedulingPolicy::kFifo;

  serve::QueryServer cold_server(core::table3_system(), jobs);
  const double capacity_qps =
      bench::probe_capacity_qps(cold_server, g, request);
  request.workload.offered_qps = capacity_qps * load_factor;
  const serve::ServeReport cold = cold_server.serve(g, request);
  if (cold.completed == 0 || cold.makespan_sec <= 0.0) {
    throw std::runtime_error("soak: cold run completed no queries");
  }

  core::SystemConfig hot_config = core::table3_system();
  device::ThermalParams thermal;
  thermal.enabled = true;
  const double total_heat_mb =
      static_cast<double>(cold.link_bytes) / 1.0e6;
  thermal.heat_per_mb = 1.0;
  thermal.cool_per_sec = 0.5 * total_heat_mb / cold.makespan_sec;
  thermal.throttle_threshold = std::max(total_heat_mb * 0.05, 1e-6);
  thermal.hysteresis = 0.9;
  thermal.throttle_factor = 0.5;
  hot_config.cxl.thermal = thermal;
  hot_config.storage_thermal = thermal;

  // Only the hot run is traced: its throttle episodes and latency drift
  // are what the soak timeline is for.
  serve::QueryServer hot_server(std::move(hot_config), jobs);
  hot_server.set_telemetry(telemetry);
  const serve::ServeReport hot = hot_server.serve(g, request);

  const std::vector<serve::SoakWindow> cold_windows =
      serve::soak_windows(cold, windows);
  const std::vector<serve::SoakWindow> hot_windows =
      serve::soak_windows(hot, windows);

  if (!csv) {
    std::cout << "=== Serving soak: sustained load x"
              << util::fmt(load_factor, 2) << " with thermal throttling "
                 "===\n"
              << "capacity: " << util::fmt(capacity_qps, 1)
              << " qps, throttled quanta: " << hot.throttled_quanta
              << ", peak heat: " << util::fmt(hot.stack_peak_heat, 1)
              << " (budget " << util::fmt(thermal.throttle_threshold, 1)
              << ")\n\n";
  }
  util::TablePrinter table({"Window", "Start [s]", "End [s]", "Completed",
                            "Cold p99 [ms]", "Hot p99 [ms]"});
  for (std::size_t w = 0; w < hot_windows.size(); ++w) {
    table.add_row({std::to_string(w),
                   util::fmt(hot_windows[w].start_sec, 4),
                   util::fmt(hot_windows[w].end_sec, 4),
                   std::to_string(hot_windows[w].completed),
                   util::fmt(w < cold_windows.size()
                                 ? cold_windows[w].p99_us / 1e3
                                 : 0.0,
                             3),
                   util::fmt(hot_windows[w].p99_us / 1e3, 3)});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout << "\n";
  }

  int failures = 0;
  if (!hot.conservation_ok()) {
    std::cerr << "soak: CONSERVATION FAILED: link bytes " << hot.link_bytes
              << " != query bytes " << hot.query_bytes << "\n";
    ++failures;
  }
  if (hot.throttled_quanta == 0) {
    std::cerr << "soak: thermal model never throttled\n";
    ++failures;
  }
  // The acceptance property: sustained-load p99 strictly above the
  // cold-start p99 of the same (hot) run.
  const serve::SoakWindow& first = hot_windows.front();
  const serve::SoakWindow& last = hot_windows.back();
  if (!(last.p99_us > first.p99_us)) {
    std::cerr << "soak: sustained p99 (" << util::fmt(last.p99_us, 1)
              << " us) not above cold-start p99 ("
              << util::fmt(first.p99_us, 1) << " us)\n";
    ++failures;
  }
  if (failures > 0) {
    std::cerr << "soak: " << failures << " check(s) failed\n";
    return 1;
  }
  std::cerr << "serve_mix soak OK\n";
  return 0;
}

int run_serve_mix(int argc, char** argv) {
  util::CliParser cli;
  cli.add_option("dataset", "urand | kron | friendster", "urand");
  cli.add_option("scale", "log2 of dataset vertex count", "12");
  cli.add_option("seed", "random seed", "42");
  cli.add_option("backend",
                 "host-dram | host-dram-remote | cxl (shared stack)",
                 "cxl");
  cli.add_option("queries", "queries per serve run", "96");
  cli.add_option("slo-us",
                 "BFS-class SLO [us]; heavier classes get 4x", "15000");
  cli.add_option("policy",
                 "fifo | round-robin | slo-priority | all", "all");
  cli.add_option("quantum", "supersteps per preemptive turn", "4");
  cli.add_option("queue-cap",
                 "admission: max waiting queries (0 = unbounded)", "0");
  cli.add_option("loads",
                 "comma-separated offered-load factors (x capacity)",
                 "0.25,0.5,1,2,4");
  cli.add_option("span-shards",
                 "add a query class spanning this many shards (0 = off)",
                 "0");
  cli.add_option("jobs",
                 "worker threads for profiling "
                 "(0 = all cores, 1 = serial; results are identical)",
                 "0");
  cli.add_flag("smoke",
               "reduced sweep + conservation/ordering checks; exit 1 on "
               "failure");
  cli.add_flag("soak",
               "sustained-load soak with thermal throttling; windowed p99 "
               "over time, exit 1 if sustained p99 <= cold-start p99");
  cli.add_option("soak-load", "soak offered load (x capacity)", "0.8");
  cli.add_option("soak-windows", "makespan windows in the soak report",
                 "6");
  cli.add_flag("csv", "emit CSV instead of an aligned table");
  cli.add_flag("verbose", "log per-run progress to stderr");
  cli.add_option("trace-out",
                 "write a Chrome trace-event JSON timeline of the last "
                 "serve (soak: the hot run) here",
                 "");
  cli.add_option("metrics-out", "write a metrics snapshot JSON here", "");
  if (!cli.parse(argc, argv)) return 0;

  std::unique_ptr<obs::Telemetry> telemetry;
  if (!cli.get("trace-out").empty() || !cli.get("metrics-out").empty()) {
    telemetry =
        std::make_unique<obs::Telemetry>(obs::Telemetry::enabled_config());
  }
  const auto save_telemetry = [&cli, &telemetry]() {
    if (telemetry == nullptr) return 0;
    const std::string trace_path = cli.get("trace-out");
    if (!trace_path.empty() && !telemetry->save_trace(trace_path)) {
      std::cerr << "error: cannot write trace to " << trace_path << "\n";
      return 1;
    }
    const std::string metrics_path = cli.get("metrics-out");
    if (!metrics_path.empty() &&
        !telemetry->save_metrics(metrics_path)) {
      std::cerr << "error: cannot write metrics to " << metrics_path
                << "\n";
      return 1;
    }
    return 0;
  };

  const bool smoke = cli.get_bool("smoke");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const unsigned scale =
      smoke ? 10u : static_cast<unsigned>(cli.get_int("scale"));
  const auto queries = static_cast<std::uint32_t>(
      smoke ? 32 : cli.get_int("queries"));
  const double slo_us = cli.get_double("slo-us");
  const auto span_shards =
      static_cast<std::uint32_t>(cli.get_int("span-shards"));
  const auto jobs = cli.get_int("jobs");
  if (jobs < 0) throw std::invalid_argument("--jobs must be >= 0");
  if (cli.get_bool("verbose")) util::set_log_level(util::LogLevel::kInfo);

  std::vector<double> load_factors;
  if (smoke) {
    load_factors = {0.5, 2.0};
  } else {
    for (const std::string& item : util::split_csv(cli.get("loads"))) {
      std::size_t used = 0;
      const double factor = std::stod(item, &used);
      if (used != item.size() || !(factor > 0.0)) {
        throw std::invalid_argument("--loads: bad load factor '" + item +
                                    "'");
      }
      load_factors.push_back(factor);
    }
  }

  std::vector<serve::SchedulingPolicy> policies;
  if (cli.get("policy") == "all" || smoke) {
    policies = serve::all_policies();
  } else {
    policies = {serve::policy_from_name(cli.get("policy"))};
  }

  const graph::CsrGraph g = graph::make_dataset(
      graph::dataset_from_name(cli.get("dataset")), scale,
      /*weighted=*/true, seed);

  serve::QueryServer server(core::table3_system(),
                            static_cast<unsigned>(jobs));
  serve::ServeRequest base;
  base.base.backend = core::backend_from_name(cli.get("backend"));
  base.workload = make_spec(seed, queries, slo_us, span_shards);
  base.config.quantum_supersteps =
      static_cast<std::uint32_t>(cli.get_int("quantum"));
  base.config.max_waiting =
      static_cast<std::uint32_t>(cli.get_int("queue-cap"));

  if (cli.get_bool("soak")) {
    const double load = cli.get_double("soak-load");
    const auto windows =
        static_cast<std::size_t>(cli.get_int("soak-windows"));
    if (!(load > 0.0) || windows == 0) {
      throw std::invalid_argument("--soak-load/--soak-windows must be > 0");
    }
    const int rc = run_soak(base, g, static_cast<unsigned>(jobs), load,
                            windows, cli.get_bool("csv"), telemetry.get());
    const int save_rc = save_telemetry();
    return rc != 0 ? rc : save_rc;
  }

  const double capacity_qps = bench::probe_capacity_qps(server, g, base);

  if (!cli.get_bool("csv")) {
    std::cout << "=== Serving: offered-load sweep over one shared stack "
                 "===\n"
              << "dataset: " << cli.get("dataset") << ", scale: 2^"
              << scale << ", seed: " << seed << ", queries: " << queries
              << ", backend: " << core::to_string(base.base.backend)
              << "\ncapacity (1 / mean isolated service): "
              << util::fmt(capacity_qps, 1) << " qps\n\n";
  }

  util::TablePrinter table(
      {"Policy", "Load [x cap]", "Offered [qps]", "Completed [qps]",
       "Goodput [qps]", "p50 [ms]", "p95 [ms]", "p99 [ms]",
       "Queue p95 [ms]", "SLO viol", "Shed", "Util"});

  int failures = 0;
  double previous_fifo_p95 = -1.0;
  for (const serve::SchedulingPolicy policy : policies) {
    for (const double factor : load_factors) {
      serve::ServeRequest req = base;
      req.config.policy = policy;
      req.workload.offered_qps = capacity_qps * factor;
      // Only the sweep's final run is recorded: one serve = one timeline.
      server.set_telemetry(policy == policies.back() &&
                                   factor == load_factors.back()
                               ? telemetry.get()
                               : nullptr);
      const serve::ServeReport r = server.serve(g, req);
      if (cli.get_bool("verbose")) {
        CXLG_INFO("serve: " << r.policy << " x" << factor << ": p95="
                            << util::fmt(r.latency_us.p95 / 1e3, 2)
                            << " ms, util="
                            << util::fmt(r.utilization, 2));
      }

      if (!r.conservation_ok()) {
        std::cerr << "serve_mix: CONSERVATION FAILED (" << r.policy
                  << ", load x" << factor << "): link bytes "
                  << r.link_bytes << " != query bytes " << r.query_bytes
                  << "\n";
        ++failures;
      }
      if (!(r.latency_us.p50 <= r.latency_us.p95 &&
            r.latency_us.p95 <= r.latency_us.p99)) {
        std::cerr << "serve_mix: PERCENTILE ORDER FAILED (" << r.policy
                  << ", load x" << factor << ")\n";
        ++failures;
      }
      // Monotonicity only holds for ascending loads with an unbounded
      // queue; --loads is user-ordered, so this check is smoke-only.
      if (smoke && policy == serve::SchedulingPolicy::kFifo &&
          base.config.max_waiting == 0) {
        if (previous_fifo_p95 >= 0.0 &&
            r.latency_us.p95 < previous_fifo_p95) {
          std::cerr << "serve_mix: FIFO p95 improved as load rose (x"
                    << factor << ")\n";
          ++failures;
        }
        previous_fifo_p95 = r.latency_us.p95;
      }

      table.add_row(
          {r.policy, util::fmt(factor, 2),
           util::fmt(capacity_qps * factor, 1),
           util::fmt(r.completed_qps, 1), util::fmt(r.goodput_qps, 1),
           util::fmt(r.latency_us.p50 / 1e3, 3),
           util::fmt(r.latency_us.p95 / 1e3, 3),
           util::fmt(r.latency_us.p99 / 1e3, 3),
           util::fmt(r.queue_us.p95 / 1e3, 3),
           util::fmt(r.slo_violation_rate, 3),
           util::fmt(r.offered == 0
                         ? 0.0
                         : static_cast<double>(r.shed) /
                               static_cast<double>(r.offered),
                     3),
           util::fmt(r.utilization, 3)});
    }
  }

  if (cli.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout << "\n";
  }
  if (failures > 0) {
    std::cerr << "serve_mix: " << failures << " check(s) failed\n";
    return 1;
  }
  if (smoke) std::cerr << "serve_mix smoke OK\n";
  return save_telemetry();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_serve_mix(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

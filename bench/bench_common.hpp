#pragma once
/// Shared boilerplate for the figure/table bench binaries: CLI handling,
/// paper-reference banner, and table emission (pretty or CSV).

#include <algorithm>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/experiment_runner.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

namespace cxlgraph::bench {

struct BenchArgs {
  core::ExperimentOptions options;
  bool csv = false;
};

/// Parses --scale/--seed/--jobs/--csv/--verbose. Returns false if --help
/// was requested (caller should exit 0).
inline bool parse_args(int argc, char** argv, BenchArgs& args,
                       unsigned default_scale = 16) {
  util::CliParser cli;
  cli.add_option("scale", "log2 of dataset vertex count",
                 std::to_string(default_scale));
  cli.add_option("seed", "random seed", "42");
  cli.add_option("jobs",
                 "worker threads for independent sweep configs "
                 "(0 = all cores, 1 = serial; results are identical)",
                 "0");
  cli.add_flag("csv", "emit CSV instead of an aligned table");
  cli.add_flag("verbose", "log per-run progress to stderr");
  if (!cli.parse(argc, argv)) return false;
  args.options.scale = static_cast<unsigned>(cli.get_int("scale"));
  args.options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto jobs = cli.get_int("jobs");
  if (jobs < 0) {
    throw std::invalid_argument("--jobs must be >= 0");
  }
  args.options.jobs = static_cast<unsigned>(jobs);
  args.options.verbose = cli.get_bool("verbose");
  args.csv = cli.get_bool("csv");
  if (args.options.verbose) {
    util::set_log_level(util::LogLevel::kInfo);
  }
  return true;
}

/// Fans a sweep's independent configurations across options.jobs worker
/// threads; reports come back in insertion order, bit-identical to running
/// the jobs serially. Honors --verbose (one log line per run, in order).
inline std::vector<core::RunReport> run_sweep(
    const core::SystemConfig& config, const core::ExperimentOptions& options,
    const std::vector<core::SweepJob>& jobs) {
  return core::run_sweep(config, options, jobs);
}

/// Mean isolated service time (us) of the mix, from a one-query-at-a-time
/// probe serve at negligible load (FIFO, unbounded queue, at most 24
/// queries); 1e6 / mean is the one-stack capacity in qps.
inline double probe_capacity_qps(serve::QueryServer& server,
                                 const graph::CsrGraph& g,
                                 serve::ServeRequest request) {
  request.workload.offered_qps = 0.001;
  request.workload.num_queries =
      std::min<std::uint32_t>(request.workload.num_queries, 24);
  request.config.policy = serve::SchedulingPolicy::kFifo;
  request.config.max_waiting = 0;
  const serve::ServeReport probe = server.serve(g, request);
  if (probe.service_us.mean <= 0.0) {
    throw std::runtime_error("probe serve produced no service time");
  }
  return 1.0e6 / probe.service_us.mean;
}

/// Record-level identity of two serve reports, fault ledger included:
/// the comparator behind the serving benches' identity gates (solo vs
/// one-replica fleet, zero-rate fault plan vs none, --jobs 1 vs N).
inline bool reports_bit_identical(const serve::ServeReport& a,
                                  const serve::ServeReport& b) {
  if (a.queries.size() != b.queries.size()) return false;
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    const serve::QueryRecord& x = a.queries[i];
    const serve::QueryRecord& y = b.queries[i];
    if (x.arrival != y.arrival || x.first_service != y.first_service ||
        x.completion != y.completion || x.service_ps != y.service_ps ||
        x.queue_ps != y.queue_ps || x.service_bytes != y.service_bytes ||
        x.replica != y.replica || x.shed != y.shed ||
        x.slo_violated != y.slo_violated || x.retries != y.retries ||
        x.lost_ps != y.lost_ps || x.lost_bytes != y.lost_bytes ||
        x.failed != y.failed) {
      return false;
    }
  }
  return a.completed == b.completed && a.shed == b.shed &&
         a.failed == b.failed && a.link_bytes == b.link_bytes &&
         a.query_bytes == b.query_bytes && a.lost_bytes == b.lost_bytes &&
         a.query_retries == b.query_retries &&
         a.makespan_sec == b.makespan_sec &&
         a.latency_us.p99 == b.latency_us.p99 &&
         a.utilization == b.utilization;
}

/// Standard bench body: banner, run, emit.
inline int run_bench(
    int argc, char** argv, const std::string& title,
    const std::string& paper_expectation,
    const std::function<util::TablePrinter(const core::ExperimentOptions&)>&
        make_table,
    unsigned default_scale = 16) {
  BenchArgs args;
  if (!parse_args(argc, argv, args, default_scale)) return 0;
  if (!args.csv) {
    std::cout << "=== " << title << " ===\n"
              << "scale: 2^" << args.options.scale
              << " vertices, seed: " << args.options.seed << "\n"
              << "paper: " << paper_expectation << "\n\n";
  }
  const util::TablePrinter table = make_table(args.options);
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}

}  // namespace cxlgraph::bench

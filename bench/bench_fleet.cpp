/// Serving extension: fleet scaling — replicated stacks behind a router.
///
/// Three sections:
///
///  1. Sweep — fleet size x router x offered load (as multiples of the
///     measured single-stack capacity) for the mixed analytics workload.
///     Each row reports completed/goodput throughput, the exact latency
///     tail, shed decomposition (queue / quota / deadline), and fleet
///     utilization (busy time over summed replica lifetimes) — the
///     replica axis is what the fleet layer opens on top of the serving
///     sweep.
///
///  2. Migration — a tenant class live-migrates between replicas mid-run:
///     waiting queries drain immediately, the in-flight query hands off
///     at its next preemption point, and the tenant's resident state is
///     charged to the interconnect as a copy delay before the moved
///     queries resume on the target.
///
///  3. Elastic — the controller grows/drains the fleet from the observed
///     waiting-depth series; each scaling event prints the p99 latency
///     transient in the windows before and after it.
///
/// --smoke runs a reduced deterministic sweep and fails (exit 1) if any
/// run breaks byte conservation, if the single-replica fleet drifts from
/// QueryServer::serve (record-level bit-identity — the acceptance gate),
/// if the migration moves nothing or unbalances the ledger, or if the
/// elastic controller never scales under a saturating burst.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graph/datasets.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace cxlgraph;

serve::WorkloadSpec make_spec(std::uint64_t seed, std::uint32_t queries,
                              double slo_us) {
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
  return spec;
}

int run_fleet(int argc, char** argv) {
  util::CliParser cli;
  cli.add_option("dataset", "urand | kron | friendster", "urand");
  cli.add_option("scale", "log2 of dataset vertex count", "12");
  cli.add_option("seed", "workload + graph seed", "7");
  cli.add_option("backend", "serving backend", "cxl");
  cli.add_option("queries", "queries per serve", "96");
  cli.add_option("slo-us", "base (BFS-class) SLO in microseconds", "2000");
  cli.add_option("replicas", "comma-separated fleet sizes", "1,2,4");
  cli.add_option("router",
                 "random | join-shortest-queue | class-affinity | all",
                 "all");
  cli.add_option("policy", "per-replica scheduling policy", "slo-priority");
  cli.add_option("quantum", "supersteps per preemptive turn", "4");
  cli.add_option("queue-cap",
                 "per-replica max waiting queries (0 = unbounded)", "0");
  cli.add_option("loads",
                 "comma-separated offered-load factors (x one-stack "
                 "capacity)",
                 "0.5,1,2,4");
  cli.add_option("jobs", "profiling worker threads (0 = all cores)", "0");
  cli.add_flag("smoke",
               "reduced sweep + conservation / single-replica-identity / "
               "migration / elastic checks; exit 1 on failure");
  cli.add_flag("csv", "emit CSV instead of an aligned table");
  cli.add_flag("verbose", "log per-run progress to stderr");
  if (!cli.parse(argc, argv)) return 0;

  const bool smoke = cli.get_bool("smoke");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const unsigned scale =
      smoke ? 10u : static_cast<unsigned>(cli.get_int("scale"));
  const auto queries =
      static_cast<std::uint32_t>(smoke ? 32 : cli.get_int("queries"));
  const double slo_us = cli.get_double("slo-us");
  const auto jobs = static_cast<unsigned>(cli.get_int("jobs"));
  if (cli.get_bool("verbose")) util::set_log_level(util::LogLevel::kInfo);

  std::vector<std::uint32_t> fleet_sizes;
  std::vector<double> load_factors;
  if (smoke) {
    fleet_sizes = {1, 2};
    load_factors = {0.5, 2.0};
  } else {
    for (const std::string& item : util::split_csv(cli.get("replicas"))) {
      fleet_sizes.push_back(
          static_cast<std::uint32_t>(std::stoul(item)));
    }
    for (const std::string& item : util::split_csv(cli.get("loads"))) {
      load_factors.push_back(std::stod(item));
    }
  }
  std::vector<serve::RouterKind> routers;
  if (cli.get("router") == "all" || smoke) {
    routers = serve::all_routers();
  } else {
    routers = {serve::router_from_name(cli.get("router"))};
  }

  const graph::CsrGraph g = graph::make_dataset(
      graph::dataset_from_name(cli.get("dataset")), scale,
      /*weighted=*/true, seed);

  serve::FleetRequest base;
  base.base.backend = core::backend_from_name(cli.get("backend"));
  base.workload = make_spec(seed, queries, slo_us);
  base.fleet.serve.policy = serve::policy_from_name(cli.get("policy"));
  base.fleet.serve.quantum_supersteps =
      static_cast<std::uint32_t>(cli.get_int("quantum"));
  base.fleet.serve.max_waiting =
      static_cast<std::uint32_t>(cli.get_int("queue-cap"));

  // One FleetServer for everything: every run of the sweep replays the
  // same cached idle-stack profiles.
  serve::FleetServer fleet(core::table3_system(), jobs);
  serve::QueryServer probe_server(core::table3_system(), jobs);
  const double capacity_qps =
      bench::probe_capacity_qps(probe_server, g,
                                {base.base, base.workload, {}});
  std::cout << "dataset: " << cli.get("dataset") << ", scale: 2^" << scale
            << ", one-stack capacity: " << util::fmt(capacity_qps, 1)
            << " qps\n\n";

  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "fleet check FAILED: " << what << "\n";
      ++failures;
    }
  };

  // -------------------------------------------------------------------
  // Single-replica identity: the acceptance gate, checked in smoke.
  // -------------------------------------------------------------------
  if (smoke) {
    serve::FleetRequest freq = base;
    freq.workload.offered_qps = capacity_qps;
    freq.fleet.replicas = 1;
    freq.fleet.router = serve::RouterKind::kRandom;
    serve::ServeRequest sreq;
    sreq.base = freq.base;
    sreq.workload = freq.workload;
    sreq.config = freq.fleet.serve;
    const serve::ServeReport solo = probe_server.serve(g, sreq);
    const serve::FleetReport one = fleet.serve(g, freq);
    check(bench::reports_bit_identical(solo, one.serve),
          "replicas=1 fleet is not bit-identical to QueryServer::serve");
  }

  // -------------------------------------------------------------------
  // Sweep: fleet size x router x load.
  // -------------------------------------------------------------------
  util::TablePrinter table({"replicas", "router", "load_x", "offered_qps",
                            "done_qps", "goodput", "p50_ms", "p99_ms",
                            "shed_q/quota/slo", "util"});
  for (const std::uint32_t replicas : fleet_sizes) {
    for (const serve::RouterKind router : routers) {
      for (const double factor : load_factors) {
        serve::FleetRequest req = base;
        req.fleet.replicas = replicas;
        req.fleet.router = router;
        // Load scales with the fleet: factor x aggregate capacity.
        req.workload.offered_qps = capacity_qps * factor * replicas;
        const serve::FleetReport r = fleet.serve(g, req);
        check(r.serve.conservation_ok(),
              "conservation: " + std::to_string(replicas) + " x " +
                  to_string(router));
        check(r.shed_queue + r.shed_quota + r.shed_deadline == r.serve.shed,
              "shed decomposition: " + to_string(router));
        table.add_row(
            {std::to_string(replicas), to_string(router),
             util::fmt(factor, 2), util::fmt(req.workload.offered_qps, 1),
             util::fmt(r.serve.completed_qps, 1),
             util::fmt(r.serve.goodput_qps, 1),
             util::fmt(r.serve.latency_us.p50 / 1e3, 3),
             util::fmt(r.serve.latency_us.p99 / 1e3, 3),
             std::to_string(r.shed_queue) + "/" +
                 std::to_string(r.shed_quota) + "/" +
                 std::to_string(r.shed_deadline),
             util::fmt(r.serve.utilization, 3)});
      }
    }
  }
  if (cli.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  // -------------------------------------------------------------------
  // Live migration: tenant 0 moves between replicas mid-run.
  // -------------------------------------------------------------------
  {
    serve::FleetRequest req = base;
    req.fleet.replicas = 2;
    req.fleet.router = serve::RouterKind::kClassAffinity;
    req.fleet.serve.policy = serve::SchedulingPolicy::kRoundRobin;
    req.fleet.serve.quantum_supersteps = 1;
    req.workload.offered_qps = capacity_qps * 2.0;
    const serve::FleetReport before = fleet.serve(g, req);
    req.fleet.migrations = {serve::MigrationPlan{
        before.serve.makespan_sec / 3.0, /*class_index=*/0, /*from=*/0,
        /*to=*/1}};
    const serve::FleetReport r = fleet.serve(g, req);
    std::cout << "\n=== live migration (tenant 0: replica 0 -> 1 at "
              << util::fmt(req.fleet.migrations[0].at_sec * 1e3, 2)
              << " ms) ===\n";
    for (const serve::MigrationRecord& m : r.migrations) {
      std::cout << "  moved " << m.moved_waiting << " waiting"
                << (m.moved_active ? " + 1 in-flight (mid-serve)" : "")
                << ", state " << util::format_bytes(m.state_bytes)
                << ", copy " << util::fmt(m.copy_sec * 1e6, 1) << " us\n";
    }
    std::cout << "  p99 " << util::fmt(before.serve.latency_us.p99 / 1e3, 3)
              << " -> " << util::fmt(r.serve.latency_us.p99 / 1e3, 3)
              << " ms, conservation "
              << (r.serve.conservation_ok() ? "ok" : "VIOLATED") << "\n";
    check(r.serve.conservation_ok(), "migration byte conservation");
    check(!r.migrations.empty() && r.migrations[0].state_bytes > 0,
          "migration moved no state");
    check(r.serve.completed + r.serve.shed == r.serve.offered,
          "migration lost queries");
  }

  // -------------------------------------------------------------------
  // Elastic controller: grow from 1 under a saturating burst.
  // -------------------------------------------------------------------
  {
    serve::FleetRequest req = base;
    req.fleet.replicas = 1;
    req.fleet.router = serve::RouterKind::kJoinShortestQueue;
    req.workload.offered_qps = capacity_qps * 8.0;
    const serve::FleetReport fixed = fleet.serve(g, req);
    req.fleet.elastic.enabled = true;
    req.fleet.elastic.min_replicas = 1;
    req.fleet.elastic.max_replicas = 4;
    req.fleet.elastic.check_interval_sec = fixed.serve.makespan_sec / 40.0;
    req.fleet.elastic.scale_up_depth = 4.0;
    req.fleet.elastic.scale_down_depth = 0.5;
    req.fleet.elastic.cooldown_intervals = 1;
    const serve::FleetReport r = fleet.serve(g, req);
    std::cout << "\n=== elastic controller (1 -> up to 4 replicas, "
              << "8x load burst) ===\n"
              << "  peak replicas " << r.peak_replicas << ", makespan "
              << util::fmt(fixed.serve.makespan_sec * 1e3, 2) << " -> "
              << util::fmt(r.serve.makespan_sec * 1e3, 2) << " ms, p99 "
              << util::fmt(fixed.serve.latency_us.p99 / 1e3, 3) << " -> "
              << util::fmt(r.serve.latency_us.p99 / 1e3, 3) << " ms\n";
    for (const serve::ScalingEvent& ev : r.scaling_events) {
      std::cout << "  " << (ev.added ? "scale-up  " : "scale-down")
                << " t=" << util::fmt(ev.at_sec * 1e3, 3) << " ms replica "
                << ev.replica << " (depth/replica "
                << util::fmt(ev.depth_per_replica, 1) << ", routable "
                << ev.routable_after << "): p99 transient "
                << util::fmt(ev.p99_before_us / 1e3, 3) << " -> "
                << util::fmt(ev.p99_after_us / 1e3, 3) << " ms ("
                << ev.completions_before << "/" << ev.completions_after
                << " completions)\n";
    }
    check(r.serve.conservation_ok(), "elastic byte conservation");
    check(r.serve.completed == r.serve.offered, "elastic lost queries");
    if (smoke) {
      check(r.peak_replicas > 1,
            "elastic controller never scaled under 8x burst");
      bool grew = false;
      for (const serve::ScalingEvent& ev : r.scaling_events) {
        grew = grew || ev.added;
      }
      check(grew, "no scale-up event recorded");
    }
  }

  if (failures > 0) {
    std::cerr << "bench_fleet: " << failures << " check(s) failed\n";
    return 1;
  }
  if (smoke) std::cerr << "fleet smoke OK\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_fleet(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

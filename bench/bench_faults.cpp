/// Robustness extension: deterministic fault injection over the serving
/// fleet (src/fault).
///
/// Sweep — fault intensity x router x offered load (as multiples of the
/// measured single-stack capacity) for the mixed analytics workload.
/// Each row reports availability (completed / (completed + failed)),
/// completed and goodput throughput, the failure/retry/lost-work ledger,
/// and the latency tail — the availability-under-faults surface the
/// fault layer opens on top of the fleet sweep.
///
/// A second section replays one crash-heavy run and prints the recovery
/// timeline: crash/restart/replacement counts, per-replica downtime, and
/// the health monitor's replica-down incidents.
///
/// --smoke runs a reduced deterministic sweep and fails (exit 1) if any
/// run breaks the extended byte-conservation ledger (link == query +
/// lost), if terminal dispositions do not partition admitted work
/// (completed + shed + failed == offered), if a zero-rate fault plan is
/// not record-identical to the plain fleet path, if the same faulted run
/// differs across profiling thread counts, or if the crash plan produces
/// no crashes.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "fault/fault.hpp"
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

/// A named fault intensity: the spec is scaled to the run's arrival
/// window so every level exercises the same fraction of the stream.
struct FaultLevel {
  std::string name;
  double crashes = 0;     ///< crash count per horizon
  double io_rate = 0.0;   ///< per-draw error probability inside bursts
  bool link_flap = false;
};

fault::FaultSpec make_plan(const FaultLevel& level, double horizon_sec) {
  fault::FaultSpec spec;
  if (level.crashes <= 0 && level.io_rate <= 0 && !level.link_flap) {
    return spec;  // disabled — the plain fleet path
  }
  spec.seed = 0xfa017u;
  spec.horizon_sec = horizon_sec;
  spec.crashes = static_cast<std::uint32_t>(level.crashes);
  spec.restart_sec = horizon_sec / 8.0;
  spec.io_bursts = level.io_rate > 0 ? 2 : 0;
  spec.io_burst_sec = horizon_sec / 6.0;
  spec.io_error_rate = level.io_rate;
  spec.io_retry_us = 40.0;
  spec.link_flaps = level.link_flap ? 1 : 0;
  spec.flap_sec = horizon_sec / 8.0;
  spec.flap_derate = 0.5;
  spec.max_query_retries = 3;
  spec.retry_backoff_us = 80.0;
  return spec;
}

int run_faults(int argc, char** argv) {
  util::CliParser cli;
  cli.add_option("dataset", "urand | kron | friendster", "urand");
  cli.add_option("scale", "log2 of dataset vertex count", "12");
  cli.add_option("seed", "workload + graph seed", "7");
  cli.add_option("backend", "serving backend", "cxl");
  cli.add_option("queries", "queries per serve", "96");
  cli.add_option("slo-us", "base (BFS-class) SLO in microseconds", "2000");
  cli.add_option("replicas", "fleet size", "3");
  cli.add_option("router",
                 "random | join-shortest-queue | class-affinity | all",
                 "all");
  cli.add_option("policy", "per-replica scheduling policy", "slo-priority");
  cli.add_option("loads",
                 "comma-separated offered-load factors (x one-stack "
                 "capacity)",
                 "0.5,1,2");
  cli.add_option("jobs", "profiling worker threads (0 = all cores)", "0");
  cli.add_flag("smoke",
               "reduced sweep + conservation / partition / zero-rate "
               "identity / cross-jobs determinism checks; exit 1 on "
               "failure");
  cli.add_flag("csv", "emit CSV instead of an aligned table");
  cli.add_flag("verbose", "log per-run progress to stderr");
  if (!cli.parse(argc, argv)) return 0;

  const bool smoke = cli.get_bool("smoke");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const unsigned scale =
      smoke ? 10u : static_cast<unsigned>(cli.get_int("scale"));
  const auto queries =
      static_cast<std::uint32_t>(smoke ? 48 : cli.get_int("queries"));
  const double slo_us = cli.get_double("slo-us");
  const auto jobs = static_cast<unsigned>(cli.get_int("jobs"));
  const auto replicas =
      static_cast<std::uint32_t>(cli.get_int("replicas"));
  if (cli.get_bool("verbose")) util::set_log_level(util::LogLevel::kInfo);

  std::vector<double> load_factors;
  if (smoke) {
    load_factors = {2.0};
  } else {
    for (const std::string& item : util::split_csv(cli.get("loads"))) {
      load_factors.push_back(std::stod(item));
    }
  }
  std::vector<serve::RouterKind> routers;
  if (cli.get("router") == "all") {
    routers = serve::all_routers();
  } else if (smoke) {
    routers = {serve::RouterKind::kRandom,
               serve::RouterKind::kJoinShortestQueue};
  } else {
    routers = {serve::router_from_name(cli.get("router"))};
  }
  const std::vector<FaultLevel> levels = {
      {"none", 0, 0.0, false},
      {"io-light", 0, 0.1, false},
      {"io-heavy+flap", 0, 0.5, true},
      {"crashy", 2, 0.3, true},
  };

  const graph::CsrGraph g = graph::make_dataset(
      graph::dataset_from_name(cli.get("dataset")), scale,
      /*weighted=*/true, seed);

  serve::FleetRequest base;
  base.base.backend = core::backend_from_name(cli.get("backend"));
  base.workload = make_spec(seed, queries, slo_us);
  base.fleet.replicas = replicas;
  base.fleet.serve.policy = serve::policy_from_name(cli.get("policy"));
  base.fleet.serve.quantum_supersteps = 4;

  serve::FleetServer fleet(core::table3_system(), jobs);
  serve::QueryServer probe_server(core::table3_system(), jobs);
  const double capacity_qps =
      bench::probe_capacity_qps(probe_server, g,
                                {base.base, base.workload, {}});
  std::cout << "dataset: " << cli.get("dataset") << ", scale: 2^" << scale
            << ", replicas: " << replicas << ", one-stack capacity: "
            << util::fmt(capacity_qps, 1) << " qps\n\n";

  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "fault check FAILED: " << what << "\n";
      ++failures;
    }
  };

  // -------------------------------------------------------------------
  // Sweep: fault intensity x router x load.
  // -------------------------------------------------------------------
  util::TablePrinter table({"faults", "router", "load_x", "avail",
                            "done_qps", "goodput", "failed", "retries",
                            "lost_ms", "crash/rst/repl", "p99_ms"});
  for (const FaultLevel& level : levels) {
    for (const serve::RouterKind router : routers) {
      for (const double factor : load_factors) {
        serve::FleetRequest req = base;
        req.fleet.router = router;
        req.workload.offered_qps = capacity_qps * factor * replicas;
        // The arrival window is the fault horizon: every level hits the
        // same fraction of the stream regardless of load.
        const double horizon_sec =
            static_cast<double>(queries) / req.workload.offered_qps;
        req.fleet.faults = make_plan(level, horizon_sec);
        const serve::FleetReport r = fleet.serve(g, req);
        const serve::ServeReport& s = r.serve;
        check(s.conservation_ok(),
              "conservation: " + level.name + " x " + to_string(router) +
                  " x " + util::fmt(factor, 2));
        check(s.completed + s.shed + s.failed == s.offered,
              "disposition partition: " + level.name + " x " +
                  to_string(router));
        table.add_row(
            {level.name, to_string(router), util::fmt(factor, 2),
             util::fmt(r.availability, 4), util::fmt(s.completed_qps, 1),
             util::fmt(s.goodput_qps, 1), std::to_string(s.failed),
             std::to_string(s.query_retries),
             util::fmt(s.lost_work_sec * 1e3, 3),
             std::to_string(r.crashes) + "/" + std::to_string(r.restarts) +
                 "/" + std::to_string(r.replacements),
             util::fmt(s.latency_us.p99 / 1e3, 3)});
      }
    }
  }
  if (cli.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  // -------------------------------------------------------------------
  // Recovery timeline: one crash-heavy run in detail.
  // -------------------------------------------------------------------
  {
    serve::FleetRequest req = base;
    req.fleet.router = serve::RouterKind::kJoinShortestQueue;
    req.workload.offered_qps = capacity_qps * 2.0 * replicas;
    const double horizon_sec =
        static_cast<double>(queries) / req.workload.offered_qps;
    req.fleet.faults = make_plan({"crashy", 2, 0.3, true}, horizon_sec);
    const serve::FleetReport r = fleet.serve(g, req);
    std::cout << "\n=== crash recovery (" << r.crashes << " crashes, "
              << r.restarts << " restarts, " << r.replacements
              << " replacements) ===\n";
    for (const serve::ReplicaStats& rs : r.replica_stats) {
      if (rs.crashes == 0 && rs.down_sec == 0.0) continue;
      std::cout << "  replica " << rs.replica << ": " << rs.crashes
                << " crash(es), down "
                << util::fmt(rs.down_sec * 1e3, 3) << " ms, util "
                << util::fmt(rs.utilization, 3) << "\n";
    }
    std::uint32_t down_incidents = 0;
    for (const obs::Incident& inc : r.incidents) {
      if (inc.kind == obs::IncidentKind::kReplicaDown) ++down_incidents;
    }
    std::cout << "  " << down_incidents << " replica-down incident(s), "
              << r.serve.query_retries << " query retries, "
              << r.serve.failed << " failed, availability "
              << util::fmt(r.availability, 4) << "\n";
    check(r.serve.conservation_ok(), "recovery byte conservation");
    if (smoke) {
      check(r.crashes > 0, "crash plan produced no crashes");
      check(down_incidents > 0, "no replica-down incident recorded");
      check(r.serve.completed + r.serve.shed + r.serve.failed ==
                r.serve.offered,
            "recovery disposition partition");
    }
  }

  // -------------------------------------------------------------------
  // Smoke gates: zero-rate identity and cross-jobs determinism.
  // -------------------------------------------------------------------
  if (smoke) {
    serve::FleetRequest req = base;
    req.fleet.router = serve::RouterKind::kJoinShortestQueue;
    req.workload.offered_qps = capacity_qps * 2.0 * replicas;
    const double horizon_sec =
        static_cast<double>(queries) / req.workload.offered_qps;

    // A plan whose events never bite (io bursts at rate 0) must leave
    // every record identical to the plain fleet path.
    serve::FleetRequest zero = req;
    zero.fleet.faults = make_plan({"zero", 0, 0.0, false}, horizon_sec);
    zero.fleet.faults.seed = 0xfa017u;
    zero.fleet.faults.horizon_sec = horizon_sec;
    zero.fleet.faults.io_bursts = 2;
    zero.fleet.faults.io_burst_sec = horizon_sec / 6.0;
    zero.fleet.faults.io_error_rate = 0.0;
    const serve::FleetReport plain = fleet.serve(g, req);
    const serve::FleetReport zeroed = fleet.serve(g, zero);
    check(bench::reports_bit_identical(plain.serve, zeroed.serve),
          "zero-rate fault plan is not record-identical to no plan");

    // The faulted schedule is a pure function of the request: profiling
    // thread count must not leak into it.
    req.fleet.faults = make_plan({"crashy", 2, 0.3, true}, horizon_sec);
    serve::FleetServer fleet1(core::table3_system(), 1);
    serve::FleetServer fleet4(core::table3_system(), 4);
    const serve::FleetReport r1 = fleet1.serve(g, req);
    const serve::FleetReport r4 = fleet4.serve(g, req);
    check(bench::reports_bit_identical(r1.serve, r4.serve),
          "faulted run differs across profiling thread counts");
    check(r1.crashes == r4.crashes && r1.restarts == r4.restarts &&
              r1.io_error_retries == r4.io_error_retries,
          "fault counters differ across profiling thread counts");
  }

  if (failures > 0) {
    std::cerr << "bench_faults: " << failures << " check(s) failed\n";
    return 1;
  }
  if (smoke) std::cerr << "faults smoke OK\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_faults(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

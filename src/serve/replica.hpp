#pragma once
/// \file replica.hpp
/// The per-replica pieces of the serving layer's queueing simulation.
///
/// One discrete-event clock drives the pieces below; FleetSim (fleet.cpp)
/// owns them for one serve() and adds routing and admission on top:
///
///   `SimShared` — per *workload* state: the simulator, the query stream
///   and its profiles, per-query replay progress (`next_step` lives here
///   so a live-migrated query resumes on the target mid-serve),
///   completion accounting, closed-loop client chains, and
///   query-lifecycle telemetry (admit/shed/complete instants, the
///   aggregate queue-depth channel).
///
///   `ReplicaSim` — per *stack* state: the ready queue, the in-service
///   query, busy/link/thermal accounting, and per-replica telemetry
///   (quantum spans, byte channel, heat trace). It also carries the two
///   live-migration primitives: `extract_waiting` (drain a tenant's
///   queued queries) and `mark_redirect` (hand the in-flight query to a
///   sink at its next preemption point instead of requeueing locally).
///
/// serve::simulate_fleet is the only place these are built: FleetServer
/// runs N replicas behind a router, and QueryServer::serve runs a
/// one-replica fleet.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "device/state_model.hpp"
#include "obs/telemetry.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "sim/simulator.hpp"

namespace cxlgraph::serve {

inline constexpr std::size_t kNoQuery = std::numeric_limits<std::size_t>::max();

/// Workload-wide state of one queueing simulation, shared by every
/// replica. Owned by simulate_fleet for the duration of one serve() call.
struct SimShared {
  const ServeConfig& config;
  const WorkloadSpec& spec;
  const std::vector<Query>& queries;
  const std::vector<QueryProfile>& profiles;
  std::vector<QueryRecord>& records;
  const device::ThermalParams& thermal;

  sim::Simulator sim;
  /// Per-query replay progress. Migration moves the query, not the
  /// counter — a partially-served query resumes exactly where it left.
  std::vector<std::size_t> next_step;
  /// Per-profile suffix sums: remaining_after[p][k] = sum of step_ps[k..].
  /// O(1) remaining-demand estimates for routing / SLO shedding.
  std::vector<std::vector<util::SimTime>> remaining_after;
  /// Completed latencies in completion order (streaming-estimator feed).
  std::vector<double> completion_order_latency_us;
  util::SimTime last_completion = 0;
  std::uint32_t admitted = 0;
  std::uint32_t completed = 0;
  std::uint32_t shed = 0;
  /// Queries whose crash-retry budget ran out (active fault plan only).
  std::uint32_t failed = 0;

  /// Arrival entry point (admission + routing), set by the frontend; the
  /// closed-loop reissue path and open-loop scheduling both call it.
  std::function<void(std::size_t)> deliver;
  /// Optional frontend hook fired after a record is finalized (the fleet
  /// uses it for quota release, drain retirement, and depth sampling).
  std::function<void(std::size_t)> on_complete;
  /// Optional frontend hook fired when a replica's thermal-throttle
  /// state flips (the fleet feeds its health monitor). Strictly passive:
  /// observers must not schedule events or touch simulation state.
  std::function<void(std::uint32_t, bool)> on_throttle;
  /// Optional frontend hook fired after a query is marked failed (the
  /// fleet uses it for quota release and depth sampling).
  std::function<void(std::size_t)> on_failed;
  /// Fault seam (null on the default path): extra wall time to add to a
  /// quantum dispatched on replica `index` whose profiled duration is
  /// the argument — transient I/O retries and link-degrade windows live
  /// behind it. Bytes are unaffected; the backlog estimate stays
  /// profiled, matching the thermal-stretch convention.
  std::function<util::SimTime(std::uint32_t, util::SimTime)> fault_stretch;

  /// Closed loop: per-client query chains and issue cursors.
  std::vector<std::vector<std::size_t>> client_queries;
  std::vector<std::size_t> client_cursor;

  /// Telemetry (all null/false when detached — the default path). Every
  /// hook below only appends to obs-owned buffers, so the schedule and
  /// every record stay bit-identical to the untapped run.
  obs::Telemetry* telemetry = nullptr;
  bool tracing = false;
  bool sampling = false;
  std::uint16_t track_lifecycle = 0;  ///< ("serve","lifecycle"): instants
  std::uint32_t n_admit = 0, n_shed = 0, n_complete = 0, k_query = 0;
  std::uint32_t n_failed = 0;
  std::uint32_t n_queued = 0;  ///< queue-wait span on the lifecycle track
  /// Causal flow per admitted query ('s' at admit, 't' per quantum /
  /// migration hop, 'f' at completion), named "query", id = query id.
  std::uint32_t n_flow = 0;
  obs::Counter* c_admitted = nullptr;
  obs::Counter* c_shed = nullptr;
  obs::Counter* c_completed = nullptr;
  obs::Counter* c_failed = nullptr;
  util::Log2Histogram* h_latency_ns = nullptr;
  std::uint32_t ch_depth = 0;  ///< waiting + in service, sampled per event
  /// Aggregate depth across every replica, for the ch_depth samples. Set
  /// by the fleet frontend.
  std::function<double()> total_depth;

  SimShared(const ServeConfig& config_in, const WorkloadSpec& spec_in,
            const std::vector<Query>& queries_in,
            const std::vector<QueryProfile>& profiles_in,
            std::vector<QueryRecord>& records_in,
            const device::ThermalParams& thermal_in);

  util::SimTime deadline(std::size_t i) const {
    return records[i].arrival + records[i].slo;
  }
  /// Unserved profiled demand of query i (its remaining supersteps).
  util::SimTime remaining_ps(std::size_t i) const {
    return remaining_after[records[i].profile_index][next_step[i]];
  }
  bool all_resolved() const noexcept {
    return completed + shed + failed >= queries.size();
  }

  void attach_telemetry(obs::Telemetry* sink);
  void note_admission(std::size_t i, bool was_shed);
  void note_completion(std::size_t i);
  /// Queue-wait span [arrival, first_service] on the lifecycle track;
  /// fired when query i first reaches a stack.
  void note_queued(std::size_t i);
  void sample_depth();

  /// Marks query i shed: record flag, counter, telemetry, and the
  /// closed-loop reissue (a shed query does not stall its client).
  void shed_query(std::size_t i);
  /// Marks query i failed (crash-retry budget exhausted): record flag,
  /// telemetry flow end, closed-loop reissue, and the on_failed hook.
  void fail_query(std::size_t i);
  void note_failed(std::size_t i);
  /// Finalizes query i's record (completion, queue/service split, SLO),
  /// feeds the streaming estimators, reissues the closed-loop client,
  /// and fires on_complete.
  void complete_query(std::size_t i);
  void issue_next(std::uint32_t client);

  /// Schedules the workload's arrivals through `deliver` (open-loop: one
  /// event per query; closed-loop: per-client chains), then drains the
  /// simulator, with `observer` attached for the duration when non-null.
  void run(obs::SimRunObserver* observer);
};

/// One stack's slice of the queueing simulation. All scheduling-policy
/// decisions (quantum size, SLO priority) happen here, against this
/// replica's ready queue only.
struct ReplicaSim {
  SimShared& shared;
  std::uint32_t index = 0;

  std::deque<std::size_t> ready;
  std::size_t active = kNoQuery;
  util::SimTime busy_ps = 0;
  std::uint64_t link_bytes = 0;
  std::uint32_t quanta = 0;
  std::uint32_t served = 0;  ///< completions on this replica
  std::uint32_t throttled_quanta = 0;
  /// Crashed (fault layer): a dead replica accepts no placements and
  /// dispatches nothing until the fleet revives it.
  bool dead = false;
  /// Per-replica thermal accumulator: each stack heats independently.
  device::ThermalState heat;
  /// Unserved profiled demand queued here (waiting + preempted active
  /// remainder); the router's ETA signal. Thermal stretch not included.
  util::SimTime backlog_ps = 0;

  ReplicaSim(SimShared& shared_in, std::uint32_t index_in)
      : shared(shared_in), index(index_in) {}

  std::size_t waiting() const noexcept { return ready.size(); }
  bool busy() const noexcept { return active != kNoQuery; }
  bool idle() const noexcept { return !busy() && ready.empty(); }
  double depth() const noexcept {
    return static_cast<double>(ready.size() + (busy() ? 1 : 0));
  }

  /// Admission: counts the query, queues it, and dispatches. Every
  /// first-time admission goes through here.
  void admit(std::size_t i);
  /// Re-queues an already-admitted query (migration resume on the
  /// target): no admitted++ and no admit telemetry, just placement.
  void resume(std::size_t i);

  /// Live migration, waiting half: removes every waiting query of
  /// `class_index` (queue order preserved) and returns them. Their
  /// replay progress stays in SimShared.
  std::vector<std::size_t> extract_waiting(std::uint32_t class_index);
  /// Live migration, in-flight half: if the active query belongs to
  /// `class_index`, hand it to `sink` at its next preemption point (or
  /// never, if it completes first — FIFO runs to completion). Returns
  /// the marked query index, or kNoQuery when nothing was in flight.
  std::size_t mark_redirect(std::uint32_t class_index,
                            std::function<void(std::size_t)> sink);

  /// Crash, step 1: marks the replica dead and disarms any pending
  /// migration redirect (the in-flight query goes through crash
  /// recovery, not the migration sink).
  void on_crash();
  /// Crash, step 2: drains the whole ready queue (backlog adjusted) and
  /// returns it — the fleet re-routes these through the router. Their
  /// replay progress is discarded by the caller.
  std::vector<std::size_t> take_all_waiting();
  /// Crash, step 3: aborts the in-flight query, if any. Its already-
  /// scheduled quantum-completion event is swallowed when it fires.
  /// Returns the aborted query, or kNoQuery.
  std::size_t abort_active();

  /// Binds per-replica telemetry, named after the index k: the quantum
  /// span track "replica<k>", the "serve/replica<k>/quantum_bytes" and
  /// "serve/replica<k>/depth" channels, and the "replica<k>-heat" trace.
  /// No-op when SimShared is untapped.
  void attach_telemetry();

  void dispatch();
  void quantum_done();

 private:
  void place(std::size_t i);
  void note_quantum(std::size_t i, util::SimTime duration,
                    std::uint64_t bytes);
  void sample_replica_depth();

  /// In-flight redirect (armed by mark_redirect, fires at most once).
  std::size_t redirect_query_ = kNoQuery;
  std::function<void(std::size_t)> redirect_sink_;
  /// Set by abort_active: the next quantum_done belongs to a crashed
  /// attempt and must be swallowed, not completed.
  bool discard_pending_ = false;

  std::uint16_t track_ = 0;       ///< ("serve", <track_name>): quanta
  std::uint32_t n_quantum_ = 0;
  std::uint32_t ch_bytes_ = 0;    ///< link bytes charged per quantum
  std::uint32_t ch_depth_ = 0;    ///< this replica's ready + active depth
  bool replica_tracing_ = false;
  bool replica_sampling_ = false;
  bool throttle_state_ = false;   ///< last state fed to on_throttle
  obs::StateModelTrace heat_trace_;
};

/// Shared report aggregation over the finished simulation: exact + P²
/// percentiles, queue/service time split, query-byte conservation
/// side, goodput and SLO accounting. `busy_ps` is the summed stack busy
/// time and `capacity_sec` the utilization denominator (the summed
/// replica lifetimes; one replica's is the makespan). Expects
/// report.makespan_sec and the counters (admitted/completed/shed/
/// link_bytes) already set.
void summarize_serve(ServeReport& report, const SimShared& shared,
                     util::SimTime busy_ps, double capacity_sec);

/// The queueing simulation behind every serve: record init, the stack's
/// thermal model (core::stack_thermal of `config` for the request's
/// backend), one SimShared + FleetSim over request.fleet, the optional
/// telemetry observer, the run, and the report. Expects `workload`
/// profiled under `config` for `request` and request.fleet already
/// validated. QueryServer::serve passes a one-replica fleet and returns
/// .serve. Defined in fleet.cpp, next to FleetSim.
FleetReport simulate_fleet(const core::SystemConfig& config,
                           const FleetRequest& request,
                           ProfiledWorkload workload,
                           obs::Telemetry* telemetry);

}  // namespace cxlgraph::serve

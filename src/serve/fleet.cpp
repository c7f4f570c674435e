#include "serve/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "device/pcie.hpp"
#include "device/state_model.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "serve/replica.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace cxlgraph::serve {

namespace {

util::SimTime ps_from_sec(double sec) {
  return static_cast<util::SimTime>(
      sec * static_cast<double>(util::kPsPerSec) + 0.5);
}

/// Detector thresholds mirror the elastic config so the monitor's depth
/// verdict is the exact comparison the controller used to make inline.
obs::HealthConfig health_config(const ElasticConfig& elastic) {
  obs::HealthConfig h;
  if (elastic.enabled) {
    h.depth_high = elastic.scale_up_depth;
    h.depth_low = elastic.scale_down_depth;
  }
  return h;
}

/// The fleet-wide frontend of one queueing simulation: routing, quotas,
/// SLO shedding, migrations, and the elastic controller, over a set of
/// ReplicaSims on the shared clock. Lives on the stack for one serve().
struct FleetSim {
  const FleetConfig& fleet;
  SimShared& shared;
  /// deque: ReplicaSim holds a SimShared& and scheduled closures capture
  /// replica addresses, so growth must not relocate existing elements.
  std::deque<ReplicaSim> replicas;

  struct ReplicaMeta {
    util::SimTime joined = 0;
    bool draining = false;
    bool retired = false;
    util::SimTime retired_at = 0;
    std::uint32_t crashes = 0;
    util::SimTime down_since = 0;
    util::SimTime downtime = 0;
  };
  std::vector<ReplicaMeta> meta;

  /// Seeded fault schedule (empty when the spec is disabled) and the
  /// fault-window state it drives. All of this is dead weight on the
  /// default path: dead_count stays 0 and the seams are never installed.
  fault::FaultPlan plan;
  std::uint32_t dead_count = 0;
  std::uint32_t crashes_total = 0;
  std::uint32_t restarts_total = 0;
  std::uint32_t replacements_total = 0;
  std::uint64_t io_retries_total = 0;
  std::uint32_t link_windows_total = 0;
  /// Per-replica I/O error-burst windows and the shared draw counter
  /// (single-threaded queueing sim: the consumption order is the event
  /// order, deterministic by construction).
  std::vector<util::SimTime> io_until;
  std::vector<double> io_rate;
  std::uint64_t io_draws = 0;
  /// Fleet-wide link degradation window.
  util::SimTime link_until = 0;
  double link_factor = 1.0;
  /// Revivals / replacements still scheduled: while > 0, queries that
  /// find no live replica park in `orphans` instead of failing outright.
  std::uint32_t pending_recoveries = 0;
  std::vector<std::size_t> orphans;

  util::Xoshiro256 router_rng;
  /// routable_set()'s scratch buffer.
  std::vector<std::uint32_t> candidates;
  /// Per-tenant admission state (indexed by class; 0 limit = unbounded).
  std::vector<std::uint32_t> quota_limit;
  std::vector<std::uint32_t> in_flight;
  /// Migration pins: tenant class -> replica all later arrivals route to.
  std::unordered_map<std::uint32_t, std::uint32_t> route_override;

  std::uint32_t shed_queue = 0;
  std::uint32_t shed_quota = 0;
  std::uint32_t shed_deadline = 0;

  struct MigrationState {
    MigrationRecord record;
    /// Queries drained at the source, parked until the state copy lands.
    std::vector<std::size_t> in_transit;
    bool delivered = false;
  };
  std::vector<MigrationState> migrations;
  std::uint64_t migration_bytes = 0;
  util::SimTime migration_ps = 0;
  /// Interconnect rate the migration state copy is charged at.
  double copy_mbps = 24'000.0;

  /// Elastic controller state: its own depth series (not the telemetry
  /// sampler — the controller must work untapped), fed on every arrival,
  /// completion, and tick.
  obs::TimeSeriesSampler depth_series;
  std::uint32_t ch_waiting = 0;
  std::size_t depth_cursor = 0;
  std::uint32_t cooldown = 0;
  util::SimTime interval_ps = 0;
  std::vector<ScalingEvent> scaling_events;
  std::uint32_t peak_replicas = 0;

  /// Streaming health detectors over the depth / throttle / completion
  /// feeds; pure bookkeeping, active whether or not a sink is attached
  /// (the incident log is part of the report).
  obs::HealthMonitor monitor;

  bool fleet_telemetry = false;
  bool fleet_tracing = false;
  std::uint16_t track_control = 0;  ///< ("fleet","control"): timeline
  std::uint32_t n_migrate = 0, n_copy_landed = 0;
  std::uint32_t n_scale_up = 0, n_scale_down = 0;
  std::uint32_t n_crash = 0, n_restart = 0, n_replace = 0;
  std::uint32_t k_class = 0, k_replica = 0;

  FleetSim(const FleetConfig& fleet_in, SimShared& shared_in,
           std::size_t num_classes)
      : fleet(fleet_in),
        shared(shared_in),
        plan(fleet_in.faults, fleet_in.replicas),
        router_rng(fleet_in.router_seed),
        quota_limit(num_classes, 0),
        in_flight(num_classes, 0),
        depth_series(std::max<util::SimTime>(
            1, ps_from_sec(fleet_in.elastic.check_interval_sec) / 8)),
        interval_ps(ps_from_sec(fleet_in.elastic.check_interval_sec)),
        monitor(health_config(fleet_in.elastic)) {
    for (const TenantQuota& q : fleet.quotas) {
      quota_limit[q.class_index] = q.max_in_flight;
    }
    for (std::uint32_t k = 0; k < fleet.replicas; ++k) add_replica();
    peak_replicas = fleet.replicas;
    if (fleet.elastic.enabled) {
      ch_waiting = depth_series.channel("fleet/waiting",
                                        obs::TimeSeriesSampler::Reduce::kLast);
    }
    shared.on_throttle = [this](std::uint32_t k, bool throttled) {
      monitor.observe_throttle(shared.sim.now(), k, throttled);
    };
    if (plan.active()) {
      shared.fault_stretch = [this](std::uint32_t k, util::SimTime d) {
        return fault_extra(k, d);
      };
    }
  }

  ReplicaSim& add_replica() {
    const std::uint32_t k = static_cast<std::uint32_t>(replicas.size());
    ReplicaSim& r = replicas.emplace_back(shared, k);
    meta.push_back(ReplicaMeta{shared.sim.now(), false, false, 0});
    io_until.push_back(0);
    io_rate.push_back(0.0);
    if (fleet_telemetry) r.attach_telemetry();
    return r;
  }

  void attach_telemetry(obs::Telemetry* sink) {
    shared.attach_telemetry(sink);
    if (shared.telemetry == nullptr) return;
    fleet_telemetry = true;
    for (ReplicaSim& r : replicas) r.attach_telemetry();
    if (shared.telemetry->tracing()) {
      fleet_tracing = true;
      obs::SpanTracer& tr = shared.telemetry->tracer();
      track_control = tr.track("fleet", "control");
      n_migrate = tr.intern("migrate");
      n_copy_landed = tr.intern("copy-landed");
      n_scale_up = tr.intern("scale-up");
      n_scale_down = tr.intern("scale-down");
      n_crash = tr.intern("crash");
      n_restart = tr.intern("restart");
      n_replace = tr.intern("replace");
      k_class = tr.intern("class");
      k_replica = tr.intern("replica");
    }
  }

  bool routable(std::uint32_t k) const {
    return !meta[k].draining && !meta[k].retired && !replicas[k].dead;
  }
  /// The replicas a query may be placed on right now, in index order,
  /// filled into a reused buffer so routing allocates nothing per
  /// arrival. Valid until the next call.
  const std::vector<std::uint32_t>& routable_set() {
    candidates.clear();
    for (std::uint32_t k = 0; k < replicas.size(); ++k) {
      if (routable(k)) candidates.push_back(k);
    }
    if (candidates.empty()) {
      // Every replica draining or retired (transiently possible if a
      // migration target was later drained): fall back to the live set.
      for (std::uint32_t k = 0; k < replicas.size(); ++k) {
        if (!meta[k].retired && !replicas[k].dead) candidates.push_back(k);
      }
    }
    if (candidates.empty()) candidates.push_back(0);
    return candidates;
  }
  /// Any replica a query could legally land on right now? (The {0}
  /// fallback above exists for the no-fault invariant that someone is
  /// always alive; with crashes in play, callers must check first.)
  bool has_live() const {
    for (std::uint32_t k = 0; k < replicas.size(); ++k) {
      if (!meta[k].retired && !replicas[k].dead) return true;
    }
    return false;
  }

  double total_depth() const {
    double d = 0.0;
    for (const ReplicaSim& r : replicas) d += r.depth();
    return d;
  }
  std::uint64_t total_waiting() const {
    std::uint64_t w = 0;
    for (const ReplicaSim& r : replicas) w += r.waiting();
    return w;
  }

  void record_depth() {
    if (!fleet.elastic.enabled) return;
    depth_series.record(ch_waiting, shared.sim.now(),
                        static_cast<double>(total_waiting()));
  }

  std::uint32_t route(std::size_t i) {
    const QueryRecord& r = shared.records[i];
    if (!route_override.empty()) {
      const auto pinned = route_override.find(r.class_index);
      if (pinned != route_override.end() && !meta[pinned->second].retired &&
          !replicas[pinned->second].dead) {
        return pinned->second;
      }
    }
    const std::vector<std::uint32_t>& set = routable_set();
    switch (fleet.router) {
      case RouterKind::kRandom:
        return set[router_rng.next_below(set.size())];
      case RouterKind::kJoinShortestQueue: {
        std::uint32_t best = set.front();
        for (const std::uint32_t k : set) {
          if (replicas[k].depth() < replicas[best].depth()) best = k;
        }
        return best;
      }
      case RouterKind::kClassAffinity:
        return set[r.class_index % set.size()];
    }
    return set.front();
  }

  /// The fleet's arrival path: admission gates in fixed order (quota,
  /// deadline feasibility, routed queue capacity), then admit. With one
  /// replica and no gates this reduces exactly to the solo deliver.
  void arrive(std::size_t i) {
    QueryRecord& r = shared.records[i];
    r.arrival = shared.sim.now();
    const std::uint32_t cls = r.class_index;
    if (quota_limit[cls] > 0 && in_flight[cls] >= quota_limit[cls]) {
      ++shed_quota;
      shared.shed_query(i);
      record_depth();
      return;
    }
    if (dead_count > 0 && !has_live()) {
      // Total outage: nowhere to place the query. It still counts as
      // admitted (symmetric bookkeeping — failure releases the quota
      // slot through on_failed); if a restart or replacement is coming
      // it parks until then, otherwise it can only fail.
      ++shared.admitted;
      if (shared.telemetry != nullptr) shared.note_admission(i, false);
      ++in_flight[cls];
      if (pending_recoveries > 0) {
        orphans.push_back(i);
      } else {
        shared.fail_query(i);
      }
      record_depth();
      return;
    }
    if (fleet.slo_shedding) {
      // Feasibility on the emptiest routable replica: if even its backlog
      // plus this query's full demand busts the deadline, serving it only
      // wastes stack time on a guaranteed violation.
      util::SimTime least = std::numeric_limits<util::SimTime>::max();
      for (const std::uint32_t k : routable_set()) {
        least = std::min(least, replicas[k].backlog_ps);
      }
      if (least + shared.remaining_ps(i) > r.slo) {
        ++shed_deadline;
        shared.shed_query(i);
        record_depth();
        return;
      }
    }
    ReplicaSim& rep = replicas[route(i)];
    if (fleet.serve.max_waiting > 0 &&
        rep.waiting() >= fleet.serve.max_waiting) {
      ++shed_queue;
      shared.shed_query(i);
      record_depth();
      return;
    }
    ++in_flight[cls];
    rep.admit(i);
    record_depth();
  }

  void on_failed(std::size_t i) {
    // Quota release and depth sampling only — failure is deliberately
    // not a completion for the SLO-rate window.
    const QueryRecord& r = shared.records[i];
    if (in_flight[r.class_index] > 0) --in_flight[r.class_index];
    record_depth();
  }

  void on_complete(std::size_t i) {
    const QueryRecord& r = shared.records[i];
    monitor.observe_completion(shared.sim.now(), r.slo_violated);
    if (in_flight[r.class_index] > 0) --in_flight[r.class_index];
    // A draining replica retires the moment it runs dry.
    const std::uint32_t k = r.replica;
    if (k < replicas.size() && meta[k].draining && !meta[k].retired &&
        replicas[k].idle()) {
      meta[k].retired = true;
      meta[k].retired_at = shared.sim.now();
    }
    record_depth();
  }

  // -- Live migration ------------------------------------------------------

  void schedule_migrations() {
    migrations.reserve(fleet.migrations.size());
    for (std::size_t m = 0; m < fleet.migrations.size(); ++m) {
      migrations.emplace_back();
      const MigrationPlan& plan = fleet.migrations[m];
      shared.sim.schedule_at(ps_from_sec(plan.at_sec),
                             [this, m]() { migrate(m); });
    }
  }

  void migrate(std::size_t m) {
    const MigrationPlan& plan = fleet.migrations[m];
    MigrationState& state = migrations[m];
    MigrationRecord& rec = state.record;
    rec.class_index = plan.class_index;
    rec.from = plan.from;
    rec.to = plan.to;
    rec.start_sec = util::sec_from_ps(shared.sim.now());
    route_override[plan.class_index] = plan.to;
    if (fleet_tracing) {
      shared.telemetry->tracer().instant(track_control, n_migrate,
                                         shared.sim.now(), k_class,
                                         plan.class_index);
    }

    ReplicaSim& src = replicas[plan.from];
    state.in_transit = src.extract_waiting(plan.class_index);
    rec.moved_waiting = static_cast<std::uint32_t>(state.in_transit.size());

    // The tenant's resident state: used bytes of every distinct profile
    // that moves (waiting queries now, plus the in-flight one if it will
    // hand off). Charged to the interconnect as one copy.
    std::set<std::size_t> moved_profiles;
    for (const std::size_t i : state.in_transit) {
      moved_profiles.insert(shared.records[i].profile_index);
    }
    const std::size_t marked = src.mark_redirect(
        plan.class_index, [this, m](std::size_t i) { redirected(m, i); });
    if (marked != kNoQuery) {
      moved_profiles.insert(shared.records[marked].profile_index);
    }
    std::uint64_t bytes = 0;
    for (const std::size_t p : moved_profiles) {
      bytes += shared.profiles[p].report.used_bytes;
    }
    const util::SimTime copy_ps = static_cast<util::SimTime>(
        std::ceil(static_cast<double>(bytes) * util::ps_per_byte(copy_mbps)));
    rec.state_bytes = bytes;
    rec.copy_sec = util::sec_from_ps(copy_ps);
    migration_bytes += bytes;
    migration_ps += copy_ps;
    shared.sim.schedule_after(copy_ps, [this, m]() { copy_landed(m); });
  }

  void copy_landed(std::size_t m) {
    MigrationState& state = migrations[m];
    state.delivered = true;
    const std::uint32_t to = state.record.to;
    if (fleet_tracing) {
      shared.telemetry->tracer().instant(track_control, n_copy_landed,
                                         shared.sim.now(), k_class,
                                         state.record.class_index);
    }
    for (const std::size_t i : state.in_transit) {
      if (replicas[to].dead) {
        // The migration target crashed while the copy was in flight:
        // the moved queries fall back to the router.
        reroute(i);
      } else {
        replicas[to].resume(i);
      }
    }
    state.in_transit.clear();
  }

  /// The in-flight query yielded at its preemption point. If the state
  /// copy already landed it resumes on the target now (mid-serve, replay
  /// progress intact); otherwise it rides the copy with the waiting set.
  void redirected(std::size_t m, std::size_t i) {
    MigrationState& state = migrations[m];
    state.record.moved_active = true;
    if (state.delivered) {
      if (replicas[state.record.to].dead) {
        reroute(i);
      } else {
        replicas[state.record.to].resume(i);
      }
    } else {
      state.in_transit.push_back(i);
    }
  }

  // -- Fault injection & recovery ------------------------------------------

  void schedule_faults() {
    for (const fault::FaultEvent& e : plan.events()) {
      shared.sim.schedule_at(e.at, [this, &e]() { deliver_fault(e); });
    }
  }

  void deliver_fault(const fault::FaultEvent& e) {
    if (shared.all_resolved()) return;  // workload drained: quiet tail
    switch (e.kind) {
      case fault::FaultKind::kReplicaCrash:
        crash(e);
        break;
      case fault::FaultKind::kIoErrorBurst:
        io_burst(e);
        break;
      case fault::FaultKind::kLinkDegrade:
        link_flap(e);
        break;
    }
  }

  /// The fault seam behind SimShared::fault_stretch: extra wall time for
  /// a quantum on replica k whose profiled duration is `duration`.
  util::SimTime fault_extra(std::uint32_t k, util::SimTime duration) {
    util::SimTime extra = 0;
    const util::SimTime now = shared.sim.now();
    const fault::FaultSpec& spec = plan.spec();
    if (k < io_until.size() && now < io_until[k] && io_rate[k] > 0.0) {
      // Transient I/O errors: each failed attempt backs off linearly
      // and retries, up to the cap. The final attempt always delivers —
      // bytes are delayed, never dropped.
      std::uint32_t attempt = 0;
      while (attempt < spec.io_max_retries &&
             fault::FaultPlan::error_draw(spec.seed, k, io_draws++,
                                          io_rate[k])) {
        ++attempt;
        extra += util::ps_from_us(spec.io_retry_us *
                                  static_cast<double>(attempt));
      }
      if (attempt > 0) {
        io_retries_total += attempt;
        monitor.observe_io_errors(now, k, attempt);
      }
    }
    if (now < link_until && link_factor < 1.0) {
      if (link_factor <= 0.0) {
        // Outage: the quantum stalls until the link comes back.
        extra += link_until - now;
      } else {
        extra += static_cast<util::SimTime>(
            static_cast<double>(duration) * (1.0 / link_factor - 1.0) + 0.5);
      }
    }
    return extra;
  }

  /// The event's target replica if it is alive, else the next live one
  /// in index order — a plan drawn against the initial fleet keeps
  /// meaning something after crashes and scale-downs. replicas.size()
  /// when nothing is left to kill.
  std::uint32_t crash_victim(std::uint32_t want) const {
    const auto n = static_cast<std::uint32_t>(replicas.size());
    for (std::uint32_t d = 0; d < n; ++d) {
      const std::uint32_t k = (want + d) % n;
      if (!meta[k].retired && !replicas[k].dead) return k;
    }
    return n;
  }

  void crash(const fault::FaultEvent& e) {
    const std::uint32_t k = crash_victim(
        e.target % static_cast<std::uint32_t>(replicas.size()));
    if (k >= replicas.size()) return;  // whole fleet already down
    const util::SimTime now = shared.sim.now();
    ++crashes_total;
    ++meta[k].crashes;
    meta[k].down_since = now;
    ++dead_count;
    ReplicaSim& rep = replicas[k];
    rep.on_crash();
    const std::int64_t incident = monitor.observe_crash(now, k, true);
    if (fleet_tracing) {
      shared.telemetry->tracer().instant(track_control, n_crash, now,
                                         k_replica, k);
    }

    // Recovery is scheduled before the rerouting below so queries that
    // find no live replica know whether anyone is coming back.
    if (e.duration > 0) {
      ++pending_recoveries;
      shared.sim.schedule_after(e.duration, [this, k]() { revive(k); });
    } else if (fleet.elastic.enabled &&
               active_count() < fleet.elastic.max_replicas) {
      // A permanent crash is a scale-up trigger: a replacement joins
      // after the provisioning delay.
      ++pending_recoveries;
      const double delay = plan.spec().provision_sec > 0.0
                               ? plan.spec().provision_sec
                               : fleet.elastic.check_interval_sec;
      shared.sim.schedule_after(ps_from_sec(delay), [this, incident]() {
        join_replacement(incident);
      });
    }

    // Waiting queries lose any partial progress and re-route through
    // the router immediately; they were not in flight, so no retry is
    // charged against their budget.
    for (const std::size_t i : rep.take_all_waiting()) {
      lose_progress(i);
      reroute(i);
    }
    // The in-flight query's completed supersteps are lost; it re-enters
    // the queue after a deterministic backoff until the retry budget
    // runs out.
    const std::size_t aborted = rep.abort_active();
    if (aborted != kNoQuery) {
      lose_progress(aborted);
      QueryRecord& r = shared.records[aborted];
      if (r.retries >= plan.spec().max_query_retries) {
        shared.fail_query(aborted);
      } else {
        ++r.retries;
        const util::SimTime backoff = util::ps_from_us(
            plan.spec().retry_backoff_us * static_cast<double>(r.retries));
        shared.sim.schedule_after(backoff,
                                  [this, aborted]() { reroute(aborted); });
      }
    }
    record_depth();
  }

  /// Discards query i's completed supersteps (crash recovery): its
  /// accumulated stack time and bytes move to the lost-work ledger, and
  /// the replay restarts from superstep 0.
  void lose_progress(std::size_t i) {
    QueryRecord& r = shared.records[i];
    r.lost_ps += r.service_ps;
    r.lost_bytes += r.service_bytes;
    r.service_ps = 0;
    r.service_bytes = 0;
    shared.next_step[i] = 0;
  }

  /// Places an already-admitted query back onto the fleet (crash
  /// recovery): routes like an arrival but bypasses the admission gates
  /// — the query already holds its quota slot.
  void reroute(std::size_t i) {
    const QueryRecord& r = shared.records[i];
    if (r.shed || r.failed) return;
    if (dead_count > 0 && !has_live()) {
      if (pending_recoveries > 0) {
        orphans.push_back(i);
      } else {
        shared.fail_query(i);
      }
      return;
    }
    replicas[route(i)].resume(i);
    record_depth();
  }

  void drain_orphans() {
    if (orphans.empty()) return;
    std::vector<std::size_t> parked;
    parked.swap(orphans);
    for (const std::size_t i : parked) reroute(i);
  }

  void revive(std::uint32_t k) {
    --pending_recoveries;
    const util::SimTime now = shared.sim.now();
    meta[k].downtime += now - meta[k].down_since;
    meta[k].down_since = 0;
    replicas[k].dead = false;
    if (dead_count > 0) --dead_count;
    ++restarts_total;
    peak_replicas = std::max(peak_replicas, active_count());
    monitor.observe_crash(now, k, false);
    if (fleet_tracing) {
      shared.telemetry->tracer().instant(track_control, n_restart, now,
                                         k_replica, k);
    }
    drain_orphans();
    record_depth();
    // Anything parked in the local queue while the swallow was pending
    // (or just rerouted here) starts as soon as the stack is clear.
    replicas[k].dispatch();
  }

  void join_replacement(std::int64_t incident) {
    --pending_recoveries;
    if (shared.all_resolved()) return;
    if (active_count() >= fleet.elastic.max_replicas) {
      drain_orphans();
      return;
    }
    ReplicaSim& r = add_replica();
    ++replacements_total;
    // Peak tracks concurrently-routable replicas: dead slots stay in the
    // vector (indices are stable), so size() would overstate the fleet
    // once a crash has retired one.
    peak_replicas = std::max(peak_replicas, active_count());
    ScalingEvent ev;
    ev.at_sec = util::sec_from_ps(shared.sim.now());
    ev.added = true;
    ev.replica = r.index;
    ev.routable_after = active_count();
    ev.depth_per_replica = static_cast<double>(total_waiting()) /
                           static_cast<double>(std::max(1u, active_count()));
    ev.incident = static_cast<std::int32_t>(incident);
    scaling_events.push_back(ev);
    if (fleet_tracing) {
      shared.telemetry->tracer().instant(track_control, n_replace,
                                         shared.sim.now(), k_replica, r.index);
    }
    drain_orphans();
    record_depth();
  }

  void io_burst(const fault::FaultEvent& e) {
    const auto k = static_cast<std::uint32_t>(
        e.target % static_cast<std::uint32_t>(replicas.size()));
    const util::SimTime now = shared.sim.now();
    const util::SimTime until = now + e.duration;
    io_until[k] = std::max(io_until[k], until);
    io_rate[k] = e.magnitude;
    monitor.observe_io_burst(now, k, true, e.magnitude);
    shared.sim.schedule_at(until, [this, k]() {
      // Overlapping bursts extend the window; only the last edge closes.
      if (shared.sim.now() >= io_until[k]) {
        monitor.observe_io_burst(shared.sim.now(), k, false, 0.0);
      }
    });
  }

  void link_flap(const fault::FaultEvent& e) {
    const util::SimTime now = shared.sim.now();
    const util::SimTime until = now + e.duration;
    link_until = std::max(link_until, until);
    link_factor = e.magnitude;
    ++link_windows_total;
    monitor.observe_link(now, true, e.magnitude);
    shared.sim.schedule_at(until, [this]() {
      if (shared.sim.now() >= link_until) {
        link_factor = 1.0;
        monitor.observe_link(shared.sim.now(), false, 1.0);
      }
    });
  }

  // -- Elastic controller --------------------------------------------------

  std::uint32_t active_count() const {
    std::uint32_t n = 0;
    for (std::uint32_t k = 0; k < replicas.size(); ++k) {
      if (routable(k)) ++n;
    }
    return n;
  }

  void start_elastic() {
    if (!fleet.elastic.enabled) return;
    shared.sim.schedule_after(interval_ps, [this]() { elastic_tick(); });
  }

  void elastic_tick() {
    record_depth();
    if (shared.all_resolved()) return;  // workload drained: stop the chain
    const ElasticConfig& e = fleet.elastic;

    // Mean waiting depth observed since the last decision (every bucket
    // the series gained), falling back to the instantaneous depth.
    const std::vector<obs::TimeSeriesSampler::Bucket>& buckets =
        depth_series.series(ch_waiting);
    double sum = 0.0;
    std::uint64_t count = 0;
    for (std::size_t b = depth_cursor; b < buckets.size(); ++b) {
      sum += buckets[b].sum;
      count += buckets[b].count;
    }
    depth_cursor = buckets.size();
    const double observed =
        count > 0 ? sum / static_cast<double>(count)
                  : static_cast<double>(total_waiting());

    const std::uint32_t active = active_count();
    const double per = observed / static_cast<double>(std::max(1u, active));
    // The health monitor owns the threshold comparison: its verdict is
    // the same strict >/< check against the same bounds this tick used
    // to make inline, so decisions are bit-identical — and each one now
    // links the incident that argued for it. The monitor sees every
    // sample (incidents track load even while cooldown gags the
    // controller); only the action is gated here.
    const obs::HealthMonitor::DepthVerdict verdict =
        monitor.observe_depth(shared.sim.now(), per);
    if (cooldown > 0) {
      --cooldown;
    } else if (verdict == obs::HealthMonitor::DepthVerdict::kOverloaded &&
               active < e.max_replicas) {
      grow(per);
    } else if (verdict == obs::HealthMonitor::DepthVerdict::kUnderloaded &&
               active > e.min_replicas) {
      shrink(per);
    }
    shared.sim.schedule_after(interval_ps, [this]() { elastic_tick(); });
  }

  void grow(double per) {
    ReplicaSim& r = add_replica();
    peak_replicas = std::max(peak_replicas, active_count());
    cooldown = fleet.elastic.cooldown_intervals;
    ScalingEvent ev;
    ev.at_sec = util::sec_from_ps(shared.sim.now());
    ev.added = true;
    ev.replica = r.index;
    ev.routable_after = active_count();
    ev.depth_per_replica = per;
    ev.incident = static_cast<std::int32_t>(
        monitor.open_incident(obs::IncidentKind::kSaturation));
    scaling_events.push_back(ev);
    if (fleet_tracing) {
      shared.telemetry->tracer().instant(track_control, n_scale_up,
                                         shared.sim.now(), k_replica,
                                         r.index);
    }
  }

  void shrink(double per) {
    // Drain the least-loaded routable replica; ties retire the youngest.
    std::uint32_t victim = std::numeric_limits<std::uint32_t>::max();
    for (std::uint32_t k = 0; k < replicas.size(); ++k) {
      if (!routable(k)) continue;
      if (victim == std::numeric_limits<std::uint32_t>::max() ||
          replicas[k].depth() < replicas[victim].depth() ||
          (replicas[k].depth() == replicas[victim].depth() &&
           k > victim)) {
        victim = k;
      }
    }
    meta[victim].draining = true;
    if (replicas[victim].idle()) {
      meta[victim].retired = true;
      meta[victim].retired_at = shared.sim.now();
    }
    cooldown = fleet.elastic.cooldown_intervals;
    ScalingEvent ev;
    ev.at_sec = util::sec_from_ps(shared.sim.now());
    ev.added = false;
    ev.replica = victim;
    ev.routable_after = active_count();
    ev.depth_per_replica = per;
    ev.incident = static_cast<std::int32_t>(
        monitor.open_incident(obs::IncidentKind::kUnderload));
    scaling_events.push_back(ev);
    if (fleet_tracing) {
      shared.telemetry->tracer().instant(track_control, n_scale_down,
                                         shared.sim.now(), k_replica, victim);
    }
  }

  // -- Aggregation ---------------------------------------------------------

  void fill(FleetReport& report) {
    ServeReport& serve = report.serve;
    serve.admitted = shared.admitted;
    serve.completed = shared.completed;
    serve.shed = shared.shed;
    serve.failed = shared.failed;
    serve.makespan_sec = util::sec_from_ps(shared.last_completion);

    util::SimTime busy_ps = 0;
    util::SimTime capacity_ps = 0;
    double peak_heat = 0.0;
    report.replica_stats.reserve(replicas.size());
    for (std::uint32_t k = 0; k < replicas.size(); ++k) {
      const ReplicaSim& r = replicas[k];
      busy_ps += r.busy_ps;
      serve.link_bytes += r.link_bytes;
      serve.throttled_quanta += r.throttled_quanta;
      peak_heat = std::max(peak_heat, r.heat.peak_heat());
      // Lifetime: join to retirement, or to the fleet makespan for
      // replicas that served to the end. The summed lifetimes are the
      // fleet's capacity — the utilization denominator.
      const util::SimTime end =
          meta[k].retired ? meta[k].retired_at : shared.last_completion;
      const util::SimTime life = end > meta[k].joined ? end - meta[k].joined : 0;
      // Downtime (a still-dead replica counts to the makespan) is not
      // capacity; 0 without faults, so the denominator is unchanged.
      util::SimTime down = meta[k].downtime;
      if (r.dead && meta[k].down_since > 0 && end > meta[k].down_since) {
        down += end - meta[k].down_since;
      }
      const util::SimTime alive = life > down ? life - down : 0;
      capacity_ps += alive;

      ReplicaStats stats;
      stats.replica = k;
      stats.served = r.served;
      stats.quanta = r.quanta;
      stats.busy_sec = util::sec_from_ps(r.busy_ps);
      stats.link_bytes = r.link_bytes;
      stats.throttled_quanta = r.throttled_quanta;
      stats.peak_heat = r.heat.peak_heat();
      stats.joined_sec = util::sec_from_ps(meta[k].joined);
      stats.retired = meta[k].retired;
      stats.retired_sec = util::sec_from_ps(meta[k].retired_at);
      stats.crashes = meta[k].crashes;
      stats.down_sec = util::sec_from_ps(down);
      if (alive > 0) {
        stats.utilization =
            util::sec_from_ps(r.busy_ps) / util::sec_from_ps(alive);
      }
      report.replica_stats.push_back(stats);
    }
    serve.stack_peak_heat = peak_heat;
    summarize_serve(serve, shared, busy_ps, util::sec_from_ps(capacity_ps));

    report.peak_replicas = peak_replicas;
    report.shed_queue = shed_queue;
    report.shed_quota = shed_quota;
    report.shed_deadline = shed_deadline;
    report.migration_bytes = migration_bytes;
    report.migration_sec = util::sec_from_ps(migration_ps);
    report.migrations.reserve(migrations.size());
    for (const MigrationState& state : migrations) {
      report.migrations.push_back(state.record);
    }
    report.incidents = monitor.incidents();
    report.crashes = crashes_total;
    report.restarts = restarts_total;
    report.replacements = replacements_total;
    report.io_error_retries = io_retries_total;
    report.link_degrade_windows = link_windows_total;
    report.availability =
        serve.completed + serve.failed > 0
            ? static_cast<double>(serve.completed) /
                  static_cast<double>(serve.completed + serve.failed)
            : 1.0;

    // Mirror the incident log onto a ("fleet","health") trace track —
    // closed incidents as spans, still-open ones as instants — so the
    // viewer shows outages against the replica timelines and the sink
    // provably captured them.
    if (fleet_tracing) {
      obs::SpanTracer& tr = shared.telemetry->tracer();
      const std::uint16_t track_health = tr.track("fleet", "health");
      const std::uint32_t k_incident = tr.intern("incident");
      for (const obs::Incident& inc : report.incidents) {
        const std::uint32_t name = tr.intern(obs::to_string(inc.kind));
        if (inc.open) {
          tr.instant(track_health, name, inc.opened_ps, k_incident, inc.id);
        } else {
          tr.complete(track_health, name, inc.opened_ps,
                      inc.closed_ps - inc.opened_ps, k_incident, inc.id);
        }
      }
    }

    // Scoped metrics: per-replica and per-tenant counters under labeled
    // keys (unlabeled exports stay byte-identical without them).
    if (shared.telemetry != nullptr && shared.telemetry->metering()) {
      obs::MetricsRegistry& m = shared.telemetry->metrics();
      std::vector<std::uint32_t> handoffs(replicas.size(), 0);
      for (const MigrationState& state : migrations) {
        const std::uint32_t moved = state.record.moved_waiting +
                                    (state.record.moved_active ? 1 : 0);
        handoffs[state.record.from] += moved;
        handoffs[state.record.to] += moved;
      }
      for (std::uint32_t k = 0; k < replicas.size(); ++k) {
        const std::string label = "replica=" + std::to_string(k);
        m.counter("fleet", "served", label).add(replicas[k].served);
        m.counter("fleet", "handoffs", label).add(handoffs[k]);
        m.gauge("fleet", "utilization", label)
            .set(report.replica_stats[k].utilization);
      }
      const std::size_t num_classes = quota_limit.size();
      std::vector<std::uint64_t> t_completed(num_classes, 0);
      std::vector<std::uint64_t> t_goodput(num_classes, 0);
      std::vector<std::uint64_t> t_shed(num_classes, 0);
      std::vector<std::uint64_t> t_violations(num_classes, 0);
      for (const QueryRecord& r : shared.records) {
        if (r.class_index >= num_classes) continue;
        if (r.shed) {
          ++t_shed[r.class_index];
        } else if (r.failed) {
          // Failed queries are neither completed nor goodput; they show
          // up in the serve counters and the availability figure.
          continue;
        } else {
          ++t_completed[r.class_index];
          if (r.slo_violated) {
            ++t_violations[r.class_index];
          } else {
            ++t_goodput[r.class_index];
          }
        }
      }
      for (std::size_t c = 0; c < num_classes; ++c) {
        const std::string label = "tenant=" + std::to_string(c);
        m.counter("fleet", "completed", label).add(t_completed[c]);
        m.counter("fleet", "goodput", label).add(t_goodput[c]);
        m.counter("fleet", "shed", label).add(t_shed[c]);
        m.counter("fleet", "slo_violations", label).add(t_violations[c]);
      }
      for (const obs::Incident& inc : report.incidents) {
        m.counter("fleet", "incidents",
                  std::string("kind=") + obs::to_string(inc.kind))
            .add(1);
      }
    }

    // p99 transients around each scaling event, from the completion
    // record (post-hoc: the event windows are known only at the end).
    const double window = fleet.elastic.transient_window_sec > 0.0
                              ? fleet.elastic.transient_window_sec
                              : 2.0 * fleet.elastic.check_interval_sec;
    report.scaling_events = scaling_events;
    for (ScalingEvent& ev : report.scaling_events) {
      std::vector<double> before, after;
      for (const QueryRecord& r : shared.records) {
        if (r.shed || r.failed) continue;
        const double done = util::sec_from_ps(r.completion);
        if (done >= ev.at_sec - window && done < ev.at_sec) {
          before.push_back(util::us_from_ps(r.completion - r.arrival));
        } else if (done >= ev.at_sec && done <= ev.at_sec + window) {
          after.push_back(util::us_from_ps(r.completion - r.arrival));
        }
      }
      ev.completions_before = static_cast<std::uint32_t>(before.size());
      ev.completions_after = static_cast<std::uint32_t>(after.size());
      ev.p99_before_us = before.empty()
                             ? 0.0
                             : util::percentile(std::move(before), 99.0);
      ev.p99_after_us =
          after.empty() ? 0.0 : util::percentile(std::move(after), 99.0);
    }
  }
};

}  // namespace

void FleetConfig::validate(std::size_t num_classes) const {
  if (replicas == 0) {
    throw std::invalid_argument("fleet needs at least one replica");
  }
  for (const TenantQuota& q : quotas) {
    if (q.class_index >= num_classes) {
      throw std::invalid_argument("quota tenant class " +
                                  std::to_string(q.class_index) +
                                  " out of range (workload has " +
                                  std::to_string(num_classes) + " classes)");
    }
  }
  for (const MigrationPlan& m : migrations) {
    if (m.class_index >= num_classes) {
      throw std::invalid_argument("migration tenant class " +
                                  std::to_string(m.class_index) +
                                  " out of range (workload has " +
                                  std::to_string(num_classes) + " classes)");
    }
    if (m.from >= replicas || m.to >= replicas) {
      throw std::invalid_argument(
          "migration endpoints " + std::to_string(m.from) + "->" +
          std::to_string(m.to) + " out of range for " +
          std::to_string(replicas) + " replicas");
    }
    if (m.from == m.to) {
      throw std::invalid_argument("migration source == target (replica " +
                                  std::to_string(m.from) + ")");
    }
    if (m.at_sec < 0.0) {
      throw std::invalid_argument("migration time must be >= 0");
    }
  }
  if (elastic.enabled) {
    const ElasticConfig& e = elastic;
    if (e.min_replicas == 0) {
      throw std::invalid_argument("elastic min_replicas must be >= 1");
    }
    if (e.min_replicas > replicas || replicas > e.max_replicas) {
      throw std::invalid_argument(
          "elastic bounds must satisfy min <= replicas <= max (" +
          std::to_string(e.min_replicas) + " <= " + std::to_string(replicas) +
          " <= " + std::to_string(e.max_replicas) + ")");
    }
    if (e.check_interval_sec <= 0.0) {
      throw std::invalid_argument("elastic check interval must be > 0");
    }
    if (e.scale_up_depth <= e.scale_down_depth) {
      throw std::invalid_argument(
          "elastic scale_up_depth must exceed scale_down_depth");
    }
  }
  fault::validate(faults);
}

std::string to_string(RouterKind router) {
  switch (router) {
    case RouterKind::kRandom:
      return "random";
    case RouterKind::kJoinShortestQueue:
      return "join-shortest-queue";
    case RouterKind::kClassAffinity:
      return "class-affinity";
  }
  return "unknown";
}

RouterKind router_from_name(const std::string& name) {
  for (const RouterKind r : all_routers()) {
    if (to_string(r) == name) return r;
  }
  std::string valid;
  for (const RouterKind r : all_routers()) {
    if (!valid.empty()) valid += ", ";
    valid += to_string(r);
  }
  throw std::invalid_argument("unknown router '" + name +
                              "' (valid: " + valid + ")");
}

const std::vector<RouterKind>& all_routers() {
  static const std::vector<RouterKind> routers = {
      RouterKind::kRandom, RouterKind::kJoinShortestQueue,
      RouterKind::kClassAffinity};
  return routers;
}

FleetServer::FleetServer(core::SystemConfig config, unsigned jobs)
    : profiler_(std::move(config), jobs) {}

FleetReport FleetServer::serve(const graph::CsrGraph& graph,
                               const FleetRequest& request) {
  request.fleet.validate(resolve_mix(request.workload).size());
  return simulate_fleet(
      profiler_.config(), request,
      profiler_.profile_workload(graph, request.base, request.workload),
      telemetry_);
}

FleetReport simulate_fleet(const core::SystemConfig& config,
                           const FleetRequest& request,
                           ProfiledWorkload workload,
                           obs::Telemetry* telemetry) {
  const WorkloadSpec& spec = request.workload;
  FleetReport report;
  report.router = to_string(request.fleet.router);
  report.replicas = request.fleet.replicas;
  report.peak_replicas = request.fleet.replicas;
  ServeReport& serve = report.serve;
  serve.policy = to_string(request.fleet.serve.policy);
  serve.process = to_string(spec.process);
  serve.offered = static_cast<std::uint32_t>(workload.queries.size());
  if (workload.queries.empty()) return report;
  serve.backend = workload.profiles.front().report.backend;
  serve.access_method = workload.profiles.front().report.access_method;

  serve.queries.resize(workload.queries.size());
  for (std::size_t i = 0; i < workload.queries.size(); ++i) {
    QueryRecord& r = serve.queries[i];
    r.id = workload.queries[i].id;
    r.class_index = workload.queries[i].class_index;
    r.profile_index = workload.query_profile[i];
    r.slo = workload.queries[i].slo;
  }

  const device::ThermalParams& thermal =
      core::stack_thermal(config, request.base.backend);
  device::validate(thermal);

  SimShared shared(request.fleet.serve, spec, workload.queries,
                   workload.profiles, serve.queries, thermal);
  FleetSim sim(request.fleet, shared, resolve_mix(spec).size());
  sim.copy_mbps =
      device::pcie_x16(config.gpu_link_gen).bandwidth_mbps;
  shared.total_depth = [&sim]() { return sim.total_depth(); };
  shared.deliver = [&sim](std::size_t i) { sim.arrive(i); };
  shared.on_complete = [&sim](std::size_t i) { sim.on_complete(i); };
  shared.on_failed = [&sim](std::size_t i) { sim.on_failed(i); };
  sim.attach_telemetry(telemetry);
  sim.schedule_migrations();
  sim.start_elastic();
  sim.schedule_faults();
  std::unique_ptr<obs::SimRunObserver> observer;
  if (shared.telemetry != nullptr) {
    observer =
        std::make_unique<obs::SimRunObserver>(*shared.telemetry, "fleet_sim");
    observer->add_probe(
        "heat",
        [&sim]() {
          double h = 0.0;
          for (const ReplicaSim& r : sim.replicas) {
            h = std::max(h, r.heat.heat());
          }
          return h;
        },
        obs::TimeSeriesSampler::Reduce::kMax);
  }
  shared.run(observer.get());

  sim.fill(report);
  serve.profiles = std::move(workload.profiles);
  return report;
}

void write_incident_log(std::ostream& os, const FleetReport& report) {
  os << "{\"incidents\":[";
  for (std::size_t i = 0; i < report.incidents.size(); ++i) {
    if (i != 0) os << ",\n";
    obs::write_incident_json(os, report.incidents[i]);
  }
  os << "],\n\"scaling\":[";
  for (std::size_t i = 0; i < report.scaling_events.size(); ++i) {
    const ScalingEvent& ev = report.scaling_events[i];
    if (i != 0) os << ",\n";
    os << "{\"at_sec\":" << obs::json_number(ev.at_sec) << ",\"action\":\""
       << (ev.added ? "scale-up" : "scale-down")
       << "\",\"replica\":" << ev.replica
       << ",\"routable_after\":" << ev.routable_after
       << ",\"depth_per_replica\":" << obs::json_number(ev.depth_per_replica)
       << ",\"incident\":" << ev.incident
       << ",\"completions_before\":" << ev.completions_before
       << ",\"completions_after\":" << ev.completions_after
       << ",\"p99_before_us\":" << obs::json_number(ev.p99_before_us)
       << ",\"p99_after_us\":" << obs::json_number(ev.p99_after_us) << "}";
  }
  os << "],\n\"migrations\":[";
  for (std::size_t i = 0; i < report.migrations.size(); ++i) {
    const MigrationRecord& m = report.migrations[i];
    if (i != 0) os << ",\n";
    os << "{\"start_sec\":" << obs::json_number(m.start_sec)
       << ",\"class\":" << m.class_index << ",\"from\":" << m.from
       << ",\"to\":" << m.to << ",\"state_bytes\":" << m.state_bytes
       << ",\"copy_sec\":" << obs::json_number(m.copy_sec)
       << ",\"moved_waiting\":" << m.moved_waiting
       << ",\"moved_active\":" << (m.moved_active ? "true" : "false") << "}";
  }
  os << "]}\n";
}

bool save_incident_log(const std::string& path, const FleetReport& report) {
  std::ofstream out(path);
  if (!out) return false;
  write_incident_log(out, report);
  return static_cast<bool>(out);
}

}  // namespace cxlgraph::serve

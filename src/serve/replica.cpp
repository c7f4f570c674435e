#include "serve/replica.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace cxlgraph::serve {

SimShared::SimShared(const ServeConfig& config_in,
                     const WorkloadSpec& spec_in,
                     const std::vector<Query>& queries_in,
                     const std::vector<QueryProfile>& profiles_in,
                     std::vector<QueryRecord>& records_in,
                     const device::ThermalParams& thermal_in)
    : config(config_in), spec(spec_in), queries(queries_in),
      profiles(profiles_in), records(records_in), thermal(thermal_in),
      next_step(queries_in.size(), 0) {
  remaining_after.resize(profiles.size());
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const std::vector<util::SimTime>& steps = profiles[p].step_ps;
    std::vector<util::SimTime>& suffix = remaining_after[p];
    suffix.assign(steps.size() + 1, 0);
    for (std::size_t k = steps.size(); k-- > 0;) {
      suffix[k] = suffix[k + 1] + steps[k];
    }
  }
}

void SimShared::attach_telemetry(obs::Telemetry* sink) {
  if (sink == nullptr || !sink->enabled()) return;
  telemetry = sink;
  if (sink->tracing()) {
    tracing = true;
    obs::SpanTracer& tr = sink->tracer();
    track_lifecycle = tr.track("serve", "lifecycle");
    n_admit = tr.intern("admit");
    n_shed = tr.intern("shed");
    n_complete = tr.intern("complete");
    n_failed = tr.intern("failed");
    n_queued = tr.intern("queued");
    k_query = tr.intern("query");
    n_flow = tr.intern("query");
  }
  if (sink->metering()) {
    obs::MetricsRegistry& m = sink->metrics();
    c_admitted = &m.counter("serve", "admitted");
    c_shed = &m.counter("serve", "shed");
    c_completed = &m.counter("serve", "completed");
    c_failed = &m.counter("serve", "failed");
    h_latency_ns = &m.histogram("serve", "latency_ns");
  }
  if (sink->sampling()) {
    sampling = true;
    ch_depth = sink->sampler().channel("serve/queue_depth",
                                       obs::TimeSeriesSampler::Reduce::kMax);
  }
}

void SimShared::note_admission(std::size_t i, bool was_shed) {
  const QueryRecord& r = records[i];
  if (tracing) {
    telemetry->tracer().instant(track_lifecycle,
                                was_shed ? n_shed : n_admit, sim.now(),
                                k_query, r.id);
    // Every admitted query opens a causal flow; its quanta and migration
    // hops add steps and completion finishes it. Shed queries never
    // start one, so every 's' in an export has a matching 'f'.
    if (!was_shed) {
      telemetry->tracer().flow_start(track_lifecycle, n_flow, sim.now(), r.id);
    }
  }
  if (c_admitted != nullptr) (was_shed ? c_shed : c_admitted)->add(1);
  if (sampling && !was_shed) sample_depth();
}

void SimShared::note_completion(std::size_t i) {
  const QueryRecord& r = records[i];
  if (tracing) {
    telemetry->tracer().instant(track_lifecycle, n_complete, sim.now(),
                                k_query, r.id);
    telemetry->tracer().flow_end(track_lifecycle, n_flow, sim.now(), r.id);
  }
  if (c_completed != nullptr) {
    c_completed->add(1);
    h_latency_ns->add((r.completion - r.arrival) / util::kPsPerNs);
  }
}

void SimShared::note_queued(std::size_t i) {
  if (!tracing) return;
  const QueryRecord& r = records[i];
  telemetry->tracer().complete(track_lifecycle, n_queued, r.arrival,
                               r.first_service - r.arrival, k_query, r.id);
}

void SimShared::sample_depth() {
  if (sampling && total_depth) {
    telemetry->sampler().record(ch_depth, sim.now(), total_depth());
  }
}

void SimShared::shed_query(std::size_t i) {
  QueryRecord& r = records[i];
  r.shed = true;
  ++shed;
  if (telemetry != nullptr) note_admission(i, /*was_shed=*/true);
  // A shed query does not stall its closed-loop client.
  if (spec.process == ArrivalProcess::kClosedLoop) {
    issue_next(static_cast<std::uint32_t>(i % spec.num_clients));
  }
}

void SimShared::fail_query(std::size_t i) {
  QueryRecord& r = records[i];
  r.failed = true;
  ++failed;
  if (telemetry != nullptr) note_failed(i);
  // A failed query does not stall its closed-loop client either.
  if (spec.process == ArrivalProcess::kClosedLoop) {
    issue_next(static_cast<std::uint32_t>(i % spec.num_clients));
  }
  if (on_failed) on_failed(i);
}

void SimShared::note_failed(std::size_t i) {
  const QueryRecord& r = records[i];
  if (tracing) {
    telemetry->tracer().instant(track_lifecycle, n_failed, sim.now(),
                                k_query, r.id);
    // The admission opened a flow; failure terminates it so every 's'
    // still has a matching 'f' in the export.
    telemetry->tracer().flow_end(track_lifecycle, n_flow, sim.now(), r.id);
  }
  if (c_failed != nullptr) c_failed->add(1);
}

void SimShared::complete_query(std::size_t i) {
  QueryRecord& r = records[i];
  r.completion = sim.now();
  // Sojourn splits exactly into queue + service + lost: stack time a
  // crash discarded is its own component (lost_ps); retry backoff waits
  // land in queue with the rest of the non-service time.
  r.queue_ps = r.completion - r.arrival - r.service_ps - r.lost_ps;
  r.slo_violated = r.completion - r.arrival > r.slo;
  last_completion = std::max(last_completion, r.completion);
  completion_order_latency_us.push_back(
      util::us_from_ps(r.completion - r.arrival));
  ++completed;
  if (telemetry != nullptr) note_completion(i);
  if (spec.process == ArrivalProcess::kClosedLoop) {
    issue_next(static_cast<std::uint32_t>(i % spec.num_clients));
  }
  if (on_complete) on_complete(i);
}

void SimShared::issue_next(std::uint32_t client) {
  if (client_cursor[client] == client_queries[client].size()) return;
  const std::size_t i = client_queries[client][client_cursor[client]++];
  sim.schedule_after(queries[i].think_gap, [this, i]() { deliver(i); });
}

void SimShared::run(obs::SimRunObserver* observer) {
  if (spec.process == ArrivalProcess::kOpenLoopPoisson) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      sim.schedule_at(queries[i].arrival, [this, i]() { deliver(i); });
    }
  } else {
    client_queries.resize(spec.num_clients);
    client_cursor.assign(spec.num_clients, 0);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      client_queries[i % spec.num_clients].push_back(i);
    }
    for (std::uint32_t c = 0; c < spec.num_clients; ++c) issue_next(c);
  }
  if (observer != nullptr) sim.set_observer(observer);
  sim.run();
  if (observer != nullptr) {
    observer->finish();
    sim.set_observer(nullptr);
  }
}

// ---------------------------------------------------------------------------
// ReplicaSim
// ---------------------------------------------------------------------------

void ReplicaSim::attach_telemetry() {
  obs::Telemetry* sink = shared.telemetry;
  if (sink == nullptr) return;
  const std::string name = "replica" + std::to_string(index);
  if (sink->tracing()) {
    replica_tracing_ = true;
    track_ = sink->tracer().track("serve", name);
    n_quantum_ = sink->tracer().intern("quantum");
  }
  if (sink->sampling()) {
    replica_sampling_ = true;
    ch_bytes_ = sink->sampler().channel(
        "serve/" + name + "/quantum_bytes",
        obs::TimeSeriesSampler::Reduce::kSum);
    ch_depth_ = sink->sampler().channel(
        "serve/" + name + "/depth", obs::TimeSeriesSampler::Reduce::kMax);
  }
  heat_trace_.bind(sink, "serve", name + "-heat");
}

void ReplicaSim::note_quantum(std::size_t i, util::SimTime duration,
                              std::uint64_t bytes) {
  if (replica_tracing_) {
    shared.telemetry->tracer().complete(track_, n_quantum_, shared.sim.now(),
                                        duration, shared.k_query,
                                        shared.records[i].id);
    // Chain this quantum into the query's flow on the replica's track —
    // the step lands at quantum start, so it always precedes the 'f'
    // the completion will add.
    shared.telemetry->tracer().flow_step(track_, shared.n_flow,
                                         shared.sim.now(),
                                         shared.records[i].id);
  }
  if (replica_sampling_) {
    shared.telemetry->sampler().record(ch_bytes_, shared.sim.now(),
                                       static_cast<double>(bytes));
    shared.sample_depth();
  }
}

void ReplicaSim::sample_replica_depth() {
  if (replica_sampling_) {
    shared.telemetry->sampler().record(ch_depth_, shared.sim.now(), depth());
  }
}

void ReplicaSim::place(std::size_t i) {
  shared.records[i].replica = index;
  backlog_ps += shared.remaining_ps(i);
  ready.push_back(i);
}

void ReplicaSim::admit(std::size_t i) {
  ++shared.admitted;
  place(i);
  if (shared.telemetry != nullptr) {
    shared.note_admission(i, /*was_shed=*/false);
    sample_replica_depth();
  }
  dispatch();
}

void ReplicaSim::resume(std::size_t i) {
  place(i);
  if (shared.telemetry != nullptr) {
    // Migration resume: the query's flow continues on this replica.
    if (replica_tracing_) {
      shared.telemetry->tracer().flow_step(track_, shared.n_flow,
                                           shared.sim.now(),
                                           shared.records[i].id);
    }
    sample_replica_depth();
  }
  dispatch();
}

std::vector<std::size_t> ReplicaSim::extract_waiting(
    std::uint32_t class_index) {
  std::vector<std::size_t> moved;
  for (auto it = ready.begin(); it != ready.end();) {
    if (shared.records[*it].class_index == class_index) {
      backlog_ps -= shared.remaining_ps(*it);
      moved.push_back(*it);
      it = ready.erase(it);
    } else {
      ++it;
    }
  }
  if (shared.telemetry != nullptr && !moved.empty()) {
    // Migration drain: each moved query's flow steps through the source
    // replica one last time before resuming on the target.
    if (replica_tracing_) {
      for (const std::size_t i : moved) {
        shared.telemetry->tracer().flow_step(track_, shared.n_flow,
                                             shared.sim.now(),
                                             shared.records[i].id);
      }
    }
    sample_replica_depth();
  }
  return moved;
}

std::size_t ReplicaSim::mark_redirect(std::uint32_t class_index,
                                      std::function<void(std::size_t)> sink) {
  if (active == kNoQuery ||
      shared.records[active].class_index != class_index) {
    return kNoQuery;
  }
  redirect_query_ = active;
  redirect_sink_ = std::move(sink);
  return active;
}

void ReplicaSim::on_crash() {
  dead = true;
  redirect_query_ = kNoQuery;
  redirect_sink_ = nullptr;
}

std::vector<std::size_t> ReplicaSim::take_all_waiting() {
  std::vector<std::size_t> drained(ready.begin(), ready.end());
  for (const std::size_t i : drained) backlog_ps -= shared.remaining_ps(i);
  ready.clear();
  if (shared.telemetry != nullptr) sample_replica_depth();
  return drained;
}

std::size_t ReplicaSim::abort_active() {
  if (active == kNoQuery) return kNoQuery;
  const std::size_t i = active;
  active = kNoQuery;
  // The quantum's completion event is already in the simulator's queue;
  // flag it for the swallow in quantum_done. next_step advanced at
  // dispatch, so remaining_ps(i) is exactly the backlog still booked.
  discard_pending_ = true;
  backlog_ps -= shared.remaining_ps(i);
  return i;
}

void ReplicaSim::dispatch() {
  // A dead replica never dispatches; neither does one whose aborted
  // quantum's completion event is still in flight (it would double-book
  // the stack — quantum_done clears the flag and re-dispatches).
  if (dead || discard_pending_ || active != kNoQuery || ready.empty()) return;
  std::size_t i;
  if (shared.config.policy == SchedulingPolicy::kSloPriority) {
    auto best = ready.begin();
    for (auto it = std::next(ready.begin()); it != ready.end(); ++it) {
      if (shared.deadline(*it) < shared.deadline(*best)) best = it;
    }
    i = *best;
    ready.erase(best);
  } else {
    i = ready.front();
    ready.pop_front();
  }

  active = i;
  QueryRecord& r = shared.records[i];
  const QueryProfile& p = shared.profiles[r.profile_index];
  // first_service survives crash recovery (next_step resets to 0 but the
  // query did reach a stack), so the guard checks both.
  if (shared.next_step[i] == 0 && r.first_service == 0) {
    r.first_service = shared.sim.now();
    if (shared.telemetry != nullptr) shared.note_queued(i);
  }
  const std::size_t remaining = p.step_ps.size() - shared.next_step[i];
  const std::size_t quantum =
      shared.config.policy == SchedulingPolicy::kFifo
          ? remaining
          : std::min<std::size_t>(
                std::max<std::uint32_t>(shared.config.quantum_supersteps, 1),
                remaining);
  util::SimTime duration = 0;
  std::uint64_t bytes = 0;
  for (std::size_t k = shared.next_step[i];
       k < shared.next_step[i] + quantum; ++k) {
    duration += p.step_ps[k];
    bytes += p.step_bytes[k];
  }
  backlog_ps -= duration;  // profiled demand now in service
  if (shared.thermal.enabled) {
    // Quantum bytes heat the stack; once the accumulator crosses the
    // budget the whole quantum serves at the derated bandwidth. The
    // bytes themselves are unchanged — conservation still holds.
    const double mult = heat.charge(shared.thermal, shared.sim.now(), bytes);
    if (mult > 1.0) {
      duration = static_cast<util::SimTime>(
          static_cast<double>(duration) * mult + 0.5);
      ++throttled_quanta;
    }
    if (heat_trace_.bound()) {
      heat_trace_.on_thermal(shared.sim.now(), heat.throttled());
    }
    if (shared.on_throttle) {
      const bool throttled_now = heat.throttled();
      if (throttled_now != throttle_state_) {
        throttle_state_ = throttled_now;
        shared.on_throttle(index, throttled_now);
      }
    }
  }
  if (shared.fault_stretch) {
    // Fault seam: transient I/O-error retries and link-degrade windows
    // add wall time to the quantum. Bytes are unchanged and the backlog
    // estimate stays profiled, matching the thermal convention above.
    duration += shared.fault_stretch(index, duration);
  }
  shared.next_step[i] += quantum;
  r.service_ps += duration;
  r.service_bytes += bytes;
  busy_ps += duration;
  link_bytes += bytes;
  ++quanta;
  if (shared.telemetry != nullptr) note_quantum(i, duration, bytes);
  shared.sim.schedule_after(duration, [this]() { quantum_done(); });
}

void ReplicaSim::quantum_done() {
  if (discard_pending_) {
    // This completion belonged to a quantum aborted by a crash; its
    // effects already moved to the lost-work ledger. Swallow it and, if
    // the replica has since revived, resume dispatching.
    discard_pending_ = false;
    if (!dead) dispatch();
    return;
  }
  const std::size_t i = active;
  active = kNoQuery;
  QueryRecord& r = shared.records[i];
  if (shared.next_step[i] == shared.profiles[r.profile_index].step_ps.size()) {
    if (redirect_query_ == i) {
      // The marked tenant query finished at the source before yielding;
      // nothing in-flight moves (its state copy was already charged).
      redirect_query_ = kNoQuery;
      redirect_sink_ = nullptr;
    }
    ++served;
    shared.complete_query(i);
  } else if (redirect_query_ == i) {
    // Live migration: the in-flight tenant query yields here and resumes
    // on the target (next_step preserved) instead of requeueing locally.
    backlog_ps -= shared.remaining_ps(i);
    std::function<void(std::size_t)> sink = std::move(redirect_sink_);
    redirect_query_ = kNoQuery;
    redirect_sink_ = nullptr;
    sink(i);
  } else {
    ready.push_back(i);
  }
  if (shared.telemetry != nullptr) sample_replica_depth();
  dispatch();
}

// ---------------------------------------------------------------------------
// Shared aggregation
// ---------------------------------------------------------------------------

void summarize_serve(ServeReport& report, const SimShared& shared,
                     util::SimTime busy_ps, double capacity_sec) {
  std::vector<double> latency_us, queue_us, service_us;
  latency_us.reserve(report.completed);
  std::uint32_t met_slo = 0;
  util::SimTime queue_total = 0, service_total = 0;
  util::SimTime lost_total = 0;
  for (const QueryRecord& r : shared.records) {
    // The crash-recovery ledger sums over every record: failed (and any
    // unresolved) queries' discarded bytes must still balance the link.
    report.query_retries += r.retries;
    report.lost_bytes += r.lost_bytes;
    lost_total += r.lost_ps;
    if (r.shed || r.failed) continue;
    latency_us.push_back(util::us_from_ps(r.completion - r.arrival));
    queue_us.push_back(util::us_from_ps(r.queue_ps));
    service_us.push_back(util::us_from_ps(r.service_ps));
    queue_total += r.queue_ps;
    service_total += r.service_ps;
    if (!r.slo_violated) ++met_slo;
    report.query_bytes += shared.profiles[r.profile_index].report.fetched_bytes;
  }
  report.lost_work_sec = util::sec_from_ps(lost_total);
  report.latency_us = util::summarize_percentiles(std::move(latency_us));
  report.queue_us = util::summarize_percentiles(std::move(queue_us));
  report.service_us = util::summarize_percentiles(std::move(service_us));
  util::StreamingQuantile p50(0.50), p95(0.95), p99(0.99);
  for (const double x : shared.completion_order_latency_us) {
    p50.add(x);
    p95.add(x);
    p99.add(x);
  }
  report.streaming_p50_us = p50.estimate();
  report.streaming_p95_us = p95.estimate();
  report.streaming_p99_us = p99.estimate();
  const auto rel_error = [](double exact, double estimate) {
    return exact > 0.0 ? std::fabs(estimate - exact) / exact : 0.0;
  };
  report.p2_max_rel_error = std::max(
      {rel_error(report.latency_us.p50, report.streaming_p50_us),
       rel_error(report.latency_us.p95, report.streaming_p95_us),
       rel_error(report.latency_us.p99, report.streaming_p99_us)});
  report.time_in_queue_sec = util::sec_from_ps(queue_total);
  report.time_in_service_sec = util::sec_from_ps(service_total);
  if (report.makespan_sec > 0.0) {
    report.completed_qps =
        static_cast<double>(report.completed) / report.makespan_sec;
    report.goodput_qps = static_cast<double>(met_slo) / report.makespan_sec;
  }
  if (capacity_sec > 0.0) {
    report.utilization = util::sec_from_ps(busy_ps) / capacity_sec;
  }
  if (report.completed > 0) {
    report.slo_violation_rate =
        static_cast<double>(report.completed - met_slo) /
        static_cast<double>(report.completed);
  }
}

}  // namespace cxlgraph::serve

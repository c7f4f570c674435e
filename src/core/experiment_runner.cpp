#include "core/experiment_runner.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace cxlgraph::core {

ExperimentRunner::ExperimentRunner(SystemConfig config, unsigned jobs)
    : config_(std::move(config)), jobs_(jobs) {}

unsigned ExperimentRunner::workers() const noexcept {
  if (jobs_ == 1) return 1;
  if (pool_) return pool_->size();
  return jobs_ == 0 ? std::max(1u, std::thread::hardware_concurrency())
                    : jobs_;
}

util::ThreadPool& ExperimentRunner::ensure_pool() {
  if (!pool_) pool_ = std::make_unique<util::ThreadPool>(jobs_);
  return *pool_;
}

std::vector<RunReport> ExperimentRunner::run_all(
    const std::vector<SweepJob>& jobs) {
  for (const SweepJob& job : jobs) {
    if (job.graph == nullptr) {
      throw std::invalid_argument("SweepJob with null graph");
    }
  }

  // Every default-config job shares one runtime, so each distinct access
  // trace in the sweep is built once (see ExternalGraphRuntime's trace
  // memo); a job with its own SystemConfig gets its own runtime.
  ExternalGraphRuntime shared(config_);
  std::vector<std::function<RunReport()>> tasks;
  tasks.reserve(jobs.size());
  for (const SweepJob& job : jobs) {
    tasks.push_back([&shared, &job] {
      if (!job.config) return shared.run(*job.graph, job.request);
      ExternalGraphRuntime custom(*job.config);
      return custom.run(*job.graph, job.request);
    });
  }
  return map_tasks(tasks);
}

std::vector<TraceRunResult> ExperimentRunner::run_traces(
    const std::vector<TraceJob>& jobs) {
  for (const TraceJob& job : jobs) {
    if (job.trace == nullptr) {
      throw std::invalid_argument("TraceJob with null trace");
    }
  }
  std::vector<std::function<TraceRunResult()>> tasks;
  tasks.reserve(jobs.size());
  for (const TraceJob& job : jobs) {
    tasks.push_back([this, &job] {
      const ExternalGraphRuntime rt(job.config ? *job.config : config_);
      return rt.run_trace(*job.trace, job.request, job.edge_list_bytes);
    });
  }
  return map_tasks(tasks);
}

std::vector<RunReport> ExperimentRunner::run_all(
    const graph::CsrGraph& graph, const std::vector<RunRequest>& requests) {
  std::vector<SweepJob> jobs(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    jobs[i].graph = &graph;
    jobs[i].request = requests[i];
  }
  return run_all(jobs);
}

RunReport ExperimentRunner::run(const graph::CsrGraph& graph,
                                const RunRequest& request) {
  ExternalGraphRuntime rt(config_);
  return rt.run(graph, request);
}

}  // namespace cxlgraph::core

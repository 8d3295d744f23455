#include "service/parallel.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <thread>

#include "probing/prober.h"
#include "util/thread_pool.h"

namespace revtr::service {

ParallelCampaignDriver::ParallelCampaignDriver(const CampaignDeps& deps,
                                              ParallelCampaignOptions options)
    : deps_(deps), options_(options) {}

void ParallelCampaignDriver::precompute_ingress_plans() {
  util::Rng rng(util::mix_hash(options_.seed, 0x1a9e55ULL));
  for (const auto& prefix : deps_.topo.prefixes()) {
    if (deps_.ingress.plan_for(prefix.id) == nullptr) {
      deps_.ingress.discover(prefix.id, deps_.topo.vantage_points(), rng);
    }
  }
}

ParallelCampaignReport ParallelCampaignDriver::run(
    std::span<const std::pair<topology::HostId, topology::HostId>> pairs) {
  const auto wall_begin = std::chrono::steady_clock::now();

  // Every prefix gets its ingress plan now, on this thread, through the
  // ingress module's own prober. Workers then only ever *read* plans, and a
  // plan pointer held across a spoofed batch cannot be invalidated by a
  // concurrent on-demand survey.
  precompute_ingress_plans();

  const std::size_t workers = std::max<std::size_t>(options_.workers, 1);
  // One scheduler shared by every worker (staged mode uses it): coalescing
  // and per-VP windows apply across the whole campaign, not per worker.
  sched::ProbeScheduler scheduler(options_.sched);
  auto caches = std::make_shared<core::EngineCaches>();
  std::vector<std::unique_ptr<RequestRunner>> runners;
  runners.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    runners.push_back(std::make_unique<RequestRunner>(
        deps_, options_.engine, options_.seed, caches, scheduler, w));
  }

  // Metric handles are registered once, up front, and shared by every
  // worker: the counters shard internally per worker thread, so attaching
  // the same handle set to all stacks is both correct and the cheap path.
  std::optional<probing::ProbeMetrics> probe_metrics;
  std::optional<core::EngineMetrics> engine_metrics;
  if (options_.metrics != nullptr) {
    probe_metrics.emplace(*options_.metrics);
    engine_metrics.emplace(*options_.metrics);
    for (const auto& runner : runners) {
      runner->stack().prober.set_metrics(&*probe_metrics);
      runner->stack().engine.set_metrics(&*engine_metrics);
    }
  }

  ParallelCampaignReport report;
  report.results.resize(pairs.size());
  std::vector<double>& busy = report.worker_busy_seconds;
  busy.assign(workers, 0.0);

  // Sampling by input index keeps the sampled *set* independent of which
  // worker runs a request.
  const auto trace_sink_for = [this](std::size_t i) -> obs::TraceSink* {
    const bool sampled = options_.trace_sink != nullptr &&
                         options_.trace_sample_every > 0 &&
                         i % options_.trace_sample_every == 0;
    return sampled ? options_.trace_sink : nullptr;
  };

  std::optional<sched::SchedMetrics> sched_metrics;
  // Blocking mode: a slot's clock runs on across the requests it serves.
  std::vector<util::SimClock> clocks(workers);
  // Both modes run on one pool, declared after everything its tasks use;
  // get() on the futures is the barrier and rethrows what a worker threw.
  util::ThreadPool pool(workers);
  std::vector<std::future<void>> futures;
  if (options_.mode == EngineMode::kStaged) {
    if (options_.metrics != nullptr) {
      sched_metrics.emplace(*options_.metrics);
      scheduler.set_metrics(&*sched_metrics);
    }
    // Worker w owns the requests whose input index ≡ w mod workers, and
    // starts them all before its first pump so overlapping initial demands
    // coalesce. Any runner's pump issues every queued probe, so a runner
    // finishes even if the pool runs it after another.
    for (std::size_t w = 0; w < workers; ++w) {
      futures.push_back(pool.submit([&, w] {
        RequestRunner& runner = *runners[w];
        for (std::size_t i = w; i < pairs.size(); i += workers) {
          runner.start(
              i, pairs[i].first, pairs[i].second,
              [&, w, i](core::ReverseTraceroute result) {
                busy[w] += result.span.seconds();
                report.results[i] = std::move(result);
              },
              trace_sink_for(i));
        }
        RequestRunner::PumpStep pump;
        pump.pacing_scale = options_.pacing_scale;
        while (runner.active() > 0) runner.step(pump);
      }));
    }
  } else {
    futures.reserve(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      futures.push_back(pool.submit([&, i] {
        const std::size_t w = util::ThreadPool::current_worker();
        REVTR_CHECK(w != util::ThreadPool::kNotAWorker);
        WorkerStack& stack = runners[w]->stack();
        // Per-request reseed from (campaign seed, request index): any
        // residual RNG use in the engine draws the same stream no matter
        // which worker runs the request or what ran before it.
        stack.engine.reseed(request_seed(options_.seed, i));
        // The Trace is thread-private until published.
        obs::TraceSink* const sink = trace_sink_for(i);
        std::optional<obs::Trace> trace;
        if (sink != nullptr) {
          trace.emplace();
          trace->request_index = i;
          stack.engine.set_trace(&*trace);
        }
        auto result =
            stack.engine.measure(pairs[i].first, pairs[i].second, clocks[w]);
        if (sink != nullptr) {
          stack.engine.set_trace(nullptr);
          sink->publish(*std::move(trace));
        }
        const double latency = result.span.seconds();
        busy[w] += latency;
        report.results[i] = std::move(result);
        // Latency pacing: hold this worker slot for real time proportional
        // to the simulated request latency, modelling the deployment's
        // latency-bound slots (most of a request is spent waiting out 10 s
        // spoofed-batch timeouts, §5.2.4).
        if (options_.pacing_scale > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(
              latency * options_.pacing_scale));
        }
      }));
    }
  }
  for (auto& future : futures) future.get();
  if (options_.mode == EngineMode::kStaged) report.sched = scheduler.stats();

  // Merge at the barrier: workers are joined, so no locks are needed, and
  // results fold in input order whatever the scheduling was.
  CampaignStats& stats = report.stats;
  stats.requested = pairs.size();
  for (const auto& result : report.results) stats.record(result);
  for (const auto& runner : runners) {
    stats.probes += runner->stack().prober.counters();  // Overflow-checked.
  }
  // The campaign is as long (in simulated time) as its busiest worker.
  stats.duration_seconds = *std::max_element(busy.begin(), busy.end());

  // Merge-at-barrier snapshot: workers are joined, so the sharded counters
  // hold every request's contribution and the snapshot is deterministic for
  // a given measurement set.
  if (options_.metrics != nullptr) {
    report.metrics = options_.metrics->snapshot();
  }

  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin)
          .count();
  return report;
}

}  // namespace revtr::service

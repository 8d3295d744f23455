#include "service/runner.h"

#include <chrono>
#include <thread>
#include <utility>

#include "util/check.h"

namespace revtr::service {

// Bound on an idle step's wait: remote dispatch rounds, which refill the
// per-VP tokens, must keep coming while every queued demand is throttled.
constexpr std::chrono::milliseconds kIdleWait{1};

WorkerStack::WorkerStack(const CampaignDeps& deps,
                         const core::EngineConfig& config, std::uint64_t seed,
                         std::shared_ptr<core::EngineCaches> caches)
    : network(deps.topo, deps.plane, network_seed(seed)),
      prober(network),
      engine(prober, deps.topo, deps.atlas, deps.ingress, deps.ip2as,
             deps.relationships, config, network_seed(seed)) {
  engine.set_shared_caches(std::move(caches));
}

std::uint64_t network_seed(std::uint64_t seed) {
  return util::mix_hash(seed, 0x6e7ULL);
}

std::uint64_t request_seed(std::uint64_t seed, std::uint64_t index) {
  return util::mix_hash(seed, index, 0xca3aULL);
}

void RequestRunner::start(std::uint64_t id, topology::HostId destination,
                          topology::HostId source, Completion done,
                          obs::TraceSink* trace_sink) {
  auto [it, inserted] = active_.try_emplace(id, request_seed(seed_, id));
  REVTR_CHECK(inserted);
  ActiveRequest& request = it->second;
  request.done = std::move(done);
  if (trace_sink != nullptr) {
    request.trace_sink = trace_sink;
    request.trace.emplace();
    request.trace->request_index = id;
  }
  request.task = stack_.engine.start_request(
      destination, source, request.clock, request.rng,
      request.trace ? &*request.trace : nullptr);
  advance(it);
}

void RequestRunner::advance(Active::iterator it) {
  ActiveRequest& request = it->second;
  const auto demands = request.task->advance();
  if (!request.task->done()) {
    scheduler_.submit(it->first, owner_, {demands.begin(), demands.end()});
    return;
  }
  auto result = request.task->take_result();
  if (request.trace) request.trace_sink->publish(*std::move(request.trace));
  const Completion done = std::move(request.done);
  active_.erase(it);
  done(std::move(result));
}

void RequestRunner::step(const PumpStep& pump) {
  // Sampled before pumping, so progress made meanwhile by any thread cuts
  // an idle wait short.
  const std::uint64_t seen = scheduler_.progress();
  std::size_t moved = 0;
  util::SimClock::Micros round_us = 0;
  if (pump.dispatch) {
    moved = pump.dispatch();
  } else {
    const auto pumped = scheduler_.pump(stack_.prober);
    moved = pumped.issued;
    round_us = pumped.round_duration_us;
  }
  const auto ready = scheduler_.collect_ready(owner_);
  for (const auto& resolved : ready) {
    const auto it = active_.find(resolved.task);
    REVTR_CHECK(it != active_.end());
    it->second.task->supply(resolved.outcomes);
    advance(it);
  }
  if (pump.pacing_scale > 0 && round_us > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        static_cast<double>(round_us) * 1e-6 * pump.pacing_scale));
  } else if (ready.empty() && moved == 0) {
    // Our outcomes are executing in another worker's round or on an agent,
    // or throttled until a later round's refill (a local round that deferred
    // everything counts as progress, so a lone worker re-pumps at once).
    scheduler_.wait_for_progress(seen, kIdleWait);
  }
}

}  // namespace revtr::service

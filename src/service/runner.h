// The one request-execution loop (DESIGN.md §10, §14, §15). A
// RequestRunner drives one worker's requests as resumable core::RequestTasks
// over the shared sched::ProbeScheduler, where identical in-flight demands
// from any worker's requests coalesce into one wire probe (Doubletree's
// shared stop set, applied to probes in flight). ParallelCampaignDriver's
// staged mode and ServerDaemon's workers are thin front ends over it: each
// chooses when requests start, what happens to a finished one (the
// completion passed to start()), and how probes move (the PumpStep).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "asmap/asmap.h"
#include "atlas/atlas.h"
#include "core/request_task.h"
#include "core/revtr.h"
#include "obs/trace.h"
#include "probing/prober.h"
#include "routing/forwarding.h"
#include "sched/scheduler.h"
#include "sim/network.h"
#include "topology/topology.h"
#include "util/rng.h"
#include "util/sim_clock.h"
#include "vpselect/ingress.h"

namespace revtr::service {

// Everything a worker measurement stack hangs off. The atlas and ingress
// survey must already be built/buildable through their own (control-plane)
// prober; worker probers are created internally.
struct CampaignDeps {
  const topology::Topology& topo;
  const routing::ForwardingPlane& plane;
  atlas::TracerouteAtlas& atlas;
  vpselect::IngressDiscovery& ingress;
  const asmap::IpToAs& ip2as;
  const asmap::AsRelationships& relationships;
};

// One worker's private measurement stack; members reference earlier ones,
// so it never moves. Stacks built from one `seed` share a network seed and
// probe outcomes are pure functions of probe content, so a request measures
// the same path on any worker. `caches` is shared by all workers.
struct WorkerStack {
  sim::Network network;
  probing::Prober prober;
  core::RevtrEngine engine;

  WorkerStack(const CampaignDeps& deps, const core::EngineConfig& config,
              std::uint64_t seed, std::shared_ptr<core::EngineCaches> caches);
  WorkerStack(const WorkerStack&) = delete;
  WorkerStack& operator=(const WorkerStack&) = delete;
};

// The Network (and engine) seed of every worker stack built from `seed`. A
// VP agent builds its Network from it too, which is what makes its probe
// replies byte-identical to a worker's own prober.
std::uint64_t network_seed(std::uint64_t seed);

// The engine RNG seed of request `index`: the same stream whichever worker
// runs the request and whatever ran before it.
std::uint64_t request_seed(std::uint64_t seed, std::uint64_t index);

class RequestRunner {
 public:
  using Completion = std::function<void(core::ReverseTraceroute)>;

  // How a step moves queued probes. Local (no `dispatch`): pump one round
  // on this worker's prober, then hold the worker for the round's simulated
  // duration times `pacing_scale`. Remote: `dispatch` hands probes to agents
  // and returns how many it moved. An idle step (nothing moved or resumed)
  // waits for scheduler progress: a delivery, a submit, or a local round
  // that deferred everything (rounds refill the per-VP tokens, so a lone
  // throttled worker re-pumps without sleeping).
  struct PumpStep {
    std::function<std::size_t()> dispatch;
    double pacing_scale = 0.0;
  };

  // `owner` tags this runner's demand sets; unique per scheduler.
  RequestRunner(const CampaignDeps& deps, const core::EngineConfig& config,
                std::uint64_t seed, std::shared_ptr<core::EngineCaches> caches,
                sched::ProbeScheduler& scheduler, std::size_t owner)
      : stack_(deps, config, seed, std::move(caches)),
        scheduler_(scheduler),
        owner_(owner),
        seed_(seed) {}
  RequestRunner(const RequestRunner&) = delete;
  RequestRunner& operator=(const RequestRunner&) = delete;

  WorkerStack& stack() noexcept { return stack_; }
  // Requests started and not yet completed.
  std::size_t active() const noexcept { return active_.size(); }

  // Starts request `id` (a scheduler task id, unique per scheduler; it also
  // seeds the request's RNG). `done` runs on this thread when the request
  // finishes, inside this call if it needs no probe. With a `trace_sink`
  // the request's span tree is published there.
  void start(std::uint64_t id, topology::HostId destination,
             topology::HostId source, Completion done,
             obs::TraceSink* trace_sink = nullptr);

  // One pump step, then resumes every request whose demand set resolved.
  void step(const PumpStep& pump);

 private:
  // A task holds references into its ActiveRequest (clock, RNG, trace);
  // unordered_map keeps element addresses stable.
  struct ActiveRequest {
    util::SimClock clock;  // Fresh: latency is this request's own probes.
    util::Rng rng;
    std::optional<obs::Trace> trace;
    obs::TraceSink* trace_sink = nullptr;
    Completion done;
    std::unique_ptr<core::RequestTask> task;
    explicit ActiveRequest(std::uint64_t rng_seed) : rng(rng_seed) {}
  };
  using Active = std::unordered_map<std::uint64_t, ActiveRequest>;

  // Submits the request's next demand set, or completes it when done.
  void advance(Active::iterator it);

  WorkerStack stack_;
  sched::ProbeScheduler& scheduler_;
  const std::size_t owner_;
  const std::uint64_t seed_;
  Active active_;
};

}  // namespace revtr::service

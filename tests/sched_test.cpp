#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>

#include "analysis/invariants.h"
#include "core/request_task.h"
#include "eval/harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "sim/network.h"
#include "util/rng.h"
#include "util/sim_clock.h"

namespace revtr::sched {
namespace {

using topology::HostId;

topology::TopologyConfig tiny_config() {
  topology::TopologyConfig config;
  config.seed = 17;
  config.num_ases = 60;
  config.num_vps = 6;
  config.num_vps_2016 = 2;
  config.num_probe_hosts = 20;
  return config;
}

// Executes on a local prober and reports each wire probe to `hook` first
// (batch items too: the default execute_batch runs each through execute()).
class HookTransport final : public probing::ProbeTransport {
 public:
  HookTransport(probing::Prober& prober,
                std::function<void(const probing::ProbeSpec&)> hook)
      : local_(prober), hook_(std::move(hook)) {}

  probing::ProbeReply execute(const probing::ProbeSpec& spec) override {
    hook_(spec);
    return local_.execute(spec);
  }

 private:
  probing::LocalProbeTransport local_;
  std::function<void(const probing::ProbeSpec&)> hook_;
};

// The audit facts two equivalent dispatch histories must share.
auto audit_trail(const SchedulerAudit& audit) {
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                         HostId, std::uint64_t>>
      trail;
  for (const auto& issue : audit.issues) {
    trail.emplace_back(issue.issue_id, issue.key, issue.round, issue.vp,
                       issue.digest);
  }
  return trail;
}

class SchedFixture : public ::testing::Test {
 protected:
  void SetUp() override { lab_ = std::make_unique<eval::Lab>(tiny_config()); }

  ProbeDemand ping_demand(std::size_t vp_index, std::size_t host_index) {
    ProbeDemand demand;
    demand.type = probing::ProbeType::kPing;
    demand.from = lab_->topo.vantage_points()[vp_index];
    demand.target =
        lab_->topo.host(lab_->topo.probe_hosts()[host_index]).addr;
    return demand;
  }

  ProbeDemand spoofed_demand(std::size_t host_index, net::Ipv4Addr ingress) {
    ProbeDemand demand;
    demand.type = probing::ProbeType::kSpoofedRecordRoute;
    demand.from = lab_->topo.vantage_points()[1];
    demand.target =
        lab_->topo.host(lab_->topo.probe_hosts()[host_index]).addr;
    demand.spoof_as =
        lab_->topo.host(lab_->topo.vantage_points()[0]).addr;
    demand.batch_ingress = ingress;
    return demand;
  }

  std::unique_ptr<eval::Lab> lab_;
};

TEST_F(SchedFixture, ExecuteDemandMirrorsProber) {
  // The staged stages see exactly what a direct prober call would return:
  // outcomes are content-addressed, so re-executing the same demand on the
  // same simulated world reproduces the reply byte for byte.
  const ProbeDemand demand = ping_demand(0, 0);
  const auto outcome = execute_demand(lab_->prober, demand);
  const auto direct = lab_->prober.ping(demand.from, demand.target);
  EXPECT_EQ(outcome.responded, direct.responded);
  EXPECT_EQ(outcome.duration_us, direct.duration_us);
  EXPECT_EQ(outcome.packets, 1u);

  ProbeDemand trace;
  trace.type = probing::ProbeType::kTraceroute;
  trace.from = demand.from;
  trace.target = demand.target;
  const auto sent = lab_->prober.counters().traceroute_packets;
  const auto tr_outcome = execute_demand(lab_->prober, trace);
  // The spec path runs the targeted walk: it is charged exactly the TTLs
  // it probed, never more than the hops it reports.
  EXPECT_EQ(tr_outcome.packets,
            lab_->prober.counters().traceroute_packets - sent);
  EXPECT_LE(tr_outcome.packets, tr_outcome.traceroute.hops.size());
}

TEST_F(SchedFixture, CoalescesIdenticalInFlightDemands) {
  obs::MetricsRegistry registry;
  SchedMetrics metrics(registry);
  ProbeScheduler scheduler;
  scheduler.set_metrics(&metrics);

  // Two tasks want the same probe while it is in flight: one wire probe,
  // identical outcomes fanned out, exactly one copy marked coalesced.
  scheduler.submit(1, 0, {ping_demand(0, 0)});
  scheduler.submit(2, 0, {ping_demand(0, 0)});
  const auto pumped = scheduler.pump(lab_->prober);
  EXPECT_EQ(pumped.issued, 1u);

  auto ready = scheduler.collect_ready(0);
  ASSERT_EQ(ready.size(), 2u);
  ASSERT_EQ(ready[0].outcomes.size(), 1u);
  ASSERT_EQ(ready[1].outcomes.size(), 1u);
  EXPECT_EQ(ready[0].outcomes[0].digest(), ready[1].outcomes[0].digest());
  EXPECT_NE(ready[0].outcomes[0].coalesced, ready[1].outcomes[0].coalesced);

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.demanded, 2u);
  EXPECT_EQ(stats.issued, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(metrics.demanded->total(), 2u);
  EXPECT_EQ(metrics.issued->total(), 1u);
  EXPECT_EQ(metrics.coalesced->total(), 1u);
  EXPECT_TRUE(scheduler.idle());
}

TEST_F(SchedFixture, CoalescingDisabledIssuesEveryDemand) {
  SchedOptions options;
  options.coalesce = false;
  ProbeScheduler scheduler(options);
  scheduler.submit(1, 0, {ping_demand(0, 0)});
  scheduler.submit(2, 0, {ping_demand(0, 0)});
  const auto pumped = scheduler.pump(lab_->prober);
  EXPECT_EQ(pumped.issued, 2u);
  const auto ready = scheduler.collect_ready(0);
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_FALSE(ready[0].outcomes[0].coalesced);
  EXPECT_FALSE(ready[1].outcomes[0].coalesced);
  EXPECT_EQ(scheduler.stats().coalesced, 0u);
}

TEST_F(SchedFixture, PerVpWindowDefersToLaterRounds) {
  SchedOptions options;
  options.vp_window = 1;
  ProbeScheduler scheduler(options);
  // Three distinct probes from one vantage point, window 1: one issue per
  // round, the rest stay queued (deferred, not dropped — liveness).
  scheduler.submit(1, 0, {ping_demand(0, 0), ping_demand(0, 1),
                          ping_demand(0, 2)});
  EXPECT_EQ(scheduler.pump(lab_->prober).issued, 1u);
  EXPECT_TRUE(scheduler.collect_ready(0).empty());
  EXPECT_EQ(scheduler.pump(lab_->prober).issued, 1u);
  EXPECT_EQ(scheduler.pump(lab_->prober).issued, 1u);
  const auto ready = scheduler.collect_ready(0);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].outcomes.size(), 3u);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.rounds, 3u);
  EXPECT_EQ(stats.throttled, 3u);  // Two deferred in round 1, one in round 2.
}

TEST_F(SchedFixture, TokenBucketPacesAcrossRounds) {
  SchedOptions options;
  options.vp_window = 8;  // Window alone would allow both at once.
  options.vp_tokens_per_round = 1;
  options.vp_token_burst = 1;
  ProbeScheduler scheduler(options);
  scheduler.submit(1, 0, {ping_demand(0, 0), ping_demand(0, 1)});
  EXPECT_EQ(scheduler.pump(lab_->prober).issued, 1u);
  EXPECT_EQ(scheduler.pump(lab_->prober).issued, 1u);
  EXPECT_EQ(scheduler.stats().rounds, 2u);
  ASSERT_EQ(scheduler.collect_ready(0).size(), 1u);
  EXPECT_TRUE(scheduler.idle());
}

TEST_F(SchedFixture, FractionalPacingIssuesOnExactCadence) {
  // A refill rate below one token per round is legal: 0.5 is exact in the
  // scheduler's fixed point, so the cadence is one probe every second round
  // with zero drift over the whole horizon.
  SchedOptions options;
  options.vp_window = 8;  // The window alone would allow everything at once.
  options.vp_tokens_per_round = 0.5;
  options.vp_token_burst = 1;
  ProbeScheduler scheduler(options);
  std::vector<ProbeDemand> demands;
  for (std::size_t i = 0; i < 15; ++i) demands.push_back(ping_demand(0, i));
  scheduler.submit(1, 0, std::move(demands));
  for (std::size_t probe = 0; probe < 15; ++probe) {
    // A round that defers everything still counts as progress: its refill
    // lets the next round issue, so an idle worker must not wait it out.
    const std::uint64_t seen = scheduler.progress();
    EXPECT_EQ(scheduler.pump(lab_->prober).issued, 0u) << "probe " << probe;
    EXPECT_NE(scheduler.progress(), seen) << "probe " << probe;
    EXPECT_EQ(scheduler.pump(lab_->prober).issued, 1u) << "probe " << probe;
  }
  ASSERT_EQ(scheduler.collect_ready(0).size(), 1u);
  EXPECT_TRUE(scheduler.idle());
  EXPECT_EQ(scheduler.stats().rounds, 30u);
}

TEST_F(SchedFixture, SubUnityPacingNeverStarvesOverLongHorizons) {
  // 1/3 token per round is NOT exact in fixed point (the refill rounds
  // down), which is precisely the drift hazard this test pins: queued
  // demands must still drain on an (almost exactly) three-round cadence —
  // deferred forever is the failure mode the ctor clamp rules out.
  SchedOptions options;
  options.vp_window = 8;
  options.vp_tokens_per_round = 1.0 / 3.0;
  options.vp_token_burst = 2;
  ProbeScheduler scheduler(options);
  std::vector<ProbeDemand> demands;
  for (std::size_t i = 0; i < 18; ++i) demands.push_back(ping_demand(0, i));
  scheduler.submit(1, 0, std::move(demands));
  std::size_t issued = 0;
  std::size_t rounds = 0;
  while (issued < 18 && rounds < 100) {
    issued += scheduler.pump(lab_->prober).issued;
    ++rounds;
  }
  EXPECT_EQ(issued, 18u);
  // Exactly ceil(k / (1/3 rounded down to fixed point)) rounds for the k-th
  // probe: 4, 7, 10, ... — the sub-token remainder carries across rounds
  // instead of being lost, so the long-horizon rate stays 1/3.
  EXPECT_EQ(rounds, 55u);
  ASSERT_EQ(scheduler.collect_ready(0).size(), 1u);
  EXPECT_TRUE(scheduler.idle());
}

TEST_F(SchedFixture, SpoofedBatchesGroupAcrossTasks) {
  const net::Ipv4Addr ingress_x(0x0a000001);
  const net::Ipv4Addr ingress_y(0x0a000002);
  ProbeScheduler scheduler;
  // Four same-ingress spoofed probes from two different tasks fill two
  // 3-probe wire batches (3 + 1); the other ingress gets its own batch.
  scheduler.submit(1, 0,
                   {spoofed_demand(0, ingress_x), spoofed_demand(1, ingress_x)});
  scheduler.submit(2, 0,
                   {spoofed_demand(2, ingress_x), spoofed_demand(3, ingress_x),
                    spoofed_demand(4, ingress_y)});
  const auto pumped = scheduler.pump(lab_->prober);
  EXPECT_EQ(pumped.issued, 5u);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.wire_batches, 3u);
  EXPECT_EQ(scheduler.collect_ready(0).size(), 2u);
}

TEST_F(SchedFixture, AuditSatisfiesI7AndCatchesTampering) {
  SchedOptions options;
  ProbeScheduler scheduler(options);
  SchedulerAudit audit;
  scheduler.set_audit(&audit);
  scheduler.submit(1, 0, {ping_demand(0, 0), ping_demand(1, 1)});
  scheduler.submit(2, 0, {ping_demand(0, 0)});
  scheduler.pump(lab_->prober);
  ASSERT_EQ(scheduler.collect_ready(0).size(), 2u);
  ASSERT_EQ(audit.issues.size(), 2u);
  ASSERT_EQ(audit.deliveries.size(), 1u);  // The coalesced rider.

  EXPECT_TRUE(analysis::check_scheduler(audit, options).empty());

  // A delivery whose outcome differs from the issued probe's breaks the
  // coalescing-is-invisible property I7 exists to catch.
  SchedulerAudit tampered = audit;
  tampered.deliveries[0].digest ^= 1;
  EXPECT_FALSE(analysis::check_scheduler(tampered, options).empty());

  // A delivery riding a probe that never went on the wire.
  tampered = audit;
  tampered.deliveries[0].issue_id = 9999;
  EXPECT_FALSE(analysis::check_scheduler(tampered, options).empty());

  // More same-round issues from one VP than the window permits.
  SchedulerAudit overdriven;
  for (std::uint64_t i = 0; i < 3; ++i) {
    overdriven.issues.push_back(SchedulerAudit::Issue{
        i, i, /*round=*/1, lab_->topo.vantage_points()[0], i});
  }
  SchedOptions narrow;
  narrow.vp_window = 2;
  EXPECT_FALSE(analysis::check_scheduler(overdriven, narrow).empty());
}

TEST_F(SchedFixture, RiderJoinsAProbeExecutingOutsideTheLock) {
  // While the pump's one wire probe executes, a second thread submits the
  // identical demand. The submit must return during execution (the mutex is
  // not held) and ride along on the executing probe.
  SchedOptions options;
  ProbeScheduler scheduler(options);
  SchedulerAudit audit;
  scheduler.set_audit(&audit);
  scheduler.submit(1, 0, {ping_demand(0, 0)});

  std::mutex mu;
  std::condition_variable cv;
  bool executing = false;
  bool submitted = false;
  std::thread rider([&] {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return executing; });
    }
    scheduler.submit(2, 0, {ping_demand(0, 0)});
    const std::lock_guard<std::mutex> lock(mu);
    submitted = true;
    cv.notify_all();
  });
  bool rider_returned = false;
  HookTransport transport(lab_->prober, [&](const probing::ProbeSpec&) {
    std::unique_lock<std::mutex> lock(mu);
    executing = true;
    cv.notify_all();
    rider_returned =
        cv.wait_for(lock, std::chrono::seconds(5), [&] { return submitted; });
  });
  const auto pumped = scheduler.pump(transport);
  rider.join();
  ASSERT_TRUE(rider_returned) << "submit blocked while a probe executed";
  EXPECT_EQ(pumped.issued, 1u);

  const auto ready = scheduler.collect_ready(0);
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_EQ(ready[0].outcomes[0].digest(), ready[1].outcomes[0].digest());
  EXPECT_NE(ready[0].outcomes[0].coalesced, ready[1].outcomes[0].coalesced);
  EXPECT_EQ(scheduler.stats().issued, 1u);
  EXPECT_EQ(scheduler.stats().coalesced, 1u);
  EXPECT_TRUE(scheduler.idle());
  ASSERT_EQ(audit.deliveries.size(), 1u);
  EXPECT_TRUE(analysis::check_scheduler(audit, options).empty());
}

TEST_F(SchedFixture, ConcurrentPumpersWithPrivateProbersMatchExecuteDemand) {
  // Two workers, each with its own network and prober, submit overlapping
  // demand sets — pings and same-ingress spoofed RR — and pump one
  // scheduler at once.
  SchedOptions options;
  ProbeScheduler scheduler(options);
  SchedulerAudit audit;
  scheduler.set_audit(&audit);
  const net::Ipv4Addr ingress(0x0a000001);

  struct Worker {
    sim::Network network;
    probing::Prober prober;
    std::vector<std::vector<ProbeDemand>> sets;
    std::vector<std::vector<ProbeOutcome>> want;
    std::vector<std::vector<ProbeOutcome>> outcomes;
    explicit Worker(const eval::Lab& lab)
        : network(lab.topo, lab.plane, 7), prober(network) {}
  };
  std::vector<std::unique_ptr<Worker>> workers;
  for (std::size_t w = 0; w < 2; ++w) {
    auto worker = std::make_unique<Worker>(*lab_);
    for (std::size_t t = 0; t < 12; ++t) {
      const std::size_t h = (t + 4 * w) % 18;  // Worker sets overlap.
      worker->sets.push_back({ping_demand(t % 3, h), spoofed_demand(h, ingress),
                              ping_demand(3, (h + 1) % 18)});
    }
    worker->outcomes.resize(worker->sets.size());
    workers.push_back(std::move(worker));
  }
  // The reference outcomes, measured before the workers start. This also
  // fills the shared routing plane's lazily computed tables, which are not
  // safe to fill concurrently (campaigns and the daemon warm them the same
  // way, through the ingress survey, before their workers start).
  for (const auto& worker : workers) {
    for (const auto& set : worker->sets) {
      auto& want = worker->want.emplace_back();
      for (const auto& demand : set) {
        want.push_back(execute_demand(lab_->prober, demand));
      }
    }
  }

  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    threads.emplace_back([&, w] {
      Worker& worker = *workers[w];
      std::size_t resolved = 0;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      for (std::size_t t = 0;
           resolved < worker.sets.size() &&
           std::chrono::steady_clock::now() < deadline;) {
        if (t < worker.sets.size()) {
          scheduler.submit(t, w, worker.sets[t]);
          ++t;
        }
        scheduler.pump(worker.prober);
        for (auto& ready : scheduler.collect_ready(w)) {
          worker.outcomes[ready.task] = std::move(ready.outcomes);
          ++resolved;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (const auto& worker : workers) {
    for (std::size_t t = 0; t < worker->sets.size(); ++t) {
      const auto& set = worker->sets[t];
      const auto& got = worker->outcomes[t];
      ASSERT_EQ(got.size(), set.size()) << "set " << t << " unresolved";
      for (std::size_t i = 0; i < set.size(); ++i) {
        const ProbeOutcome& want = worker->want[t][i];
        EXPECT_EQ(got[i].digest(), want.digest()) << t << "/" << i;
      }
    }
  }
  const auto stats = scheduler.stats();
  // Every demand went on the wire once or rode along on a duplicate.
  EXPECT_EQ(stats.issued + stats.coalesced, stats.demanded);
  EXPECT_GT(stats.wire_batches, 0u);
  EXPECT_TRUE(scheduler.idle());
  EXPECT_TRUE(analysis::check_scheduler(audit, options).empty());
}

// --- Remote dispatcher (controller/agent split, DESIGN.md §15). ------------

TEST_F(SchedFixture, DispatcherAssignsAndDeliversLikeAPump) {
  ProbeScheduler scheduler;
  const auto agent = scheduler.attach_agent(/*window=*/8);
  scheduler.submit(1, 0, {ping_demand(0, 0), ping_demand(1, 1)});

  const auto assignments = scheduler.next_assignments(agent);
  ASSERT_EQ(assignments.size(), 2u);
  // The wire spec is exactly what a local pump would have executed.
  EXPECT_EQ(assignments[0].spec, probing::ProbeSpec(ping_demand(0, 0)));
  EXPECT_EQ(assignments[1].spec, probing::ProbeSpec(ping_demand(1, 1)));
  EXPECT_EQ(scheduler.assigned_in_flight(), 2u);

  // An agent executes on its own prober; here the lab's stands in (the
  // outcome is content-addressed, so whose prober is irrelevant).
  for (const auto& assignment : assignments) {
    const auto reply = probing::execute_spec(lab_->prober, assignment.spec);
    EXPECT_TRUE(scheduler.deliver_assignment(agent, assignment.ticket, reply));
  }
  EXPECT_EQ(scheduler.assigned_in_flight(), 0u);
  auto ready = scheduler.collect_ready(0);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].outcomes.size(), 2u);
  EXPECT_TRUE(scheduler.idle());
  EXPECT_EQ(scheduler.stats().issued, 2u);

  // A mixed set — spoofed RR for two ingresses between plain pings, with
  // one demand per VP over a window of 2 — leaves an agent in the order a
  // local pump runs it, over the same audited rounds and wire batches.
  const net::Ipv4Addr ingress_x(0x0a000001);
  const net::Ipv4Addr ingress_y(0x0a000002);
  const std::vector<ProbeDemand> mixed = {
      spoofed_demand(0, ingress_x), ping_demand(0, 0),
      ping_demand(0, 1),            spoofed_demand(1, ingress_y),
      ping_demand(0, 2),            spoofed_demand(2, ingress_x),
      ping_demand(2, 3)};
  SchedOptions narrow;
  narrow.vp_window = 2;

  ProbeScheduler local(narrow);
  SchedulerAudit local_audit;
  local.set_audit(&local_audit);
  local.submit(1, 0, mixed);
  std::vector<probing::ProbeSpec> local_order;
  HookTransport recorder(lab_->prober, [&](const probing::ProbeSpec& spec) {
    local_order.push_back(spec);
  });
  std::size_t local_sets = 0;
  for (int round = 0; round < 10 && local_sets == 0; ++round) {
    local.pump(recorder);
    local_sets += local.collect_ready(0).size();
  }

  ProbeScheduler remote(narrow);
  SchedulerAudit remote_audit;
  remote.set_audit(&remote_audit);
  const auto mixed_agent = remote.attach_agent(/*window=*/64);
  remote.submit(1, 0, mixed);
  std::vector<probing::ProbeSpec> remote_order;
  std::size_t remote_sets = 0;
  for (int round = 0; round < 10 && remote_sets == 0; ++round) {
    for (const auto& assignment : remote.next_assignments(mixed_agent)) {
      remote_order.push_back(assignment.spec);
      EXPECT_TRUE(remote.deliver_assignment(
          mixed_agent, assignment.ticket,
          probing::execute_spec(lab_->prober, assignment.spec)));
    }
    remote_sets += remote.collect_ready(0).size();
  }

  ASSERT_EQ(local_sets, 1u);
  ASSERT_EQ(remote_sets, 1u);
  ASSERT_EQ(local_order.size(), mixed.size());
  EXPECT_EQ(remote_order, local_order);
  EXPECT_EQ(audit_trail(remote_audit), audit_trail(local_audit));
  EXPECT_EQ(local.stats().rounds, 2u);
  EXPECT_EQ(remote.stats().rounds, local.stats().rounds);
  EXPECT_EQ(local.stats().wire_batches, 3u);  // x, y; then x again.
  EXPECT_EQ(remote.stats().wire_batches, local.stats().wire_batches);
  EXPECT_EQ(remote.stats().throttled, local.stats().throttled);
  EXPECT_TRUE(analysis::check_scheduler(remote_audit, narrow).empty());
}

TEST_F(SchedFixture, DispatcherHonorsAgentWindowAcrossAgents) {
  ProbeScheduler scheduler;
  const auto narrow = scheduler.attach_agent(/*window=*/1);
  const auto wide = scheduler.attach_agent(/*window=*/8);
  scheduler.submit(1, 0, {ping_demand(0, 0), ping_demand(1, 1),
                          ping_demand(2, 2)});

  // The narrow agent holds one assignment; the rest spill to the wide one.
  const auto first = scheduler.next_assignments(narrow);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(scheduler.next_assignments(narrow).empty());  // Window full.
  const auto rest = scheduler.next_assignments(wide);
  ASSERT_EQ(rest.size(), 2u);

  // Delivering frees the narrow agent's slot for the next dispatch.
  const auto reply = probing::execute_spec(lab_->prober, first[0].spec);
  EXPECT_TRUE(scheduler.deliver_assignment(narrow, first[0].ticket, reply));
  scheduler.submit(2, 0, {ping_demand(3, 3)});
  EXPECT_EQ(scheduler.next_assignments(narrow).size(), 1u);
}

TEST_F(SchedFixture, DispatcherCoalescesRidersOntoAssignedProbes) {
  ProbeScheduler scheduler;
  const auto agent = scheduler.attach_agent(/*window=*/8);
  scheduler.submit(1, 0, {ping_demand(0, 0)});
  const auto assignments = scheduler.next_assignments(agent);
  ASSERT_EQ(assignments.size(), 1u);

  // A second request wants the same probe while it is in flight on the
  // agent: it coalesces onto the assignment instead of dispatching again.
  scheduler.submit(2, 0, {ping_demand(0, 0)});
  EXPECT_TRUE(scheduler.next_assignments(agent).empty());

  const auto reply = probing::execute_spec(lab_->prober, assignments[0].spec);
  EXPECT_TRUE(
      scheduler.deliver_assignment(agent, assignments[0].ticket, reply));
  auto ready = scheduler.collect_ready(0);
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_EQ(ready[0].outcomes[0].digest(), ready[1].outcomes[0].digest());
  EXPECT_NE(ready[0].outcomes[0].coalesced, ready[1].outcomes[0].coalesced);
  EXPECT_EQ(scheduler.stats().coalesced, 1u);
  EXPECT_EQ(scheduler.stats().issued, 1u);
}

TEST_F(SchedFixture, DetachRequeuesInFlightForReassignmentWithI7Intact) {
  SchedOptions options;
  ProbeScheduler scheduler(options);
  SchedulerAudit audit;
  scheduler.set_audit(&audit);
  const auto doomed = scheduler.attach_agent(/*window=*/8);
  scheduler.submit(1, 0, {ping_demand(0, 0), ping_demand(1, 1),
                          ping_demand(2, 2)});
  const auto lost = scheduler.next_assignments(doomed);
  ASSERT_EQ(lost.size(), 3u);

  // The agent dies with everything in flight: detaching requeues all three
  // at the head of the queue, in ticket order.
  EXPECT_EQ(scheduler.detach_agent(doomed), 3u);
  EXPECT_EQ(scheduler.stats().reassigned, 3u);
  EXPECT_EQ(scheduler.assigned_in_flight(), 0u);

  const auto heir = scheduler.attach_agent(/*window=*/8);
  const auto retried = scheduler.next_assignments(heir);
  ASSERT_EQ(retried.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(retried[i].spec, lost[i].spec) << "requeue reordered " << i;
    EXPECT_NE(retried[i].ticket, lost[i].ticket);  // Tickets never reused.
  }

  // A late reply from the dead agent is stale: dropped, not double-applied.
  const auto zombie = probing::execute_spec(lab_->prober, lost[0].spec);
  EXPECT_FALSE(scheduler.deliver_assignment(doomed, lost[0].ticket, zombie));
  EXPECT_EQ(scheduler.stats().stale_results, 1u);

  for (const auto& assignment : retried) {
    const auto reply = probing::execute_spec(lab_->prober, assignment.spec);
    EXPECT_TRUE(scheduler.deliver_assignment(heir, assignment.ticket, reply));
    // A duplicate delivery of the same ticket is also stale.
    EXPECT_FALSE(
        scheduler.deliver_assignment(heir, assignment.ticket, reply));
  }
  ASSERT_EQ(scheduler.collect_ready(0).size(), 1u);
  EXPECT_TRUE(scheduler.idle());

  // Each request resolved exactly once (no double delivery through the
  // crash) and the audit still satisfies I7: assignment rounds respect the
  // per-(round, VP) window even though delivery happened much later.
  EXPECT_EQ(audit.issues.size(), 3u);
  EXPECT_TRUE(analysis::check_scheduler(audit, options).empty());
}

TEST_F(SchedFixture, ExpireAgentsDetachesSilentOnes) {
  ProbeScheduler scheduler;
  const auto quiet = scheduler.attach_agent(/*window=*/8, /*now_us=*/0);
  const auto chatty = scheduler.attach_agent(/*window=*/8, /*now_us=*/0);
  scheduler.submit(1, 0, {ping_demand(0, 0)});
  ASSERT_EQ(scheduler.next_assignments(quiet).size(), 1u);

  scheduler.agent_heartbeat(chatty, 900'000);
  const auto expired =
      scheduler.expire_agents(/*now_us=*/1'000'000, /*timeout_us=*/500'000);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], quiet);
  EXPECT_EQ(scheduler.stats().agents_expired, 1u);
  EXPECT_EQ(scheduler.stats().reassigned, 1u);

  // The expired agent's probe requeued; the survivor picks it up.
  EXPECT_EQ(scheduler.next_assignments(chatty).size(), 1u);
  // Expiry is idempotent — the survivor heartbeated recently.
  EXPECT_TRUE(
      scheduler.expire_agents(1'000'000, 500'000).empty());
}

TEST_F(SchedFixture, DeliveriesCountAsLivenessButSilenceExpires) {
  constexpr std::int64_t kTimeout = 500'000;
  ProbeScheduler scheduler;
  // `busy` never heartbeats; it only answers assignments, one every
  // timeout/2. `silent` is attached at the same time and says nothing.
  const auto busy = scheduler.attach_agent(/*window=*/8, /*now_us=*/0);
  const auto silent = scheduler.attach_agent(/*window=*/8, /*now_us=*/0);
  bool silent_expired = false;
  std::uint64_t task = 1;
  for (std::int64_t now = kTimeout / 2; now <= 4 * kTimeout;
       now += kTimeout / 2) {
    scheduler.submit(task, 0, {ping_demand(0, task % 20)});
    const auto assignments = scheduler.next_assignments(busy);
    ASSERT_EQ(assignments.size(), 1u) << "at " << now;
    const auto reply = probing::execute_spec(lab_->prober, assignments[0].spec);
    ASSERT_TRUE(scheduler.deliver_assignment(busy, assignments[0].ticket,
                                             reply, now));
    ASSERT_EQ(scheduler.collect_ready(0).size(), 1u);
    ++task;

    const auto expired = scheduler.expire_agents(now, kTimeout);
    EXPECT_TRUE(std::find(expired.begin(), expired.end(), busy) ==
                expired.end())
        << "busy agent expired at " << now;
    if (std::find(expired.begin(), expired.end(), silent) != expired.end()) {
      EXPECT_GT(now, kTimeout) << "silent agent expired early";
      silent_expired = true;
    }
  }
  EXPECT_TRUE(silent_expired);
  EXPECT_EQ(scheduler.stats().agents_expired, 1u);
}

TEST_F(SchedFixture, WaitForProgressWakesOnDeliveryAndTimesOutWhenIdle) {
  ProbeScheduler scheduler;
  const auto agent = scheduler.attach_agent(/*window=*/8);
  scheduler.submit(1, 0, {ping_demand(0, 0)});
  const auto assignments = scheduler.next_assignments(agent);
  ASSERT_EQ(assignments.size(), 1u);

  // Nothing happens: the wait runs out its bound and reports no progress.
  const std::uint64_t idle = scheduler.progress();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(
      scheduler.wait_for_progress(idle, std::chrono::milliseconds(20)));
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(20));

  // A delivery from another thread ends the wait long before its bound.
  const std::uint64_t seen = scheduler.progress();
  const auto reply = probing::execute_spec(lab_->prober, assignments[0].spec);
  std::thread agent_thread([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    scheduler.deliver_assignment(agent, assignments[0].ticket, reply);
  });
  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_TRUE(scheduler.wait_for_progress(seen, std::chrono::seconds(30)));
  EXPECT_LT(std::chrono::steady_clock::now() - t1, std::chrono::seconds(10));
  agent_thread.join();
  EXPECT_EQ(scheduler.collect_ready(0).size(), 1u);

  // Progress already made before the wait returns at once.
  EXPECT_TRUE(scheduler.wait_for_progress(seen, std::chrono::seconds(30)));
}

// --- On-demand ingress discovery (DESIGN.md §10). ---------------------------

std::size_t count_spans(const obs::Trace& trace, const std::string& name) {
  return static_cast<std::size_t>(
      std::count_if(trace.spans().begin(), trace.spans().end(),
                    [&](const obs::Span& span) { return span.name == name; }));
}

TEST(SchedDiscovery, StagedOnDemandDiscoveryMatchesBlocking) {
  // Twin worlds with no presurvey, so requests meet prefixes without a plan
  // and survey them on demand. The staged side runs each request through
  // the scheduler, one at a time; its survey runs inline on this thread.
  // Both sides start each request from the same RNG stream, so they must
  // agree on everything, the survey's offline packets included.
  eval::Lab blocking(tiny_config());
  eval::Lab staged(tiny_config());
  const HostId source = blocking.topo.vantage_points()[0];
  blocking.bootstrap_source(source, 3);
  staged.bootstrap_source(source, 3);
  auto destinations = blocking.responsive_destinations(/*require_rr=*/true);
  ASSERT_GE(destinations.size(), 16u);
  destinations.resize(16);

  ProbeScheduler scheduler;
  SchedulerAudit audit;
  scheduler.set_audit(&audit);
  std::size_t surveys = 0;
  for (std::size_t i = 0; i < destinations.size(); ++i) {
    SCOPED_TRACE(i);
    obs::Trace want_trace;
    util::SimClock want_clock;
    blocking.engine.reseed(i + 1);
    blocking.engine.set_trace(&want_trace);
    const auto want =
        blocking.engine.measure(destinations[i], source, want_clock);
    blocking.engine.set_trace(nullptr);

    obs::Trace got_trace;
    util::SimClock got_clock;
    util::Rng rng(i + 1);
    auto task = staged.engine.start_request(destinations[i], source,
                                            got_clock, rng, &got_trace);
    for (auto demands = task->advance(); !task->done();
         demands = task->advance()) {
      scheduler.submit(i, 0, {demands.begin(), demands.end()});
      std::vector<ProbeScheduler::Ready> ready;
      while (ready.empty()) {
        scheduler.pump(staged.prober);
        ready = scheduler.collect_ready(0);
      }
      ASSERT_EQ(ready.size(), 1u);
      task->supply(ready[0].outcomes);
    }
    const auto got = task->take_result();

    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.hops, want.hops);
    EXPECT_EQ(got.probes.total(), want.probes.total());
    EXPECT_EQ(got.offline_probes.total(), want.offline_probes.total());
    EXPECT_EQ(got.offline_probes.rr, want.offline_probes.rr);
    EXPECT_EQ(got.span.duration(), want.span.duration());
    const std::size_t want_surveys =
        count_spans(want_trace, "ingress-discovery");
    EXPECT_EQ(count_spans(got_trace, "ingress-discovery"), want_surveys);
    surveys += want_surveys;
  }
  EXPECT_GT(surveys, 0u) << "no request surveyed a prefix on demand";

  // Only wire probes passed through the scheduler: every demand was issued
  // or rode along on a duplicate.
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.issued + stats.coalesced, stats.demanded);
  EXPECT_TRUE(scheduler.idle());
  EXPECT_TRUE(analysis::check_scheduler(audit, scheduler.options()).empty());
}

}  // namespace
}  // namespace revtr::sched

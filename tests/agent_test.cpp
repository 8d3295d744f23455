// Controller/agent split end-to-end (DESIGN.md §15): a daemon in
// --remote-probing mode with in-process AgentDaemon threads over a real
// AF_UNIX socket. Pins the distributed-mode correctness bar from ROADMAP
// item 5: remote campaigns are byte-identical to the monolith, agent death
// mid-campaign reassigns work without losing or double-delivering requests,
// and invariant I7 holds over the dispatcher's audit trail.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "agent/agent.h"
#include "analysis/invariants.h"
#include "sched/scheduler.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/frame.h"

namespace revtr {
namespace {

server::ServerOptions controller_options(const std::string& test_name) {
  server::ServerOptions options;
  options.socket_path = "/tmp/revtr_agent_test_" + test_name + ".sock";
  options.topo.seed = 11;
  options.topo.num_ases = 100;
  options.topo.num_vps = 6;
  options.topo.num_probe_hosts = 24;
  options.seed = 11;
  options.workers = 2;
  options.atlas_size = 20;
  return options;
}

// An agent configured to execute probes for `controller`: same simulated
// Internet (topology config + seed), which is what makes its probe outcomes
// byte-identical to the controller's own prober.
agent::AgentOptions agent_options(const server::ServerOptions& controller,
                                  const std::string& name,
                                  std::size_t window) {
  agent::AgentOptions options;
  options.socket_path = controller.socket_path;
  options.name = name;
  options.topo = controller.topo;
  options.seed = controller.seed;
  options.window = window;
  options.heartbeat_interval_ms = 50;
  return options;
}

// The per-request facts the monolith and the distributed deployment must
// agree on exactly. Simulated latency is excluded on purpose: round timing
// differs between a pump and a dispatch round, and the paper's bar is
// "same measurements", not "same clock".
struct Signature {
  std::uint64_t request_id = 0;
  core::RevtrStatus status = core::RevtrStatus::kUnreachable;
  bool shed = false;
  std::uint64_t probes = 0;
  std::vector<server::ResultHop> hops;

  bool operator==(const Signature&) const = default;
};

// Submits `count` requests one at a time (submit, wait, next) and returns
// their signatures. Sequential submission keeps the scheduler's coalescing
// deterministic so the monolith/remote comparison is exact.
std::vector<Signature> run_campaign(const std::string& socket_path,
                                    std::size_t count) {
  std::vector<Signature> signatures;
  server::DaemonClient client;
  if (!client.connect(socket_path)) return signatures;
  if (!client.hello("demo-key").has_value()) return signatures;
  for (std::size_t i = 0; i < count; ++i) {
    server::Submit request;
    request.request_id = 100 + i;
    request.dest_index = static_cast<std::uint32_t>(i);
    if (!client.submit(request)) return signatures;
    std::optional<server::Result> result;
    if (client.next_result_for(result, /*timeout_ms=*/30'000) !=
        server::DaemonClient::WaitStatus::kOk) {
      return signatures;
    }
    signatures.push_back(Signature{result->request_id, result->status,
                                   result->shed, result->probes,
                                   std::move(result->hops)});
  }
  return signatures;
}

TEST(AgentSplit, RemoteCampaignByteIdenticalToMonolithAndI7Holds) {
  constexpr std::size_t kRequests = 4;

  // Monolith reference: workers execute probes on their own probers.
  std::vector<Signature> monolith;
  {
    server::ServerDaemon daemon(controller_options("monolith"));
    ASSERT_TRUE(daemon.start());
    monolith = run_campaign(controller_options("monolith").socket_path,
                            kRequests);
    daemon.stop();
  }
  ASSERT_EQ(monolith.size(), kRequests);

  // Distributed deployment: same requests through a controller plus two VP
  // agents. A small agent window forces the dispatcher to spread wire
  // probes across both agents instead of parking on the first.
  sched::SchedulerAudit audit;
  auto options = controller_options("remote");
  options.remote_probing = true;
  options.sched_audit = &audit;
  std::vector<Signature> remote;
  agent::AgentDaemon agent_a(agent_options(options, "vp-a", 2));
  agent::AgentDaemon agent_b(agent_options(options, "vp-b", 2));
  bool a_clean = false;
  bool b_clean = false;
  {
    server::ServerDaemon daemon(options);
    ASSERT_TRUE(daemon.start());
    std::thread thread_a([&] { a_clean = agent_a.run(); });
    std::thread thread_b([&] { b_clean = agent_b.run(); });
    // Start the campaign once both agents are registered, or on a loaded
    // machine the first one can take every probe before the second has
    // built its Lab.
    while (agent_a.agent_id() == 0 || agent_b.agent_id() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    remote = run_campaign(options.socket_path, kRequests);
    // Drain: the controller finishes accepted work, then sends AGENT_DRAIN
    // to both agents, which exit their run loops cleanly.
    daemon.request_drain();
    daemon.wait_until_drained();
    thread_a.join();
    thread_b.join();
    daemon.stop();
  }
  ASSERT_EQ(remote.size(), kRequests);

  // The distributed campaign IS the monolith campaign, bit for bit.
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(remote[i], monolith[i]) << "request " << i;
  }

  EXPECT_TRUE(a_clean) << "agent a did not drain cleanly";
  EXPECT_TRUE(b_clean) << "agent b did not drain cleanly";
  // Every wire probe crossed the wire: the agents did all the probing, and
  // the small window made both of them do some of it.
  EXPECT_GT(agent_a.counters().executed, 0u);
  EXPECT_GT(agent_b.counters().executed, 0u);

  // I7 over the dispatcher's audit: every coalesced delivery matches an
  // issued wire probe's digest and the per-VP window held — across process
  // boundaries.
  EXPECT_FALSE(audit.issues.empty());
  const auto violations = analysis::check_scheduler(audit, options.sched);
  EXPECT_TRUE(violations.empty()) << violations.size() << " violations, e.g. "
                                  << violations.front().detail;
}

TEST(AgentSplit, AgentDeathMidCampaignReassignsWithoutDoubleDelivery) {
  constexpr std::size_t kRequests = 4;

  sched::SchedulerAudit audit;
  auto options = controller_options("kill");
  options.remote_probing = true;
  options.sched_audit = &audit;
  // Exactly enough quota for the campaign: a double-charged request would
  // turn one of the submits below into kQuotaExhausted.
  server::TenantConfig tenant;
  tenant.limits.daily_limit = kRequests;
  options.tenants.push_back(tenant);

  // Agent a takes a big window of assignments, executes ONE probe, then
  // vanishes without a goodbye (abrupt socket close, answers lost). The
  // controller must detach it, requeue its in-flight assignments, and let
  // agent b finish the campaign.
  auto doomed = agent_options(options, "vp-doomed", 8);
  doomed.die_after_probes = 1;
  agent::AgentDaemon agent_a(doomed);
  agent::AgentDaemon agent_b(agent_options(options, "vp-survivor", 8));

  bool a_clean = true;
  bool b_clean = false;
  server::ServerCounters counters;
  sched::SchedulerStats stats;
  {
    server::ServerDaemon daemon(options);
    ASSERT_TRUE(daemon.start());
    std::thread thread_a([&] { a_clean = agent_a.run(); });
    // Let the doomed agent register first so it wins the initial dispatch.
    while (agent_a.agent_id() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::thread thread_b([&] { b_clean = agent_b.run(); });

    server::DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    ASSERT_TRUE(client.hello("demo-key").has_value());
    // All requests up front: the doomed agent's window fills with
    // assignments it will never answer.
    for (std::size_t i = 0; i < kRequests; ++i) {
      server::Submit request;
      request.request_id = 200 + i;
      request.dest_index = static_cast<std::uint32_t>(i);
      ASSERT_TRUE(client.submit(request)) << "request " << i;
    }
    // Every request resolves exactly once despite the mid-campaign death.
    std::vector<bool> seen(kRequests, false);
    for (std::size_t i = 0; i < kRequests; ++i) {
      std::optional<server::Result> result;
      ASSERT_EQ(client.next_result_for(result, /*timeout_ms=*/30'000),
                server::DaemonClient::WaitStatus::kOk)
          << "campaign stalled after agent death";
      ASSERT_GE(result->request_id, 200u);
      const std::size_t index = result->request_id - 200;
      ASSERT_LT(index, kRequests);
      EXPECT_FALSE(seen[index]) << "request delivered twice";
      seen[index] = true;
      EXPECT_FALSE(result->shed);
      EXPECT_GT(result->probes, 0u);
    }

    thread_a.join();
    daemon.request_drain();
    daemon.wait_until_drained();
    thread_b.join();
    counters = daemon.counters();
    stats = daemon.sched_stats();
    daemon.stop();
  }

  EXPECT_FALSE(a_clean) << "die_after_probes must look like a crash";
  EXPECT_TRUE(b_clean);
  EXPECT_EQ(agent_a.counters().executed, 1u);
  EXPECT_GT(agent_b.counters().executed, 0u);

  // The controller noticed the death: the dead agent's in-flight
  // assignments were requeued and reissued, not lost.
  EXPECT_GT(stats.reassigned, 0u);
  // Exactly one completion per accepted request — no double delivery, no
  // double quota charge (the daily limit above would have tripped).
  EXPECT_EQ(counters.accepted, kRequests);
  EXPECT_EQ(counters.completed, kRequests);
  EXPECT_EQ(counters.shed_queued, 0u);

  // I7 still holds over the detach/requeue/reassign history.
  const auto violations = analysis::check_scheduler(audit, options.sched);
  EXPECT_TRUE(violations.empty()) << violations.size() << " violations, e.g. "
                                  << violations.front().detail;
}

TEST(AgentSplit, ExpiredAgentIsDisconnectedAndSeesEof) {
  auto options = controller_options("expire");
  options.remote_probing = true;
  options.agent_timeout_us = 500'000;

  // The survivor registers first, so every dispatch offers it work before
  // the silent agent; it heartbeats every 50 ms, well inside the timeout.
  agent::AgentDaemon survivor(agent_options(options, "vp-survivor", 64));
  // The silent agent never heartbeats within the test and gets no work.
  auto silent_options = agent_options(options, "vp-silent", 64);
  silent_options.heartbeat_interval_ms = 60'000;
  agent::AgentDaemon silent(silent_options);

  bool survivor_clean = false;
  bool silent_clean = false;
  std::atomic<bool> silent_done{false};
  sched::SchedulerStats stats;
  {
    server::ServerDaemon daemon(options);
    ASSERT_TRUE(daemon.start());
    std::thread survivor_thread([&] { survivor_clean = survivor.run(); });
    while (survivor.agent_id() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::thread silent_thread([&] {
      silent_clean = silent.run();
      silent_done.store(true);
    });
    while (silent.agent_id() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Outlive the timeout; the expiry sweep runs with the first dispatch.
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    const auto signatures = run_campaign(options.socket_path, 1);
    ASSERT_EQ(signatures.size(), 1u);
    EXPECT_GT(signatures[0].probes, 0u);

    // The controller hangs up on the expired agent: its run() sees EOF and
    // returns before any drain is requested.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!silent_done.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(silent_done.load()) << "expired agent left connected";

    daemon.request_drain();
    daemon.wait_until_drained();
    survivor_thread.join();
    silent_thread.join();
    stats = daemon.sched_stats();
    daemon.stop();
  }

  EXPECT_TRUE(silent_clean) << "EOF from the controller is a clean exit";
  EXPECT_EQ(silent.counters().executed, 0u);
  EXPECT_EQ(silent.counters().heartbeats, 0u);
  EXPECT_TRUE(survivor_clean);
  EXPECT_GT(survivor.counters().executed, 0u);
  EXPECT_EQ(stats.agents_expired, 1u);
}

TEST(AgentSplit, PacedAgentKeepsHeartbeating) {
  constexpr std::size_t kRequests = 2;

  std::vector<Signature> monolith;
  {
    server::ServerDaemon daemon(controller_options("paced_mono"));
    ASSERT_TRUE(daemon.start());
    monolith = run_campaign(controller_options("paced_mono").socket_path,
                            kRequests);
    daemon.stop();
  }
  ASSERT_EQ(monolith.size(), kRequests);

  // One agent with a burst of one token per VP, refilled every 500 ms: once
  // a VP has spent its token, each of its probes waits longer than the
  // controller's 200 ms agent timeout (and longer than the 250 ms between
  // expiry sweeps). Heartbeats every 20 ms must keep it attached throughout.
  auto options = controller_options("paced");
  options.remote_probing = true;
  options.agent_timeout_us = 200'000;
  auto paced_options = agent_options(options, "vp-paced", 1);
  paced_options.heartbeat_interval_ms = 20;
  paced_options.probes_per_sec = 2.0;
  agent::AgentDaemon paced(paced_options);
  // Only started if the campaign stalls (the paced agent was expired): it
  // finishes the requeued work so the daemon can drain and the test fails
  // on its assertions instead of hanging.
  agent::AgentDaemon rescue(agent_options(options, "vp-rescue", 8));

  bool paced_clean = false;
  std::vector<Signature> remote;
  sched::SchedulerStats stats;
  {
    server::ServerDaemon daemon(options);
    ASSERT_TRUE(daemon.start());
    std::thread paced_thread([&] { paced_clean = paced.run(); });
    while (paced.agent_id() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    remote = run_campaign(options.socket_path, kRequests);
    std::thread rescue_thread;
    if (remote.size() != kRequests) {
      rescue_thread = std::thread([&] { rescue.run(); });
    }
    daemon.request_drain();
    daemon.wait_until_drained();
    paced_thread.join();
    if (rescue_thread.joinable()) rescue_thread.join();
    stats = daemon.sched_stats();
    daemon.stop();
  }

  ASSERT_EQ(remote.size(), kRequests) << "campaign stalled while pacing";
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(remote[i], monolith[i]) << "request " << i;
  }
  EXPECT_TRUE(paced_clean);
  EXPECT_EQ(stats.agents_expired, 0u);
  EXPECT_EQ(stats.reassigned, 0u);
  // The waits were real: more probes than one token per VP, and the agent
  // heartbeated through them.
  EXPECT_GT(paced.counters().executed, options.topo.num_vps);
  EXPECT_GT(paced.counters().heartbeats, 0u);
}

}  // namespace
}  // namespace revtr

// revtr_serverd subsystem tests: admission policy in isolation, quota
// charge/refund semantics on RevtrService, and the daemon end-to-end over a
// real AF_UNIX socket — auth, submit/result, pull mode, deadline edge
// cases, graceful DRAIN with staged tasks in flight, and SIGTERM shutdown.
//
// Suite names matter: scripts/check.sh re-runs ServerDaemon* under TSan.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eval/harness.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/frame.h"
#include "service/parallel.h"
#include "service/runner.h"
#include "service/service.h"
#include "util/json.h"
#include "util/sim_clock.h"

namespace revtr::server {
namespace {

// --- AdmissionController in isolation (externally synchronized). ----------

TEST(Admission, TokenBucketRefillsAtRate) {
  TokenBucketOptions options;
  options.rate_per_sec = 10;
  options.burst = 2;
  TokenBucket bucket(options);
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_FALSE(bucket.try_take(0)) << "burst exhausted";
  // 100 ms at 10/s refills exactly one token.
  EXPECT_TRUE(bucket.try_take(100'000));
  EXPECT_FALSE(bucket.try_take(100'000));
}

TEST(Admission, TokenBucketCapsAtBurst) {
  TokenBucketOptions options;
  options.rate_per_sec = 1000;
  options.burst = 3;
  TokenBucket bucket(options);
  // A long idle period must not bank more than `burst` tokens.
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(bucket.try_take(10'000'000));
  EXPECT_FALSE(bucket.try_take(10'000'000));
}

class AdmissionDecide : public ::testing::Test {
 protected:
  AdmissionDecide() : controller_(AdmissionConfig{}) {
    TokenBucketOptions generous;
    generous.rate_per_sec = 1e9;
    generous.burst = 1e9;
    controller_.add_tenant(1, generous);
  }
  AdmissionController controller_;
  AdmissionLoad load_;
};

TEST_F(AdmissionDecide, AdmitsByDefault) {
  EXPECT_EQ(controller_.decide(1, 0, 1000, load_), std::nullopt);
}

TEST_F(AdmissionDecide, DrainingRefusesEverything) {
  load_.draining = true;
  EXPECT_EQ(controller_.decide(1, 0, 1000, load_), RejectReason::kDraining);
}

TEST_F(AdmissionDecide, ExpiredDeadlineRejectedUpFront) {
  EXPECT_EQ(controller_.decide(1, /*deadline_us=*/500, /*now_us=*/1000, load_),
            RejectReason::kDeadlineExpired);
  // Zero means "no deadline", never "expired".
  EXPECT_EQ(controller_.decide(1, 0, 1000, load_), std::nullopt);
}

TEST_F(AdmissionDecide, TokenBucketRateLimits) {
  TokenBucketOptions stingy;
  stingy.rate_per_sec = 0;
  stingy.burst = 1;
  controller_.add_tenant(2, stingy);
  EXPECT_EQ(controller_.decide(2, 0, 0, load_), std::nullopt);
  EXPECT_EQ(controller_.decide(2, 0, 0, load_), RejectReason::kRateLimited);
}

TEST_F(AdmissionDecide, FullQueueSheds) {
  load_.queued = AdmissionConfig{}.queue_capacity;
  EXPECT_EQ(controller_.decide(1, 0, 1000, load_), RejectReason::kQueueFull);
}

TEST_F(AdmissionDecide, SchedulerBacklogBackpressures) {
  load_.sched_backlog = AdmissionConfig{}.sched_backlog_limit + 1;
  EXPECT_EQ(controller_.decide(1, 0, 1000, load_),
            RejectReason::kBackpressure);
}

TEST_F(AdmissionDecide, UnmeetableDeadlineShedsEarly) {
  // Teach the controller that a request takes ~1 s, then offer a deadline
  // only 100 ms away with a deep queue in front of it.
  for (int i = 0; i < 8; ++i) controller_.observe_latency(1'000'000);
  load_.queued = 10;
  load_.inflight = 4;
  EXPECT_GT(controller_.estimated_wait_us(load_), 0);
  EXPECT_EQ(controller_.decide(1, /*deadline_us=*/100'000, /*now_us=*/0,
                               load_),
            RejectReason::kDeadlineUnmeetable);
  // The same load with a far deadline is fine.
  EXPECT_EQ(controller_.decide(1, /*deadline_us=*/3'600'000'000LL,
                               /*now_us=*/0, load_),
            std::nullopt);
}

TEST_F(AdmissionDecide, LatencyEwmaTracksSamples) {
  controller_.observe_latency(1000);
  EXPECT_DOUBLE_EQ(controller_.smoothed_latency_us(), 1000);
  controller_.observe_latency(2000);
  // alpha = 0.2: 1000 + 0.2 * (2000 - 1000).
  EXPECT_DOUBLE_EQ(controller_.smoothed_latency_us(), 1200);
}

// --- Weighted fair queuing across tenants (FairQueue in isolation). -------

TEST(FairQueuing, FloodingTenantCannotStarvePeer) {
  // Tenant 1 floods 100 requests before tenant 2 submits 10, all at the
  // same priority and equal weight. FIFO would make tenant 2 wait out the
  // whole flood; start-time fair queuing interleaves instead.
  FairQueue<std::uint32_t> queue;
  for (std::uint32_t i = 0; i < 100; ++i) queue.push(1, /*flow=*/1, i);
  for (std::uint32_t i = 0; i < 10; ++i) queue.push(1, /*flow=*/2, 100 + i);
  // Within the first 30 pops, every one of tenant 2's 10 items must have
  // been served (round-robin at equal weight drains the short flow fast).
  std::size_t tenant2_served = 0;
  for (int i = 0; i < 30; ++i) {
    const auto item = queue.pop();
    ASSERT_TRUE(item.has_value());
    if (*item >= 100) ++tenant2_served;
  }
  EXPECT_EQ(tenant2_served, 10u) << "late tenant starved behind the flood";
  // The remaining items all belong to tenant 1 and drain in FIFO order.
  std::uint32_t expect_next = 20;
  while (!queue.empty()) EXPECT_EQ(*queue.pop(), expect_next++);
}

TEST(FairQueuing, WeightsSkewServiceProportionally) {
  // Tenant 1 at weight 2, tenant 2 at weight 1, both backlogged: tenant 1
  // should receive ~2/3 of the service while both queues are non-empty.
  FairQueue<std::uint32_t> queue;
  queue.set_weight(1, 2.0);
  queue.set_weight(2, 1.0);
  for (std::uint32_t i = 0; i < 60; ++i) {
    queue.push(0, 1, /*tenant 1 marker=*/0);
    queue.push(0, 2, /*tenant 2 marker=*/1);
  }
  std::size_t tenant1 = 0;
  for (int i = 0; i < 60; ++i) {
    if (*queue.pop() == 0) ++tenant1;
  }
  EXPECT_GE(tenant1, 38u) << "weight-2 tenant under-served";
  EXPECT_LE(tenant1, 42u) << "weight-2 tenant over-served";
}

TEST(FairQueuing, StrictPriorityBeatsFairnessAcrossLevels) {
  // Fairness applies within a level; across levels, a lower level number
  // always wins no matter how backlogged the flows below it are.
  FairQueue<int> queue;
  for (int i = 0; i < 50; ++i) queue.push(2, 1, 1000 + i);
  queue.push(1, 2, 7);
  queue.push(0, 3, 3);
  EXPECT_EQ(queue.size(), 52u);
  EXPECT_EQ(*queue.pop(), 3);
  EXPECT_EQ(*queue.pop(), 7);
  EXPECT_EQ(*queue.pop(), 1000);
}

TEST(FairQueuing, IdleFlowDoesNotBankCredit) {
  // A flow that went idle restarts at the level's virtual time: it cannot
  // burst ahead of an always-busy flow by "saving up" unused service.
  FairQueue<int> queue;
  for (int i = 0; i < 4; ++i) queue.push(0, 1, 10 + i);
  // Flow 2 was idle while flow 1 consumed service...
  EXPECT_EQ(*queue.pop(), 10);
  EXPECT_EQ(*queue.pop(), 11);
  // ...then shows up. It gets its fair share from now on, not a burst of
  // four back-to-back pops to "catch up".
  for (int i = 0; i < 4; ++i) queue.push(0, 2, 20 + i);
  EXPECT_EQ(*queue.pop(), 12);
  EXPECT_EQ(*queue.pop(), 20);
  EXPECT_EQ(*queue.pop(), 13);
  EXPECT_EQ(*queue.pop(), 21);
}

// --- Quota charge/refund semantics on RevtrService directly. --------------

TEST(ServiceQuota, ChargeRefundRoundTrip) {
  topology::TopologyConfig topo;
  topo.seed = 11;
  topo.num_ases = 60;
  topo.num_vps = 5;
  topo.num_probe_hosts = 20;
  eval::Lab lab(topo);
  service::RevtrService service(lab.engine, lab.atlas, lab.prober, lab.topo);
  service::UserLimits limits;
  limits.daily_limit = 2;
  const auto user = service.add_user("capped", limits);

  using Decision = service::RevtrService::QuotaDecision;
  EXPECT_EQ(service.try_charge_request(999), Decision::kUnknownUser);
  EXPECT_EQ(service.try_charge_request(user), Decision::kCharged);
  EXPECT_EQ(service.try_charge_request(user), Decision::kCharged);
  EXPECT_EQ(service.requests_charged_today(user), 2u);
  EXPECT_EQ(service.try_charge_request(user), Decision::kQuotaExhausted);
  // A refund (request shed / incomplete) reopens the window.
  service.refund_request(user);
  EXPECT_EQ(service.requests_charged_today(user), 1u);
  EXPECT_EQ(service.try_charge_request(user), Decision::kCharged);
  EXPECT_EQ(service.try_charge_request(user), Decision::kQuotaExhausted);
}

// --- Client against a peer that hangs up. ----------------------------------

TEST(ServerClient, HungUpPeerFailsWithoutSigpipe) {
  // The peer accepts and closes at once, so every send hits EPIPE. A send
  // without MSG_NOSIGNAL would kill this process with SIGPIPE; instead the
  // calls report a transport error (no reject reason) and return.
  const std::string path = "/tmp/revtr_server_test_hangup.sock";
  ::unlink(path.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);

  DaemonClient client;
  ASSERT_TRUE(client.connect(path));
  const int peer = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(peer, 0);
  ::close(peer);

  EXPECT_FALSE(client.hello("demo-key").has_value());
  EXPECT_FALSE(client.reject_reason().has_value());
  Submit request;
  request.request_id = 1;
  EXPECT_FALSE(client.submit(request));
  EXPECT_FALSE(client.reject_reason().has_value());

  ::close(listener);
  ::unlink(path.c_str());
}

// --- Daemon end-to-end over a real socket. --------------------------------

ServerOptions small_daemon_options(const std::string& test_name) {
  ServerOptions options;
  options.socket_path = "/tmp/revtr_server_test_" + test_name + ".sock";
  options.topo.seed = 11;
  options.topo.num_ases = 100;
  options.topo.num_vps = 6;
  options.topo.num_probe_hosts = 24;
  options.seed = 11;
  options.workers = 2;
  options.atlas_size = 20;
  return options;
}

TEST(ServerDaemon, HelloAuthRejectsBadKeyAndVersion) {
  const auto options = small_daemon_options("auth");
  ServerDaemon daemon(options);
  ASSERT_TRUE(daemon.start());
  {
    DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    EXPECT_FALSE(client.hello("wrong-key").has_value());
    ASSERT_TRUE(client.reject_reason().has_value());
    EXPECT_EQ(*client.reject_reason(), RejectReason::kBadApiKey);
    // Same connection can retry with the right key.
    const auto welcome = client.hello("demo-key");
    ASSERT_TRUE(welcome.has_value());
    EXPECT_EQ(welcome->tenant_name, "demo");
    EXPECT_GT(welcome->server_now_us, 0);
  }
  daemon.stop();
}

TEST(ServerDaemon, SubmitWithoutHelloRejected) {
  ServerDaemon daemon(small_daemon_options("unauth"));
  ASSERT_TRUE(daemon.start());
  {
    DaemonClient client;
    ASSERT_TRUE(client.connect(small_daemon_options("unauth").socket_path));
    Submit request;
    request.request_id = 1;
    EXPECT_FALSE(client.submit(request));
    ASSERT_TRUE(client.reject_reason().has_value());
    EXPECT_EQ(*client.reject_reason(), RejectReason::kNotAuthenticated);
  }
  daemon.stop();
}

TEST(ServerDaemon, SubmitMeasuresAndPushesResults) {
  const auto options = small_daemon_options("measure");
  ServerDaemon daemon(options);
  ASSERT_TRUE(daemon.start());
  {
    DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    ASSERT_TRUE(client.hello("demo-key").has_value());
    for (std::uint64_t i = 0; i < 3; ++i) {
      Submit request;
      request.request_id = 100 + i;
      request.dest_index = static_cast<std::uint32_t>(i);
      ASSERT_TRUE(client.submit(request)) << "request " << i;
    }
    for (int i = 0; i < 3; ++i) {
      const auto result = client.next_result();
      ASSERT_TRUE(result.has_value());
      EXPECT_GE(result->request_id, 100u);
      EXPECT_FALSE(result->shed);
      EXPECT_GT(result->probes, 0u);
      if (result->status == core::RevtrStatus::kComplete) {
        EXPECT_FALSE(result->hops.empty());
      }
    }
    // Out-of-range destination index is a bad request, not a crash.
    Submit bad;
    bad.request_id = 999;
    bad.dest_index = 1 << 20;
    EXPECT_FALSE(client.submit(bad));
    EXPECT_EQ(*client.reject_reason(), RejectReason::kBadRequest);
  }
  const auto counters = daemon.counters();
  EXPECT_EQ(counters.accepted, 3u);
  EXPECT_EQ(counters.completed, 3u);
  EXPECT_EQ(counters.rejected, 1u);
  EXPECT_EQ(daemon.registry()
                .snapshot()
                .find_counter("revtr_server_requests_total")
                ->value,
            3u);
  daemon.stop();
}

TEST(ServerDaemon, PullModeReturnsResultsOnPoll) {
  const auto options = small_daemon_options("pull");
  ServerDaemon daemon(options);
  ASSERT_TRUE(daemon.start());
  {
    DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    ASSERT_TRUE(client.hello("demo-key", /*push_results=*/false).has_value());
    for (std::uint64_t i = 0; i < 2; ++i) {
      Submit request;
      request.request_id = i;
      request.dest_index = static_cast<std::uint32_t>(i);
      ASSERT_TRUE(client.submit(request));
    }
    std::size_t received = 0;
    while (received < 2) {
      const auto pending = client.poll_results();
      ASSERT_TRUE(pending.has_value());
      while (client.stashed_results() > 0) {
        ASSERT_TRUE(client.next_result().has_value());
        ++received;
      }
    }
    EXPECT_EQ(received, 2u);
  }
  daemon.stop();
}

TEST(ServerDaemon, StatsReplyIsParseableJson) {
  const auto options = small_daemon_options("stats");
  ServerDaemon daemon(options);
  ASSERT_TRUE(daemon.start());
  {
    DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    ASSERT_TRUE(client.hello("demo-key").has_value());
    const auto stats = client.stats();
    ASSERT_TRUE(stats.has_value());
    const auto parsed = util::Json::parse(*stats);
    ASSERT_TRUE(parsed.has_value()) << *stats;
    EXPECT_NE(parsed->find("accepted"), nullptr);
    EXPECT_NE(parsed->find("queued"), nullptr);
  }
  daemon.stop();
}

TEST(ServerDaemon, DeadlineExpiredAtSubmitIsRejectedWithoutCharge) {
  const auto options = small_daemon_options("deadline");
  ServerDaemon daemon(options);
  ASSERT_TRUE(daemon.start());
  {
    DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    ASSERT_TRUE(client.hello("demo-key").has_value());
    Submit request;
    request.request_id = 1;
    request.deadline_us = 1;  // Hours before "now" on the daemon clock.
    EXPECT_FALSE(client.submit(request));
    ASSERT_TRUE(client.reject_reason().has_value());
    EXPECT_EQ(*client.reject_reason(), RejectReason::kDeadlineExpired);
    // The rejection consumed no quota: a normal submit still works.
    request.request_id = 2;
    request.deadline_us = 0;
    EXPECT_TRUE(client.submit(request));
    EXPECT_TRUE(client.next_result().has_value());
  }
  const auto counters = daemon.counters();
  EXPECT_EQ(counters.rejected, 1u);
  EXPECT_EQ(counters.accepted, 1u);
  daemon.stop();
}

TEST(ServerDaemon, QuotaExhaustedMidFlightThenRefundedBySheds) {
  auto options = small_daemon_options("quota");
  TenantConfig tenant;  // Default name/key, tight request quota.
  tenant.limits.daily_limit = 3;
  options.tenants.push_back(tenant);
  ServerDaemon daemon(options);
  ASSERT_TRUE(daemon.start());
  // Park the workers so accepted requests sit in the queue while their
  // deadlines expire — the deterministic version of "shed under overload".
  daemon.set_worker_hold(true);
  {
    DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    const auto welcome = client.hello("demo-key");
    ASSERT_TRUE(welcome.has_value());
    Submit request;
    for (std::uint64_t i = 0; i < 3; ++i) {
      request.request_id = i;
      request.deadline_us = welcome->server_now_us + 50'000;  // +50 ms.
      ASSERT_TRUE(client.submit(request)) << "request " << i;
    }
    // The 4th hits the daily cap while the first three are still queued.
    request.request_id = 99;
    request.deadline_us = 0;
    EXPECT_FALSE(client.submit(request));
    ASSERT_TRUE(client.reject_reason().has_value());
    EXPECT_EQ(*client.reject_reason(), RejectReason::kQuotaExhausted);

    // Let the deadlines lapse, then release the workers: all three must
    // come back shed, and each shed refunds its quota charge.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    daemon.set_worker_hold(false);
    for (int i = 0; i < 3; ++i) {
      const auto result = client.next_result();
      ASSERT_TRUE(result.has_value());
      EXPECT_TRUE(result->shed);
      EXPECT_TRUE(result->hops.empty());
    }
    // Refunds reopened the window: the retry is admitted and measured.
    request.request_id = 100;
    EXPECT_TRUE(client.submit(request));
    const auto result = client.next_result();
    ASSERT_TRUE(result.has_value());
    EXPECT_FALSE(result->shed);
  }
  const auto counters = daemon.counters();
  EXPECT_EQ(counters.shed_queued, 3u);
  EXPECT_EQ(counters.completed, 1u);
  daemon.stop();
}

TEST(ServerDaemon, DrainCompletesInFlightThenRefusesNewWork) {
  const auto options = small_daemon_options("drain");
  ServerDaemon daemon(options);
  ASSERT_TRUE(daemon.start());
  {
    DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    ASSERT_TRUE(client.hello("demo-key").has_value());
    daemon.set_worker_hold(true);
    Submit request;
    for (std::uint64_t i = 0; i < 3; ++i) {
      request.request_id = i;
      request.dest_index = static_cast<std::uint32_t>(i);
      ASSERT_TRUE(client.submit(request));
    }
    EXPECT_EQ(daemon.counters().completed, 0u) << "workers are parked";
    // Release the workers and drain: every queued request must be measured
    // (not dropped) before DRAIN_DONE.
    daemon.set_worker_hold(false);
    const auto done = client.drain();
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->completed, 3u);
    EXPECT_EQ(done->shed, 0u);
    EXPECT_TRUE(daemon.draining());
    // The three results were pushed before DRAIN_DONE; they are stashed.
    EXPECT_EQ(client.stashed_results(), 3u);
    // New work is refused while draining.
    request.request_id = 50;
    EXPECT_FALSE(client.submit(request));
    ASSERT_TRUE(client.reject_reason().has_value());
    EXPECT_EQ(*client.reject_reason(), RejectReason::kDraining);
  }
  daemon.wait_until_drained();
  daemon.stop();
}

TEST(ServerDaemon, SigtermDrainsThenExits) {
  const auto options = small_daemon_options("sigterm");
  ServerDaemon daemon(options);
  ASSERT_TRUE(daemon.start());
  ServerDaemon::install_signal_handlers(&daemon);
  {
    DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    ASSERT_TRUE(client.hello("demo-key").has_value());
    Submit request;
    request.request_id = 7;
    ASSERT_TRUE(client.submit(request));
    // SIGTERM arrives with the request in flight; the handler only flags a
    // drain, so the measurement still completes and is delivered.
    std::raise(SIGTERM);
    const auto result = client.next_result();
    ASSERT_TRUE(result.has_value());
    EXPECT_FALSE(result->shed);
  }
  daemon.wait_until_drained();
  const auto counters = daemon.counters();
  EXPECT_EQ(counters.completed, 1u);
  daemon.stop();
  ServerDaemon::install_signal_handlers(nullptr);
}

// The campaign driver's staged mode and the daemon's workers are two front
// ends over one service::RequestRunner; per-pair RevtrEngine::measure() is
// the reference. With caches off — no request's outcome depends on what ran
// before it — all three must agree on status and on every hop's address and
// provenance.
TEST(RunnerFrontEnds, DriverDaemonAndMeasureAgreeWithCachesOff) {
  auto options = small_daemon_options("frontends");
  options.engine.use_cache = false;
  options.sources = 2;

  // The daemon's world, rebuilt through the same public calls its start()
  // makes, so atlas and ingress plans match the daemon's own.
  eval::Lab lab(options.topo, options.engine, options.seed);
  lab.precompute_all_ingresses();
  service::RevtrService service(lab.engine, lab.atlas, lab.prober, lab.topo);
  std::vector<topology::HostId> sources;
  for (const topology::HostId vp : lab.topo.vantage_points()) {
    if (sources.size() == options.sources) break;
    if (service.add_source(vp, options.atlas_size, lab.rng)) {
      sources.push_back(vp);
    }
  }
  ASSERT_EQ(sources.size(), options.sources);

  // Index i is request i everywhere: driver input position, daemon arrival
  // order (one client, submitted in order), and the reference's reseed.
  std::vector<std::pair<topology::HostId, topology::HostId>> pairs;
  std::vector<Submit> submits;
  for (std::uint32_t dest = 0; dest < 12; ++dest) {
    for (std::uint32_t source = 0; source < sources.size(); ++source) {
      Submit request;
      request.request_id = pairs.size();
      request.dest_index = dest;
      request.source_index = source;
      submits.push_back(request);
      pairs.emplace_back(lab.topo.probe_hosts()[dest], sources[source]);
    }
  }

  struct Measured {
    core::RevtrStatus status = core::RevtrStatus::kUnreachable;
    std::vector<ResultHop> hops;
    bool operator==(const Measured&) const = default;
  };
  const auto measured_of = [](const core::ReverseTraceroute& result) {
    Measured measured{result.status, {}};
    for (const auto& hop : result.hops) {
      measured.hops.push_back(ResultHop{hop.addr, hop.source});
    }
    return measured;
  };

  const service::CampaignDeps deps{lab.topo,    lab.plane, lab.atlas,
                                   lab.ingress, lab.ip2as, lab.relationships};
  std::vector<Measured> reference;
  {
    service::WorkerStack stack(deps, options.engine, options.seed,
                               std::make_shared<core::EngineCaches>());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      stack.engine.reseed(service::request_seed(options.seed, i));
      util::SimClock clock;
      reference.push_back(measured_of(
          stack.engine.measure(pairs[i].first, pairs[i].second, clock)));
    }
  }

  service::ParallelCampaignOptions campaign;
  campaign.workers = 2;
  campaign.seed = options.seed;
  campaign.engine = options.engine;
  campaign.mode = service::EngineMode::kStaged;
  const auto report = service::ParallelCampaignDriver(deps, campaign).run(pairs);
  ASSERT_EQ(report.results.size(), pairs.size());

  std::vector<std::optional<Measured>> served(pairs.size());
  {
    ServerDaemon daemon(options);
    ASSERT_TRUE(daemon.start());
    DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    ASSERT_TRUE(client.hello("demo-key").has_value());
    for (const Submit& request : submits) {
      ASSERT_TRUE(client.submit(request)) << request.request_id;
    }
    for (std::size_t n = 0; n < submits.size(); ++n) {
      const auto result = client.next_result();
      ASSERT_TRUE(result.has_value());
      ASSERT_LT(result->request_id, served.size());
      EXPECT_FALSE(result->shed);
      served[result->request_id] = Measured{result->status, result->hops};
    }
    daemon.stop();
  }

  std::size_t complete = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (reference[i].status == core::RevtrStatus::kComplete) ++complete;
    EXPECT_EQ(measured_of(report.results[i]), reference[i]) << "driver, " << i;
    ASSERT_TRUE(served[i].has_value()) << i;
    EXPECT_EQ(*served[i], reference[i]) << "daemon, " << i;
  }
  // The comparison covers real reverse paths, not only failures.
  EXPECT_GT(complete, 0u);
}

}  // namespace
}  // namespace revtr::server

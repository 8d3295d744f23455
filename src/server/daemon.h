// revtr_serverd: the long-running measurement daemon (ROADMAP item 1).
//
// The paper's revtr 2.0 is a deployed on-demand *service*: a controller
// that stays up, keeps the traceroute atlas and engine caches hot, and
// serves third-party measurement requests under a probe budget. ServerDaemon
// is that controller over the simulated Internet — it owns one RevtrService
// (tenant quotas), one staged ProbeScheduler (cross-request coalescing
// across *connections*, not just within one campaign), one TracerouteAtlas,
// and one shared EngineCaches for the daemon's whole lifetime, and speaks
// the framed protocol in server/frame.h over a local AF_UNIX stream socket.
//
// Thread architecture (three kinds of threads, one daemon mutex):
//
//   net thread    poll() event loop over the listening socket, a self-pipe,
//                 and every client connection. Owns ALL per-connection state
//                 (buffers, auth, pull-mode result queues) without locks —
//                 nothing else touches a connection. Parses frames, runs
//                 admission, enqueues accepted requests.
//   workers       thin front ends over service::RequestRunner (the loop the
//                 campaign driver runs too): each pops queued requests into
//                 its runner, shedding expired deadlines, pumps locally or
//                 dispatches to agents, and pushes encoded RESULT frames
//                 back through the completion queue.
//   caller        start() / request_drain() / wait_until_drained() / stop().
//
// mu_ (lock rank 110, above every library mutex) guards the submission
// queue, the admission controller, the quota service, the counters, and the
// completion queue. Obs registry lookups (rank 10) and scheduler state
// reads (rank 60) are resolved or sampled BEFORE taking mu_ — never under
// it — so the daemon can sit on top of the whole stack without inverting
// the lock order.
//
// Shutdown: request_drain() is async-signal-safe (SIGTERM handler calls it:
// one atomic store + one write() to the self-pipe). The net thread then
// flips the daemon into draining — admission refuses with kDraining, the
// workers finish every queued + in-flight request, and when the last one
// completes the daemon is drained: DRAIN_DONE goes to every client that
// asked, wait_until_drained() returns, and stop() joins everything.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/revtr.h"
#include "eval/harness.h"
#include "obs/metrics.h"
#include "sched/scheduler.h"
#include "server/admission.h"
#include "server/frame.h"
#include "service/runner.h"
#include "service/service.h"
#include "topology/builder.h"
#include "util/annotate.h"

namespace revtr::server {

struct TenantConfig {
  std::string name = "demo";
  std::string api_key = "demo-key";
  service::UserLimits limits;
  TokenBucketOptions bucket;
  // WFQ share against other tenants at the same priority level (see
  // FairQueue in server/admission.h). Relative, not absolute: 2.0 dequeues
  // twice as often as 1.0 under contention.
  double weight = 1.0;
};

struct ServerOptions {
  std::string socket_path = "/tmp/revtr_serverd.sock";
  topology::TopologyConfig topo;
  core::EngineConfig engine = core::EngineConfig::revtr2();
  sched::SchedOptions sched;
  AdmissionConfig admission;
  std::uint64_t seed = 7;
  std::size_t workers = 2;
  // Vantage points bootstrapped as sources at startup (SUBMIT source_index
  // addresses them in order).
  std::size_t sources = 1;
  std::size_t atlas_size = 50;
  // Requests a worker multiplexes concurrently over the scheduler.
  std::size_t max_inflight_per_worker = 16;
  // Tenants provisioned at startup; empty = one default TenantConfig{}.
  std::vector<TenantConfig> tenants;
  // Distributed controller mode (ROADMAP item 5 / DESIGN.md §15): workers
  // never execute probes locally; wire demands are dispatched as AGENT_PROBE
  // frames to VP agents that joined with AGENT_REGISTER. With no agent
  // connected, accepted requests wait in the scheduler until one registers.
  bool remote_probing = false;
  // Remote mode: an agent silent (no heartbeat, result, or register) for
  // longer than this is declared dead: its in-flight assignments requeue
  // for reassignment and the net thread closes its connection. 0 disables
  // expiry (EOF still detaches).
  std::int64_t agent_timeout_us = 2'000'000;
  // Test hook: when set, the scheduler records its issue/delivery audit
  // here so tests can run invariant I7 over a daemon campaign. Must outlive
  // the daemon; the caller reads it only after stop().
  sched::SchedulerAudit* sched_audit = nullptr;
};

// Lifetime totals, copied out under the daemon mutex. The same numbers back
// the STATS reply and the Prometheus counters; this plain struct is for
// tests and the replayer's artifact.
struct ServerCounters {
  std::uint64_t connections = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;        // Measured (not shed).
  std::uint64_t shed_queued = 0;      // Accepted, then shed from the queue.
  std::uint64_t deadline_missed = 0;  // Measured but past deadline.
  std::uint64_t protocol_errors = 0;
};

class ServerDaemon {
 public:
  explicit ServerDaemon(ServerOptions options);
  ~ServerDaemon();

  ServerDaemon(const ServerDaemon&) = delete;
  ServerDaemon& operator=(const ServerDaemon&) = delete;

  // Builds the Lab (topology + routing + atlas + ingress survey), provisions
  // tenants and sources, binds the socket, and spawns the net thread and
  // workers. False on socket errors (message on stderr).
  bool start();

  // Begins a graceful drain. Async-signal-safe: an atomic flag plus a
  // write() to the self-pipe; the net thread does the actual transition.
  void request_drain() noexcept;

  // Blocks until every accepted request has completed or been shed after a
  // drain was requested.
  void wait_until_drained();

  // Joins all threads and closes the socket. Implies request_drain() —
  // accepted work is finished, not dropped. Idempotent.
  void stop();

  bool draining() const;
  ServerCounters counters() const;
  // Scheduler counters (remote-mode tests assert on reassigned /
  // stale_results). Valid between start() and stop().
  sched::SchedulerStats sched_stats() const;
  obs::MetricsRegistry& registry() noexcept { return registry_; }

  // Micros since start() on the daemon's steady clock — the timebase
  // HELLO_OK advertises and SUBMIT deadlines are expressed in.
  std::int64_t now_us() const;

  // Test hook: while held, workers park instead of popping the queue, so a
  // test can pile up queued requests (expiring deadlines, exhausting
  // quotas) deterministically before releasing the workers.
  void set_worker_hold(bool hold);

  // Routes SIGTERM/SIGINT to daemon->request_drain(). One daemon per
  // process; passing nullptr uninstalls.
  static void install_signal_handlers(ServerDaemon* daemon);

 private:
  struct QueuedRequest {
    std::uint64_t index = 0;       // Daemon-internal, dense; seeds the RNG.
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;  // Client-chosen, echoed in replies.
    service::UserId tenant = 0;
    topology::HostId destination = topology::kInvalidId;
    topology::HostId source = topology::kInvalidId;
    Priority priority = Priority::kNormal;
    std::int64_t deadline_us = 0;
    std::int64_t accepted_us = 0;
  };

  // An encoded frame bound for a connection; workers produce these, the net
  // thread routes them (push mode: connection outbuf; pull mode: the
  // connection's POLL queue).
  struct Completion {
    std::uint64_t conn_id = 0;
    std::vector<std::uint8_t> frame;
  };

  // Per-tenant counter handles, resolved once at start() (registry lookups
  // take the rank-10 registry mutex and must never run under mu_).
  struct TenantMetrics {
    obs::Counter* requests = nullptr;
  };

  void net_loop();
  void worker_loop(std::size_t w);
  // Remote-mode pump step (any worker): encodes each live agent's next
  // assignment batch as AGENT_PROBE completions for the net thread to
  // flush. Returns the number of assignments moved (the runner's idle
  // test).
  std::size_t dispatch_to_agents();
  // Handles one decoded frame from a connection. Defined in daemon.cpp on
  // the net thread's connection table.
  struct Conn;
  void handle_message(Conn& conn, Message message);
  // Snapshot of counters + SLO quantiles as JSON text. Takes the registry
  // snapshot before mu_ (rank 10 under rank 110 — never nested).
  std::string build_stats_json();
  void wake_net() noexcept;
  // Enters draining and, if nothing is queued or in flight, marks the
  // daemon drained. Called for a DRAIN frame and for request_drain().
  void begin_drain() REVTR_EXCLUDES(mu_);
  // The drained transition: once draining with nothing queued or in
  // flight, flips drained_ and wakes wait_until_drained().
  void mark_drained_if_idle_locked() REVTR_REQUIRES(mu_);

  const ServerOptions options_;

  // --- Measurement stack, built by start(), immutable afterwards. The
  // pointed-to objects do their own locking (sharded metrics, the scheduler
  // and service mutexes); the pointers themselves never change. ---
  obs::MetricsRegistry registry_;  // lint: lock-free(internally synchronized)
  std::unique_ptr<eval::Lab> lab_;  // lint: lock-free(immutable after start)
  std::unique_ptr<service::ServiceMetrics>
      service_metrics_;  // lint: lock-free(immutable after start)
  std::unique_ptr<service::RevtrService>
      service_;  // lint: lock-free(internally synchronized)
  std::unique_ptr<core::EngineMetrics>
      engine_metrics_;  // lint: lock-free(immutable after start)
  std::unique_ptr<probing::ProbeMetrics>
      probe_metrics_;  // lint: lock-free(immutable after start)
  std::unique_ptr<sched::SchedMetrics>
      sched_metrics_;  // lint: lock-free(immutable after start)
  std::unique_ptr<sched::ProbeScheduler>
      scheduler_;  // lint: lock-free(internally synchronized)
  std::shared_ptr<core::EngineCaches>
      caches_;  // lint: lock-free(internally synchronized)
  std::vector<std::unique_ptr<service::RequestRunner>>
      runners_;  // lint: lock-free(each runner private to one worker)
  std::vector<topology::HostId>
      source_hosts_;  // lint: lock-free(immutable after start)
  // Effective tenant set (options_.tenants, or one default when empty) and
  // the UserIds RevtrService assigned them, index-parallel.
  std::vector<TenantConfig>
      tenant_configs_;  // lint: lock-free(immutable after start)
  std::vector<service::UserId>
      tenant_ids_;  // lint: lock-free(immutable after start)
  // Indexed by UserId.
  std::vector<TenantMetrics>
      tenant_metrics_;  // lint: lock-free(immutable after start)

  // Metric handles, resolved once at start(); counters/histograms are
  // sharded relaxed atomics, safe from any thread.
  obs::Counter* requests_total_ = nullptr;  // lint: lock-free(set at start)
  obs::Counter* completed_total_ = nullptr;  // lint: lock-free(set at start)
  obs::Counter* sheds_total_ = nullptr;  // lint: lock-free(set at start)
  obs::Counter* deadline_miss_total_ =
      nullptr;  // lint: lock-free(set at start)
  obs::Counter* connections_total_ = nullptr;  // lint: lock-free(set at start)
  obs::Counter* protocol_errors_total_ =
      nullptr;  // lint: lock-free(set at start)
  // Indexed by RejectReason.
  std::vector<obs::Counter*> reject_reasons_;  // lint: lock-free(set at start)
  obs::Histogram* wall_latency_us_ = nullptr;  // lint: lock-free(set at start)
  obs::Histogram* sim_latency_us_ = nullptr;  // lint: lock-free(set at start)
  obs::Gauge* queue_depth_ = nullptr;  // lint: lock-free(set at start)
  obs::Gauge* inflight_ = nullptr;  // lint: lock-free(set at start)

  // --- Sockets (owned by start()/stop(); the net loop reads them). ---
  int listen_fd_ = -1;  // lint: lock-free(set at start, read by net thread)
  int wake_pipe_[2] = {-1, -1};  // lint: lock-free(set at start)
  // steady_clock at start().
  std::int64_t epoch_ns_ = 0;  // lint: lock-free(set once at start)

  // Set by request_drain() (possibly from a signal handler); the net thread
  // converts it into the guarded draining_ transition.
  std::atomic<bool> drain_requested_{false};

  // --- The daemon mutex (lock rank 110; see tools/revtr_lint.cpp). ---
  mutable util::Mutex mu_;
  std::condition_variable_any work_cv_;     // Queue became non-empty / state.
  std::condition_variable_any drained_cv_;  // drained_ flipped true.
  FairQueue<QueuedRequest> queue_ REVTR_GUARDED_BY(mu_);
  std::size_t queued_ REVTR_GUARDED_BY(mu_) = 0;
  // Remote mode: registered agents as (conn id, scheduler agent id). The
  // net thread adds/removes entries (register / EOF / drain); workers
  // snapshot the list under mu_, then dispatch assignments per agent via
  // the scheduler (rank 60 — taken after mu_ is released, never under it).
  std::vector<std::pair<std::uint64_t, sched::ProbeScheduler::AgentId>>
      agent_conns_ REVTR_GUARDED_BY(mu_);
  std::size_t inflight_count_ REVTR_GUARDED_BY(mu_) = 0;
  std::uint64_t next_request_index_ REVTR_GUARDED_BY(mu_) = 0;
  AdmissionController admission_ REVTR_GUARDED_BY(mu_);
  ServerCounters counters_ REVTR_GUARDED_BY(mu_);
  std::deque<Completion> completions_ REVTR_GUARDED_BY(mu_);
  bool draining_ REVTR_GUARDED_BY(mu_) = false;
  bool drained_ REVTR_GUARDED_BY(mu_) = false;
  bool stopping_ REVTR_GUARDED_BY(mu_) = false;
  bool worker_hold_ REVTR_GUARDED_BY(mu_) = false;

  bool started_ = false;  // lint: lock-free(caller thread only)
  std::vector<std::thread> threads_;  // lint: lock-free(start/stop only)
};

}  // namespace revtr::server

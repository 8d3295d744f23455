// Async probe scheduling with cross-request coalescing (DESIGN.md §10).
//
// The staged engine (core::RequestTask) never touches the Prober. Each stage
// yields a *demand set* — the probes it needs before it can resume — and
// suspends. This layer turns demand sets from many in-flight requests into
// wire probes:
//
//   * Coalescing: two demands with identical content (same probe type,
//     vantage point, target, spoof source, prespec list) share one wire
//     probe from submit to delivery, execution included; the outcome fans
//     out to every waiter — the RR-atlas idea (never re-measure what another
//     request learned) at in-flight granularity.
//   * Dispatch rounds: one FIFO pass issues at most `vp_window` probes per
//     vantage point plus a per-round token refill (§5.2.4's rate concerns),
//     and groups same-ingress spoofed demands into the paper's 3-probe
//     batches *across* requests (§4.3). Deferred demands stay queued. A
//     round goes to a VP agent (next_assignments) or to the pumping worker
//     (pump), which runs it with the mutex released; both deliver alike.
//   * Wire probes only: every demand is a ProbeSpec. Background measurement
//     (the on-demand ingress survey) never enters the scheduler; the request
//     that needs it runs it inline, on the thread that owns the request.
//
// Determinism: simulated probe outcomes are content-addressed (stateless
// ECMP salt, endpoint-derived flow ids — DESIGN.md §8), so a demand answered
// by someone else's in-flight duplicate resolves to exactly the outcome the
// waiter would have measured itself. That is what makes staged results
// byte-identical to the blocking path (pinned by tests/concurrency_test.cpp)
// and is re-checked adversarially by invariant I7 over the SchedulerAudit.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "net/ipv4.h"
#include "obs/metrics.h"
#include "probing/prober.h"
#include "probing/transport.h"
#include "topology/topology.h"
#include "util/annotate.h"
#include "util/flat_map.h"
#include "util/sim_clock.h"

namespace revtr::sched {

// One probe a request stage needs before it can resume: the wire spec plus
// scheduling-only fields that never cross the transport. Content-complete:
// everything the wire probe depends on is in the spec, which is what makes
// the coalescing key sound.
struct ProbeDemand : probing::ProbeSpec {
  // Spoofed-RR only: the ingress this attempt expects, used to group
  // same-ingress demands from different requests into one wire batch.
  net::Ipv4Addr batch_ingress;

  // Content hash: demands with equal keys are satisfied by one wire probe.
  std::uint64_t coalesce_key() const;
};

// The resolved outcome of one demand: the wire reply plus the scheduler's
// bookkeeping. Coalesced copies report the issuing probe's packets but are
// not charged again.
struct ProbeOutcome : probing::ProbeReply {
  // True when this demand was answered by another request's in-flight
  // duplicate: no wire probe was issued for it.
  bool coalesced = false;

  // Content digest for the I7 audit: every fan-out copy of one issued probe
  // must digest identically.
  std::uint64_t digest() const;
};

// Executes one demand synchronously: the blocking executor inside
// RevtrEngine::measure() funnels through here, as src/core/ stage code is
// lint-forbidden from calling the Prober directly (revtr_lint
// core-probe-issue).
ProbeOutcome execute_demand(probing::Prober& prober, const ProbeDemand& demand);

struct SchedOptions {
  // Max wire probes issued from one vantage point per dispatch round.
  std::size_t vp_window = 64;
  // Token bucket per VP: refilled by `vp_tokens_per_round` each round up to
  // `vp_token_burst` whole tokens. Rates below 1 are legal — the scheduler
  // accumulates them in fixed point, so e.g. 0.25 issues one probe every
  // fourth round with no float drift. Non-positive rates clamp to 1 and the
  // burst clamps to >= the refill so every queued demand eventually issues
  // (liveness).
  double vp_tokens_per_round = 256;
  std::uint32_t vp_token_burst = 1024;
  bool coalesce = true;
  std::size_t spoof_batch_size = 3;  // Paper's spoofed-RR batch (§4.3).
};

// Registry handles for the scheduler; resolved once, shared by all pumps.
struct SchedMetrics {
  explicit SchedMetrics(obs::MetricsRegistry& registry);

  obs::Counter* demanded;      // revtr_sched_probes_demanded_total
  obs::Counter* issued;        // revtr_sched_probes_issued_total
  obs::Counter* coalesced;     // revtr_probes_coalesced_total
  obs::Counter* throttled;     // revtr_sched_vp_throttled_total
  obs::Counter* spoof_batches; // revtr_sched_spoof_batches_total
  obs::Gauge* queue_depth;     // revtr_sched_queue_depth
};

// Plain snapshot of the scheduler's lifetime counters, for reports/benches.
struct SchedulerStats {
  std::uint64_t demanded = 0;
  std::uint64_t issued = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t throttled = 0;
  std::uint64_t wire_batches = 0;  // Spoofed-RR batches put on the wire.
  std::uint64_t rounds = 0;
  std::uint64_t max_queue_depth = 0;
  // Remote dispatch (distributed controller mode, DESIGN.md §15).
  std::uint64_t reassigned = 0;      // Assignments requeued off dead agents.
  std::uint64_t stale_results = 0;   // Results for already-requeued tickets.
  std::uint64_t agents_expired = 0;  // Agents detached for missed heartbeats.
};

// Raw facts for invariant I7 (analysis::check_scheduler): every issued wire
// probe and every coalesced delivery, plus enough identity to match them up
// and to re-check the per-VP window offline.
struct SchedulerAudit {
  struct Issue {
    std::uint64_t issue_id = 0;  // Unique per wire probe.
    std::uint64_t key = 0;       // ProbeDemand::coalesce_key().
    std::uint64_t round = 0;
    topology::HostId vp = topology::kInvalidId;
    std::uint64_t digest = 0;    // ProbeOutcome::digest() as issued.
  };
  struct Delivery {
    std::uint64_t issue_id = 0;  // The wire probe that satisfied the waiter.
    std::uint64_t key = 0;
    std::uint64_t digest = 0;    // Digest of the outcome the waiter received.
  };
  std::vector<Issue> issues;
  std::vector<Delivery> deliveries;
};

// Collects demand sets from resumable requests, dispatches deduplicated
// wire probes in rounds under the per-VP limits, and hands each task its
// completed outcome set in demand order. Thread-safe: campaign workers
// submit, pump and collect concurrently. One mutex guards the tables; it is
// held to plan a round and to deliver it, never while a probe executes.
class ProbeScheduler {
 public:
  using TaskId = std::uint64_t;

  struct Ready {
    TaskId task = 0;
    std::vector<ProbeOutcome> outcomes;  // Demand order of the submit() set.
  };

  struct PumpResult {
    std::size_t issued = 0;  // Wire probes put on the network this round.
    // Longest single-probe duration issued this round: the simulated time
    // the round takes with all probes conceptually concurrent (the same
    // batches-are-parallel rule the Prober documents).
    util::SimClock::Micros round_duration_us = 0;
  };

  explicit ProbeScheduler(SchedOptions options = {});

  // Handles must outlive the scheduler's use of them; nullptr detaches.
  void set_metrics(const SchedMetrics* metrics) REVTR_EXCLUDES(mu_);
  void set_audit(SchedulerAudit* audit) REVTR_EXCLUDES(mu_);

  // Registers a task's next demand set. `owner` tags which pump loop will
  // resume the task; collect_ready(owner) only returns that owner's tasks.
  // One set per task at a time: submit again only after its Ready arrived.
  void submit(TaskId task, std::size_t owner, std::vector<ProbeDemand> demands);

  // Runs one dispatch round on the caller: wire probes on `prober` (any
  // worker's — outcomes are content-addressed), with the mutex released so
  // identical demands submitted meanwhile ride along; then delivers it the
  // way agent replies are.
  PumpResult pump(probing::Prober& prober);
  PumpResult pump(probing::ProbeTransport& transport);

  // ---- Distributed dispatch (DESIGN.md §15) ----------------------------
  //
  // In remote mode the scheduler is a dispatcher: wire probes leave as
  // ticketed assignments to registered VP agents instead of executing on
  // the pumping worker's prober. A local pump is the same round with the
  // reserved executor id 0 (no window, no heartbeat). A pending demand keeps
  // its place in the coalescing tables while assigned, so cross-request
  // coalescing — and invariant I7 over the audit — hold across process
  // boundaries.

  using AgentId = std::uint64_t;

  struct Assignment {
    std::uint64_t ticket = 0;  // Unique per dispatch; stale after requeue.
    probing::ProbeSpec spec;
  };

  // Registers an agent with a per-agent in-flight window (clamped >= 1).
  // `now_us` seeds the heartbeat clock so a fresh agent is not instantly
  // expirable. Ids start at 1 and are never reused.
  AgentId attach_agent(std::size_t window, std::int64_t now_us = 0)
      REVTR_EXCLUDES(mu_);

  // Detaches an agent (disconnect or heartbeat timeout): every assignment
  // still in flight on it is requeued at the head of the probe queue for
  // reassignment. Returns the number requeued. Idempotent.
  std::size_t detach_agent(AgentId agent) REVTR_EXCLUDES(mu_);

  void agent_heartbeat(AgentId agent, std::int64_t now_us)
      REVTR_EXCLUDES(mu_);

  // Detaches every agent whose last heartbeat is older than `timeout_us`
  // (their assignments requeue) and returns the detached ids.
  std::vector<AgentId> expire_agents(std::int64_t now_us,
                                     std::int64_t timeout_us)
      REVTR_EXCLUDES(mu_);

  // One dispatch round for `agent` — the round a pump runs, under the
  // agent's window too — moves eligible queued wire demands into its
  // in-flight set. Unknown agents get nothing.
  std::vector<Assignment> next_assignments(AgentId agent)
      REVTR_EXCLUDES(mu_);

  // Delivers an agent's reply for `ticket`. Returns false — and drops the
  // reply — when the ticket is stale (requeued off a detached agent, or
  // already delivered), so a slow agent's late duplicate can never fan out
  // twice or double-charge a request. A delivery is also proof of life:
  // `now_us` refreshes the agent's heartbeat clock (never backwards).
  bool deliver_assignment(AgentId agent, std::uint64_t ticket,
                          const probing::ProbeReply& reply,
                          std::int64_t now_us = 0) REVTR_EXCLUDES(mu_);

  // Always 0: the scheduler queues no offline work. Kept only because the
  // benchmark harness (perfbench/twin.cpp) still calls it.
  std::size_t run_offline_jobs() const noexcept { return 0; }

  // Dispatched jobs not yet delivered, on agents and in local rounds.
  std::size_t assigned_in_flight() const REVTR_EXCLUDES(mu_);

  // Tasks of `owner` whose whole demand set resolved since the last call.
  std::vector<Ready> collect_ready(std::size_t owner);

  // Progress epoch: advances on every submit, completed demand set, agent
  // delivery, attach and detach (expiry included), and local round that
  // deferred all it saw: the events after which an idle worker may have
  // work again.
  std::uint64_t progress() const REVTR_EXCLUDES(mu_);
  // Blocks until progress() differs from `seen` or `timeout` elapses; true
  // when progress was made.
  bool wait_for_progress(std::uint64_t seen,
                         std::chrono::microseconds timeout)
      REVTR_EXCLUDES(mu_);

  bool idle() const;  // No queued probes and no undelivered sets.
  // Unfinished demand sets currently inside the scheduler (submitted, not
  // yet collected). The admission controller's backpressure signal: demand
  // the workers have already handed over that the bounded submission queue
  // cannot see.
  std::size_t backlog() const;
  SchedulerStats stats() const;
  const SchedOptions& options() const noexcept { return options_; }

 private:
  struct Waiter {
    std::uint64_t set = 0;     // Index into sets_.
    std::size_t slot = 0;      // Index into the set's outcome vector.
  };
  struct Pending {
    ProbeDemand demand;
    std::uint64_t key = 0;
    std::vector<Waiter> waiters;  // First waiter is the original demander.
  };
  struct DemandSet {
    TaskId task = 0;
    std::size_t owner = 0;
    std::vector<ProbeOutcome> outcomes;
    std::size_t remaining = 0;
  };
  struct VpState {
    std::uint64_t tokens = 0;  // Fixed point, kTokenScale per whole token.
    std::size_t issued_this_round = 0;
    std::uint64_t last_refill_round = 0;
  };
  struct AgentState {
    std::size_t window = 1;       // Max assignments in flight at once.
    std::size_t inflight = 0;     // Currently assigned, result not back.
    std::int64_t last_heartbeat_us = 0;
  };
  struct Assigned {
    std::uint64_t pending_id = 0;
    AgentId agent = 0;
    std::uint64_t round = 0;  // Dispatch round, recorded in the audit Issue.
  };

  // A round in delivery (ticket) order: jobs[0, singles) run singly, then
  // spoofed-RR batches of `batch_sizes`.
  struct Round {
    std::vector<Assignment> jobs;
    std::size_t singles = 0;
    std::vector<std::size_t> batch_sizes;
  };

  // Private helpers named *_locked run with mu_ held.
  bool issuable_locked(const Pending& pending) REVTR_REQUIRES(mu_);
  // The one eligibility pass, for `executor`; `agent` is null for a local
  // round, else the agent whose window also applies.
  Round dispatch_round_locked(AgentId executor, AgentState* agent)
      REVTR_REQUIRES(mu_);
  void assign_locked(Round& round, std::uint64_t pending_id,
                     AgentId executor) REVTR_REQUIRES(mu_);
  // Executes a local round with mu_ released, then delivers it in order.
  void run_round(const Round& round, probing::ProbeTransport& transport,
                 PumpResult& result) REVTR_EXCLUDES(mu_);
  // The one delivery path: retires the ticket (false when stale), then
  // accounting, audit (at the dispatch round, for I7), and fan-out.
  bool deliver_locked(AgentId agent, std::uint64_t ticket,
                      ProbeOutcome outcome, PumpResult& result,
                      std::int64_t now_us) REVTR_REQUIRES(mu_);
  // Requeues every assignment in flight on `agent` (detach/expiry path).
  std::size_t requeue_agent_locked(AgentId agent) REVTR_REQUIRES(mu_);
  // Advances the progress epoch and wakes wait_for_progress() callers.
  void note_progress_locked() REVTR_REQUIRES(mu_);

  // Liveness clamps applied once, so options_ can be const (a zero window
  // or zero refill would park queued demands forever).
  static SchedOptions clamp_options(SchedOptions options);

  const SchedOptions options_;
  // Token-bucket arithmetic in fixed point: fractional refill rates
  // accumulate exactly across rounds (one rounding when the options are
  // converted, none per round), so sub-1 pacing neither drifts nor starves.
  static constexpr std::uint64_t kTokenScale = 1u << 20;
  const std::uint64_t refill_scaled_;  // vp_tokens_per_round * kTokenScale.
  const std::uint64_t burst_scaled_;   // vp_token_burst * kTokenScale.
  // The executor id of rounds run by pump().
  static constexpr AgentId kLocalExecutor = 0;

  mutable util::Mutex mu_;
  const SchedMetrics* metrics_ REVTR_GUARDED_BY(mu_) = nullptr;
  SchedulerAudit* audit_ REVTR_GUARDED_BY(mu_) = nullptr;
  std::uint64_t next_pending_ REVTR_GUARDED_BY(mu_) = 0;
  std::uint64_t next_set_ REVTR_GUARDED_BY(mu_) = 0;
  std::uint64_t next_issue_ REVTR_GUARDED_BY(mu_) = 0;
  std::uint64_t round_ REVTR_GUARDED_BY(mu_) = 0;
  // Hot per-probe tables: open addressing (util::FlatMap) — the scheduler
  // inserts and erases one pending entry per wire probe, which is exactly
  // the churn pattern backward-shift erase keeps cheap.
  util::FlatMap<std::uint64_t, Pending> pending_ REVTR_GUARDED_BY(mu_);
  // FIFO of undispatched pending ids.
  std::deque<std::uint64_t> queue_ REVTR_GUARDED_BY(mu_);
  // Coalesce key -> pending id.
  util::FlatMap<std::uint64_t, std::uint64_t> in_flight_
      REVTR_GUARDED_BY(mu_);
  util::FlatMap<std::uint64_t, DemandSet> sets_ REVTR_GUARDED_BY(mu_);
  util::FlatMap<topology::HostId, VpState> vp_state_
      REVTR_GUARDED_BY(mu_);
  // Completed set ids awaiting collection.
  std::deque<std::uint64_t> ready_ REVTR_GUARDED_BY(mu_);
  // Dispatch state: registered agents and ticketed assignments.
  util::FlatMap<AgentId, AgentState> agents_ REVTR_GUARDED_BY(mu_);
  util::FlatMap<std::uint64_t, Assigned> assigned_ REVTR_GUARDED_BY(mu_);
  std::uint64_t next_agent_ REVTR_GUARDED_BY(mu_) = 1;
  std::uint64_t next_ticket_ REVTR_GUARDED_BY(mu_) = 1;
  SchedulerStats stats_ REVTR_GUARDED_BY(mu_);
  std::uint64_t progress_ REVTR_GUARDED_BY(mu_) = 0;
  std::condition_variable_any progress_cv_;
};

}  // namespace revtr::sched

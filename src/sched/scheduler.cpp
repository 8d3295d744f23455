#include "sched/scheduler.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace revtr::sched {

namespace {

constexpr std::uint64_t kNoSpoof = 0xffffffffffff0001ULL;

std::uint64_t hash_addr_list(std::uint64_t seed,
                             std::span<const net::Ipv4Addr> addrs) {
  std::uint64_t h = seed;
  for (const net::Ipv4Addr addr : addrs) {
    h = util::mix_hash(h, addr.value(), 0xad5ULL);
  }
  return h;
}

}  // namespace

std::uint64_t ProbeDemand::coalesce_key() const {
  std::uint64_t h = util::mix_hash(static_cast<std::uint64_t>(type), from,
                                   target.value());
  h = util::mix_hash(h, spoof_as ? spoof_as->value() : kNoSpoof, 0x5c4edULL);
  return hash_addr_list(h, prespec);
}

std::uint64_t ProbeOutcome::digest() const {
  std::uint64_t h = util::mix_hash(responded ? 1 : 0,
                                   static_cast<std::uint64_t>(duration_us),
                                   packets);
  h = hash_addr_list(h, slots);
  for (const bool stamp : stamped) h = util::mix_hash(h, stamp ? 1 : 0);
  h = util::mix_hash(h, traceroute.reached ? 1 : 0, traceroute.hops.size());
  for (const auto& hop : traceroute.hops) {
    h = util::mix_hash(h, hop.addr ? hop.addr->value() : kNoSpoof,
                       static_cast<std::uint64_t>(hop.rtt_us));
  }
  return h;
}

ProbeOutcome execute_demand(probing::Prober& prober,
                            const ProbeDemand& demand) {
  ProbeOutcome outcome;
  static_cast<probing::ProbeReply&>(outcome) =
      probing::execute_spec(prober, demand);
  return outcome;
}

SchedMetrics::SchedMetrics(obs::MetricsRegistry& registry) {
  demanded = &registry.counter("revtr_sched_probes_demanded_total");
  issued = &registry.counter("revtr_sched_probes_issued_total");
  coalesced = &registry.counter("revtr_probes_coalesced_total");
  throttled = &registry.counter("revtr_sched_vp_throttled_total");
  spoof_batches = &registry.counter("revtr_sched_spoof_batches_total");
  queue_depth = &registry.gauge("revtr_sched_queue_depth");
}

SchedOptions ProbeScheduler::clamp_options(SchedOptions options) {
  // Liveness: a zero window or a zero refill would park queued demands
  // forever. Clamp rather than abort — callers tune these from CLI flags.
  options.vp_window = std::max<std::size_t>(options.vp_window, 1);
  // Fractional refill rates are legal (they accumulate in fixed point), but
  // zero, negative, or NaN rates would park queued demands forever.
  if (!(options.vp_tokens_per_round > 0.0)) options.vp_tokens_per_round = 1.0;
  options.vp_token_burst = std::max<std::uint32_t>(options.vp_token_burst, 1);
  options.spoof_batch_size = std::max<std::size_t>(options.spoof_batch_size, 1);
  return options;
}

namespace {

std::uint64_t scale_refill(double tokens_per_round, std::uint64_t scale) {
  // One rounding here, none per round: even 1e-9 tokens/round stays a
  // positive integer refill, so accumulation is exact and drains eventually.
  const double scaled = tokens_per_round * static_cast<double>(scale);
  if (scaled >= 0x1p63) return std::uint64_t{1} << 63;
  return std::max<std::uint64_t>(static_cast<std::uint64_t>(scaled), 1);
}

}  // namespace

ProbeScheduler::ProbeScheduler(SchedOptions options)
    : options_(clamp_options(options)),
      refill_scaled_(scale_refill(options_.vp_tokens_per_round, kTokenScale)),
      burst_scaled_(std::max<std::uint64_t>(
          std::uint64_t{options_.vp_token_burst} * kTokenScale,
          refill_scaled_)) {}

void ProbeScheduler::set_metrics(const SchedMetrics* metrics) {
  const util::MutexLock lock(mu_);
  metrics_ = metrics;
}

void ProbeScheduler::set_audit(SchedulerAudit* audit) {
  const util::MutexLock lock(mu_);
  audit_ = audit;
}

void ProbeScheduler::submit(TaskId task, std::size_t owner,
                            std::vector<ProbeDemand> demands) {
  REVTR_CHECK(!demands.empty());
  const util::MutexLock lock(mu_);
  const std::uint64_t set_id = next_set_++;
  DemandSet& set = sets_[set_id];
  set.task = task;
  set.owner = owner;
  set.outcomes.resize(demands.size());
  set.remaining = demands.size();

  for (std::size_t slot = 0; slot < demands.size(); ++slot) {
    ProbeDemand& demand = demands[slot];
    ++stats_.demanded;
    if (metrics_ != nullptr) metrics_->demanded->add();
    const std::uint64_t key = demand.coalesce_key();
    if (options_.coalesce) {
      if (const auto it = in_flight_.find(key); it != in_flight_.end()) {
        // Identical probe already pending: ride along, no second wire probe.
        pending_.at(it->second).waiters.push_back(Waiter{set_id, slot});
        ++stats_.coalesced;
        if (metrics_ != nullptr) metrics_->coalesced->add();
        continue;
      }
    }
    const std::uint64_t pending_id = next_pending_++;
    Pending& pending = pending_[pending_id];
    pending.demand = std::move(demand);
    pending.key = key;
    pending.waiters.push_back(Waiter{set_id, slot});
    queue_.push_back(pending_id);
    if (options_.coalesce) in_flight_[key] = pending_id;
  }
  stats_.max_queue_depth = std::max<std::uint64_t>(stats_.max_queue_depth,
                                                   queue_.size());
  if (metrics_ != nullptr) {
    metrics_->queue_depth->set(static_cast<std::int64_t>(queue_.size()));
  }
  note_progress_locked();
}

bool ProbeScheduler::issuable_locked(const Pending& pending) {
  VpState& vp = vp_state_[pending.demand.from];
  if (vp.last_refill_round != round_) {
    vp.last_refill_round = round_;
    vp.issued_this_round = 0;
    vp.tokens = std::min(vp.tokens + refill_scaled_, burst_scaled_);
  }
  if (vp.issued_this_round >= options_.vp_window ||
      vp.tokens < kTokenScale) {
    return false;
  }
  ++vp.issued_this_round;
  vp.tokens -= kTokenScale;
  return true;
}

void ProbeScheduler::assign_locked(Round& round, std::uint64_t pending_id,
                                   AgentId executor) {
  const std::uint64_t ticket = next_ticket_++;
  assigned_[ticket] = Assigned{pending_id, executor, round_};
  const ProbeDemand& demand = pending_.at(pending_id).demand;
  round.jobs.push_back(Assignment{ticket, demand});
}

ProbeScheduler::Round ProbeScheduler::dispatch_round_locked(
    AgentId executor, AgentState* agent) {
  Round round;
  if (queue_.empty() ||
      (agent != nullptr && agent->inflight >= agent->window)) {
    return round;
  }
  ++round_;
  ++stats_.rounds;

  // One pass over the queue in FIFO order: non-spoofed probes dispatch in
  // queue order; spoofed-RR demands gather into per-ingress groups so
  // requests sharing an ingress fill the same 3-probe batches. Demands over
  // a VP's window or bucket stay queued for the next round. An agent's
  // window is checked first so a full agent costs no VP tokens.
  std::deque<std::uint64_t> deferred;
  std::vector<net::Ipv4Addr> group_order;
  util::FlatMap<std::uint64_t, std::vector<std::uint64_t>> groups;
  for (const std::uint64_t pending_id : queue_) {
    const Pending& pending = pending_.at(pending_id);
    if (agent != nullptr && agent->inflight >= agent->window) {
      deferred.push_back(pending_id);
      continue;
    }
    if (!issuable_locked(pending)) {
      ++stats_.throttled;
      if (metrics_ != nullptr) metrics_->throttled->add();
      deferred.push_back(pending_id);
      continue;
    }
    if (agent != nullptr) ++agent->inflight;
    if (pending.demand.type == probing::ProbeType::kSpoofedRecordRoute) {
      auto& group = groups[pending.demand.batch_ingress.value()];
      if (group.empty()) group_order.push_back(pending.demand.batch_ingress);
      group.push_back(pending_id);
      continue;
    }
    assign_locked(round, pending_id, executor);
  }
  round.singles = round.jobs.size();
  for (const net::Ipv4Addr ingress : group_order) {
    const auto& group = groups.at(ingress.value());
    for (std::size_t start = 0; start < group.size();
         start += options_.spoof_batch_size) {
      ++stats_.wire_batches;
      if (metrics_ != nullptr) metrics_->spoof_batches->add();
      const std::size_t len =
          std::min(options_.spoof_batch_size, group.size() - start);
      round.batch_sizes.push_back(len);
      for (std::size_t i = start; i < start + len; ++i) {
        assign_locked(round, group[i], executor);
      }
    }
  }
  queue_ = std::move(deferred);
  if (metrics_ != nullptr) {
    metrics_->queue_depth->set(static_cast<std::int64_t>(queue_.size()));
  }
  return round;
}

bool ProbeScheduler::deliver_locked(AgentId agent, std::uint64_t ticket,
                                    ProbeOutcome outcome, PumpResult& result,
                                    std::int64_t now_us) {
  const auto it = assigned_.find(ticket);
  if (it == assigned_.end() || it->second.agent != agent) {
    // Requeued off a detached agent (or already delivered): dropping the
    // late duplicate is what keeps fan-out and quota single-charged.
    ++stats_.stale_results;
    return false;
  }
  const Assigned assigned = it->second;
  assigned_.erase(ticket);
  if (const auto agent_it = agents_.find(agent); agent_it != agents_.end()) {
    REVTR_CHECK(agent_it->second.inflight > 0);
    --agent_it->second.inflight;
    agent_it->second.last_heartbeat_us =
        std::max(agent_it->second.last_heartbeat_us, now_us);
    // The agent's window has room again, whether or not a set completed.
    note_progress_locked();
  }
  Pending pending = std::move(pending_.at(assigned.pending_id));
  pending_.erase(assigned.pending_id);
  if (options_.coalesce) in_flight_.erase(pending.key);

  const std::uint64_t issue_id = next_issue_++;
  const std::uint64_t digest = outcome.digest();
  ++stats_.issued;
  if (metrics_ != nullptr) metrics_->issued->add();
  ++result.issued;
  result.round_duration_us =
      std::max(result.round_duration_us, outcome.duration_us);
  if (audit_ != nullptr) {
    audit_->issues.push_back(SchedulerAudit::Issue{
        issue_id, pending.key, assigned.round, pending.demand.from, digest});
  }

  // First waiter is the demand that caused the wire probe; the rest are
  // coalesced riders and receive byte-identical copies marked as such.
  REVTR_CHECK(!pending.waiters.empty());
  for (std::size_t i = pending.waiters.size(); i-- > 0;) {
    const Waiter& waiter = pending.waiters[i];
    DemandSet& set = sets_.at(waiter.set);
    ProbeOutcome& slot = set.outcomes[waiter.slot];
    if (i == 0) {
      slot = std::move(outcome);
    } else {
      slot = outcome;
      slot.coalesced = true;
      if (audit_ != nullptr) {
        audit_->deliveries.push_back(
            SchedulerAudit::Delivery{issue_id, pending.key, slot.digest()});
      }
    }
    REVTR_CHECK(set.remaining > 0);
    if (--set.remaining == 0) {
      ready_.push_back(waiter.set);
      note_progress_locked();
    }
  }
  return true;
}

void ProbeScheduler::run_round(const Round& round,
                               probing::ProbeTransport& transport,
                               PumpResult& result) {
  if (round.jobs.empty()) return;
  std::vector<ProbeOutcome> outcomes(round.jobs.size());
  for (std::size_t i = 0; i < round.singles; ++i) {
    static_cast<probing::ProbeReply&>(outcomes[i]) =
        transport.execute(round.jobs[i].spec);
  }
  std::vector<probing::RrBatchItem> items;
  std::vector<probing::RrProbeResult> results;
  std::size_t begin = round.singles;
  for (const std::size_t size : round.batch_sizes) {
    items.clear();
    for (std::size_t i = begin; i < begin + size; ++i) {
      const probing::ProbeSpec& spec = round.jobs[i].spec;
      items.push_back({spec.from, spec.target, spec.spoof_as});
    }
    // One transport call per batch (a decorator may time or trace it);
    // each item is still one wire probe with its own outcome.
    transport.execute_batch(items, results);
    for (std::size_t i = 0; i < size; ++i, ++begin) {
      outcomes[begin].responded = results[i].responded;
      outcomes[begin].slots = std::move(results[i].slots);
      outcomes[begin].duration_us = results[i].duration_us;
      outcomes[begin].packets = 1;
    }
  }

  const util::MutexLock lock(mu_);
  for (std::size_t i = 0; i < round.jobs.size(); ++i) {
    const bool delivered = deliver_locked(
        kLocalExecutor, round.jobs[i].ticket, std::move(outcomes[i]), result,
        0);
    REVTR_CHECK(delivered);
  }
}

ProbeScheduler::PumpResult ProbeScheduler::pump(probing::Prober& prober) {
  probing::LocalProbeTransport transport(prober);
  return pump(transport);
}

ProbeScheduler::PumpResult ProbeScheduler::pump(
    probing::ProbeTransport& transport) {
  Round round;
  {
    const util::MutexLock lock(mu_);
    round = dispatch_round_locked(kLocalExecutor, nullptr);
    // Everything deferred: this round's refill may let the next one issue,
    // so an idle worker must pump again rather than wait.
    if (round.jobs.empty() && !queue_.empty()) note_progress_locked();
  }
  PumpResult result;
  run_round(round, transport, result);
  return result;
}

ProbeScheduler::AgentId ProbeScheduler::attach_agent(std::size_t window,
                                                     std::int64_t now_us) {
  const util::MutexLock lock(mu_);
  const AgentId id = next_agent_++;
  AgentState& state = agents_[id];
  state.window = std::max<std::size_t>(window, 1);
  state.inflight = 0;
  state.last_heartbeat_us = now_us;
  note_progress_locked();
  return id;
}

std::size_t ProbeScheduler::requeue_agent_locked(AgentId agent) {
  // Requeue in ticket order at the head of the queue, so a dead agent's
  // probes reissue before anything newer (they have been waiting longest).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> requeue;
  for (const auto& [ticket, assigned] : assigned_) {
    if (assigned.agent == agent) {
      requeue.emplace_back(ticket, assigned.pending_id);
    }
  }
  std::sort(requeue.begin(), requeue.end());
  for (std::size_t i = requeue.size(); i-- > 0;) {
    assigned_.erase(requeue[i].first);
    queue_.push_front(requeue[i].second);
  }
  stats_.reassigned += requeue.size();
  return requeue.size();
}

std::size_t ProbeScheduler::detach_agent(AgentId agent) {
  const util::MutexLock lock(mu_);
  if (agents_.find(agent) == agents_.end()) return 0;
  agents_.erase(agent);
  note_progress_locked();
  return requeue_agent_locked(agent);
}

void ProbeScheduler::agent_heartbeat(AgentId agent, std::int64_t now_us) {
  const util::MutexLock lock(mu_);
  if (const auto it = agents_.find(agent); it != agents_.end()) {
    it->second.last_heartbeat_us =
        std::max(it->second.last_heartbeat_us, now_us);
  }
}

std::vector<ProbeScheduler::AgentId> ProbeScheduler::expire_agents(
    std::int64_t now_us, std::int64_t timeout_us) {
  const util::MutexLock lock(mu_);
  std::vector<AgentId> expired;
  for (const auto& [id, state] : agents_) {
    if (now_us - state.last_heartbeat_us > timeout_us) expired.push_back(id);
  }
  for (const AgentId id : expired) {
    agents_.erase(id);
    requeue_agent_locked(id);
    ++stats_.agents_expired;
  }
  if (!expired.empty()) note_progress_locked();
  return expired;
}

std::vector<ProbeScheduler::Assignment> ProbeScheduler::next_assignments(
    AgentId agent) {
  const util::MutexLock lock(mu_);
  const auto it = agents_.find(agent);
  if (it == agents_.end()) return {};
  return dispatch_round_locked(agent, &it->second).jobs;
}

bool ProbeScheduler::deliver_assignment(AgentId agent, std::uint64_t ticket,
                                        const probing::ProbeReply& reply,
                                        std::int64_t now_us) {
  ProbeOutcome outcome;
  static_cast<probing::ProbeReply&>(outcome) = reply;
  const util::MutexLock lock(mu_);
  PumpResult ignored;
  return deliver_locked(agent, ticket, std::move(outcome), ignored, now_us);
}

std::size_t ProbeScheduler::assigned_in_flight() const {
  const util::MutexLock lock(mu_);
  return assigned_.size();
}

std::vector<ProbeScheduler::Ready> ProbeScheduler::collect_ready(
    std::size_t owner) {
  const util::MutexLock lock(mu_);
  std::vector<Ready> out;
  std::deque<std::uint64_t> keep;
  for (const std::uint64_t set_id : ready_) {
    DemandSet& set = sets_.at(set_id);
    if (set.owner != owner) {
      keep.push_back(set_id);
      continue;
    }
    out.push_back(Ready{set.task, std::move(set.outcomes)});
    sets_.erase(set_id);
  }
  ready_ = std::move(keep);
  return out;
}

void ProbeScheduler::note_progress_locked() {
  ++progress_;
  progress_cv_.notify_all();
}

std::uint64_t ProbeScheduler::progress() const {
  const util::MutexLock lock(mu_);
  return progress_;
}

bool ProbeScheduler::wait_for_progress(std::uint64_t seen,
                                       std::chrono::microseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  util::MutexLock lock(mu_);
  // While-loop wait, not the predicate overload, so the analysis can track
  // mu_ across the release/reacquire (same idiom as util::ThreadPool).
  while (progress_ == seen &&
         progress_cv_.wait_until(lock, deadline) != std::cv_status::timeout) {
  }
  return progress_ != seen;
}

bool ProbeScheduler::idle() const {
  const util::MutexLock lock(mu_);
  return pending_.empty() && ready_.empty() && sets_.empty();
}

std::size_t ProbeScheduler::backlog() const {
  const util::MutexLock lock(mu_);
  return sets_.size();
}

SchedulerStats ProbeScheduler::stats() const {
  const util::MutexLock lock(mu_);
  return stats_;
}

}  // namespace revtr::sched

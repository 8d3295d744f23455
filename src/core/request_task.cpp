#include "core/request_task.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/check.h"

namespace revtr::core {

namespace {
using net::Ipv4Addr;
using topology::HostId;

std::uint64_t cache_key(Ipv4Addr addr, HostId source) {
  return util::mix_hash(addr.value(), source, 0xcace);
}
}  // namespace

RequestTask::RequestTask(RevtrEngine& engine, HostId destination,
                         HostId source, util::SimClock& clock, util::Rng& rng,
                         obs::Trace* trace)
    : engine_(engine),
      clock_(clock),
      rng_(rng),
      trace_(trace),
      source_(source) {
  result_.destination = destination;
  result_.source = source;
  result_.span.begin = clock_.now();
  if (trace_ != nullptr) {
    trace_->destination = destination;
    trace_->source = source;
    root_span_ = trace_->start_span("request", clock_.now());
  }
  src_addr_ = engine_.topo_.host(source).addr;
  current_ = engine_.topo_.host(destination).addr;
  result_.hops.push_back(ReverseHop{current_, HopSource::kDestination});
}

const EngineConfig& RequestTask::config() const noexcept {
  return engine_.config_;
}

const EngineMetrics* RequestTask::metrics() const noexcept {
  return engine_.metrics_;
}

ReverseTraceroute RequestTask::take_result() {
  REVTR_CHECK(done());
  return std::move(result_);
}

void RequestTask::open_stage(const char* name) {
  stage_probes_ = 0;
  if (trace_ != nullptr) stage_span_ = trace_->start_span(name, clock_.now());
}

void RequestTask::annotate_stage(const char* key, std::string value) {
  if (trace_ != nullptr) trace_->annotate(stage_span_, key, std::move(value));
}

void RequestTask::close_stage() {
  if (trace_ != nullptr) {
    trace_->end_span(stage_span_, clock_.now(), stage_probes_);
  }
  stage_probes_ = 0;
}

void RequestTask::charge(const sched::ProbeDemand& demand,
                         const sched::ProbeOutcome& outcome) {
  if (outcome.coalesced) {
    // Answered by another request's in-flight duplicate: no wire probe was
    // issued for this demand, so it costs the request (and its spans)
    // nothing — only the coalesced tally moves.
    ++result_.coalesced_probes;
    return;
  }
  stage_probes_ += outcome.packets;
  switch (demand.type) {
    case probing::ProbeType::kPing:
      ++result_.probes.ping;
      break;
    case probing::ProbeType::kRecordRoute:
      ++result_.probes.rr;
      break;
    case probing::ProbeType::kSpoofedRecordRoute:
      ++result_.probes.spoofed_rr;
      break;
    case probing::ProbeType::kTimestamp:
      ++result_.probes.ts;
      break;
    case probing::ProbeType::kSpoofedTimestamp:
      ++result_.probes.spoofed_ts;
      break;
    case probing::ProbeType::kTraceroute:
      result_.probes.traceroute_packets += outcome.packets;
      ++result_.probes.traceroutes;
      break;
  }
}

std::span<const sched::ProbeDemand> RequestTask::advance() {
  // A supply() handler may already have emitted the next demand set (e.g.
  // rr-direct miss flowing straight into the spoofed technique); in that
  // case the pending set is returned as-is.
  while (stage_ != Stage::kDone && demands_.empty()) {
    switch (stage_) {
      case Stage::kLoopHead:
        step_loop_head();
        break;
      case Stage::kSpoofEmit:
        step_spoof_emit();
        break;
      case Stage::kDbrEmit:
        step_dbr_emit();
        break;
      case Stage::kAfterRr:
        step_after_rr();
        break;
      case Stage::kTsNext:
        step_ts_next();
        break;
      case Stage::kTsSpoofEmit:
        step_ts_spoof_emit();
        break;
      case Stage::kSymmetryEmit:
        step_symmetry_emit();
        break;
      case Stage::kRrDirectWait:
      case Stage::kSpoofBatchWait:
      case Stage::kDbrVerifyWait:
      case Stage::kTsDirectWait:
      case Stage::kTsSpoofWait:
      case Stage::kSymmetryWait:
      case Stage::kDone:
        REVTR_CHECK(false);  // advance() while awaiting outcomes.
    }
  }
  return demands_;
}

void RequestTask::supply(std::span<const sched::ProbeOutcome> outcomes) {
  REVTR_CHECK(outcomes.size() == demands_.size());
  // Handlers may emit the next demand set into demands_, so the consumed
  // one moves aside first (charge() still needs it for cost attribution).
  consumed_ = std::move(demands_);
  demands_.clear();
  switch (stage_) {
    case Stage::kRrDirectWait:
      on_rr_direct(outcomes);
      break;
    case Stage::kSpoofBatchWait:
      on_spoof_batch(outcomes);
      break;
    case Stage::kDbrVerifyWait:
      on_dbr_verify(outcomes);
      break;
    case Stage::kTsDirectWait:
      on_ts_direct(outcomes);
      break;
    case Stage::kTsSpoofWait:
      on_ts_spoofed(outcomes);
      break;
    case Stage::kSymmetryWait:
      on_symmetry(outcomes);
      break;
    case Stage::kLoopHead:
    case Stage::kSpoofEmit:
    case Stage::kDbrEmit:
    case Stage::kAfterRr:
    case Stage::kTsNext:
    case Stage::kTsSpoofEmit:
    case Stage::kSymmetryEmit:
    case Stage::kDone:
      REVTR_CHECK(false);  // supply() without an outstanding demand set.
  }
}

// --- Main loop head: termination, atlas, RR entry ---------------------------

void RequestTask::step_loop_head() {
  // All scratch from the previous technique round is dead here.
  scratch_.clear();
  if (result_.hops.size() >= config().max_reverse_hops) {
    finish();  // Undecided loop exit: status stays kUnreachable.
    return;
  }
  if (current_ == src_addr_) {
    result_.status = RevtrStatus::kComplete;
    finish();
    return;
  }
  if (try_atlas()) {
    result_.status = RevtrStatus::kComplete;
    finish();
    return;
  }
  begin_record_route();
}

bool RequestTask::try_atlas() {
  auto hit =
      engine_.atlas_.intersect(source_, current_, config().use_rr_atlas);
  if (!hit && engine_.aliases_ != nullptr) {
    hit = engine_.atlas_.intersect_with_aliases(source_, current_,
                                                *engine_.aliases_);
  }
  if (!hit) {
    if (metrics() != nullptr) metrics()->atlas_miss->add();
    return false;
  }
  if (metrics() != nullptr) metrics()->atlas_hit->add();
  open_stage("atlas-intersection");
  const auto age = engine_.atlas_.touch(source_, *hit, clock_.now());
  result_.intersected_age_us = age;
  result_.used_stale_traceroute = age > config().cache_ttl;
  annotate_stage("age_us", std::to_string(age));
  if (result_.used_stale_traceroute) annotate_stage("stale", "1");
  const auto suffix = engine_.atlas_.suffix_after(source_, *hit);
  for (const Ipv4Addr addr : suffix) {
    if (already_in_path(addr)) continue;
    result_.hops.push_back(ReverseHop{addr, HopSource::kAtlasIntersection});
    if (addr.is_private()) result_.has_private_hops = true;
  }
  close_stage();
  return true;
}

// --- Record Route -----------------------------------------------------------

void RequestTask::begin_record_route() {
  rr_key_ = cache_key(current_, source_);
  if (config().use_cache) {
    if (const auto entry = engine_.caches_->rr.lookup(rr_key_);
        entry && entry->expires_at > clock_.now()) {
      if (metrics() != nullptr) metrics()->rr_cache_replay->add();
      open_stage("rr-cache-replay");
      annotate_stage("hops", std::to_string(entry->reverse_hops.size()));
      const bool progressed =
          append_reverse_hops(entry->reverse_hops, entry->source);
      close_stage();
      stage_ = progressed ? Stage::kLoopHead : Stage::kAfterRr;
      return;
    }
  }

  // Direct RR ping from the source (Fig 1b).
  open_stage("rr-direct");
  sched::ProbeDemand demand;
  demand.type = probing::ProbeType::kRecordRoute;
  demand.from = source_;
  demand.target = current_;
  demands_.push_back(std::move(demand));
  stage_ = Stage::kRrDirectWait;
}

void RequestTask::remember_rr(std::span<const Ipv4Addr> revealed,
                              HopSource how) {
  if (config().use_cache) {
    engine_.caches_->rr.insert_or_assign(
        rr_key_,
        RrCacheEntry{std::vector<Ipv4Addr>(revealed.begin(), revealed.end()),
                     how, clock_.now() + config().cache_ttl});
  }
}

void RequestTask::on_rr_direct(std::span<const sched::ProbeOutcome> outcomes) {
  const auto& probe = outcomes[0];
  charge(consumed_[0], probe);
  clock_.advance(probe.duration_us);
  if (probe.responded) {
    const auto revealed =
        RevtrEngine::extract_reverse_hops(probe.slots, current_);
    if (!revealed.empty() &&
        append_reverse_hops(revealed, HopSource::kRecordRoute)) {
      remember_rr(revealed, HopSource::kRecordRoute);
      annotate_stage("hit", "1");
      if (metrics() != nullptr) metrics()->rr_direct_hit->add();
      close_stage();
      stage_ = Stage::kLoopHead;
      return;
    }
  }
  close_stage();
  begin_spoofed();
}

void RequestTask::begin_spoofed() {
  const auto prefix = engine_.topo_.prefix_of(current_);
  if (!prefix) {
    if (metrics() != nullptr) metrics()->rr_miss->add();
    stage_ = Stage::kAfterRr;
    return;
  }
  if (const auto plan = engine_.ingress_.plan_for(*prefix); plan != nullptr) {
    setup_attempts(*plan);
    return;
  }
  // Offline background measurement run on demand, inline on the thread
  // that owns this request, which is the only one probing through this
  // engine's prober: neither its time nor its packets are charged to the
  // online budget (Table 4 counts surveys separately), so they land in
  // offline_probes. discover() opens the prober's OfflineScope itself.
  if (metrics() != nullptr) metrics()->rr_ingress_discovery->add();
  open_stage("ingress-discovery");
  const auto before = engine_.prober_.offline_counters();
  const auto plan = engine_.ingress_.discover(
      *prefix, engine_.topo_.vantage_points(), rng_);
  const auto surveyed = engine_.prober_.offline_counters() - before;
  result_.offline_probes += surveyed;
  annotate_stage("offline_probes", std::to_string(surveyed.total()));
  close_stage();
  setup_attempts(*plan);
}

void RequestTask::setup_attempts(const vpselect::PrefixPlan& plan) {
  auto& attempts = scratch_.attempts;
  attempts.clear();
  if (config().use_ingress_selection) {
    const auto planned =
        vpselect::attempt_plan(plan, config().max_per_ingress);
    attempts.assign(planned.begin(), planned.end());
  } else {
    // revtr 1.0: try every vantage point in per-prefix set-cover order.
    const auto order = vpselect::revtr1_vp_order(plan);
    attempts.reserve(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      attempts.push_back(vpselect::Attempt{order[i], Ipv4Addr{}, i});
    }
  }
  rank_failures_.clear();
  next_attempt_ = 0;
  stage_ = Stage::kSpoofEmit;
}

void RequestTask::step_spoof_emit() {
  const auto& attempts = scratch_.attempts;
  auto& batch_attempts = scratch_.batch_attempts;
  if (next_attempt_ >= attempts.size()) {
    if (metrics() != nullptr) metrics()->rr_miss->add();
    stage_ = Stage::kAfterRr;
    return;
  }
  open_stage("rr-spoof-batch");
  batch_attempts.clear();
  while (next_attempt_ < attempts.size() &&
         batch_attempts.size() < config().batch_size) {
    const auto& attempt = attempts[next_attempt_++];
    if (rank_failures_[attempt.ingress_rank] >= 5) continue;  // §4.3.
    batch_attempts.push_back(attempt);
    sched::ProbeDemand demand;
    demand.type = probing::ProbeType::kSpoofedRecordRoute;
    demand.from = attempt.vp;
    demand.target = current_;
    demand.spoof_as = src_addr_;
    demand.batch_ingress = attempt.expected_ingress;
    demands_.push_back(std::move(demand));
  }
  if (batch_attempts.empty()) {
    // Every remaining attempt was over its failure budget: a zero-sent
    // batch, after which the attempt list is exhausted.
    close_stage();
    return;  // Back into kSpoofEmit, which now reports rr-miss.
  }
  stage_ = Stage::kSpoofBatchWait;
}

void RequestTask::on_spoof_batch(
    std::span<const sched::ProbeOutcome> outcomes) {
  auto& revealed = scratch_.revealed;
  revealed.clear();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& attempt = scratch_.batch_attempts[i];
    const auto& probe = outcomes[i];
    charge(consumed_[i], probe);
    if (!probe.responded) {
      ++rank_failures_[attempt.ingress_rank];
      continue;
    }
    if (!attempt.expected_ingress.is_unspecified() &&
        std::find(probe.slots.begin(), probe.slots.end(),
                  attempt.expected_ingress) == probe.slots.end()) {
      // Route did not transit the expected ingress; the next-closest VP for
      // this ingress will be tried in a later batch.
      ++rank_failures_[attempt.ingress_rank];
    }
    const auto hops = RevtrEngine::extract_reverse_hops(probe.slots, current_);
    if (hops.size() > revealed.size()) {
      revealed.assign(hops.begin(), hops.end());
    }
  }
  // Spoofed replies land at the source; the controller always waits out the
  // batch timeout for stragglers (§5.2.4).
  clock_.advance(config().spoof_batch_timeout);
  ++result_.spoofed_batches;
  annotate_stage("sent", std::to_string(scratch_.batch_attempts.size()));
  close_stage();
  if (revealed.empty()) {
    stage_ = Stage::kSpoofEmit;
    return;
  }
  if (config().verify_destination_based_routing && revealed.size() >= 2 &&
      !revealed[0].is_private()) {
    stage_ = Stage::kDbrEmit;
    return;
  }
  finish_spoof_round();
}

void RequestTask::step_dbr_emit() {
  // Appx E redundancy: confirm the first revealed hop's next hop from an
  // independent vantage point.
  open_stage("rr-dbr-verify");
  const auto vps = engine_.topo_.vantage_points();
  sched::ProbeDemand demand;
  demand.type = probing::ProbeType::kSpoofedRecordRoute;
  demand.from = vps[rng_.below(vps.size())];
  demand.target = scratch_.revealed[0];
  demand.spoof_as = src_addr_;
  demands_.push_back(std::move(demand));
  stage_ = Stage::kDbrVerifyWait;
}

void RequestTask::on_dbr_verify(std::span<const sched::ProbeOutcome> outcomes) {
  const auto& check = outcomes[0];
  charge(consumed_[0], check);
  clock_.advance(check.duration_us);
  if (check.responded) {
    const auto recheck =
        RevtrEngine::extract_reverse_hops(check.slots, scratch_.revealed[0]);
    if (!recheck.empty() && recheck.front() != scratch_.revealed[1]) {
      result_.dbr_suspect = true;
      annotate_stage("suspect", "1");
    }
  }
  close_stage();
  finish_spoof_round();
}

void RequestTask::finish_spoof_round() {
  const auto& revealed = scratch_.revealed;
  if (append_reverse_hops(revealed, HopSource::kSpoofedRecordRoute)) {
    remember_rr(revealed, HopSource::kSpoofedRecordRoute);
    if (metrics() != nullptr) metrics()->rr_spoofed_hit->add();
    stage_ = Stage::kLoopHead;
    return;
  }
  stage_ = Stage::kSpoofEmit;
}

// --- Timestamp technique ----------------------------------------------------

void RequestTask::step_after_rr() {
  if (config().use_timestamp) {
    if (!engine_.adjacencies_) {
      // No adjacency source: the technique silently yields (no span, no
      // metric — same as the blocking engine's early return).
      stage_ = Stage::kSymmetryEmit;
      return;
    }
    open_stage("timestamp");
    const auto adjacent = engine_.adjacencies_(current_);
    scratch_.ts_candidates.assign(adjacent.begin(), adjacent.end());
    ts_index_ = 0;
    ts_tried_ = 0;
    stage_ = Stage::kTsNext;
    return;
  }
  // RR made no progress and the TS technique is compiled out of the preset
  // (Insight 1.9): record the decision, it costs nothing.
  if (metrics() != nullptr) metrics()->ts_skipped->add();
  if (trace_ != nullptr) trace_->event("ts-skipped", clock_.now());
  stage_ = Stage::kSymmetryEmit;
}

void RequestTask::step_ts_next() {
  const auto& ts_candidates = scratch_.ts_candidates;
  while (ts_index_ < ts_candidates.size()) {
    const Ipv4Addr adjacent = ts_candidates[ts_index_++];
    if (ts_tried_++ >= config().max_ts_adjacencies) break;
    if (adjacent.is_private() || already_in_path(adjacent)) continue;
    ts_adjacent_ = adjacent;
    sched::ProbeDemand demand;
    demand.type = probing::ProbeType::kTimestamp;
    demand.from = source_;
    demand.target = current_;
    demand.prespec = {current_, adjacent};
    demands_.push_back(std::move(demand));
    stage_ = Stage::kTsDirectWait;
    return;
  }
  if (metrics() != nullptr) metrics()->ts_miss->add();
  close_stage();
  stage_ = Stage::kSymmetryEmit;
}

void RequestTask::on_ts_direct(std::span<const sched::ProbeOutcome> outcomes) {
  const auto& probe = outcomes[0];
  charge(consumed_[0], probe);
  clock_.advance(probe.duration_us);
  if (!probe.responded && !engine_.topo_.vantage_points().empty()) {
    // Direct TS filtered: retry once spoofed from a vantage point, as the
    // 2010 system did (Table 4's "Spoof TS" column).
    stage_ = Stage::kTsSpoofEmit;
    return;
  }
  evaluate_ts(probe);
}

void RequestTask::step_ts_spoof_emit() {
  const auto vps = engine_.topo_.vantage_points();
  sched::ProbeDemand demand;
  demand.type = probing::ProbeType::kSpoofedTimestamp;
  demand.from = vps[rng_.below(vps.size())];
  demand.target = current_;
  demand.prespec = {current_, ts_adjacent_};
  demand.spoof_as = src_addr_;
  demands_.push_back(std::move(demand));
  stage_ = Stage::kTsSpoofWait;
}

void RequestTask::on_ts_spoofed(std::span<const sched::ProbeOutcome> outcomes) {
  charge(consumed_[0], outcomes[0]);
  clock_.advance(config().spoof_batch_timeout / 2);
  evaluate_ts(outcomes[0]);
}

void RequestTask::evaluate_ts(const sched::ProbeOutcome& probe) {
  if (probe.responded && probe.stamped.size() == 2 && probe.stamped[0] &&
      probe.stamped[1]) {
    result_.hops.push_back(ReverseHop{ts_adjacent_, HopSource::kTimestamp});
    current_ = ts_adjacent_;
    annotate_stage("hit", "1");
    if (metrics() != nullptr) metrics()->ts_hit->add();
    close_stage();
    stage_ = Stage::kLoopHead;
    return;
  }
  stage_ = Stage::kTsNext;
}

// --- Symmetry assumption ----------------------------------------------------

void RequestTask::step_symmetry_emit() {
  open_stage("symmetry");
  const std::uint64_t key = cache_key(current_, source_);
  const auto cached =
      config().use_cache ? engine_.caches_->tr.lookup(key) : std::nullopt;
  if (cached && cached->expires_at > clock_.now()) {
    annotate_stage("cached", "1");
    if (metrics() != nullptr) metrics()->symmetry_cached->add();
    apply_symmetry(cached->penultimate, cached->reached);
    return;
  }
  sched::ProbeDemand demand;
  demand.type = probing::ProbeType::kTraceroute;
  demand.from = source_;
  demand.target = current_;
  demands_.push_back(std::move(demand));
  stage_ = Stage::kSymmetryWait;
}

void RequestTask::on_symmetry(std::span<const sched::ProbeOutcome> outcomes) {
  const auto& probe = outcomes[0];
  charge(consumed_[0], probe);
  const auto& tr = probe.traceroute;
  clock_.advance(tr.duration_us);
  bool reached = tr.reached;
  std::optional<Ipv4Addr> penultimate;
  if (!tr.reached && config().assume_from_unreachable_traceroute) {
    // 2010 behaviour: treat the last responsive hop as the next reverse hop
    // even though the traceroute fell short of the current hop.
    for (std::size_t i = tr.hops.size(); i-- > 0;) {
      if (tr.hops[i].addr) {
        penultimate = tr.hops[i].addr;
        reached = true;
        break;
      }
    }
  }
  if (tr.reached && tr.hops.size() >= 2) {
    // Last responsive hop before the destination.
    for (std::size_t i = tr.hops.size() - 1; i-- > 0;) {
      if (tr.hops[i].addr) {
        penultimate = tr.hops[i].addr;
        break;
      }
    }
  } else if (tr.reached && tr.hops.size() == 1) {
    // The current hop is directly adjacent to the source: the reverse path
    // is done once we step onto the source itself.
    penultimate = src_addr_;
  }
  if (config().use_cache) {
    engine_.caches_->tr.insert_or_assign(
        cache_key(current_, source_),
        TrCacheEntry{penultimate, reached, clock_.now() + config().cache_ttl});
  }
  apply_symmetry(penultimate, reached);
}

void RequestTask::apply_symmetry(std::optional<Ipv4Addr> penultimate,
                                 bool reached) {
  const auto report = [this](const char* outcome, obs::Counter* counter) {
    annotate_stage("outcome", outcome);
    if (metrics() != nullptr) counter->add();
  };
  if (!reached || !penultimate || already_in_path(*penultimate)) {
    report("stuck",
           metrics() != nullptr ? metrics()->symmetry_stuck : nullptr);
    close_stage();
    result_.status = RevtrStatus::kUnreachable;
    finish();
    return;
  }
  const auto as_p = engine_.ip2as_.lookup(*penultimate);
  const auto as_c = engine_.ip2as_.lookup(current_);
  const bool intradomain = as_p && as_c && *as_p == *as_c;
  if (!intradomain && !config().allow_interdomain_symmetry) {
    // Q5: interdomain symmetry is right only ~57% of the time — abort
    // rather than return an untrustworthy path (Insight 1.10).
    report("aborted",
           metrics() != nullptr ? metrics()->symmetry_aborted : nullptr);
    close_stage();
    result_.status = RevtrStatus::kAbortedInterdomainSymmetry;
    finish();
    return;
  }
  if (!intradomain) result_.used_interdomain_symmetry = true;
  ++result_.symmetry_assumptions;
  result_.hops.push_back(
      ReverseHop{*penultimate, HopSource::kAssumedSymmetric});
  current_ = *penultimate;
  annotate_stage("intradomain", intradomain ? "1" : "0");
  report("extended",
         metrics() != nullptr ? metrics()->symmetry_extended : nullptr);
  close_stage();
  stage_ = Stage::kLoopHead;
}

// --- Shared helpers ---------------------------------------------------------

bool RequestTask::already_in_path(Ipv4Addr addr) const {
  for (const ReverseHop& hop : result_.hops) {
    if (hop.addr == addr && hop.source != HopSource::kSuspiciousGap) {
      return true;
    }
  }
  return false;
}

bool RequestTask::append_reverse_hops(std::span<const Ipv4Addr> revealed,
                                      HopSource source) {
  bool progressed = false;
  for (const Ipv4Addr addr : revealed) {
    if (addr.is_unspecified() || already_in_path(addr)) continue;
    result_.hops.push_back(ReverseHop{addr, source});
    if (addr.is_private()) {
      result_.has_private_hops = true;
      continue;  // Cannot continue the measurement from private space.
    }
    current_ = addr;
    progressed = true;
    if (addr == src_addr_) break;  // Reached the source.
  }
  return progressed;
}

void RequestTask::finalize_flags() {
  if (!config().flag_suspicious_links || !result_.complete()) return;
  const auto as_path = engine_.ip2as_.as_path(result_.ip_hops());
  const auto suspicious =
      engine_.relationships_.suspicious_links_in(as_path);
  if (suspicious.empty()) return;
  result_.has_suspicious_gap = true;
  // Insert a "*" where each suspicious AS link is crossed: walk the hops in
  // step with as_path, which lists the mapped hops' ASes with repeats
  // collapsed, so link i is crossed at the first mapped hop of
  // as_path[i + 1]. Unmapped hops (private RR stamps) in between stay on the
  // near side of the "*", so every flagged link gets one.
  std::vector<ReverseHop> hops;
  hops.reserve(result_.hops.size() + suspicious.size());
  auto next_link = suspicious.begin();
  std::size_t as_index = 0;
  for (const ReverseHop& hop : result_.hops) {
    const auto asn = engine_.ip2as_.lookup(hop.addr);
    if (asn && *asn != as_path[as_index]) {
      if (next_link != suspicious.end() && *next_link == as_index) {
        hops.push_back(ReverseHop{Ipv4Addr{}, HopSource::kSuspiciousGap});
        ++next_link;
      }
      ++as_index;
    }
    hops.push_back(hop);
  }
  result_.hops = std::move(hops);
}

void RequestTask::finish() {
  result_.span.end = clock_.now();
  finalize_flags();
  if (trace_ != nullptr) {
    trace_->annotate(root_span_, "status", to_string(result_.status));
    // The root carries no cost of its own; stage spans own every probe
    // (I6: sum over spans == result.probes.total()).
    trace_->end_span(root_span_, clock_.now(), 0);
  }
  if (metrics() != nullptr) {
    switch (result_.status) {
      case RevtrStatus::kComplete:
        metrics()->requests_complete->add();
        break;
      case RevtrStatus::kAbortedInterdomainSymmetry:
        metrics()->requests_aborted->add();
        break;
      case RevtrStatus::kUnreachable:
        metrics()->requests_unreachable->add();
        break;
    }
    if (result_.dbr_suspect) metrics()->dbr_suspects->add();
    metrics()->latency_us->record(
        static_cast<std::uint64_t>(result_.span.duration()));
    metrics()->request_probes->record(result_.probes.total());
    metrics()->request_hops->record(result_.hops.size());
    metrics()->spoofed_batches->record(result_.spoofed_batches);
  }
  stage_ = Stage::kDone;
}

std::unique_ptr<RequestTask> RevtrEngine::start_request(HostId destination,
                                                        HostId source,
                                                        util::SimClock& clock,
                                                        util::Rng& rng,
                                                        obs::Trace* trace) {
  return std::make_unique<RequestTask>(*this, destination, source, clock, rng,
                                       trace);
}

}  // namespace revtr::core

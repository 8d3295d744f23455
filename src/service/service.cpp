#include "service/service.h"

namespace revtr::service {

ServiceMetrics::ServiceMetrics(obs::MetricsRegistry& registry) {
  const auto quota = [&registry](const char* event) {
    return &registry.counter(
        std::string("revtr_service_quota_total{event=\"") + event + "\"}");
  };
  quota_charges = quota("charge");
  quota_refunds = quota("refund");
  quota_rejections = quota("reject");
  const auto probe_quota = [&registry](const char* event) {
    return &registry.counter(
        std::string("revtr_service_probe_quota_total{event=\"") + event +
        "\"}");
  };
  probe_quota_charged = probe_quota("charge");
  probe_quota_refunded = probe_quota("refund");
  probe_quota_rejections = probe_quota("reject");
  ndt_accepted =
      &registry.counter("revtr_service_ndt_total{outcome=\"accepted\"}");
  ndt_shed = &registry.counter("revtr_service_ndt_total{outcome=\"shed\"}");
  request_atlas_refreshes =
      &registry.counter("revtr_service_request_atlas_refreshes_total");
  daily_refreshes = &registry.counter("revtr_service_daily_refreshes_total");
  sources_bootstrapped = &registry.counter("revtr_service_sources_total");
}

ProbeCharge probe_cost_of(const core::ReverseTraceroute& result) noexcept {
  ProbeCharge cost;
  // `probes` counts uniquely-issued packets; coalesced demands rode another
  // request's in-flight probe (core/revtr.h). The gross demand is charged
  // and the coalesced share refunded, so the net cost is wire packets only
  // — a duplicate-heavy campaign must not burn its users' budgets on
  // probes that were never sent.
  cost.demanded = result.probes.total() + result.coalesced_probes;
  cost.refunded = result.coalesced_probes;
  return cost;
}

RevtrService::RevtrService(core::RevtrEngine& engine,
                           atlas::TracerouteAtlas& atlas,
                           probing::Prober& prober,
                           const topology::Topology& topo)
    : engine_(engine), atlas_(atlas), prober_(prober), topo_(topo) {}

UserId RevtrService::add_user(std::string name, UserLimits limits) {
  const UserId id = next_user_++;
  users_[id] = UserState{std::move(name), limits, 0};
  return id;
}

bool RevtrService::add_source(topology::HostId host, std::size_t atlas_size,
                              util::Rng& rng) {
  SourceRecord record;
  record.host = host;
  record.bootstrapped_at = clock_.now();

  // Step 1: verify the candidate source can receive RR packets — an RR ping
  // from a vantage point must come back with slots (Appx A bootstrap).
  const auto vps = topo_.vantage_points();
  for (const topology::HostId vp : vps) {
    const auto probe = prober_.rr_ping(vp, topo_.host(host).addr);
    if (probe.responded) {
      record.receives_rr = true;
      break;
    }
  }
  if (!record.receives_rr) return false;

  // Step 2: build the traceroute atlas (Q1) and the RR alias index (Q2).
  const auto build_time = atlas_.build(host, atlas_size, rng, clock_.now());
  atlas_.build_rr_alias_index(host);
  record.atlas_size = atlas_.traceroute_count(host);
  // The real bootstrap takes ~15 minutes, dominated by RIPE Atlas
  // scheduling; we charge the measured traceroute time plus that overhead.
  record.bootstrap_duration =
      build_time + 14 * util::SimClock::kMinute;
  clock_.advance(record.bootstrap_duration);

  record.atlas_refreshed_at = clock_.now();
  sources_[host] = record;
  if (metrics_ != nullptr) metrics_->sources_bootstrapped->add();
  return true;
}

RevtrService::QuotaDecision RevtrService::try_charge_request(UserId user) {
  const auto user_it = users_.find(user);
  if (user_it == users_.end()) return QuotaDecision::kUnknownUser;
  UserState& state = user_it->second;
  if (state.issued_today >= state.limits.daily_limit) {
    if (metrics_ != nullptr) metrics_->quota_rejections->add();
    return QuotaDecision::kQuotaExhausted;
  }
  if (state.probes_charged_today >= state.limits.daily_probe_budget) {
    if (metrics_ != nullptr) metrics_->probe_quota_rejections->add();
    return QuotaDecision::kProbeBudgetExhausted;
  }
  // Charge up front so a re-entrant caller cannot overshoot the limit; the
  // caller refunds when no path is delivered (see request()).
  ++state.issued_today;
  if (metrics_ != nullptr) metrics_->quota_charges->add();
  return QuotaDecision::kCharged;
}

void RevtrService::refund_request(UserId user) {
  const auto user_it = users_.find(user);
  if (user_it == users_.end()) return;
  UserState& state = user_it->second;
  if (state.issued_today == 0) return;
  --state.issued_today;
  if (metrics_ != nullptr) metrics_->quota_refunds->add();
}

void RevtrService::settle(UserId user, const core::ReverseTraceroute& result) {
  if (!result.complete()) refund_request(user);
  const auto user_it = users_.find(user);
  if (user_it == users_.end()) return;
  const ProbeCharge cost = probe_cost_of(result);
  user_it->second.probes_charged_today += cost.net();
  if (metrics_ != nullptr) {
    metrics_->probe_quota_charged->add(cost.demanded);
    if (cost.refunded > 0) metrics_->probe_quota_refunded->add(cost.refunded);
  }
}

std::size_t RevtrService::requests_charged_today(UserId user) const {
  const auto it = users_.find(user);
  return it == users_.end() ? 0 : it->second.issued_today;
}

std::optional<ServedMeasurement> RevtrService::request_with_options(
    UserId user, topology::HostId destination, topology::HostId source,
    const RequestOptions& options, util::Rng& rng) {
  const auto source_it = sources_.find(source);
  if (source_it == sources_.end()) return std::nullopt;
  if (try_charge_request(user) != QuotaDecision::kCharged) return std::nullopt;

  ServedMeasurement served;
  // Quota charges only stick for completed measurements (see request()).
  SourceRecord& record = source_it->second;
  if (options.max_atlas_age > 0 &&
      clock_.now() - record.atlas_refreshed_at > options.max_atlas_age) {
    atlas_.refresh(source, rng, clock_.now());
    atlas_.build_rr_alias_index(source);
    record.atlas_refreshed_at = clock_.now();
    record.atlas_size = atlas_.traceroute_count(source);
    served.atlas_refreshed = true;
    if (metrics_ != nullptr) metrics_->request_atlas_refreshes->add();
    // An atlas refresh takes ~15 minutes of wall-clock on RIPE Atlas.
    clock_.advance(15 * util::SimClock::kMinute);
  }

  served.reverse = engine_.measure(destination, source, clock_);
  settle(user, served.reverse);
  archive(served.reverse);
  if (options.with_forward_traceroute) {
    served.forward = prober_.traceroute(
        source, topo_.host(destination).addr);
    clock_.advance(served.forward->duration_us);
  }
  return served;
}

std::optional<ServedMeasurement> RevtrService::on_ndt_measurement(
    topology::HostId client, topology::HostId server) {
  if (!sources_.contains(server)) return std::nullopt;
  if (ndt_issued_today_ >= ndt_budget_) {
    ++ndt_stats_.rejected_load;  // Load shedding: NDT traffic is best-effort.
    if (metrics_ != nullptr) metrics_->ndt_shed->add();
    return std::nullopt;
  }
  ++ndt_issued_today_;
  ++ndt_stats_.accepted;
  if (metrics_ != nullptr) metrics_->ndt_accepted->add();
  ServedMeasurement served;
  served.reverse = engine_.measure(client, server, clock_);
  archive(served.reverse);
  // M-Lab already issues the forward traceroute for every NDT test; our
  // reverse measurement complements it (Appx A).
  served.forward = prober_.traceroute(server, topo_.host(client).addr);
  clock_.advance(served.forward->duration_us);
  return served;
}

std::uint64_t RevtrService::probes_charged_today(UserId user) const {
  const auto it = users_.find(user);
  return it == users_.end() ? 0 : it->second.probes_charged_today;
}

const SourceRecord* RevtrService::source_record(topology::HostId host) const {
  const auto it = sources_.find(host);
  return it == sources_.end() ? nullptr : &it->second;
}

std::optional<core::ReverseTraceroute> RevtrService::request(
    UserId user, topology::HostId destination, topology::HostId source) {
  if (!sources_.contains(source)) return std::nullopt;
  // Charge up front so a re-entrant caller cannot overshoot the limit, but
  // refund when the engine fails to deliver a path: a user whose requests
  // abort or come back unreachable has received nothing, and burning their
  // daily limit on service-side failures would lock them out (Appx A).
  if (try_charge_request(user) != QuotaDecision::kCharged) return std::nullopt;
  auto result = engine_.measure(destination, source, clock_);
  settle(user, result);
  archive(result);
  return result;
}

void CampaignStats::record(const core::ReverseTraceroute& result) {
  const double latency = result.span.seconds();
  latency_seconds.add(latency);
  busy_seconds += latency;
  switch (result.status) {
    case core::RevtrStatus::kComplete:
      ++completed;
      break;
    case core::RevtrStatus::kAbortedInterdomainSymmetry:
      ++aborted;
      break;
    case core::RevtrStatus::kUnreachable:
      ++unreachable;
      break;
  }
}

CampaignStats RevtrService::run_campaign(
    std::span<const std::pair<topology::HostId, topology::HostId>> pairs,
    std::size_t parallelism) {
  CampaignStats stats;
  stats.requested = pairs.size();
  const auto counters_before = prober_.counters();
  for (const auto& [destination, source] : pairs) {
    const auto result = engine_.measure(destination, source, clock_);
    archive(result);
    stats.record(result);
  }
  stats.probes = prober_.counters() - counters_before;
  stats.duration_seconds =
      stats.busy_seconds / static_cast<double>(std::max<std::size_t>(
                               parallelism, 1));
  return stats;
}

void RevtrService::daily_refresh(util::Rng& rng) {
  if (metrics_ != nullptr) metrics_->daily_refreshes->add();
  clock_.advance(util::SimClock::kDay);
  for (auto& [host, record] : sources_) {
    atlas_.refresh(host, rng, clock_.now());
    atlas_.build_rr_alias_index(host);
    record.atlas_size = atlas_.traceroute_count(host);
    record.atlas_refreshed_at = clock_.now();
  }
  for (auto& [id, user] : users_) {
    user.issued_today = 0;
    user.probes_charged_today = 0;
  }
  ndt_issued_today_ = 0;
  engine_.clear_caches();
}

}  // namespace revtr::service

#include "probing/prober.h"

#include <algorithm>
#include <array>
#include <limits>

#include "util/check.h"
#include "util/rng.h"

namespace revtr::probing {

namespace {
using net::Ipv4Addr;
using net::Packet;

// Counter merges happen at the parallel-campaign barrier after billions of
// simulated packets; a silent wrap there would corrupt every Table 4 row
// downstream, so the merge is overflow-checked rather than trusted.
std::uint64_t checked_add(std::uint64_t a, std::uint64_t b) {
  REVTR_CHECK(a <= std::numeric_limits<std::uint64_t>::max() - b);
  return a + b;
}

// Window deltas (`after - before`) must never go negative: `before` is a
// snapshot of the same monotonically increasing counters.
std::uint64_t checked_sub(std::uint64_t a, std::uint64_t b) {
  REVTR_CHECK(a >= b);
  return a - b;
}
}  // namespace

std::string to_string(ProbeType type) {
  switch (type) {
    case ProbeType::kPing:
      return "ping";
    case ProbeType::kRecordRoute:
      return "rr";
    case ProbeType::kSpoofedRecordRoute:
      return "spoof-rr";
    case ProbeType::kTimestamp:
      return "ts";
    case ProbeType::kSpoofedTimestamp:
      return "spoof-ts";
    case ProbeType::kTraceroute:
      return "traceroute";
  }
  return "?";
}

ProbeMetrics::ProbeMetrics(obs::MetricsRegistry& registry) {
  for (std::size_t t = 0; t < probes.size(); ++t) {
    const auto type_name = to_string(static_cast<ProbeType>(t));
    probes[t][0] = &registry.counter("revtr_probes_total{scope=\"online\",type=\"" +
                                     type_name + "\"}");
    probes[t][1] = &registry.counter(
        "revtr_probes_total{scope=\"offline\",type=\"" + type_name + "\"}");
  }
  traceroutes[0] =
      &registry.counter("revtr_traceroutes_total{scope=\"online\"}");
  traceroutes[1] =
      &registry.counter("revtr_traceroutes_total{scope=\"offline\"}");
}

ProbeCounters& ProbeCounters::operator+=(const ProbeCounters& other) {
  ping = checked_add(ping, other.ping);
  rr = checked_add(rr, other.rr);
  spoofed_rr = checked_add(spoofed_rr, other.spoofed_rr);
  ts = checked_add(ts, other.ts);
  spoofed_ts = checked_add(spoofed_ts, other.spoofed_ts);
  traceroute_packets = checked_add(traceroute_packets,
                                   other.traceroute_packets);
  traceroutes = checked_add(traceroutes, other.traceroutes);
  return *this;
}

ProbeCounters ProbeCounters::operator-(const ProbeCounters& other) const {
  ProbeCounters delta;
  delta.ping = checked_sub(ping, other.ping);
  delta.rr = checked_sub(rr, other.rr);
  delta.spoofed_rr = checked_sub(spoofed_rr, other.spoofed_rr);
  delta.ts = checked_sub(ts, other.ts);
  delta.spoofed_ts = checked_sub(spoofed_ts, other.spoofed_ts);
  delta.traceroute_packets =
      checked_sub(traceroute_packets, other.traceroute_packets);
  delta.traceroutes = checked_sub(traceroutes, other.traceroutes);
  return delta;
}

std::vector<Ipv4Addr> TracerouteResult::responsive_hops() const {
  std::vector<Ipv4Addr> addrs;
  for (const auto& hop : hops) {
    if (hop.addr) addrs.push_back(*hop.addr);
  }
  return addrs;
}

Prober::Prober(sim::Network& network) : network_(network) {}

void Prober::charge(ProbeType type) {
  const auto bump = [type](ProbeCounters& c) {
    switch (type) {
      case ProbeType::kPing:
        ++c.ping;
        break;
      case ProbeType::kRecordRoute:
        ++c.rr;
        break;
      case ProbeType::kSpoofedRecordRoute:
        ++c.spoofed_rr;
        break;
      case ProbeType::kTimestamp:
        ++c.ts;
        break;
      case ProbeType::kSpoofedTimestamp:
        ++c.spoofed_ts;
        break;
      case ProbeType::kTraceroute:
        ++c.traceroute_packets;
        break;
    }
  };
  bump(counters_);
  if (offline()) bump(offline_counters_);
  if (metrics_ != nullptr) {
    metrics_->probes[static_cast<std::size_t>(type)][offline() ? 1 : 0]->add();
  }
}

void Prober::charge_traceroute_head() {
  ++counters_.traceroutes;
  if (offline()) ++offline_counters_.traceroutes;
  if (metrics_ != nullptr) {
    metrics_->traceroutes[offline() ? 1 : 0]->add();
  }
}

bool Prober::vetoed(ProbeEvent& event) {
  if (!fault_policy_) return false;
  if (!fault_policy_(event)) return false;
  event.suppressed = true;
  return true;
}

PingResult Prober::ping(topology::HostId from, Ipv4Addr target) {
  charge(ProbeType::kPing);
  ProbeEvent event;
  event.type = ProbeType::kPing;
  event.from = from;
  event.target = target;
  event.offline = offline();
  PingResult out;
  if (vetoed(event)) {
    out.duration_us = kProbeTimeoutUs;
    notify(event);
    return out;
  }
  const auto& sender = topo().host(from);
  Packet probe = net::make_echo_request(sender.addr, target, next_id(), 1);
  const auto result = network_.send(probe, from);
  out.responded = result.answered();
  out.duration_us = out.responded ? result.rtt_us : kProbeTimeoutUs;
  event.responded = out.responded;
  notify(event);
  return out;
}

RrProbeResult Prober::rr_ping(topology::HostId from, Ipv4Addr target,
                              std::optional<Ipv4Addr> spoof_as) {
  charge(spoof_as ? ProbeType::kSpoofedRecordRoute : ProbeType::kRecordRoute);
  ProbeEvent event;
  event.type =
      spoof_as ? ProbeType::kSpoofedRecordRoute : ProbeType::kRecordRoute;
  event.from = from;
  event.target = target;
  event.spoof_as = spoof_as;
  event.offline = offline();
  RrProbeResult out;
  if (vetoed(event)) {
    out.duration_us = kProbeTimeoutUs;
    notify(event);
    return out;
  }
  const auto& sender = topo().host(from);
  const Ipv4Addr src = spoof_as.value_or(sender.addr);
  Packet probe = net::make_echo_request(src, target, next_id(), 1);
  probe.rr = net::RecordRouteOption{};
  const auto result = network_.send(probe, from);
  out.responded = result.answered() && result.reply->rr.has_value();
  if (out.responded) {
    out.slots = result.reply->rr->to_vector();
    out.duration_us = result.rtt_us;
  } else {
    out.duration_us = kProbeTimeoutUs;
  }
  event.responded = out.responded;
  event.slots = out.slots;
  notify(event);
  return out;
}

TsProbeResult Prober::ts_ping(topology::HostId from, Ipv4Addr target,
                              std::span<const Ipv4Addr> prespec,
                              std::optional<Ipv4Addr> spoof_as) {
  charge(spoof_as ? ProbeType::kSpoofedTimestamp : ProbeType::kTimestamp);
  ProbeEvent event;
  event.type = spoof_as ? ProbeType::kSpoofedTimestamp : ProbeType::kTimestamp;
  event.from = from;
  event.target = target;
  event.spoof_as = spoof_as;
  event.offline = offline();
  event.prespec.assign(prespec.begin(), prespec.end());
  TsProbeResult out;
  if (vetoed(event)) {
    out.duration_us = kProbeTimeoutUs;
    notify(event);
    return out;
  }
  const auto& sender = topo().host(from);
  const Ipv4Addr src = spoof_as.value_or(sender.addr);
  Packet probe = net::make_echo_request(src, target, next_id(), 1);
  probe.ts = net::TimestampOption::prespecified(prespec);
  const auto result = network_.send(probe, from);
  out.responded = result.answered() && result.reply->ts.has_value();
  if (out.responded) {
    const auto entries = result.reply->ts->entries();
    // The reply's option is decoded from attacker-reachable wire bytes: a
    // TS option can never carry more than kMaxEntries slots, so anything
    // larger is a codec bug, not a size to allocate.
    REVTR_CHECK(entries.size() <= net::TimestampOption::kMaxEntries);
    out.stamped.reserve(entries.size());
    for (const auto& entry : entries) out.stamped.push_back(entry.stamped);
    out.duration_us = result.rtt_us;
  } else {
    out.duration_us = kProbeTimeoutUs;
  }
  event.responded = out.responded;
  event.stamped = out.stamped;
  notify(event);
  return out;
}

TraceStop Prober::full_walk(const TtlProbe& probe) {
  int silent_run = 0;
  for (int ttl = 1; ttl <= kMaxTracerouteTtl; ++ttl) {
    const TtlReply reply = probe(ttl);
    if (reply == TtlReply::kEcho) return {ttl, true};
    silent_run = reply == TtlReply::kSilent ? silent_run + 1 : 0;
    // Three consecutive silent hops usually mean the trace is going
    // nowhere; real tools stop too rather than burn 30 more probes.
    if (silent_run == 3) return {ttl, false};
  }
  return {kMaxTracerouteTtl, false};
}

TraceStop Prober::targeted_walk(const TtlProbe& probe) {
  std::array<std::optional<TtlReply>, kMaxTracerouteTtl + 1> seen{};
  const auto at = [&](int ttl) {
    if (!seen[ttl]) seen[ttl] = probe(ttl);
    return *seen[ttl];
  };
  int r = 0;  // Last TTL known to answer with a hop; 0 is the source.
  while (r < kMaxTracerouteTtl) {
    const int t = std::min(r + 3, kMaxTracerouteTtl);
    // Down from t to the first TTL that answers at all.
    int u = t;
    while (u > r && at(u) == TtlReply::kSilent) --u;
    // r+1..t silent: three silent TTLs, or the cap with fewer left.
    if (u == r) return {t, false};
    if (at(u) == TtlReply::kHop) {
      r = u;
      continue;
    }
    // The target answered at u, so it is the first echo in r+1..u. No
    // three silent TTLs fit between the hop at r and the echo.
    int d = r + 1;
    while (at(d) != TtlReply::kEcho) ++d;
    return {d, true};
  }
  return {kMaxTracerouteTtl, false};
}

TracerouteResult Prober::traceroute(topology::HostId from, Ipv4Addr target) {
  return trace(from, target, &Prober::full_walk);
}

TracerouteResult Prober::targeted_trace(topology::HostId from,
                                        Ipv4Addr target) {
  return trace(from, target, &Prober::targeted_walk);
}

TracerouteResult Prober::trace(topology::HostId from, Ipv4Addr target,
                               TraceStop (*walk)(const TtlProbe&)) {
  charge_traceroute_head();
  const Ipv4Addr src = topo().host(from).addr;
  // Paris flow id: constant across TTLs so per-flow load balancers keep the
  // probes on one path, and a pure function of the endpoints so re-tracing a
  // flow takes the *same* path regardless of how many probes any prober sent
  // before — probe outcomes must be content-addressed for the shared caches
  // of a parallel campaign to be transparent (DESIGN.md §8).
  const auto flow_id = util::truncate_cast<std::uint16_t>(
      util::mix_hash(src.value(), target.value(), 0x7aceULL));
  TracerouteResult out;
  std::uint64_t packets = 0;
  const TraceStop stop = walk([&](int ttl) {
    charge(ProbeType::kTraceroute);
    ++packets;
    Packet probe = net::make_echo_request(src, target, flow_id, 7,
                                          static_cast<std::uint8_t>(ttl));
    const auto result = network_.send(probe, from);
    const auto index = static_cast<std::size_t>(ttl - 1);
    if (out.hops.size() <= index) out.hops.resize(index + 1);
    if (!result.answered()) {
      out.duration_us += kProbeTimeoutUs;
      return TtlReply::kSilent;
    }
    out.hops[index] = TracerouteHop{result.reply->src, result.rtt_us};
    out.duration_us += result.rtt_us;
    return result.reply->type == net::IcmpType::kEchoReply ? TtlReply::kEcho
                                                           : TtlReply::kHop;
  });
  out.hops.resize(static_cast<std::size_t>(stop.ttl));
  out.reached = stop.reached;
  if (observer_ != nullptr) {
    ProbeEvent event;
    event.type = ProbeType::kTraceroute;
    event.from = from;
    event.target = target;
    event.offline = offline();
    event.responded = !out.responsive_hops().empty();
    event.packets = packets;
    event.tr_hops = out.responsive_hops();
    event.tr_reached = out.reached;
    notify(event);
  }
  return out;
}

}  // namespace revtr::probing

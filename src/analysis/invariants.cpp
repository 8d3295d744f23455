#include "analysis/invariants.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "analysis/probe_log.h"
#include "util/rng.h"

namespace revtr::analysis {

namespace {
using net::Ipv4Addr;
using probing::ProbeEvent;
using probing::ProbeType;

bool concrete(const core::ReverseHop& hop) {
  return hop.source != core::HopSource::kSuspiciousGap &&
         !hop.addr.is_unspecified();
}

// A hop the engine could have continued the measurement from (private
// addresses are recorded but never become `current`).
bool walkable(const core::ReverseHop& hop) {
  return concrete(hop) && !hop.addr.is_private();
}

bool any_event(std::span<const ProbeEvent> events,
               bool (*predicate)(const ProbeEvent&, Ipv4Addr,
                                 topology::HostId, Ipv4Addr),
               Ipv4Addr addr, topology::HostId source, Ipv4Addr src_addr) {
  return std::any_of(events.begin(), events.end(), [&](const ProbeEvent& e) {
    return predicate(e, addr, source, src_addr);
  });
}

bool justifies_rr(const ProbeEvent& e, Ipv4Addr addr, topology::HostId source,
                  Ipv4Addr /*src_addr*/) {
  return e.type == ProbeType::kRecordRoute && e.from == source &&
         e.responded &&
         std::find(e.slots.begin(), e.slots.end(), addr) != e.slots.end();
}

bool justifies_spoofed_rr(const ProbeEvent& e, Ipv4Addr addr,
                          topology::HostId /*source*/, Ipv4Addr src_addr) {
  return e.type == ProbeType::kSpoofedRecordRoute && e.spoof_as == src_addr &&
         e.responded &&
         std::find(e.slots.begin(), e.slots.end(), addr) != e.slots.end();
}

bool justifies_timestamp(const ProbeEvent& e, Ipv4Addr addr,
                         topology::HostId /*source*/, Ipv4Addr /*src_addr*/) {
  return (e.type == ProbeType::kTimestamp ||
          e.type == ProbeType::kSpoofedTimestamp) &&
         e.responded && e.prespec.size() >= 2 && e.prespec[1] == addr &&
         e.stamped.size() >= 2 && e.stamped[0] && e.stamped[1];
}

bool justifies_atlas(const ProbeEvent& e, Ipv4Addr addr,
                     topology::HostId /*source*/, Ipv4Addr src_addr) {
  return e.type == ProbeType::kTraceroute && e.target == src_addr &&
         e.tr_reached &&
         std::find(e.tr_hops.begin(), e.tr_hops.end(), addr) !=
             e.tr_hops.end();
}

bool justifies_symmetry(const ProbeEvent& e, Ipv4Addr addr,
                        topology::HostId source, Ipv4Addr /*src_addr*/) {
  return e.type == ProbeType::kTraceroute && e.from == source &&
         std::find(e.tr_hops.begin(), e.tr_hops.end(), addr) !=
             e.tr_hops.end();
}

void compare_counters(const char* label, const probing::ProbeCounters& charged,
                      const probing::ProbeCounters& emitted,
                      std::vector<Violation>& out) {
  const auto field = [&](const char* name, std::uint64_t got,
                         std::uint64_t want) {
    if (got == want) return;
    out.push_back(Violation{
        InvariantId::kBudget,
        std::string(label) + "." + name + ": charged " + std::to_string(got) +
            ", prober emitted " + std::to_string(want)});
  };
  field("ping", charged.ping, emitted.ping);
  field("rr", charged.rr, emitted.rr);
  field("spoofed_rr", charged.spoofed_rr, emitted.spoofed_rr);
  field("ts", charged.ts, emitted.ts);
  field("spoofed_ts", charged.spoofed_ts, emitted.spoofed_ts);
  field("traceroute_packets", charged.traceroute_packets,
        emitted.traceroute_packets);
  field("traceroutes", charged.traceroutes, emitted.traceroutes);
}

}  // namespace

std::string to_string(InvariantId id) {
  switch (id) {
    case InvariantId::kLoopFree:
      return "loop-free";
    case InvariantId::kTerminates:
      return "terminates";
    case InvariantId::kProvenance:
      return "provenance";
    case InvariantId::kBudget:
      return "budget";
    case InvariantId::kInterdomainSymmetry:
      return "interdomain-symmetry";
    case InvariantId::kOracle:
      return "oracle";
    case InvariantId::kTraceAttribution:
      return "trace-attribution";
    case InvariantId::kSchedulerConsistency:
      return "scheduler-consistency";
  }
  return "?";
}

std::vector<Violation> check_result(const core::ReverseTraceroute& result,
                                    const CheckContext& ctx) {
  std::vector<Violation> out;
  const auto& topo = *ctx.topo;
  const auto& config = *ctx.config;
  const Ipv4Addr src_addr = topo.host(result.source).addr;
  const Ipv4Addr dst_addr = topo.host(result.destination).addr;

  // --- I1a: loop freedom. ------------------------------------------------
  std::unordered_set<Ipv4Addr> seen;
  for (const auto& hop : result.hops) {
    if (!concrete(hop)) continue;
    if (!seen.insert(hop.addr).second) {
      out.push_back(Violation{InvariantId::kLoopFree,
                              "hop " + hop.addr.to_string() + " repeats"});
    }
  }

  // --- I1b: endpoints. ----------------------------------------------------
  if (result.hops.empty() ||
      result.hops.front().source != core::HopSource::kDestination ||
      result.hops.front().addr != dst_addr) {
    out.push_back(
        Violation{InvariantId::kTerminates, "path does not start at D"});
  }
  if (result.complete()) {
    // Complete paths end at the source: its address, its host, or an
    // interface of its access router (the last stamping point).
    std::optional<core::ReverseHop> last;
    for (const auto& hop : result.hops) {
      if (concrete(hop)) last = hop;
    }
    bool at_source = false;
    if (last.has_value()) {
      at_source = last->addr == src_addr;
      if (!at_source) {
        const auto host = topo.host_at(last->addr);
        at_source = host.has_value() && *host == result.source;
      }
      if (!at_source) {
        const auto iface = topo.interface_at(last->addr);
        at_source = iface.has_value() &&
                    iface->router == topo.host(result.source).attachment;
      }
    }
    if (!at_source) {
      out.push_back(Violation{
          InvariantId::kTerminates,
          "complete path ends at " +
              (last.has_value() ? last->addr.to_string() : std::string("?")) +
              ", not at source " + src_addr.to_string()});
    }
  }

  // --- I2: provenance. ----------------------------------------------------
  std::size_t symmetric_hops = 0;
  bool gap_hops = false, private_hops = false;
  for (std::size_t i = 0; i < result.hops.size(); ++i) {
    const auto& hop = result.hops[i];
    const auto unjustified = [&](const char* why) {
      out.push_back(Violation{
          InvariantId::kProvenance,
          "hop " + std::to_string(i) + " (" + hop.addr.to_string() + ", " +
              core::to_string(hop.source) + "): " + why});
    };
    switch (hop.source) {
      case core::HopSource::kDestination:
        if (i != 0) unjustified("kDestination past hop 0");
        break;
      case core::HopSource::kRecordRoute:
        if (!any_event(ctx.lifetime, justifies_rr, hop.addr, result.source,
                       src_addr)) {
          unjustified("no direct RR reply from S contains this address");
        }
        break;
      case core::HopSource::kSpoofedRecordRoute:
        if (!any_event(ctx.lifetime, justifies_spoofed_rr, hop.addr,
                       result.source, src_addr)) {
          unjustified("no spoofed-as-S RR reply contains this address");
        }
        break;
      case core::HopSource::kTimestamp:
        if (!any_event(ctx.lifetime, justifies_timestamp, hop.addr,
                       result.source, src_addr)) {
          unjustified("no double-stamped tsprespec probe confirms it");
        }
        break;
      case core::HopSource::kAtlasIntersection:
        if (!any_event(ctx.lifetime, justifies_atlas, hop.addr, result.source,
                       src_addr)) {
          unjustified("no source-reaching atlas traceroute contains it");
        }
        break;
      case core::HopSource::kAssumedSymmetric:
        ++symmetric_hops;
        if (hop.addr != src_addr &&
            !any_event(ctx.lifetime, justifies_symmetry, hop.addr,
                       result.source, src_addr)) {
          unjustified("no forward traceroute from S traversed it");
        }
        break;
      case core::HopSource::kSuspiciousGap:
        gap_hops = true;
        if (!hop.addr.is_unspecified()) unjustified("gap carries an address");
        break;
    }
    if (concrete(hop) && hop.addr.is_private()) private_hops = true;
  }
  if (symmetric_hops != result.symmetry_assumptions) {
    out.push_back(Violation{InvariantId::kProvenance,
                            "symmetry_assumptions=" +
                                std::to_string(result.symmetry_assumptions) +
                                " but path has " +
                                std::to_string(symmetric_hops)});
  }
  if (gap_hops != result.has_suspicious_gap) {
    out.push_back(
        Violation{InvariantId::kProvenance, "has_suspicious_gap flag wrong"});
  }
  if (private_hops != result.has_private_hops) {
    out.push_back(
        Violation{InvariantId::kProvenance, "has_private_hops flag wrong"});
  }

  // --- I3: budget. --------------------------------------------------------
  if (ctx.check_budget) {
    compare_counters("online", result.probes,
                     ProbeLog::tally(ctx.window, false), out);
    compare_counters("offline", result.offline_probes,
                     ProbeLog::tally(ctx.window, true), out);
    if (result.spoofed_batches > result.probes.spoofed_rr) {
      out.push_back(Violation{
          InvariantId::kBudget,
          std::to_string(result.spoofed_batches) +
              " spoofed batches but only " +
              std::to_string(result.probes.spoofed_rr) +
              " spoofed RR probes"});
    }
    const auto min_latency =
        static_cast<util::SimClock::Micros>(result.spoofed_batches) *
        config.spoof_batch_timeout;
    if (result.span.duration() < min_latency) {
      out.push_back(Violation{
          InvariantId::kBudget,
          "latency " + std::to_string(result.span.duration()) +
              "us below the batch-timeout floor " +
              std::to_string(min_latency) +
              "us (double-charging or missing charge, cf. §5.2.4)"});
    }
  }

  // --- I4: Q5 interdomain symmetry. ---------------------------------------
  bool crossed_interdomain = false;
  std::optional<core::ReverseHop> previous;
  for (const auto& hop : result.hops) {
    if (hop.source == core::HopSource::kAssumedSymmetric &&
        previous.has_value()) {
      const auto as_prev = ctx.ip2as->lookup(previous->addr);
      const auto as_hop = ctx.ip2as->lookup(hop.addr);
      const bool intradomain = as_prev && as_hop && *as_prev == *as_hop;
      if (!intradomain) {
        crossed_interdomain = true;
        if (!config.allow_interdomain_symmetry) {
          out.push_back(Violation{
              InvariantId::kInterdomainSymmetry,
              "assumed symmetry " + previous->addr.to_string() + " -> " +
                  hop.addr.to_string() +
                  " crosses an interdomain link; Q5 requires abort"});
        }
      }
    }
    if (walkable(hop)) previous = hop;
  }
  if (crossed_interdomain != result.used_interdomain_symmetry) {
    out.push_back(Violation{InvariantId::kInterdomainSymmetry,
                            "used_interdomain_symmetry flag wrong"});
  }
  if (config.allow_interdomain_symmetry &&
      result.status == core::RevtrStatus::kAbortedInterdomainSymmetry) {
    out.push_back(Violation{InvariantId::kInterdomainSymmetry,
                            "aborted although interdomain symmetry allowed"});
  }

  // --- I6: trace probe attribution. ---------------------------------------
  // Overflowed traces dropped spans, so their sum is legitimately short.
  if (ctx.trace != nullptr && !ctx.trace->overflowed()) {
    const std::uint64_t attributed = ctx.trace->attributed_probes();
    const std::uint64_t online = result.probes.total();
    if (attributed != online) {
      out.push_back(Violation{
          InvariantId::kTraceAttribution,
          "trace spans attribute " + std::to_string(attributed) +
              " online probes but the request's counters show " +
              std::to_string(online)});
    }
  }

  return out;
}

std::vector<Violation> check_scheduler(const sched::SchedulerAudit& audit,
                                       const sched::SchedOptions& options) {
  std::vector<Violation> out;

  // Index issues by id; ids must be unique (one per wire probe).
  std::unordered_map<std::uint64_t, const sched::SchedulerAudit::Issue*>
      issues;
  issues.reserve(audit.issues.size());
  for (const auto& issue : audit.issues) {
    if (!issues.emplace(issue.issue_id, &issue).second) {
      out.push_back(Violation{
          InvariantId::kSchedulerConsistency,
          "issue id " + std::to_string(issue.issue_id) + " recorded twice"});
    }
  }

  // Every coalesced delivery must ride a probe that was actually issued,
  // asked for the same content (coalesce key), and fanned out the very
  // outcome the wire probe measured (digest). A mismatch means a waiter got
  // an answer it could not have measured itself — the property that makes
  // coalescing invisible to results would be broken.
  for (const auto& delivery : audit.deliveries) {
    const auto it = issues.find(delivery.issue_id);
    if (it == issues.end()) {
      out.push_back(Violation{
          InvariantId::kSchedulerConsistency,
          "delivery references issue " + std::to_string(delivery.issue_id) +
              " which was never put on the wire"});
      continue;
    }
    const sched::SchedulerAudit::Issue& issue = *it->second;
    if (issue.key != delivery.key) {
      out.push_back(Violation{
          InvariantId::kSchedulerConsistency,
          "issue " + std::to_string(issue.issue_id) +
              ": delivery coalesce key " + std::to_string(delivery.key) +
              " != issued key " + std::to_string(issue.key)});
    }
    if (issue.digest != delivery.digest) {
      out.push_back(Violation{
          InvariantId::kSchedulerConsistency,
          "issue " + std::to_string(issue.issue_id) +
              ": delivered outcome digest differs from the issued probe's"});
    }
  }

  // Per-VP window: no vantage point issues more than vp_window wire probes
  // in one pump round.
  std::unordered_map<std::uint64_t, std::size_t> per_round_vp;
  for (const auto& issue : audit.issues) {
    const std::uint64_t slot = util::mix_hash(issue.round, issue.vp);
    const std::size_t count = ++per_round_vp[slot];
    if (count == options.vp_window + 1) {  // Report each breach once.
      out.push_back(Violation{
          InvariantId::kSchedulerConsistency,
          "vp " + std::to_string(issue.vp) + " issued more than " +
              std::to_string(options.vp_window) + " probes in round " +
              std::to_string(issue.round)});
    }
  }

  return out;
}

}  // namespace revtr::analysis

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "analysis/invariants.h"
#include "analysis/model_checker.h"
#include "analysis/oracle.h"
#include "analysis/probe_log.h"
#include "eval/harness.h"
#include "util/rng.h"

namespace revtr::analysis {
namespace {

using topology::HostId;

// The model checker's own smallest shape doubles as the unit-test topology:
// a short line of single-router ASes where direct RR reaches everything.
topology::TopologyConfig line_config(std::uint64_t seed = 3) {
  topology::TopologyConfig config = default_shapes()[0].config;
  config.seed = seed;
  return config;
}

bool has_violation(const std::vector<Violation>& violations, InvariantId id) {
  return std::any_of(
      violations.begin(), violations.end(),
      [id](const Violation& violation) { return violation.id == id; });
}

// Harness around eval::Lab with the probe log attached from birth, so every
// probe — bootstrap included — is in the lifetime log, mirroring how the
// model checker and the service validator observe the prober.
struct LoggedLab {
  explicit LoggedLab(const topology::TopologyConfig& config,
                     core::EngineConfig engine_config =
                         core::EngineConfig::revtr2(),
                     std::uint64_t seed = 7)
      : lab(config, engine_config, seed) {
    lab.prober.set_observer(&log);
  }

  core::ReverseTraceroute measure(HostId destination, HostId source) {
    mark = log.mark();
    return lab.engine.measure(destination, source, clock);
  }

  CheckContext context() const {
    CheckContext ctx;
    ctx.topo = &lab.topo;
    ctx.ip2as = &lab.ip2as;
    ctx.config = &lab.engine.config();
    ctx.window = log.since(mark);
    ctx.lifetime = log.lifetime();
    return ctx;
  }

  eval::Lab lab;
  ProbeLog log;
  util::SimClock clock;
  std::size_t mark = 0;
};

TEST(ProbeLog, TallySeparatesOnlineAndOffline) {
  LoggedLab t{line_config()};
  const HostId vp = t.lab.topo.vantage_points()[0];
  const auto target = t.lab.topo.host(t.lab.topo.probe_hosts()[0]).addr;

  t.lab.prober.rr_ping(vp, target);
  {
    const probing::Prober::OfflineScope offline(t.lab.prober);
    t.lab.prober.rr_ping(vp, target);
    t.lab.prober.rr_ping(vp, target);
  }

  const auto online = ProbeLog::tally(t.log.lifetime(), /*offline=*/false);
  const auto offline = ProbeLog::tally(t.log.lifetime(), /*offline=*/true);
  EXPECT_EQ(online.rr, 1u);
  EXPECT_EQ(offline.rr, 2u);
  EXPECT_EQ(t.log.events().size(), 3u);
}

TEST(Invariants, GoodMeasurementSatisfiesCatalogAndOracle) {
  LoggedLab t{line_config()};
  const HostId source = t.lab.topo.vantage_points()[0];
  t.lab.bootstrap_source(source, 3);
  const auto destinations = t.lab.responsive_destinations();
  ASSERT_FALSE(destinations.empty());

  const auto result = t.measure(destinations[0], source);
  const auto violations = check_result(result, t.context());
  for (const auto& violation : violations) {
    ADD_FAILURE() << to_string(violation.id) << ": " << violation.detail;
  }

  const auto oracle = check_against_truth(result, t.lab.network);
  for (const auto& violation : oracle.violations) {
    ADD_FAILURE() << to_string(violation.id) << ": " << violation.detail;
  }
  if (result.complete()) {
    EXPECT_GT(oracle.pairs_checked, 0u);
  }
}

TEST(Invariants, FabricatedResultsViolateCatalog) {
  LoggedLab t{line_config()};
  const HostId source = t.lab.topo.vantage_points()[0];
  t.lab.bootstrap_source(source, 3);
  const auto destinations = t.lab.responsive_destinations();
  ASSERT_FALSE(destinations.empty());
  const auto good = t.measure(destinations[0], source);
  const auto ctx = t.context();
  ASSERT_TRUE(check_result(good, ctx).empty());
  ASSERT_GE(good.hops.size(), 1u);

  {  // A repeated concrete hop breaks loop freedom.
    auto bad = good;
    bad.hops.push_back(bad.hops.front());
    EXPECT_TRUE(has_violation(check_result(bad, ctx), InvariantId::kLoopFree));
  }
  {  // The path must start at the destination.
    auto bad = good;
    bad.hops[0].source = core::HopSource::kRecordRoute;
    EXPECT_TRUE(
        has_violation(check_result(bad, ctx), InvariantId::kTerminates));
  }
  {  // A hop no probe ever revealed has no provenance.
    auto bad = good;
    bad.hops.push_back(core::ReverseHop{*net::Ipv4Addr::parse("203.0.113.199"),
                                        core::HopSource::kRecordRoute});
    EXPECT_TRUE(
        has_violation(check_result(bad, ctx), InvariantId::kProvenance));
  }
  {  // Charged probes must match the probes actually emitted.
    auto bad = good;
    bad.probes.rr += 5;
    EXPECT_TRUE(has_violation(check_result(bad, ctx), InvariantId::kBudget));
  }
  {  // The interdomain-symmetry flag must reflect the path.
    auto bad = good;
    bad.used_interdomain_symmetry = !bad.used_interdomain_symmetry;
    EXPECT_TRUE(has_violation(check_result(bad, ctx),
                              InvariantId::kInterdomainSymmetry));
  }
}

// Regression (found by revtr_mc): the RR cache replayed every cached
// segment as kSpoofedRecordRoute, even when the hops came from a *direct*
// RR ping. The cached measurement then carried provenance no spoofed probe
// could justify. The cache now stores the original HopSource.
TEST(Invariants, CachedReplayKeepsRrProvenance) {
  LoggedLab t{line_config()};
  const HostId source = t.lab.topo.vantage_points()[0];
  t.lab.bootstrap_source(source, 3);
  const auto destinations = t.lab.responsive_destinations();
  ASSERT_FALSE(destinations.empty());

  const auto first = t.measure(destinations[0], source);
  ASSERT_TRUE(check_result(first, t.context()).empty());
  const bool first_used_direct_rr = std::any_of(
      first.hops.begin(), first.hops.end(), [](const core::ReverseHop& hop) {
        return hop.source == core::HopSource::kRecordRoute;
      });

  const auto second = t.measure(destinations[0], source);
  const auto violations = check_result(second, t.context());
  for (const auto& violation : violations) {
    ADD_FAILURE() << to_string(violation.id) << ": " << violation.detail;
  }
  // The replay reproduces the same path with the same provenance.
  ASSERT_EQ(second.hops.size(), first.hops.size());
  for (std::size_t i = 0; i < first.hops.size(); ++i) {
    EXPECT_EQ(second.hops[i].addr, first.hops[i].addr) << "hop " << i;
    EXPECT_EQ(second.hops[i].source, first.hops[i].source) << "hop " << i;
  }
  // The interesting case is a direct-RR segment surviving the round trip;
  // on this line topology direct RR always reaches.
  EXPECT_TRUE(first_used_direct_rr);
}

// Regression (found by revtr_mc): traceroutes that never reached the source
// were still indexed for intersection, so adopting their suffix produced
// "complete" paths that stop short of the source.
TEST(Invariants, AtlasNeverIntersectsUnreachedTraceroutes) {
  // A larger shape and several seeds make a partially-responsive (truncated)
  // traceroute near-certain; the check must not be vacuous.
  bool saw_unreached_with_hops = false;
  for (std::uint64_t seed = 11; seed < 19; ++seed) {
    topology::TopologyConfig config = default_shapes()[5].config;  // sparse6
    config.seed = seed;
    // The Lab seed also drives the network's loss draws; varying it keeps
    // the iterations statistically independent.
    eval::Lab lab(config, core::EngineConfig::revtr2(), seed);
    lab.network.set_loss_rate(0.75);
    const HostId source = lab.topo.vantage_points()[0];
    lab.atlas.build(source, 3, lab.rng);

    for (const auto& tr : lab.atlas.traceroutes(source)) {
      if (!tr.reached_source && !tr.hops.empty()) {
        saw_unreached_with_hops = true;
      }
      for (const auto& addr : tr.hops) {
        const auto hit =
            lab.atlas.intersect(source, addr, /*use_rr_index=*/true);
        if (!hit) continue;
        EXPECT_TRUE(lab.atlas.traceroutes(source)[hit->traceroute_index]
                        .reached_source)
            << "intersection at " << addr.to_string()
            << " resolves to a traceroute that never reached the source";
      }
    }
    if (saw_unreached_with_hops) break;
  }
  EXPECT_TRUE(saw_unreached_with_hops);
}

// Regression (found by revtr_mc): RR slots aligning past the traceroute
// tail were clamped onto the final hop, registering the source's own
// aliases with an *empty* suffix — the engine then declared paths complete
// at an RR alias that is not the source.
TEST(Invariants, RrAliasSuffixesTerminateAtSource) {
  eval::Lab lab(line_config(5));
  const HostId source = lab.topo.vantage_points()[0];
  lab.bootstrap_source(source, 3);
  const auto source_router = lab.topo.host(source).attachment;

  ASSERT_GT(lab.atlas.rr_index_size(source), 0u);
  for (const auto& [addr, at] : lab.atlas.rr_index_entries(source)) {
    const auto suffix = lab.atlas.suffix_after(source, at);
    ASSERT_FALSE(suffix.empty())
        << "rr_index entry " << addr.to_string() << " has an empty suffix";
    const auto last = suffix.back();
    const auto host = lab.topo.host_at(last);
    const auto iface = lab.topo.interface_at(last);
    const bool at_source =
        (host.has_value() && *host == source) ||
        (iface.has_value() && iface->router == source_router);
    EXPECT_TRUE(at_source) << "suffix for " << addr.to_string()
                           << " ends at " << last.to_string()
                           << ", not at the source";
  }
}

// Regression (found by revtr_mc): probes for on-demand ingress discovery
// (and atlas builds) were charged to the request's online budget. They are
// maintenance traffic (Table 4) and now land in offline_probes.
TEST(Invariants, MaintenanceProbesAreChargedOffline) {
  LoggedLab t{line_config()};
  const HostId source = t.lab.topo.vantage_points()[0];

  const auto before = t.lab.prober.offline_counters();
  t.lab.bootstrap_source(source, 3);
  const auto delta = t.lab.prober.offline_counters() - before;
  // Atlas build sends traceroutes; the Q2 index sends RR pings. All offline.
  EXPECT_GT(delta.traceroutes, 0u);
  EXPECT_GT(delta.rr, 0u);
  EXPECT_EQ(ProbeLog::tally(t.log.lifetime(), /*offline=*/true).rr, delta.rr);
  EXPECT_EQ(ProbeLog::tally(t.log.lifetime(), /*offline=*/false).total(), 0u);

  // A measurement's own online budget excludes any offline maintenance it
  // triggers, and the prober's grand total partitions exactly.
  const auto destinations = t.lab.responsive_destinations();
  ASSERT_FALSE(destinations.empty());
  const auto counters_before = t.lab.prober.counters();
  const auto offline_before = t.lab.prober.offline_counters();
  const auto result = t.measure(destinations[0], source);
  const auto total_delta = t.lab.prober.counters() - counters_before;
  const auto offline_delta = t.lab.prober.offline_counters() - offline_before;
  EXPECT_EQ(result.probes.total() + result.offline_probes.total(),
            total_delta.total());
  EXPECT_EQ(result.offline_probes.total(), offline_delta.total());
}

// Regression (found by revtr_mc --seeds 60, state stampmix5/s57/revtr2):
// the AS path skips unmapped hops, so a suspicious AS link can be crossed
// across a private RR stamp. finalize_flags set has_suspicious_gap for it
// but inserted a "*" only between two adjacent hops of the link's ASes, so
// this path came out flagged with no "*". The state is rebuilt the way the
// model checker builds it.
TEST(Invariants, SuspiciousLinkAcrossAnUnmappedHopGetsAGap) {
  const std::size_t shape = 2;  // stampmix5: private RR stamps.
  const std::size_t seed_index = 57;
  topology::TopologyConfig config = default_shapes()[shape].config;
  config.seed = util::mix_hash(0x5eed, shape, seed_index);
  const std::uint64_t state_seed =
      util::mix_hash(util::mix_hash(shape, seed_index), 0, 0);  // revtr2/none
  LoggedLab t{config, default_presets()[0].config, state_seed};
  const HostId source = t.lab.topo.vantage_points()[0];
  util::Rng rng(util::mix_hash(state_seed, 0xa77a5));
  t.lab.atlas.build(source, 3, rng, t.clock.now());
  t.lab.atlas.build_rr_alias_index(source);
  HostId destination = topology::kInvalidId;
  for (const auto& host : t.lab.topo.hosts()) {
    if (host.id == source || host.is_vantage_point || host.is_probe_host ||
        !host.ping_responsive) {
      continue;
    }
    destination = host.id;
    break;
  }
  ASSERT_NE(destination, topology::kInvalidId);

  const auto result = t.measure(destination, source);
  ASSERT_TRUE(result.complete());
  ASSERT_TRUE(result.has_suspicious_gap);
  // The state still exercises the case: the "*" follows an unmapped hop.
  std::size_t gaps = 0;
  bool after_unmapped = false;
  for (std::size_t h = 1; h < result.hops.size(); ++h) {
    if (result.hops[h].source != core::HopSource::kSuspiciousGap) continue;
    ++gaps;
    after_unmapped =
        after_unmapped || !t.lab.ip2as.lookup(result.hops[h - 1].addr);
  }
  EXPECT_EQ(gaps, 1u);
  EXPECT_TRUE(after_unmapped);
  for (const auto& violation : check_result(result, t.context())) {
    ADD_FAILURE() << to_string(violation.id) << ": " << violation.detail;
  }
}

TEST(ModelChecker, SmokeRunIsCleanAndCounts) {
  CheckerOptions options;
  options.max_states = 60;
  options.seeds_per_shape = 1;
  const auto summary = run_model_checker(options);
  EXPECT_EQ(summary.states, 60u);
  EXPECT_TRUE(summary.ok())
      << summary.total_violations << " violations, first: "
      << (summary.samples.empty() ? "none" : summary.samples.front());
  EXPECT_EQ(summary.completed + summary.aborted + summary.unreachable,
            summary.states);
}

TEST(ModelChecker, GridCoversAllInvariantDimensions) {
  // The default grid must be big enough to count as exhaustive (the
  // acceptance bar is >= 10,000 states) and must cross every preset with
  // every fault schedule.
  const auto shapes = default_shapes();
  const auto presets = default_presets();
  const auto schedules = default_fault_schedules();
  const CheckerOptions options;
  EXPECT_GE(shapes.size() * options.seeds_per_shape * presets.size() *
                schedules.size(),
            10000u);
  EXPECT_TRUE(std::any_of(
      presets.begin(), presets.end(), [](const PresetSpec& preset) {
        return preset.config.allow_interdomain_symmetry;
      }));
  EXPECT_TRUE(std::any_of(
      presets.begin(), presets.end(), [](const PresetSpec& preset) {
        return !preset.config.use_cache;
      }));
  EXPECT_TRUE(std::any_of(schedules.begin(), schedules.end(),
                          [](const FaultSchedule& schedule) {
                            return schedule.drop_spoofed;
                          }));
  EXPECT_TRUE(std::any_of(schedules.begin(), schedules.end(),
                          [](const FaultSchedule& schedule) {
                            return schedule.stale_atlas;
                          }));
  EXPECT_TRUE(std::any_of(schedules.begin(), schedules.end(),
                          [](const FaultSchedule& schedule) {
                            return schedule.rr_rate_limit > 0;
                          }));
  EXPECT_TRUE(std::any_of(schedules.begin(), schedules.end(),
                          [](const FaultSchedule& schedule) {
                            return schedule.filtered_vp_stride > 0;
                          }));
}


}  // namespace
}  // namespace revtr::analysis

#include <gtest/gtest.h>
#include <memory>

#include <algorithm>

#include "core/revtr.h"
#include "eval/harness.h"
#include "eval/metrics.h"

namespace revtr::core {
namespace {

using net::Ipv4Addr;
using topology::HostId;

topology::TopologyConfig small_config() {
  topology::TopologyConfig config;
  config.seed = 81;
  config.num_ases = 200;
  config.num_vps = 12;
  config.num_vps_2016 = 4;
  config.num_probe_hosts = 60;
  return config;
}

// --------------------------------------------------------------------------
// extract_reverse_hops
// --------------------------------------------------------------------------

TEST(ExtractReverseHops, AfterExactStamp) {
  const Ipv4Addr current(5, 5, 5, 5);
  const std::vector<Ipv4Addr> slots = {Ipv4Addr(1, 0, 0, 1), current,
                                       Ipv4Addr(2, 0, 0, 1),
                                       Ipv4Addr(3, 0, 0, 1)};
  const auto hops = RevtrEngine::extract_reverse_hops(slots, current);
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0], Ipv4Addr(2, 0, 0, 1));
}

TEST(ExtractReverseHops, LastOccurrenceWins) {
  const Ipv4Addr current(5, 5, 5, 5);
  const std::vector<Ipv4Addr> slots = {current, Ipv4Addr(1, 0, 0, 1), current,
                                       Ipv4Addr(2, 0, 0, 1)};
  const auto hops = RevtrEngine::extract_reverse_hops(slots, current);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0], Ipv4Addr(2, 0, 0, 1));
}

TEST(ExtractReverseHops, DoubleStampFallback) {
  const Ipv4Addr current(5, 5, 5, 5);
  const Ipv4Addr alias(6, 6, 6, 6);
  const std::vector<Ipv4Addr> slots = {Ipv4Addr(1, 0, 0, 1), alias, alias,
                                       Ipv4Addr(2, 0, 0, 1)};
  const auto hops = RevtrEngine::extract_reverse_hops(slots, current);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0], Ipv4Addr(2, 0, 0, 1));
}

TEST(ExtractReverseHops, LoopFallback) {
  const Ipv4Addr current(5, 5, 5, 5);
  const Ipv4Addr a(1, 0, 0, 1);
  const std::vector<Ipv4Addr> slots = {a, Ipv4Addr(2, 0, 0, 1), a,
                                       Ipv4Addr(3, 0, 0, 1)};
  const auto hops = RevtrEngine::extract_reverse_hops(slots, current);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0], Ipv4Addr(3, 0, 0, 1));
}

TEST(ExtractReverseHops, NothingWithoutDelimiter) {
  const std::vector<Ipv4Addr> slots = {Ipv4Addr(1, 0, 0, 1),
                                       Ipv4Addr(2, 0, 0, 1)};
  EXPECT_TRUE(
      RevtrEngine::extract_reverse_hops(slots, Ipv4Addr(9, 9, 9, 9)).empty());
}

// --------------------------------------------------------------------------
// ReverseTraceroute::ip_hops
// --------------------------------------------------------------------------

TEST(ReverseTracerouteHops, IpHopsSkipsGapAndKeepsOrder) {
  const Ipv4Addr d(10, 0, 0, 1);
  const Ipv4Addr a(10, 0, 0, 2);
  const Ipv4Addr b(10, 0, 0, 3);
  const Ipv4Addr s(10, 0, 0, 4);
  ReverseTraceroute result;
  result.hops = {ReverseHop{d, HopSource::kDestination},
                 ReverseHop{a, HopSource::kSpoofedRecordRoute},
                 ReverseHop{Ipv4Addr{}, HopSource::kSuspiciousGap},
                 ReverseHop{b, HopSource::kAssumedSymmetric},
                 ReverseHop{s, HopSource::kAtlasIntersection}};
  EXPECT_EQ(result.ip_hops(), (std::vector<Ipv4Addr>{d, a, b, s}));
}

// --------------------------------------------------------------------------
// Engine end-to-end on the simulated Internet
// --------------------------------------------------------------------------

class EngineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lab_ = std::make_unique<eval::Lab>(small_config(), EngineConfig::revtr2());
    source_ = lab_->topo.vantage_points()[0];
    lab_->bootstrap_source(source_, 50);
  }
  static void TearDownTestSuite() {
    lab_.reset();
  }
  static std::unique_ptr<eval::Lab> lab_;
  static HostId source_;
};

std::unique_ptr<eval::Lab> EngineFixture::lab_;
HostId EngineFixture::source_ = topology::kInvalidId;

TEST_F(EngineFixture, MeasuresCompletePathsEndingAtSource) {
  const auto dests = lab_->responsive_destinations(/*require_rr=*/true);
  ASSERT_GT(dests.size(), 20u);
  util::SimClock clock;
  std::size_t complete = 0, attempted = 0;
  for (std::size_t i = 0; i < dests.size() && attempted < 25; i += 7) {
    ++attempted;
    const auto result = lab_->engine.measure(dests[i], source_, clock);
    EXPECT_EQ(result.destination, dests[i]);
    EXPECT_FALSE(result.hops.empty());
    EXPECT_EQ(result.hops.front().addr, lab_->topo.host(dests[i]).addr);
    EXPECT_EQ(result.hops.front().source, HopSource::kDestination);
    if (result.complete()) {
      ++complete;
      // A complete path ends at the source (or its last atlas hop).
      const auto ips = result.ip_hops();
      ASSERT_GE(ips.size(), 2u);
    }
  }
  EXPECT_GT(complete, attempted / 2) << "revtr 2.0 should complete most";
}

TEST_F(EngineFixture, LatencyAndProbesAccounted) {
  const auto dests = lab_->responsive_destinations(true);
  util::SimClock clock;
  const auto before = clock.now();
  const auto result = lab_->engine.measure(dests[1], source_, clock);
  EXPECT_EQ(result.span.begin, before);
  EXPECT_EQ(result.span.end, clock.now());
  EXPECT_GE(result.span.duration(), 0);
  EXPECT_GT(result.probes.total(), 0u);
}

TEST_F(EngineFixture, CacheCutsProbesOnRepeat) {
  EngineConfig config = EngineConfig::revtr2();
  eval::Lab lab(small_config(), config);
  const HostId source = lab.topo.vantage_points()[1];
  lab.bootstrap_source(source, 40);
  const auto dests = lab.responsive_destinations(true);
  util::SimClock clock;
  const auto first = lab.engine.measure(dests[3], source, clock);
  const auto second = lab.engine.measure(dests[3], source, clock);
  EXPECT_EQ(first.complete(), second.complete());
  EXPECT_LE(second.probes.total(), first.probes.total());
}

TEST_F(EngineFixture, HopProvenanceIsPlausible) {
  const auto dests = lab_->responsive_destinations(true);
  util::SimClock clock;
  for (std::size_t i = 0; i < 10; ++i) {
    const auto result = lab_->engine.measure(dests[i * 3 + 1], source_,
                                             clock);
    if (!result.complete()) continue;
    bool after_atlas = false;
    for (std::size_t h = 0; h < result.hops.size(); ++h) {
      const auto& hop = result.hops[h];
      if (h == 0) {
        EXPECT_EQ(hop.source, HopSource::kDestination);
        continue;
      }
      // Once the path intersects the atlas, everything after comes from
      // the atlas too (plus inserted "*" flags).
      if (after_atlas) {
        EXPECT_TRUE(hop.source == HopSource::kAtlasIntersection ||
                    hop.source == HopSource::kSuspiciousGap);
      }
      if (hop.source == HopSource::kAtlasIntersection) after_atlas = true;
    }
  }
}

TEST_F(EngineFixture, Revtr2NeverAssumesInterdomainSymmetry) {
  const auto dests = lab_->responsive_destinations(false);
  util::SimClock clock;
  for (std::size_t i = 0; i < dests.size() && i < 60; i += 3) {
    const auto result = lab_->engine.measure(dests[i], source_, clock);
    EXPECT_FALSE(result.used_interdomain_symmetry);
  }
}

TEST_F(EngineFixture, Revtr1CompletesMoreButUsesInterdomainGuesses) {
  eval::Lab lab1(small_config(), EngineConfig::revtr1());
  eval::Lab lab2(small_config(), EngineConfig::revtr2());
  const HostId source1 = lab1.topo.vantage_points()[0];
  const HostId source2 = lab2.topo.vantage_points()[0];
  lab1.bootstrap_source(source1, 40);
  lab2.bootstrap_source(source2, 40);
  // revtr 1.0 intersected via alias datasets (§5.2.1), not the Q2 RR index.
  util::Rng alias_rng(3);
  const auto midar = alias::midar_like_aliases(lab1.topo, alias_rng);
  lab1.engine.set_alias_store(&midar);
  const auto dests = lab1.responsive_destinations(false);

  util::SimClock clock1, clock2;
  std::size_t complete1 = 0, complete2 = 0, interdomain1 = 0;
  for (std::size_t i = 0; i < dests.size() && i < 120; ++i) {
    const auto r1 = lab1.engine.measure(dests[i], source1, clock1);
    const auto r2 = lab2.engine.measure(dests[i], source2, clock2);
    complete1 += r1.complete();
    complete2 += r2.complete();
    interdomain1 += r1.used_interdomain_symmetry;
  }
  EXPECT_GE(complete1, complete2);
  EXPECT_GT(complete2, 0u);
  EXPECT_GT(interdomain1, 0u)
      << "revtr 1.0 should have fallen back to interdomain symmetry";
}

TEST_F(EngineFixture, TimestampWithOracleAdjacenciesExtends) {
  eval::Lab lab(small_config(), [] {
    EngineConfig config = EngineConfig::revtr2();
    config.use_timestamp = true;
    return config;
  }());
  const HostId source = lab.topo.vantage_points()[2];
  lab.bootstrap_source(source, 40);
  // Oracle: ground-truth adjacencies from topology links.
  lab.engine.set_adjacency_provider([&](Ipv4Addr current) {
    std::vector<Ipv4Addr> result;
    const auto owner = lab.topo.interface_at(current);
    if (!owner) return result;
    for (const auto link : lab.topo.router(owner->router).links) {
      result.push_back(
          lab.topo.egress_addr(lab.topo.far_end(owner->router, link), link));
    }
    return result;
  });
  const auto dests = lab.responsive_destinations(true);
  util::SimClock clock;
  std::size_t ts_counted = 0;
  for (std::size_t i = 0; i < dests.size() && i < 30; ++i) {
    const auto result = lab.engine.measure(dests[i], source, clock);
    ts_counted += result.probes.ts + result.probes.spoofed_ts;
  }
  EXPECT_GT(ts_counted, 0u) << "TS technique never exercised";
}

TEST_F(EngineFixture, DeterministicAcrossRuns) {
  auto run = [&]() {
    eval::Lab lab(small_config(), EngineConfig::revtr2());
    const HostId source = lab.topo.vantage_points()[0];
    lab.bootstrap_source(source, 40);
    const auto dests = lab.responsive_destinations(true);
    util::SimClock clock;
    std::vector<std::string> summary;
    for (std::size_t i = 0; i < 10; ++i) {
      const auto result = lab.engine.measure(dests[i], source, clock);
      std::string line = to_string(result.status);
      for (const auto& hop : result.hops) {
        line += " ";
        line += hop.addr.to_string();
      }
      summary.push_back(line);
    }
    return summary;
  };
  EXPECT_EQ(run(), run());
}

TEST_F(EngineFixture, AccuracyAgainstDirectTraceroute) {
  // The headline property: complete revtr 2.0 paths agree with a direct
  // traceroute at the AS level for the vast majority of measured pairs.
  const auto probe_hosts = lab_->topo.probe_hosts();
  util::SimClock clock;
  std::size_t exact_or_missing = 0, complete = 0;
  for (std::size_t i = 0; i < probe_hosts.size() && complete < 20; ++i) {
    const HostId dest = probe_hosts[i];
    const auto result = lab_->engine.measure(dest, source_, clock);
    if (!result.complete()) continue;
    ++complete;
    const auto direct = lab_->prober.traceroute(
        dest, lab_->topo.host(source_).addr);
    const auto direct_as = lab_->ip2as.as_path(direct.responsive_hops());
    const auto revtr_as = lab_->ip2as.as_path(result.ip_hops());
    const auto match = eval::compare_as_paths(direct_as, revtr_as);
    if (match != eval::AsMatch::kMismatch) ++exact_or_missing;
  }
  ASSERT_GT(complete, 5u);
  EXPECT_GT(static_cast<double>(exact_or_missing) /
                static_cast<double>(complete),
            0.75);
}

TEST_F(EngineFixture, AtlasCheckedBeforeRecordRoute) {
  // Fig 2 control flow: if the destination itself sits on an atlas
  // traceroute, the measurement completes with no online RR probing at all.
  const auto& traceroutes = lab_->atlas.traceroutes(source_);
  for (const auto& tr : traceroutes) {
    const auto dest = lab_->topo.host_at(
        lab_->topo.host(tr.probe).addr);
    if (!dest) continue;
    util::SimClock clock;
    lab_->engine.clear_caches();
    const auto result = lab_->engine.measure(tr.probe, source_, clock);
    if (!result.complete()) continue;
    // When every hop came from the direct RR ping and the atlas (no
    // spoofed-rr / timestamp / symmetry provenance), no spoofed batch may
    // have been charged — the cheap techniques run first.
    bool cheap_only = true;
    for (std::size_t h = 1; h < result.hops.size(); ++h) {
      cheap_only &=
          result.hops[h].source == core::HopSource::kAtlasIntersection ||
          result.hops[h].source == core::HopSource::kRecordRoute ||
          result.hops[h].source == core::HopSource::kSuspiciousGap;
    }
    if (cheap_only) {
      EXPECT_EQ(result.spoofed_batches, 0u);
      EXPECT_EQ(result.probes.spoofed_rr, 0u);
      return;
    }
  }
  GTEST_SKIP() << "no destination resolved from direct RR + atlas alone";
}

TEST_F(EngineFixture, CacheExpiresAfterTtl) {
  EngineConfig config = EngineConfig::revtr2();
  eval::Lab lab(small_config(), config);
  const HostId source = lab.topo.vantage_points()[0];
  lab.bootstrap_source(source, 40);
  const auto dests = lab.responsive_destinations(true);
  util::SimClock clock;
  const auto first = lab.engine.measure(dests[5], source, clock);
  // Within the TTL the repeat is cheaper; after the TTL it pays full price
  // again.
  const auto cached = lab.engine.measure(dests[5], source, clock);
  clock.advance(2 * util::SimClock::kDay);
  const auto expired = lab.engine.measure(dests[5], source, clock);
  EXPECT_LE(cached.probes.total(), first.probes.total());
  EXPECT_GE(expired.probes.total(), cached.probes.total());
}

// --------------------------------------------------------------------------
// AdjacencyMap
// --------------------------------------------------------------------------

TEST(AdjacencyMap, RecordsUndirectedPairs) {
  AdjacencyMap map;
  const std::vector<Ipv4Addr> path = {Ipv4Addr(1, 0, 0, 1),
                                      Ipv4Addr(2, 0, 0, 1),
                                      Ipv4Addr(3, 0, 0, 1)};
  map.add_path(path);
  const auto n2 = map.adjacent_to(Ipv4Addr(2, 0, 0, 1));
  EXPECT_EQ(n2.size(), 2u);
  const auto n1 = map.adjacent_to(Ipv4Addr(1, 0, 0, 1));
  ASSERT_EQ(n1.size(), 1u);
  EXPECT_EQ(n1[0], Ipv4Addr(2, 0, 0, 1));
  EXPECT_TRUE(map.adjacent_to(Ipv4Addr(9, 9, 9, 9)).empty());
}

TEST(AdjacencyMap, DeduplicatesAndCaps) {
  AdjacencyMap map;
  for (int i = 0; i < 30; ++i) {
    map.add_pair(Ipv4Addr(1, 0, 0, 1), Ipv4Addr(2, 0, 0, static_cast<std::uint8_t>(i)));
    map.add_pair(Ipv4Addr(1, 0, 0, 1), Ipv4Addr(2, 0, 0, 5));  // Duplicate.
  }
  EXPECT_EQ(map.adjacent_to(Ipv4Addr(1, 0, 0, 1), 10).size(), 10u);
  EXPECT_EQ(map.adjacent_to(Ipv4Addr(1, 0, 0, 1), 100).size(), 30u);
  const auto provider = map.provider(4);
  EXPECT_EQ(provider(Ipv4Addr(1, 0, 0, 1)).size(), 4u);
}

}  // namespace
}  // namespace revtr::core

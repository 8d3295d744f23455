#include <gtest/gtest.h>
#include <memory>

#include <algorithm>
#include <set>

#include "core/serialize.h"
#include "eval/harness.h"
#include "util/stats.h"
#include "vpselect/ingress.h"

namespace revtr::vpselect {
namespace {

using net::Ipv4Addr;
using net::Ipv4Prefix;
using topology::HostId;
using topology::PrefixId;

topology::TopologyConfig small_config() {
  topology::TopologyConfig config;
  config.seed = 71;
  config.num_ases = 150;
  config.num_vps = 10;
  config.num_vps_2016 = 4;
  config.num_probe_hosts = 30;
  return config;
}

// --------------------------------------------------------------------------
// analyze_reach: direct, double-stamp, loop
// --------------------------------------------------------------------------

const Ipv4Prefix kPrefix(Ipv4Addr(9, 9, 0, 0), 16);

TEST(AnalyzeReach, DirectReach) {
  const std::vector<Ipv4Addr> slots = {Ipv4Addr(1, 0, 0, 1),
                                       Ipv4Addr(2, 0, 0, 1),
                                       Ipv4Addr(9, 9, 1, 1),
                                       Ipv4Addr(3, 0, 0, 1)};
  const auto analysis = analyze_reach(slots, kPrefix);
  EXPECT_EQ(analysis.via, ReachAnalysis::Via::kDirect);
  EXPECT_EQ(analysis.reach_slot, 2);
  ASSERT_EQ(analysis.candidates.size(), 3u);
  EXPECT_EQ(analysis.candidates.back(), Ipv4Addr(9, 9, 1, 1));
}

TEST(AnalyzeReach, DoubleStamp) {
  const std::vector<Ipv4Addr> slots = {Ipv4Addr(1, 0, 0, 1),
                                       Ipv4Addr(2, 0, 0, 1),
                                       Ipv4Addr(2, 0, 0, 1),
                                       Ipv4Addr(1, 0, 0, 1)};
  const auto analysis = analyze_reach(slots, kPrefix);
  EXPECT_EQ(analysis.via, ReachAnalysis::Via::kDoubleStamp);
  EXPECT_EQ(analysis.reach_slot, 1);
  EXPECT_EQ(analysis.candidates.size(), 2u);
}

TEST(AnalyzeReach, Loop) {
  const std::vector<Ipv4Addr> slots = {Ipv4Addr(1, 0, 0, 1),
                                       Ipv4Addr(2, 0, 0, 1),
                                       Ipv4Addr(3, 0, 0, 1),
                                       Ipv4Addr(2, 0, 0, 1)};
  const auto analysis = analyze_reach(slots, kPrefix);
  EXPECT_EQ(analysis.via, ReachAnalysis::Via::kLoop);
  // Candidates: everything before the loop closes (1.*, 2.*, 3.*).
  EXPECT_EQ(analysis.candidates.size(), 3u);
}

TEST(AnalyzeReach, NoReach) {
  const std::vector<Ipv4Addr> slots = {Ipv4Addr(1, 0, 0, 1),
                                       Ipv4Addr(2, 0, 0, 1)};
  const auto analysis = analyze_reach(slots, kPrefix);
  EXPECT_EQ(analysis.via, ReachAnalysis::Via::kNone);
  EXPECT_EQ(analysis.reach_slot, -1);
  EXPECT_TRUE(analysis.candidates.empty());
}

TEST(AnalyzeReach, DirectBeatsHeuristics) {
  const std::vector<Ipv4Addr> slots = {Ipv4Addr(2, 0, 0, 1),
                                       Ipv4Addr(2, 0, 0, 1),
                                       Ipv4Addr(9, 9, 1, 1)};
  const auto analysis = analyze_reach(slots, kPrefix);
  EXPECT_EQ(analysis.via, ReachAnalysis::Via::kDirect);
}

TEST(AnalyzeReach, HeuristicsCanBeDisabled) {
  const std::vector<Ipv4Addr> doubled = {Ipv4Addr(2, 0, 0, 1),
                                         Ipv4Addr(2, 0, 0, 1)};
  EXPECT_EQ(analyze_reach(doubled, kPrefix, false, false).via,
            ReachAnalysis::Via::kNone);
  const std::vector<Ipv4Addr> looped = {Ipv4Addr(2, 0, 0, 1),
                                        Ipv4Addr(3, 0, 0, 1),
                                        Ipv4Addr(2, 0, 0, 1)};
  EXPECT_EQ(analyze_reach(looped, kPrefix, true, false).via,
            ReachAnalysis::Via::kNone);
}

// --------------------------------------------------------------------------
// End-to-end discovery on the simulated topology
// --------------------------------------------------------------------------

class VpSelectFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { lab_ = std::make_unique<eval::Lab>(small_config()); }
  static void TearDownTestSuite() {
    lab_.reset();
  }
  static std::unique_ptr<eval::Lab> lab_;
};

std::unique_ptr<eval::Lab> VpSelectFixture::lab_;

TEST_F(VpSelectFixture, DiscoveryFindsIngressesForMostPrefixes) {
  std::size_t with_ingress = 0, with_any_vp_in_range = 0, total = 0;
  const auto prefixes = lab_->customer_prefixes();
  for (std::size_t i = 0; i < prefixes.size() && i < 60; ++i) {
    const auto plan_snap = lab_->ingress.discover(
        prefixes[i], lab_->topo.vantage_points(), lab_->rng);
    const auto& plan = *plan_snap;
    ++total;
    with_ingress += plan.has_ingresses();
    const bool in_range = std::any_of(
        plan.vp_info.begin(), plan.vp_info.end(),
        [](const PrefixPlan::VpInfo& info) { return info.in_range(); });
    with_any_vp_in_range += in_range;
    // Every ingress VP list is sorted by distance.
    for (const auto& ingress : plan.ingresses) {
      EXPECT_FALSE(ingress.vps.empty());
      EXPECT_TRUE(std::is_sorted(
          ingress.vps.begin(), ingress.vps.end(),
          [](const VpDistance& a, const VpDistance& b) {
            return a.distance < b.distance ||
                   (a.distance == b.distance && a.vp < b.vp);
          }));
    }
    // Ingresses are ordered by coverage.
    for (std::size_t k = 1; k < plan.ingresses.size(); ++k) {
      EXPECT_GE(plan.ingresses[k - 1].vps.size(),
                plan.ingresses[k].vps.size());
    }
  }
  ASSERT_GT(total, 0u);
  // The vast majority of prefixes with in-range VPs get ingresses (97.7%
  // in the paper).
  EXPECT_GT(with_ingress, with_any_vp_in_range * 7 / 10);
}

TEST_F(VpSelectFixture, EachVpCoveredByAtMostOneIngress) {
  const auto prefixes = lab_->customer_prefixes();
  const auto plan_snap = lab_->ingress.discover(
      prefixes[3], lab_->topo.vantage_points(), lab_->rng);
  const auto& plan = *plan_snap;
  std::set<HostId> seen;
  for (const auto& ingress : plan.ingresses) {
    for (const auto& vp : ingress.vps) {
      EXPECT_TRUE(seen.insert(vp.vp).second)
          << "VP assigned to two ingresses";
    }
  }
}

TEST_F(VpSelectFixture, AttemptPlanRoundRobinsOverIngresses) {
  PrefixPlan plan;
  plan.prefix = 0;
  Ingress a;
  a.addr = Ipv4Addr(1, 1, 1, 1);
  a.vps = {{10, 2}, {11, 4}};
  Ingress b;
  b.addr = Ipv4Addr(2, 2, 2, 2);
  b.vps = {{20, 3}};
  plan.ingresses = {a, b};
  const auto attempts = attempt_plan(plan, 5);
  ASSERT_EQ(attempts.size(), 3u);
  // First round: closest VP of each ingress, in coverage order.
  EXPECT_EQ(attempts[0].vp, 10u);
  EXPECT_EQ(attempts[0].expected_ingress, a.addr);
  EXPECT_EQ(attempts[1].vp, 20u);
  EXPECT_EQ(attempts[1].expected_ingress, b.addr);
  // Second round: backup VP of ingress a.
  EXPECT_EQ(attempts[2].vp, 11u);
  EXPECT_EQ(attempts[2].ingress_rank, 0u);
}

TEST_F(VpSelectFixture, AttemptPlanFallbackWhenNoIngress) {
  PrefixPlan plan;
  plan.vp_info = {{10, 3, 5}, {11, 9, 9}, {12, 2, 2}, {13, -1, -1}};
  const auto attempts = attempt_plan(plan, 5);
  ASSERT_EQ(attempts.size(), 2u);  // VP 11 (mean 9) is out of range; 13 too.
  EXPECT_EQ(attempts[0].vp, 12u);  // Mean distance 2.
  EXPECT_EQ(attempts[1].vp, 10u);  // Mean distance 4.
  EXPECT_TRUE(attempts[0].expected_ingress.is_unspecified());
}

TEST_F(VpSelectFixture, Revtr1OrderPrefersInRangeVpsButIgnoresDistance) {
  PrefixPlan plan;
  plan.vp_info = {{10, -1, -1}, {11, 6, 6}, {12, 2, 4}, {13, 3, -1}};
  const auto order = revtr1_vp_order(plan);
  ASSERT_EQ(order.size(), 4u);
  // Set cover ranks by destinations covered, not proximity: both VPs in
  // range of two destinations come first (id order), then the single-dest
  // one, then the out-of-range one.
  EXPECT_EQ(order[0], 11u);
  EXPECT_EQ(order[1], 12u);
  EXPECT_EQ(order[2], 13u);
  EXPECT_EQ(order[3], 10u);
}

TEST_F(VpSelectFixture, GlobalOrderAggregatesAcrossPrefixes) {
  PrefixPlan p1;
  p1.vp_info = {{10, 3, 3}, {11, -1, -1}};
  PrefixPlan p2;
  p2.vp_info = {{10, 2, 2}, {11, 4, 4}};
  const PrefixPlan* plans[] = {&p1, &p2};
  const auto order = global_vp_order(plans);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 10u);  // In range of 2 prefixes vs 1.
}

TEST_F(VpSelectFixture, OptimalPicksClosest) {
  PrefixPlan plan;
  plan.vp_info = {{10, 5, 5}, {11, 2, 2}, {12, -1, -1}};
  const auto best = optimal_vp(plan);
  ASSERT_TRUE(best);
  EXPECT_EQ(best->vp, 11u);
  PrefixPlan empty;
  empty.vp_info = {{12, -1, -1}};
  EXPECT_FALSE(optimal_vp(empty));
}

TEST_F(VpSelectFixture, DiscoveredDistancesAgreeWithTopologyScale) {
  // Sanity: distances are within [1, 9] and colo VPs are often close.
  const auto prefixes = lab_->customer_prefixes();
  util::Fraction close;
  for (std::size_t i = 0; i < prefixes.size() && i < 40; ++i) {
    const auto plan_snap = lab_->ingress.discover(
        prefixes[i], lab_->topo.vantage_points(), lab_->rng);
    const auto& plan = *plan_snap;
    for (const auto& info : plan.vp_info) {
      if (info.dist_d1 >= 0) {
        EXPECT_GE(info.dist_d1, 1);
        EXPECT_LE(info.dist_d1, 9);
        close.tally(info.dist_d1 <= 4);
      }
    }
  }
  // Insight 1.7: a decent share of reachable destinations are close.
  EXPECT_GT(close.value(), 0.1);
}

// Degenerate survey inputs: no vantage points at all, and a network that
// drops every probe. Discovery must produce an empty-but-usable plan (no
// ingresses, empty fallback, empty attempt list, no optimal VP) rather than
// crash or fabricate coverage.
TEST_F(VpSelectFixture, DiscoveryWithZeroResponsiveVpsYieldsEmptyPlan) {
  const auto prefixes = lab_->customer_prefixes();

  // No VPs provided.
  {
    const auto plan_snap = lab_->ingress.discover(prefixes[5], {}, lab_->rng);
    const auto& plan = *plan_snap;
    EXPECT_FALSE(plan.has_ingresses());
    EXPECT_TRUE(plan.vp_info.empty());
    EXPECT_TRUE(plan.fallback_ranking().empty());
    EXPECT_TRUE(attempt_plan(plan).empty());
    EXPECT_FALSE(optimal_vp(plan));
    EXPECT_TRUE(revtr1_vp_order(plan).empty());
  }

  // VPs exist but every probe is lost: nobody responds, nobody is in range.
  {
    lab_->network.set_loss_rate(1.0);
    const auto plan_snap = lab_->ingress.discover(
        prefixes[6], lab_->topo.vantage_points(), lab_->rng);
    const auto& plan = *plan_snap;
    lab_->network.set_loss_rate(0.0);
    EXPECT_FALSE(plan.has_ingresses());
    for (const auto& info : plan.vp_info) {
      EXPECT_FALSE(info.in_range());
    }
    EXPECT_TRUE(plan.fallback_ranking().empty());
    EXPECT_TRUE(attempt_plan(plan).empty());
    EXPECT_FALSE(optimal_vp(plan));
  }
}

// --------------------------------------------------------------------------
// Batch survey: discover_all on every usable CPU equals a discover() loop
// --------------------------------------------------------------------------

void expect_same_plan(const PrefixPlan& serial, const PrefixPlan& batch) {
  EXPECT_EQ(serial.prefix, batch.prefix);
  ASSERT_EQ(serial.ingresses.size(), batch.ingresses.size());
  for (std::size_t k = 0; k < serial.ingresses.size(); ++k) {
    const auto& a = serial.ingresses[k];
    const auto& b = batch.ingresses[k];
    EXPECT_EQ(a.addr, b.addr);
    ASSERT_EQ(a.vps.size(), b.vps.size());
    for (std::size_t v = 0; v < a.vps.size(); ++v) {
      EXPECT_EQ(a.vps[v].vp, b.vps[v].vp);
      EXPECT_EQ(a.vps[v].distance, b.vps[v].distance);
    }
  }
  ASSERT_EQ(serial.vp_info.size(), batch.vp_info.size());
  for (std::size_t v = 0; v < serial.vp_info.size(); ++v) {
    EXPECT_EQ(serial.vp_info[v].vp, batch.vp_info[v].vp);
    EXPECT_EQ(serial.vp_info[v].dist_d1, batch.vp_info[v].dist_d1);
    EXPECT_EQ(serial.vp_info[v].dist_d2, batch.vp_info[v].dist_d2);
  }
}

void expect_same_counters(const probing::ProbeCounters& a,
                          const probing::ProbeCounters& b) {
  EXPECT_EQ(a.ping, b.ping);
  EXPECT_EQ(a.rr, b.rr);
  EXPECT_EQ(a.spoofed_rr, b.spoofed_rr);
  EXPECT_EQ(a.ts, b.ts);
  EXPECT_EQ(a.spoofed_ts, b.spoofed_ts);
  EXPECT_EQ(a.traceroute_packets, b.traceroute_packets);
  EXPECT_EQ(a.traceroutes, b.traceroutes);
}

// At loss 0 an RR probe's path is a function of its content, so surveying
// on worker threads through forks of the shared prober must leave exactly
// the state a discover() loop leaves: the same plans, the same rng, the
// same prober counters and ICMP-id sequence, and so the same measurements
// afterwards.
TEST(IngressDiscovery, BatchSurveyMatchesSerial) {
  topology::TopologyConfig config;
  config.seed = 7;
  config.num_ases = 400;
  config.num_vps = 12;
  config.num_probe_hosts = 40;
  eval::Lab serial(config);
  eval::Lab batch(config);
  std::vector<PrefixId> prefixes;
  for (const auto& prefix : serial.topo.prefixes()) {
    prefixes.push_back(prefix.id);
  }

  for (const PrefixId prefix : prefixes) {
    serial.ingress.discover(prefix, serial.topo.vantage_points(), serial.rng);
  }
  batch.ingress.discover_all(prefixes, batch.topo.vantage_points(),
                             batch.rng);

  for (const PrefixId prefix : prefixes) {
    const auto a = serial.ingress.plan_for(prefix);
    const auto b = batch.ingress.plan_for(prefix);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    expect_same_plan(*a, *b);
  }
  expect_same_counters(serial.prober.counters(), batch.prober.counters());
  expect_same_counters(serial.prober.offline_counters(),
                       batch.prober.offline_counters());
  EXPECT_GT(batch.prober.offline_counters().rr, 0u);
  EXPECT_EQ(serial.rng(), batch.rng());

  // Later probes get the same ICMP ids and flow keys, and the rng feeds
  // the atlas the same draws: a bootstrap and a measurement agree.
  const HostId source = serial.topo.vantage_points().front();
  serial.bootstrap_source(source, 60);
  batch.bootstrap_source(source, 60);
  const HostId destination = serial.responsive_destinations(true).front();
  util::SimClock serial_clock;
  util::SimClock batch_clock;
  const auto a = serial.engine.measure(destination, source, serial_clock);
  const auto b = batch.engine.measure(destination, source, batch_clock);
  EXPECT_EQ(core::to_json(a, serial.topo).dump(),
            core::to_json(b, batch.topo).dump());
  expect_same_counters(serial.prober.counters(), batch.prober.counters());
}

}  // namespace
}  // namespace revtr::vpselect

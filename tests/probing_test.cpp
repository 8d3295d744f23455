#include <gtest/gtest.h>
#include <memory>

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "net/ip_options.h"
#include "probing/prober.h"
#include "probing/transport.h"
#include "routing/forwarding.h"
#include "sim/network.h"
#include "topology/builder.h"
#include "util/rng.h"

namespace revtr::probing {
namespace {

using topology::HostId;
using topology::Topology;
using topology::TopologyBuilder;
using topology::TopologyConfig;

TopologyConfig small_config() {
  TopologyConfig config;
  config.seed = 33;
  config.num_ases = 150;
  config.num_vps = 10;
  config.num_vps_2016 = 4;
  config.num_probe_hosts = 40;
  return config;
}

class ProbingFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = std::make_unique<Topology>(TopologyBuilder::build(small_config()));
    bgp_ = std::make_unique<routing::BgpTable>(*topo_);
    intra_ = std::make_unique<routing::IntraRouting>(*topo_);
    plane_ = std::make_unique<routing::ForwardingPlane>(*topo_, *bgp_, *intra_);
    network_ = std::make_unique<sim::Network>(*topo_, *plane_, 5);
  }
  static void TearDownTestSuite() {
    network_.reset();
    plane_.reset();
    intra_.reset();
    bgp_.reset();
    topo_.reset();
  }

  static HostId responsive_host() {
    for (const auto& host : topo_->hosts()) {
      if (!host.is_vantage_point && !host.is_probe_host &&
          host.rr_responsive && host.stamp == topology::HostStamp::kNormal) {
        return host.id;
      }
    }
    throw std::logic_error("no responsive host");
  }

  static std::unique_ptr<Topology> topo_;
  static std::unique_ptr<routing::BgpTable> bgp_;
  static std::unique_ptr<routing::IntraRouting> intra_;
  static std::unique_ptr<routing::ForwardingPlane> plane_;
  static std::unique_ptr<sim::Network> network_;
};

std::unique_ptr<Topology> ProbingFixture::topo_;
std::unique_ptr<routing::BgpTable> ProbingFixture::bgp_;
std::unique_ptr<routing::IntraRouting> ProbingFixture::intra_;
std::unique_ptr<routing::ForwardingPlane> ProbingFixture::plane_;
std::unique_ptr<sim::Network> ProbingFixture::network_;

TEST_F(ProbingFixture, PingCountsAndTimes) {
  Prober prober(*network_);
  const auto vp = topo_->vantage_points()[0];
  const auto result = prober.ping(vp, topo_->host(responsive_host()).addr);
  EXPECT_TRUE(result.responded);
  EXPECT_GT(result.duration_us, 0);
  EXPECT_LT(result.duration_us, Prober::kProbeTimeoutUs);
  EXPECT_EQ(prober.counters().ping, 1u);
  EXPECT_EQ(prober.counters().total(), 1u);
}

TEST_F(ProbingFixture, UnansweredProbeChargedTimeout) {
  Prober prober(*network_);
  const auto vp = topo_->vantage_points()[0];
  for (const auto& host : topo_->hosts()) {
    if (!host.ping_responsive) {
      const auto result = prober.ping(vp, host.addr);
      EXPECT_FALSE(result.responded);
      EXPECT_EQ(result.duration_us, Prober::kProbeTimeoutUs);
      return;
    }
  }
  GTEST_SKIP();
}

TEST_F(ProbingFixture, RrPingReturnsSlots) {
  Prober prober(*network_);
  const auto vp = topo_->vantage_points()[0];
  const auto result = prober.rr_ping(vp, topo_->host(responsive_host()).addr);
  EXPECT_TRUE(result.responded);
  EXPECT_FALSE(result.slots.empty());
  EXPECT_LE(result.slots.size(), 9u);
  EXPECT_EQ(prober.counters().rr, 1u);
  EXPECT_EQ(prober.counters().spoofed_rr, 0u);
}

TEST_F(ProbingFixture, SpoofedRrCountsSeparately) {
  Prober prober(*network_);
  HostId spoofer = topology::kInvalidId;
  for (HostId vp : topo_->vantage_points()) {
    if (network_->can_spoof(vp)) spoofer = vp;
  }
  ASSERT_NE(spoofer, topology::kInvalidId);
  const HostId source = topo_->vantage_points()[0] == spoofer
                            ? topo_->vantage_points()[1]
                            : topo_->vantage_points()[0];
  const auto result = prober.rr_ping(spoofer,
                                     topo_->host(responsive_host()).addr,
                                     topo_->host(source).addr);
  EXPECT_EQ(prober.counters().spoofed_rr, 1u);
  EXPECT_EQ(prober.counters().rr, 0u);
  // Spoofed replies are observed at the source; the call still reports what
  // the source saw.
  if (result.responded) {
    EXPECT_FALSE(result.slots.empty());
  }
}

TEST_F(ProbingFixture, TracerouteReachesAndIsOrdered) {
  Prober prober(*network_);
  const auto vp = topo_->vantage_points()[0];
  const auto dst = responsive_host();
  const auto result = prober.traceroute(vp, topo_->host(dst).addr);
  ASSERT_TRUE(result.reached);
  ASSERT_GE(result.hops.size(), 2u);
  // Final hop is the destination itself.
  ASSERT_TRUE(result.hops.back().addr);
  EXPECT_EQ(*result.hops.back().addr, topo_->host(dst).addr);
  // Earlier hops are router interfaces (or silent).
  for (std::size_t i = 0; i + 1 < result.hops.size(); ++i) {
    if (result.hops[i].addr) {
      EXPECT_TRUE(topo_->interface_at(*result.hops[i].addr))
          << "hop " << i << " is not a router interface";
    }
  }
  EXPECT_EQ(prober.counters().traceroutes, 1u);
  EXPECT_EQ(prober.counters().traceroute_packets, result.hops.size());
}

TEST_F(ProbingFixture, TracerouteParisConsistency) {
  // Two traceroutes from the same host to the same destination follow the
  // same path (per-flow load balancing, fixed flow id per trace... but the
  // flow id differs between traces; destinations are the anchor here). We
  // verify the hop *count* and reached flag are stable, and that a repeated
  // run with the same prober state is deterministic.
  const auto vp = topo_->vantage_points()[1];
  const auto dst = responsive_host();
  Prober p1(*network_);
  const auto r1 = p1.traceroute(vp, topo_->host(dst).addr);
  const auto r2 = p1.traceroute(vp, topo_->host(dst).addr);
  EXPECT_EQ(r1.reached, r2.reached);
  EXPECT_EQ(r1.hops.size(), r2.hops.size());
}

TEST_F(ProbingFixture, TracerouteToUnresponsiveDestinationStops) {
  Prober prober(*network_);
  const auto vp = topo_->vantage_points()[0];
  for (const auto& host : topo_->hosts()) {
    if (!host.ping_responsive) {
      const auto result = prober.traceroute(vp, host.addr);
      EXPECT_FALSE(result.reached);
      EXPECT_LE(result.hops.size(),
                static_cast<std::size_t>(Prober::kMaxTracerouteTtl));
      return;
    }
  }
  GTEST_SKIP();
}

TEST_F(ProbingFixture, TsPingStampsOnPathRouter) {
  Prober prober(*network_);
  const auto vp = topo_->vantage_points()[0];
  const auto dst = responsive_host();
  const auto rr = prober.rr_ping(vp, topo_->host(dst).addr);
  ASSERT_TRUE(rr.responded);
  net::Ipv4Addr on_path;
  for (const auto addr : rr.slots) {
    if (topo_->interface_at(addr)) {
      on_path = addr;
      break;
    }
  }
  if (on_path.is_unspecified()) GTEST_SKIP() << "no mappable hop";
  const net::Ipv4Addr prespec[] = {on_path};
  const auto ts = prober.ts_ping(vp, topo_->host(dst).addr, prespec);
  if (!ts.responded) GTEST_SKIP() << "TS filtered";
  ASSERT_EQ(ts.stamped.size(), 1u);
  EXPECT_TRUE(ts.stamped[0]);
  EXPECT_EQ(prober.counters().ts, 1u);
}

TEST_F(ProbingFixture, TsPingOffPathAdjacencyNotStamped) {
  Prober prober(*network_);
  const auto vp = topo_->vantage_points()[0];
  const auto dst = responsive_host();
  // Prespecify <destination, bogus-far-away-loopback>: second must stay
  // unstamped because that router is not after the destination on the path.
  const auto far_router =
      topo_->as_at(static_cast<topology::AsIndex>(topo_->num_ases() - 1))
          .routers[0];
  const net::Ipv4Addr prespec[] = {topo_->host(dst).addr,
                                   topo_->router(far_router).loopback};
  const auto ts = prober.ts_ping(vp, topo_->host(dst).addr, prespec);
  if (!ts.responded) GTEST_SKIP() << "TS filtered";
  ASSERT_EQ(ts.stamped.size(), 2u);
  if (ts.stamped[0]) {
    EXPECT_FALSE(ts.stamped[1]) << "off-path adjacency stamped";
  }
}

// Regression companion to Timestamp.DecodeRejectsOversizedEntryCount: the
// stamped vector ts_ping sizes from the reply can never exceed the option's
// wire capacity, and for a responded probe it mirrors the prespec list.
TEST_F(ProbingFixture, TsPingStampedBoundedByOptionCapacity) {
  Prober prober(*network_);
  const auto vp = topo_->vantage_points()[0];
  const auto dst = responsive_host();
  std::vector<net::Ipv4Addr> prespec(net::TimestampOption::kMaxEntries,
                                     topo_->host(dst).addr);
  const auto ts = prober.ts_ping(vp, topo_->host(dst).addr, prespec);
  EXPECT_LE(ts.stamped.size(), net::TimestampOption::kMaxEntries);
  if (ts.responded) {
    EXPECT_EQ(ts.stamped.size(), prespec.size());
  }
}

class EventLog final : public ProbeObserver {
 public:
  void on_probe(const ProbeEvent& event) override { events.push_back(event); }
  std::vector<ProbeEvent> events;
};

auto event_fields(const ProbeEvent& e) {
  return std::tie(e.type, e.from, e.target, e.spoof_as, e.responded,
                  e.offline, e.suppressed, e.packets, e.slots, e.prespec,
                  e.stamped, e.tr_hops, e.tr_reached);
}

auto counter_fields(const ProbeCounters& c) {
  return std::tie(c.ping, c.rr, c.spoofed_rr, c.ts, c.spoofed_ts,
                  c.traceroute_packets, c.traceroutes);
}

TEST_F(ProbingFixture, DefaultExecuteBatchMatchesSequentialRrPings) {
  // A batch mixing plain and spoofed RR, one item vetoed by the fault
  // policy, on a lossy network: the transport's default execute_batch must
  // leave results, counters and the observer's event stream exactly as
  // sequential rr_ping() calls do on a twin network with the same seed.
  const auto& vps = topo_->vantage_points();
  const net::Ipv4Addr spoof = topo_->host(vps[0]).addr;
  std::vector<RrBatchItem> items;
  for (std::size_t i = 0; i < 8; ++i) {
    RrBatchItem item;
    item.from = vps[1 + i % (vps.size() - 1)];
    item.target = topo_->host(topo_->probe_hosts()[i]).addr;
    if (i % 2 == 0) item.spoof_as = spoof;
    items.push_back(item);
  }
  const net::Ipv4Addr vetoed = items[3].target;
  const FaultPolicy policy = [vetoed](const ProbeEvent& event) {
    return event.target == vetoed;
  };

  sim::Network batch_net(*topo_, *plane_, 41);
  sim::Network seq_net(*topo_, *plane_, 41);
  batch_net.set_loss_rate(0.3);
  seq_net.set_loss_rate(0.3);
  Prober batch_prober(batch_net);
  Prober seq_prober(seq_net);
  EventLog batch_log;
  EventLog seq_log;
  batch_prober.set_observer(&batch_log);
  seq_prober.set_observer(&seq_log);
  batch_prober.set_fault_policy(policy);
  seq_prober.set_fault_policy(policy);

  LocalProbeTransport transport(batch_prober);
  std::vector<RrProbeResult> batch;
  transport.execute_batch(items, batch);
  std::vector<RrProbeResult> sequential;
  for (const auto& item : items) {
    sequential.push_back(
        seq_prober.rr_ping(item.from, item.target, item.spoof_as));
  }

  ASSERT_EQ(batch.size(), items.size());
  std::size_t answered = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(batch[i].responded, sequential[i].responded) << "item " << i;
    EXPECT_EQ(batch[i].slots, sequential[i].slots) << "item " << i;
    EXPECT_EQ(batch[i].duration_us, sequential[i].duration_us) << "item " << i;
    if (batch[i].responded) ++answered;
  }
  // Not vacuous: the batch saw answers, and the veto or loss took others.
  EXPECT_GT(answered, 0u);
  EXPECT_LT(answered, items.size());
  EXPECT_FALSE(batch[3].responded);

  EXPECT_TRUE(counter_fields(batch_prober.counters()) ==
              counter_fields(seq_prober.counters()));
  EXPECT_EQ(batch_prober.counters().spoofed_rr, 4u);
  EXPECT_EQ(batch_prober.counters().rr, 4u);
  EXPECT_EQ(batch_net.probes_injected(), seq_net.probes_injected());

  ASSERT_EQ(batch_log.events.size(), items.size());
  ASSERT_EQ(seq_log.events.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_TRUE(event_fields(batch_log.events[i]) ==
                event_fields(seq_log.events[i]))
        << "event " << i;
  }
  EXPECT_TRUE(batch_log.events[3].suppressed);
}

// What the symmetry step reads from a trace (RequestTask::on_symmetry):
// where it stops, whether it reached the target, and the last responsive
// hop before the final hop (reached) or of the whole trace (unreached).
struct TraceVerdict {
  bool reached = false;
  std::size_t size = 0;
  std::optional<net::Ipv4Addr> last_responsive;

  bool operator==(const TraceVerdict&) const = default;
};

TraceVerdict verdict_of(const TracerouteResult& trace) {
  TraceVerdict verdict{trace.reached, trace.hops.size(), std::nullopt};
  std::size_t end = trace.hops.size();
  if (trace.reached && end > 0) --end;
  for (std::size_t i = end; i-- > 0;) {
    if (trace.hops[i].addr) {
      verdict.last_responsive = trace.hops[i].addr;
      break;
    }
  }
  return verdict;
}

// Tallies of the full walk's outcomes, so the sweep shows which branches it
// exercised.
struct SweepTally {
  std::size_t traces = 0;
  std::uint64_t full_packets = 0;
  std::uint64_t targeted_packets = 0;
  std::size_t three_silent = 0;       // Unreached before the TTL cap.
  std::size_t target_at_ttl1 = 0;     // Penultimate is the source.
  std::size_t silent_then_ttl2 = 0;   // Penultimate is nullopt.

  SweepTally& operator+=(const SweepTally& other) {
    traces += other.traces;
    full_packets += other.full_packets;
    targeted_packets += other.targeted_packets;
    three_silent += other.three_silent;
    target_at_ttl1 += other.target_at_ttl1;
    silent_then_ttl2 += other.silent_then_ttl2;
    return *this;
  }
};

// Traces every VP to every `stride`-th probe host and host, then to every
// responsive hop those traces revealed, with the full walk on one network
// and the spec path (targeted walk) on a twin with the same seed, loss 0.
SweepTally sweep_targeted_against_full(const Topology& topo,
                                       const routing::ForwardingPlane& plane,
                                       std::uint64_t seed,
                                       std::size_t stride) {
  sim::Network full_net(topo, plane, seed);
  sim::Network targeted_net(topo, plane, seed);
  Prober full(full_net);
  Prober targeted(targeted_net);
  EventLog log;
  targeted.set_observer(&log);
  SweepTally tally;
  const auto check = [&](HostId vp, net::Ipv4Addr target) {
    const auto expected = full.traceroute(vp, target);
    const auto sent = targeted.counters().traceroute_packets;
    log.events.clear();
    const auto reply = execute_spec(
        targeted, ProbeSpec{ProbeType::kTraceroute, vp, target, {}, {}});
    const auto& got = reply.traceroute;
    const std::string where =
        "vp " + std::to_string(vp) + " -> " + target.to_string();
    EXPECT_TRUE(verdict_of(got) == verdict_of(expected)) << where;
    EXPECT_EQ(reply.responded, expected.reached) << where;
    // Every TTL it probed answered as in the full walk.
    const auto common = std::min(got.hops.size(), expected.hops.size());
    for (std::size_t i = 0; i < common; ++i) {
      if (got.hops[i].addr) {
        EXPECT_EQ(got.hops[i], expected.hops[i]) << where;
      }
    }
    // Charged exactly what it sent, in the counters and the event alike.
    EXPECT_EQ(reply.packets, targeted.counters().traceroute_packets - sent)
        << where;
    EXPECT_EQ(log.events.size(), 1u) << where;
    if (!log.events.empty()) {
      EXPECT_EQ(log.events[0].packets, reply.packets) << where;
      EXPECT_EQ(log.events[0].tr_reached, expected.reached) << where;
    }
    // It probes TTLs up to the stop and, when it reached the target, at
    // most one look-ahead TTL past it: at most one packet more than the
    // full walk, and only where it had to probe every TTL to the target.
    const auto size = expected.hops.size();
    EXPECT_LE(reply.packets, size + (expected.reached ? 1 : 0)) << where;
    ++tally.traces;
    tally.full_packets += size;
    tally.targeted_packets += reply.packets;
    if (!expected.reached &&
        size < static_cast<std::size_t>(Prober::kMaxTracerouteTtl)) {
      ++tally.three_silent;
    }
    if (expected.reached && size == 1) ++tally.target_at_ttl1;
    if (expected.reached && size == 2 && !expected.hops[0].addr) {
      ++tally.silent_then_ttl2;
    }
    return expected;
  };
  std::vector<net::Ipv4Addr> targets;
  for (std::size_t i = 0; i < topo.probe_hosts().size(); i += stride) {
    targets.push_back(topo.host(topo.probe_hosts()[i]).addr);
  }
  for (std::size_t i = 0; i < topo.hosts().size(); i += stride) {
    targets.push_back(topo.hosts()[i].addr);
  }
  for (const auto vp : topo.vantage_points()) {
    std::vector<net::Ipv4Addr> hops;
    for (const auto target : targets) {
      const auto trace = check(vp, target);
      for (const auto addr : trace.responsive_hops()) hops.push_back(addr);
    }
    std::sort(hops.begin(), hops.end());
    hops.erase(std::unique(hops.begin(), hops.end()), hops.end());
    for (const auto hop : hops) check(vp, hop);
  }
  return tally;
}

TEST_F(ProbingFixture, TargetedTraceMatchesFullTrace) {
  // The spec path's targeted walk must give the symmetry step the same
  // answer as a full Paris traceroute: at loss 0 every TTL probe is a pure
  // function of (source, target, TTL). A second world with a quarter of
  // its routers traceroute-silent exercises the silent branches harder.
  SweepTally tally = sweep_targeted_against_full(*topo_, *plane_, 5, 3);
  TopologyConfig sparse = small_config();
  sparse.seed = 34;
  sparse.router_ttl_responsive = 0.75;
  const auto topo = TopologyBuilder::build(sparse);
  const routing::BgpTable bgp(topo);
  const routing::IntraRouting intra(topo);
  const routing::ForwardingPlane plane(topo, bgp, intra);
  tally += sweep_targeted_against_full(topo, plane, 9, 3);

  // The sweep reached every branch the network can produce (the TTL cap
  // needs a 40-hop path: TtlWalk.CapsAtTtl40 covers it).
  EXPECT_GT(tally.three_silent, 0u);
  EXPECT_GT(tally.target_at_ttl1, 0u);
  EXPECT_GT(tally.silent_then_ttl2, 0u);
  // And it pays: well under the full walk's packets.
  EXPECT_LT(tally.targeted_packets * 4, tally.full_packets * 3)
      << tally.targeted_packets << " vs " << tally.full_packets;
}

// A loss-free path as a TTL walk sees it: TTL i + 1 is answered by a router
// when answers[i] (TTLs past the vector are silent), and the target answers
// every TTL from target_ttl on (0 = never). Records the TTLs probed.
struct SyntheticPath {
  std::vector<bool> answers;
  int target_ttl = 0;
  std::vector<int> probed;

  TtlProbe probe() {
    return [this](int ttl) {
      probed.push_back(ttl);
      if (target_ttl > 0 && ttl >= target_ttl) return TtlReply::kEcho;
      const auto i = static_cast<std::size_t>(ttl - 1);
      return i < answers.size() && answers[i] ? TtlReply::kHop
                                              : TtlReply::kSilent;
    };
  }

  // The last router-answered TTL the symmetry step would read at `stop`:
  // before the final hop when reached, up to it otherwise; 0 = none.
  int last_answer_before(const TraceStop& stop) const {
    const int end = stop.reached ? stop.ttl - 1 : stop.ttl;
    for (int ttl = end; ttl > 0; --ttl) {
      const auto i = static_cast<std::size_t>(ttl - 1);
      if (i < answers.size() && answers[i] &&
          (target_ttl == 0 || ttl < target_ttl)) {
        return ttl;
      }
    }
    return 0;
  }
};

struct WalkPair {
  TraceStop full;
  TraceStop targeted;
  std::vector<int> full_probed;
  std::vector<int> targeted_probed;
  int last_answer = 0;
};

WalkPair run_both_walks(std::vector<bool> answers, int target_ttl) {
  SyntheticPath full{answers, target_ttl, {}};
  SyntheticPath targeted{std::move(answers), target_ttl, {}};
  WalkPair pair;
  pair.full = Prober::full_walk(full.probe());
  pair.targeted = Prober::targeted_walk(targeted.probe());
  pair.full_probed = std::move(full.probed);
  pair.targeted_probed = std::move(targeted.probed);
  pair.last_answer = targeted.last_answer_before(pair.targeted);
  return pair;
}

// The targeted walk's contract on one path: the full walk's stop, each TTL
// probed once, and the hop the symmetry step reads among those probed.
void expect_targeted_contract(const WalkPair& pair, const std::string& where) {
  EXPECT_TRUE(pair.targeted == pair.full)
      << where << ": targeted stop " << pair.targeted.ttl << "/"
      << pair.targeted.reached << ", full " << pair.full.ttl << "/"
      << pair.full.reached;
  auto sorted = pair.targeted_probed;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end())
      << where << ": a TTL was probed twice";
  // Past the stop it probes at most the one TTL whose echo revealed the
  // target.
  const auto past = std::count_if(sorted.begin(), sorted.end(),
                                  [&](int ttl) { return ttl > pair.full.ttl; });
  EXPECT_LE(past, pair.full.reached ? 1 : 0) << where;
  if (pair.last_answer > 0) {
    EXPECT_TRUE(std::binary_search(sorted.begin(), sorted.end(),
                                   pair.last_answer))
        << where << ": last responsive TTL " << pair.last_answer
        << " not probed";
  }
}

TEST(TtlWalk, TargetedMatchesFullOnEveryShortPath) {
  // Every answer pattern over the first 11 TTLs, with the target at every
  // distance up to one past the pattern, or silent to echoes.
  for (std::size_t n = 0; n <= 11; ++n) {
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      std::vector<bool> answers(n);
      for (std::size_t i = 0; i < n; ++i) answers[i] = (mask >> i) & 1u;
      for (int target = 0; target <= static_cast<int>(n) + 1; ++target) {
        expect_targeted_contract(
            run_both_walks(answers, target),
            "n " + std::to_string(n) + " mask " + std::to_string(mask) +
                " target " + std::to_string(target));
      }
    }
  }
}

TEST(TtlWalk, StopsOnThreeSilentTtls) {
  const auto pair = run_both_walks({true, true, false, false, false, true}, 0);
  EXPECT_TRUE(pair.full == (TraceStop{5, false}));
  expect_targeted_contract(pair, "three silent");
  EXPECT_EQ(pair.last_answer, 2);
  // 3 (silent), 2 (hop), then 5, 4 (silent): TTL 6 stays unprobed.
  EXPECT_EQ(pair.targeted_probed, (std::vector<int>{3, 2, 5, 4}));
}

TEST(TtlWalk, CapsAtTtl40) {
  const int cap = Prober::kMaxTracerouteTtl;
  // Answers on every TTL: both walks give up at the cap, unreached.
  const auto all = run_both_walks(std::vector<bool>(45, true), 0);
  EXPECT_TRUE(all.full == (TraceStop{cap, false}));
  expect_targeted_contract(all, "all answer");
  EXPECT_EQ(all.last_answer, cap);
  EXPECT_EQ(all.full_probed.size(), static_cast<std::size_t>(cap));
  EXPECT_LT(all.targeted_probed.size(), all.full_probed.size());
  // Every tail pattern around the cap, with the target on either side.
  for (int prefix = cap - 6; prefix <= cap; ++prefix) {
    for (std::uint32_t mask = 0; mask < 32; ++mask) {
      std::vector<bool> answers(static_cast<std::size_t>(prefix), true);
      for (int i = 0; i < 5; ++i) answers.push_back((mask >> i) & 1u);
      for (const int target : {0, cap - 1, cap, cap + 1}) {
        expect_targeted_contract(
            run_both_walks(answers, target),
            "prefix " + std::to_string(prefix) + " mask " +
                std::to_string(mask) + " target " + std::to_string(target));
      }
    }
  }
}

TEST(TtlWalk, TargetAtTtl1) {
  // The symmetry step's penultimate hop is then the source itself.
  const auto pair = run_both_walks({}, 1);
  EXPECT_TRUE(pair.full == (TraceStop{1, true}));
  expect_targeted_contract(pair, "target at 1");
  EXPECT_EQ(pair.last_answer, 0);
  EXPECT_EQ(pair.targeted_probed, (std::vector<int>{3, 1}));
}

TEST(TtlWalk, SilentFirstHopBeforeTtl2Target) {
  // No responsive hop before the target: the penultimate hop is nullopt.
  const auto pair = run_both_walks({false}, 2);
  EXPECT_TRUE(pair.full == (TraceStop{2, true}));
  expect_targeted_contract(pair, "silent then target at 2");
  EXPECT_EQ(pair.last_answer, 0);
  EXPECT_EQ(pair.targeted_probed, (std::vector<int>{3, 1, 2}));
}

TEST(TtlWalk, TargetedWalkProbesEachTtlOnceUnderAnyReplies) {
  // Under loss a TTL's reply need not follow the path: any reply sequence
  // must still end inside the cap with each TTL probed at most once, and a
  // reached stop must be a TTL that echoed.
  util::Rng rng(17);
  for (int run = 0; run < 2000; ++run) {
    std::array<TtlReply, Prober::kMaxTracerouteTtl + 1> replies{};
    for (auto& reply : replies) {
      reply = static_cast<TtlReply>(rng.below(3));
    }
    std::vector<int> probed;
    const auto stop = Prober::targeted_walk([&](int ttl) {
      probed.push_back(ttl);
      return replies[static_cast<std::size_t>(ttl)];
    });
    ASSERT_GE(stop.ttl, 1) << "run " << run;
    ASSERT_LE(stop.ttl, Prober::kMaxTracerouteTtl) << "run " << run;
    if (stop.reached) {
      EXPECT_EQ(replies[static_cast<std::size_t>(stop.ttl)], TtlReply::kEcho)
          << "run " << run;
    }
    std::sort(probed.begin(), probed.end());
    EXPECT_TRUE(std::adjacent_find(probed.begin(), probed.end()) ==
                probed.end())
        << "run " << run;
  }
}

TEST_F(ProbingFixture, CounterArithmetic) {
  ProbeCounters a;
  a.rr = 10;
  a.spoofed_rr = 5;
  ProbeCounters b;
  b.rr = 3;
  b.traceroute_packets = 7;
  ProbeCounters sum = a;
  sum += b;
  EXPECT_EQ(sum.rr, 13u);
  EXPECT_EQ(sum.traceroute_packets, 7u);
  const auto delta = sum - a;
  EXPECT_EQ(delta.rr, 3u);
  EXPECT_EQ(delta.spoofed_rr, 0u);
  EXPECT_EQ(sum.total(), 13u + 5u + 7u);
}

TEST_F(ProbingFixture, ResetCounters) {
  Prober prober(*network_);
  prober.ping(topo_->vantage_points()[0],
              topo_->host(responsive_host()).addr);
  EXPECT_GT(prober.counters().total(), 0u);
  prober.reset_counters();
  EXPECT_EQ(prober.counters().total(), 0u);
}

}  // namespace
}  // namespace revtr::probing

#include <gtest/gtest.h>
#include <memory>

#include <algorithm>
#include <array>
#include <span>
#include <thread>
#include <vector>

#include "routing/forwarding.h"
#include "sim/network.h"
#include "topology/builder.h"
#include "util/rng.h"

namespace revtr::sim {
namespace {

using net::Ipv4Addr;
using net::Packet;
using topology::HostId;
using topology::Topology;
using topology::TopologyBuilder;
using topology::TopologyConfig;

TopologyConfig small_config() {
  TopologyConfig config;
  config.seed = 21;
  config.num_ases = 150;
  config.num_vps = 10;
  config.num_vps_2016 = 4;
  config.num_probe_hosts = 40;
  return config;
}

class SimFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = std::make_unique<Topology>(TopologyBuilder::build(small_config()));
    bgp_ = std::make_unique<routing::BgpTable>(*topo_);
    intra_ = std::make_unique<routing::IntraRouting>(*topo_);
    plane_ = std::make_unique<routing::ForwardingPlane>(*topo_, *bgp_, *intra_);
  }
  static void TearDownTestSuite() {
    plane_.reset();
    intra_.reset();
    bgp_.reset();
    topo_.reset();
  }

  Network make_network() { return Network(*topo_, *plane_, 3); }

  // A destination host guaranteed responsive with the given stamp policy.
  static HostId find_host(bool rr_responsive,
                          topology::HostStamp stamp =
                              topology::HostStamp::kNormal) {
    for (const auto& host : topo_->hosts()) {
      if (host.is_vantage_point || host.is_probe_host) continue;
      if (host.ping_responsive && host.rr_responsive == rr_responsive &&
          host.stamp == stamp) {
        return host.id;
      }
    }
    throw std::logic_error("no matching host");
  }

  static std::unique_ptr<Topology> topo_;
  static std::unique_ptr<routing::BgpTable> bgp_;
  static std::unique_ptr<routing::IntraRouting> intra_;
  static std::unique_ptr<routing::ForwardingPlane> plane_;
};

std::unique_ptr<Topology> SimFixture::topo_;
std::unique_ptr<routing::BgpTable> SimFixture::bgp_;
std::unique_ptr<routing::IntraRouting> SimFixture::intra_;
std::unique_ptr<routing::ForwardingPlane> SimFixture::plane_;

TEST_F(SimFixture, PingResponsiveHostAnswers) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  const HostId dst = find_host(/*rr_responsive=*/true);
  Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                        topo_->host(dst).addr, 1, 1);
  const auto result = network.send(probe, vp);
  ASSERT_TRUE(result.answered());
  EXPECT_EQ(result.reply->type, net::IcmpType::kEchoReply);
  EXPECT_EQ(result.reply->src, topo_->host(dst).addr);
  EXPECT_EQ(result.reply->dst, topo_->host(vp).addr);
  EXPECT_GT(result.rtt_us, 0);
}

TEST_F(SimFixture, UnresponsiveHostSilent) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  for (const auto& host : topo_->hosts()) {
    if (!host.ping_responsive) {
      Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                            host.addr, 1, 1);
      EXPECT_FALSE(network.send(probe, vp).answered());
      return;
    }
  }
  GTEST_SKIP() << "all hosts responsive in this topology";
}

TEST_F(SimFixture, RrUnresponsiveHostAnswersPingOnly) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  const HostId dst = find_host(/*rr_responsive=*/false);
  Packet ping = net::make_echo_request(topo_->host(vp).addr,
                                       topo_->host(dst).addr, 1, 1);
  EXPECT_TRUE(network.send(ping, vp).answered());
  Packet rr_probe = ping;
  rr_probe.rr = net::RecordRouteOption{};
  EXPECT_FALSE(network.send(rr_probe, vp).answered());
}

TEST_F(SimFixture, RecordRouteAccumulatesHops) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  const HostId dst = find_host(/*rr_responsive=*/true);
  Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                        topo_->host(dst).addr, 1, 1);
  probe.rr = net::RecordRouteOption{};
  const auto result = network.send(probe, vp);
  ASSERT_TRUE(result.answered());
  ASSERT_TRUE(result.reply->rr);
  EXPECT_GT(result.reply->rr->size(), 0u);
}

TEST_F(SimFixture, NormalHostStampsItsOwnAddress) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  const HostId dst = find_host(true, topology::HostStamp::kNormal);
  Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                        topo_->host(dst).addr, 1, 1);
  probe.rr = net::RecordRouteOption{};
  const auto result = network.send(probe, vp);
  ASSERT_TRUE(result.answered());
  const auto slots = result.reply->rr->to_vector();
  // Unless the forward path ate all nine slots, the destination address
  // must appear.
  if (!result.reply->rr->full() ||
      std::find(slots.begin(), slots.end(), topo_->host(dst).addr) !=
          slots.end()) {
    EXPECT_NE(std::find(slots.begin(), slots.end(), topo_->host(dst).addr),
              slots.end());
  }
}

TEST_F(SimFixture, DoubleStampHostStampsAliasTwice) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  HostId dst;
  try {
    dst = find_host(true, topology::HostStamp::kDoubleStamp);
  } catch (const std::logic_error&) {
    GTEST_SKIP() << "no double-stamp host generated";
  }
  Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                        topo_->host(dst).addr, 1, 1);
  probe.rr = net::RecordRouteOption{};
  const auto result = network.send(probe, vp);
  ASSERT_TRUE(result.answered());
  const auto slots = result.reply->rr->to_vector();
  const auto alias = topo_->host(dst).alias;
  int adjacent_doubles = 0;
  for (std::size_t i = 0; i + 1 < slots.size(); ++i) {
    if (slots[i] == alias && slots[i + 1] == alias) ++adjacent_doubles;
  }
  if (!result.reply->rr->full()) {
    EXPECT_EQ(adjacent_doubles, 1);
    // And the probed destination address itself never appears.
    EXPECT_EQ(std::find(slots.begin(), slots.end(), topo_->host(dst).addr),
              slots.end());
  }
}

TEST_F(SimFixture, SpoofedProbeReplyArrivesAtSpoofedSource) {
  auto network = make_network();
  // Find a VP that may spoof.
  HostId spoofer = topology::kInvalidId;
  for (HostId vp : topo_->vantage_points()) {
    if (network.can_spoof(vp)) {
      spoofer = vp;
      break;
    }
  }
  ASSERT_NE(spoofer, topology::kInvalidId);
  const HostId source = topo_->vantage_points()[0] == spoofer
                            ? topo_->vantage_points()[1]
                            : topo_->vantage_points()[0];
  const HostId dst = find_host(/*rr_responsive=*/true);
  Packet probe = net::make_echo_request(topo_->host(source).addr,
                                        topo_->host(dst).addr, 1, 1);
  probe.rr = net::RecordRouteOption{};
  const auto result = network.send(probe, spoofer);
  ASSERT_TRUE(result.answered());
  // The reply lands at `source`, not at the spoofing VP.
  EXPECT_EQ(result.reply->dst, topo_->host(source).addr);
}

TEST_F(SimFixture, NonVantageHostsCannotSpoof) {
  auto network = make_network();
  const HostId ordinary = topo_->probe_hosts()[0];
  EXPECT_FALSE(network.can_spoof(ordinary));
  const HostId dst = find_host(/*rr_responsive=*/true);
  Packet probe = net::make_echo_request(net::Ipv4Addr(1, 2, 3, 4),
                                        topo_->host(dst).addr, 1, 1);
  EXPECT_FALSE(network.send(probe, ordinary).answered());
}

TEST_F(SimFixture, TtlExpiryYieldsTimeExceededFromIngressInterface) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  const HostId dst = find_host(/*rr_responsive=*/true);
  Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                        topo_->host(dst).addr, 1, 1, 2);
  const auto result = network.send(probe, vp);
  if (!result.answered()) {
    GTEST_SKIP() << "hop 2 router is traceroute-silent";
  }
  EXPECT_EQ(result.reply->type, net::IcmpType::kTimeExceeded);
  EXPECT_EQ(result.reply->quoted_dst, topo_->host(dst).addr);
  // The source must be a known interface address.
  EXPECT_TRUE(topo_->interface_at(result.reply->src).has_value());
}

TEST_F(SimFixture, TtlOneExpiresAtFirstRouter) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  const HostId dst = find_host(/*rr_responsive=*/true);
  Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                        topo_->host(dst).addr, 1, 1, 1);
  const auto result = network.send(probe, vp);
  if (!result.answered()) {
    GTEST_SKIP() << "access router is traceroute-silent";
  }
  EXPECT_EQ(result.reply->type, net::IcmpType::kTimeExceeded);
  const auto owner = topo_->interface_at(result.reply->src);
  ASSERT_TRUE(owner);
  EXPECT_EQ(owner->router, topo_->host(vp).attachment);
}

TEST_F(SimFixture, SufficientTtlDelivers) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  const HostId dst = find_host(/*rr_responsive=*/true);
  Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                        topo_->host(dst).addr, 1, 1, 64);
  const auto result = network.send(probe, vp);
  ASSERT_TRUE(result.answered());
  EXPECT_EQ(result.reply->type, net::IcmpType::kEchoReply);
}

TEST_F(SimFixture, RouterInterfaceAnswersPing) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  // Find a responsive router and probe its loopback.
  for (const auto& router : topo_->routers()) {
    if (!router.responds_ping || !router.responds_options) continue;
    if (topo_->as_node(router.asn).filters_ip_options) continue;
    Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                          router.loopback, 1, 1);
    probe.rr = net::RecordRouteOption{};
    const auto result = network.send(probe, vp);
    if (!result.answered()) continue;  // Path artifacts possible; try next.
    EXPECT_EQ(result.reply->type, net::IcmpType::kEchoReply);
    return;
  }
  FAIL() << "no router answered";
}

TEST_F(SimFixture, RepliesTraverseReversePathStamps) {
  // A spoofed RR probe from a VP near the destination must reveal hops on
  // the reverse path toward the source: slots recorded after the
  // destination's position belong to the D->S direction.
  auto network = make_network();
  HostId spoofer = topology::kInvalidId;
  for (HostId vp : topo_->vantage_points()) {
    if (network.can_spoof(vp)) spoofer = vp;
  }
  ASSERT_NE(spoofer, topology::kInvalidId);
  const HostId source = topo_->vantage_points()[0] == spoofer
                            ? topo_->vantage_points()[1]
                            : topo_->vantage_points()[0];
  // Probe a destination in the spoofer's own AS so the forward path is
  // short and reverse slots remain.
  HostId dst = topology::kInvalidId;
  for (const auto& host : topo_->hosts()) {
    if (host.asn == topo_->host(spoofer).asn && host.rr_responsive &&
        host.stamp == topology::HostStamp::kNormal && !host.is_vantage_point) {
      dst = host.id;
      break;
    }
  }
  if (dst == topology::kInvalidId) GTEST_SKIP() << "no in-AS destination";
  Packet probe = net::make_echo_request(topo_->host(source).addr,
                                        topo_->host(dst).addr, 1, 1);
  probe.rr = net::RecordRouteOption{};
  const auto result = network.send(probe, spoofer);
  ASSERT_TRUE(result.answered());
  const auto slots = result.reply->rr->to_vector();
  const auto dst_it =
      std::find(slots.begin(), slots.end(), topo_->host(dst).addr);
  ASSERT_NE(dst_it, slots.end()) << "destination did not stamp";
  EXPECT_GT(slots.end() - dst_it, 1) << "no reverse hops revealed";
}

TEST_F(SimFixture, OptionFilteringAsDropsRrProbes) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  for (const auto& host : topo_->hosts()) {
    if (!topo_->as_node(host.asn).filters_ip_options) continue;
    if (!host.ping_responsive) continue;
    Packet ping = net::make_echo_request(topo_->host(vp).addr, host.addr,
                                         1, 1);
    const auto plain = network.send(ping, vp);
    Packet rr_probe = ping;
    rr_probe.rr = net::RecordRouteOption{};
    const auto with_options = network.send(rr_probe, vp);
    EXPECT_FALSE(with_options.answered());
    (void)plain;  // Plain ping may or may not succeed; options never do.
    return;
  }
  GTEST_SKIP() << "no option-filtering AS generated";
}

TEST_F(SimFixture, TimestampPrespecStampsInOrder) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  const HostId dst = find_host(/*rr_responsive=*/true);
  // First discover the path with RR to learn an on-path router address.
  Packet rr_probe = net::make_echo_request(topo_->host(vp).addr,
                                           topo_->host(dst).addr, 1, 1);
  rr_probe.rr = net::RecordRouteOption{};
  const auto rr_result = network.send(rr_probe, vp);
  ASSERT_TRUE(rr_result.answered());
  const auto slots = rr_result.reply->rr->to_vector();
  net::Ipv4Addr on_path;
  for (const auto addr : slots) {
    if (topo_->interface_at(addr)) {
      on_path = addr;
      break;
    }
  }
  if (on_path.is_unspecified()) GTEST_SKIP() << "no mappable RR hop";

  const net::Ipv4Addr prespec[] = {on_path};
  Packet ts_probe = net::make_echo_request(topo_->host(vp).addr,
                                           topo_->host(dst).addr, 1, 2);
  ts_probe.ts = net::TimestampOption::prespecified(prespec);
  const auto ts_result = network.send(ts_probe, vp);
  if (!ts_result.answered()) GTEST_SKIP() << "destination drops TS";
  ASSERT_TRUE(ts_result.reply->ts);
  EXPECT_TRUE(ts_result.reply->ts->stamped(0));
}

TEST_F(SimFixture, DeterministicReplay) {
  const HostId vp = topo_->vantage_points()[0];
  const HostId dst = find_host(/*rr_responsive=*/true);
  Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                        topo_->host(dst).addr, 1, 1);
  probe.rr = net::RecordRouteOption{};
  auto n1 = make_network();
  auto n2 = make_network();
  const auto r1 = n1.send(probe, vp);
  const auto r2 = n2.send(probe, vp);
  ASSERT_EQ(r1.answered(), r2.answered());
  if (r1.answered()) {
    EXPECT_EQ(r1.reply->rr->to_vector(), r2.reply->rr->to_vector());
    EXPECT_EQ(r1.rtt_us, r2.rtt_us);
  }
}

TEST_F(SimFixture, PacketsForwardedGrows) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  const HostId dst = find_host(/*rr_responsive=*/true);
  const auto before = network.packets_forwarded();
  Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                        topo_->host(dst).addr, 1, 1);
  network.send(probe, vp);
  EXPECT_GT(network.packets_forwarded(), before);
  EXPECT_EQ(network.probes_injected(), 1u);
}

// --- Exactness pin ---------------------------------------------------------
// A fixed probe mix over the fixture topology, reduced to one digest of every
// observable outcome. Work on the forwarding path must leave the digests
// below untouched: the simulator's outputs are part of every measurement.

struct MixProbe {
  Packet packet;
  HostId sender = topology::kInvalidId;
};

// Every kind of address a probe can be aimed at: host addresses and the
// aliases some hosts stamp (loopbacks in infrastructure space), router
// loopbacks, both ends of interdomain /30s, gateways, an unowned address
// inside an announced prefix, and private space.
std::vector<Ipv4Addr> pinned_targets(const Topology& topo) {
  std::vector<Ipv4Addr> targets;
  std::size_t aliases = 0;
  for (const auto& host : topo.hosts()) {
    if (host.id % 29 == 0) targets.push_back(host.addr);
    if (!host.alias.is_unspecified() && aliases < 16) {
      targets.push_back(host.alias);
      ++aliases;
    }
    if (host.id % 97 == 5) {
      if (const auto prefix = topo.prefix_of(host.addr)) {
        if (const auto gw = topo.gateway_addr(host.attachment, *prefix)) {
          targets.push_back(*gw);
        }
      }
    }
  }
  for (const auto& router : topo.routers()) {
    if (router.id % 23 == 0) targets.push_back(router.loopback);
  }
  std::size_t interdomain = 0;
  for (const auto& link : topo.links()) {
    if (!link.interdomain || interdomain++ % 9 != 0) continue;
    targets.push_back(link.addr_a);
    targets.push_back(link.addr_b);
  }
  std::size_t unowned = 0;
  for (const auto& prefix : topo.prefixes()) {
    if (prefix.id % 31 != 0) continue;
    const Ipv4Addr addr = prefix.prefix.at(prefix.prefix.size() - 3);
    if (!topo.host_at(addr) && !topo.interface_at(addr)) {
      targets.push_back(addr);
      ++unowned;
    }
  }
  EXPECT_GT(unowned, 0u);
  for (const auto& router : topo.routers()) {
    if (!router.private_alias.is_unspecified()) {
      targets.push_back(router.private_alias);
      break;
    }
  }
  targets.push_back(Ipv4Addr(192, 168, 1, 1));
  return targets;
}

// Senders: a few vantage points (which may spoof) plus ordinary hosts in
// option-filtering and source-sensitive ASes.
std::vector<HostId> pinned_senders(const Topology& topo) {
  const auto vps = topo.vantage_points();
  std::vector<HostId> senders(vps.begin(), vps.begin() + 4);
  std::size_t filtering = 0;
  std::size_t sensitive = 0;
  for (const auto& host : topo.hosts()) {
    if (host.is_vantage_point || host.is_probe_host) continue;
    const auto& node = topo.as_node(host.asn);
    if (node.filters_ip_options && filtering < 2 && host.id % 5 == 0) {
      senders.push_back(host.id);
      ++filtering;
    } else if (node.source_sensitive && sensitive < 3 && host.id % 5 == 0) {
      senders.push_back(host.id);
      ++sensitive;
    }
  }
  EXPECT_EQ(filtering, 2u);
  EXPECT_EQ(sensitive, 3u);
  return senders;
}

// Each (sender, target) pair gets a ping, an RR ping, a spoofed RR ping
// (sourced at another vantage point), a TS-prespec ping and a TTL-limited
// probe; the TTL-limited ones alternate between plain and RR-carrying.
std::vector<MixProbe> pinned_mix(const Topology& topo) {
  const auto targets = pinned_targets(topo);
  const auto senders = pinned_senders(topo);
  const auto vps = topo.vantage_points();
  std::vector<MixProbe> mix;
  std::uint16_t id = 0;
  for (const HostId sender : senders) {
    const Ipv4Addr own = topo.host(sender).addr;
    const Ipv4Addr victim =
        topo.host(vps[0] == sender ? vps[1] : vps[0]).addr;
    for (std::size_t t = 0; t < targets.size(); ++t) {
      const Ipv4Addr target = targets[t];
      ++id;
      mix.push_back({net::make_echo_request(own, target, id, 1), sender});

      Packet rr = net::make_echo_request(own, target, id, 2);
      rr.rr = net::RecordRouteOption{};
      mix.push_back({rr, sender});

      Packet spoofed = net::make_echo_request(victim, target, id, 3);
      spoofed.rr = net::RecordRouteOption{};
      mix.push_back({spoofed, sender});

      const Ipv4Addr prespec[] = {target,
                                  targets[(t * 7 + 3) % targets.size()]};
      Packet ts = net::make_echo_request(own, target, id, 4);
      ts.ts = net::TimestampOption::prespecified(prespec);
      mix.push_back({ts, sender});

      Packet limited = net::make_echo_request(
          own, target, id, 5, static_cast<std::uint8_t>(1 + t % 9));
      if (t % 2 == 1) limited.rr = net::RecordRouteOption{};
      mix.push_back({limited, sender});
    }
  }
  return mix;
}

struct MixDigest {
  std::uint64_t digest = 0;
  std::size_t answered = 0;
  std::size_t time_exceeded = 0;
  std::size_t rr_slots = 0;
  std::size_t ts_stamps = 0;
};

// Sends the mix in order and folds (answered, reply src/dst/type, quoted
// destination, RR slots, TS entries, rtt) of every probe, then the hop count.
MixDigest run_mix(Network& network, std::span<const MixProbe> mix) {
  MixDigest out;
  const auto fold = [&out](std::uint64_t value) {
    out.digest = util::mix_hash(out.digest, value, 0x5e4dULL);
  };
  for (const auto& probe : mix) {
    const auto result = network.send(probe.packet, probe.sender);
    fold(result.answered() ? 1 : 0);
    if (!result.answered()) continue;
    ++out.answered;
    const Packet& reply = *result.reply;
    fold(reply.src.value());
    fold(reply.dst.value());
    fold(static_cast<std::uint64_t>(reply.type));
    fold(reply.quoted_dst.value());
    fold(static_cast<std::uint64_t>(result.rtt_us));
    if (reply.type == net::IcmpType::kTimeExceeded) ++out.time_exceeded;
    if (reply.rr) {
      fold(reply.rr->entries().size());
      for (const Ipv4Addr slot : reply.rr->entries()) fold(slot.value());
      out.rr_slots += reply.rr->entries().size();
    }
    if (reply.ts) {
      for (const auto& entry : reply.ts->entries()) {
        fold(entry.addr.value());
        fold(entry.stamped ? 1 : 0);
        fold(entry.timestamp);
        if (entry.stamped) ++out.ts_stamps;
      }
    }
  }
  fold(network.packets_forwarded());
  return out;
}

// Digests of the mix at loss 0 and at loss 0.2, both from network seed 3.
constexpr std::uint64_t kPinnedDigest = 0xa059067e6f5d4efeULL;
constexpr std::uint64_t kPinnedLossyDigest = 0xa8d83d9f8c589bfdULL;

class SimNetwork : public SimFixture {};

TEST_F(SimNetwork, SendOutcomesArePinned) {
  const auto mix = pinned_mix(*topo_);
  auto network = make_network();
  const MixDigest clean = run_mix(network, mix);
  // The mix must exercise what it pins: echo replies, TTL expiry, recorded
  // routes and prespecified timestamps.
  EXPECT_GT(clean.answered, mix.size() / 4);
  EXPECT_GT(clean.time_exceeded, 100u);
  EXPECT_GT(clean.rr_slots, 1000u);
  EXPECT_GT(clean.ts_stamps, 100u);
  EXPECT_EQ(clean.digest, kPinnedDigest) << std::hex << clean.digest;

  auto lossy = make_network();
  lossy.set_loss_rate(0.2);
  const MixDigest lossy_run = run_mix(lossy, mix);
  EXPECT_LT(lossy_run.answered, clean.answered);
  EXPECT_EQ(lossy_run.digest, kPinnedLossyDigest) << std::hex
                                                  << lossy_run.digest;
}

// Workers share one Topology and ForwardingPlane and own their Network
// copies. Every per-pass cache lives on the sending thread's stack, so four
// threads sending the pinned mix at once (over routing tables they also
// fill on first use) must each get the single-threaded digest.
TEST(SimNetworkConcurrency, SharedPlaneSendsMatchThePinnedDigest) {
  const Topology topo = TopologyBuilder::build(small_config());
  const routing::BgpTable bgp(topo);
  const routing::IntraRouting intra(topo);
  const routing::ForwardingPlane plane(topo, bgp, intra);
  const auto mix = pinned_mix(topo);
  const Network prototype(topo, plane, 3);

  std::array<std::uint64_t, 4> digests{};
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < digests.size(); ++t) {
      threads.emplace_back([&, t] {
        Network network = prototype;
        digests[t] = run_mix(network, mix).digest;
      });
    }
  }
  for (const std::uint64_t digest : digests) {
    EXPECT_EQ(digest, kPinnedDigest) << std::hex << digest;
  }
}

}  // namespace
}  // namespace revtr::sim

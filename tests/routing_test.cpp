#include <gtest/gtest.h>
#include <memory>

#include <algorithm>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "routing/bgp.h"
#include "routing/forwarding.h"
#include "routing/intra.h"
#include "topology/builder.h"

namespace revtr::routing {
namespace {

using topology::AsIndex;
using topology::Asn;
using topology::AsTier;
using topology::Topology;
using topology::TopologyBuilder;
using topology::TopologyConfig;

TopologyConfig small_config() {
  TopologyConfig config;
  config.seed = 11;
  config.num_ases = 150;
  config.num_vps = 8;
  config.num_vps_2016 = 4;
  config.num_probe_hosts = 20;
  return config;
}

class RoutingFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = std::make_unique<Topology>(TopologyBuilder::build(small_config()));
    bgp_ = std::make_unique<BgpTable>(*topo_);
    intra_ = std::make_unique<IntraRouting>(*topo_);
    plane_ = std::make_unique<ForwardingPlane>(*topo_, *bgp_, *intra_);
  }
  static void TearDownTestSuite() {
    plane_.reset();
    intra_.reset();
    bgp_.reset();
    topo_.reset();
  }

  static std::unique_ptr<Topology> topo_;
  static std::unique_ptr<BgpTable> bgp_;
  static std::unique_ptr<IntraRouting> intra_;
  static std::unique_ptr<ForwardingPlane> plane_;
};

std::unique_ptr<Topology> RoutingFixture::topo_;
std::unique_ptr<BgpTable> RoutingFixture::bgp_;
std::unique_ptr<IntraRouting> RoutingFixture::intra_;
std::unique_ptr<ForwardingPlane> RoutingFixture::plane_;

// --------------------------------------------------------------------------
// BGP
// --------------------------------------------------------------------------

TEST_F(RoutingFixture, EveryAsReachesEveryDestination) {
  // Sample destinations; full n^2 would be slow in a unit test.
  for (AsIndex dest = 0; dest < topo_->num_ases(); dest += 17) {
    const auto& column = bgp_->column(dest);
    for (AsIndex from = 0; from < topo_->num_ases(); ++from) {
      if (from == dest) continue;
      EXPECT_NE(column.next[from], 0u)
          << "AS " << topo_->as_at(from).asn << " cannot reach AS "
          << topo_->as_at(dest).asn;
    }
  }
}

TEST_F(RoutingFixture, NextHopIsAnActualNeighbor) {
  const AsIndex dest = 3;
  const auto& column = bgp_->column(dest);
  for (AsIndex from = 0; from < topo_->num_ases(); ++from) {
    if (from == dest) continue;
    const Asn next = column.next[from];
    const auto& node = topo_->as_at(from);
    const bool neighbor =
        std::find(node.providers.begin(), node.providers.end(), next) !=
            node.providers.end() ||
        std::find(node.customers.begin(), node.customers.end(), next) !=
            node.customers.end() ||
        std::find(node.peers.begin(), node.peers.end(), next) !=
            node.peers.end();
    EXPECT_TRUE(neighbor) << "AS " << node.asn << " -> " << next;
  }
}

TEST_F(RoutingFixture, AsPathsAreLoopFree) {
  for (AsIndex dest = 0; dest < topo_->num_ases(); dest += 13) {
    for (AsIndex from = 0; from < topo_->num_ases(); from += 7) {
      const auto path = bgp_->as_path(from, dest);
      ASSERT_FALSE(path.empty());
      std::set<Asn> unique(path.begin(), path.end());
      EXPECT_EQ(unique.size(), path.size()) << "loop in AS path";
      EXPECT_EQ(path.front(), topo_->as_at(from).asn);
      EXPECT_EQ(path.back(), topo_->as_at(dest).asn);
    }
  }
}

TEST_F(RoutingFixture, PathLengthsConsistentWithNextHops) {
  const AsIndex dest = 5;
  const auto& column = bgp_->column(dest);
  for (AsIndex from = 0; from < topo_->num_ases(); ++from) {
    if (from == dest) continue;
    const auto path = bgp_->as_path(from, dest);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.size(), column.path_len[from] + 1u);
  }
}

TEST_F(RoutingFixture, ValleyFreePaths) {
  // Gao-Rexford: once a path goes from provider-to-customer (down) or
  // across a peer link, it must keep going down.
  auto relationship = [&](Asn from, Asn to) -> int {
    const auto& node = topo_->as_node(from);
    if (std::find(node.customers.begin(), node.customers.end(), to) !=
        node.customers.end()) {
      return -1;  // down
    }
    if (std::find(node.peers.begin(), node.peers.end(), to) !=
        node.peers.end()) {
      return 0;  // across
    }
    return 1;  // up
  };
  for (AsIndex dest = 0; dest < topo_->num_ases(); dest += 29) {
    for (AsIndex from = 0; from < topo_->num_ases(); from += 11) {
      const auto path = bgp_->as_path(from, dest);
      ASSERT_FALSE(path.empty());
      bool descending = false;
      int peer_links = 0;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const int rel = relationship(path[i], path[i + 1]);
        if (rel == 0) ++peer_links;
        if (descending) {
          EXPECT_EQ(rel, -1) << "valley in path";
        }
        if (rel <= 0) descending = true;
      }
      EXPECT_LE(peer_links, 1) << "multiple peer links in path";
    }
  }
}

TEST_F(RoutingFixture, AltRoutesShareClassAndLength) {
  const AsIndex dest = 2;
  const auto& column = bgp_->column(dest);
  for (AsIndex from = 0; from < topo_->num_ases(); ++from) {
    if (column.alt[from] == 0) continue;
    EXPECT_NE(column.alt[from], column.next[from]);
  }
}

TEST_F(RoutingFixture, ColumnsAreLazilyCachedAndStable) {
  const std::size_t before = bgp_->computed_columns();
  const auto& col1 = bgp_->column(9);
  const auto& col2 = bgp_->column(9);
  EXPECT_EQ(&col1, &col2);
  EXPECT_GE(bgp_->computed_columns(), before);
}

TEST_F(RoutingFixture, SomePathsAreAsymmetric) {
  // The directional tiebreak must produce asymmetric AS routes; this is the
  // structural basis of the paper's §6.2 study.
  std::size_t asymmetric = 0, total = 0;
  for (AsIndex a = 0; a < topo_->num_ases(); a += 5) {
    for (AsIndex b = a + 3; b < topo_->num_ases(); b += 17) {
      auto forward = bgp_->as_path(a, b);
      auto backward = bgp_->as_path(b, a);
      std::reverse(backward.begin(), backward.end());
      ++total;
      if (forward != backward) ++asymmetric;
    }
  }
  ASSERT_GT(total, 50u);
  EXPECT_GT(asymmetric, total / 10);  // Plenty of asymmetry...
  EXPECT_LT(asymmetric, total);       // ...but not universal.
}

// --------------------------------------------------------------------------
// Intra-AS routing
// --------------------------------------------------------------------------

TEST_F(RoutingFixture, IntraNextHopsReachEveryPair) {
  for (const auto& node : topo_->ases()) {
    for (auto from : node.routers) {
      for (auto to : node.routers) {
        if (from == to) {
          EXPECT_EQ(intra_->distance(from, to), 0);
          continue;
        }
        const auto hops = intra_->next_hops(from, to);
        ASSERT_TRUE(hops.reachable())
            << "AS " << node.asn << ": " << from << " -> " << to;
        // The next hop must make progress.
        const auto next = topo_->far_end(from, hops.primary);
        EXPECT_EQ(intra_->distance(next, to) + 1, intra_->distance(from, to));
      }
    }
    if (node.asn > 40) break;  // Sampling is enough.
  }
}

TEST_F(RoutingFixture, IntraDistanceSymmetric) {
  const auto& node = topo_->as_at(0);
  for (auto a : node.routers) {
    for (auto b : node.routers) {
      EXPECT_EQ(intra_->distance(a, b), intra_->distance(b, a));
    }
  }
}

TEST_F(RoutingFixture, IntraEcmpAlternateAlsoShortest) {
  std::size_t checked = 0;
  for (const auto& node : topo_->ases()) {
    for (auto from : node.routers) {
      for (auto to : node.routers) {
        if (from == to) continue;
        const auto hops = intra_->next_hops(from, to);
        if (!hops.has_ecmp()) continue;
        const auto via_primary = topo_->far_end(from, hops.primary);
        const auto via_alt = topo_->far_end(from, hops.alternate);
        EXPECT_EQ(intra_->distance(via_primary, to),
                  intra_->distance(via_alt, to));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u) << "topology has no ECMP at all";
}

TEST_F(RoutingFixture, CrossAsIntraQueriesRejected) {
  const auto& a = topo_->as_at(0);
  const auto& b = topo_->as_at(1);
  EXPECT_FALSE(intra_->next_hops(a.routers[0], b.routers[0]).reachable());
}

// --------------------------------------------------------------------------
// Forwarding plane
// --------------------------------------------------------------------------

PacketContext context_for(const Topology& topo, topology::HostId from,
                          net::Ipv4Addr dst, bool options = false) {
  PacketContext ctx;
  ctx.src = topo.host(from).addr;
  ctx.dst = dst;
  ctx.flow_key = 42;
  ctx.has_options = options;
  ctx.packet_salt = 7;
  return ctx;
}

TEST_F(RoutingFixture, WalkReachesRemoteHost) {
  const auto src_host = topo_->vantage_points()[0];
  const auto dst_host = topo_->probe_hosts()[0];
  const auto ctx =
      context_for(*topo_, src_host, topo_->host(dst_host).addr);
  auto current = plane_->origin_router(src_host);
  for (int hop = 0; hop < 80; ++hop) {
    const auto decision = plane_->decide(current, ctx);
    ASSERT_NE(decision.kind, Decision::Kind::kDrop);
    if (decision.kind == Decision::Kind::kDeliverHost) {
      EXPECT_EQ(decision.host, dst_host);
      return;
    }
    ASSERT_EQ(decision.kind, Decision::Kind::kForwardLink);
    current = decision.next_router;
  }
  FAIL() << "forwarding loop";
}

TEST_F(RoutingFixture, WalkReachesRouterInterface) {
  // Probe a /30 interface address of some interdomain link.
  const auto& link = [&]() -> const topology::Link& {
    for (const auto& l : topo_->links()) {
      if (l.interdomain) return l;
    }
    throw std::logic_error("no interdomain link");
  }();
  const auto src_host = topo_->vantage_points()[0];
  const auto ctx = context_for(*topo_, src_host, link.addr_a);
  auto current = plane_->origin_router(src_host);
  for (int hop = 0; hop < 80; ++hop) {
    const auto decision = plane_->decide(current, ctx);
    ASSERT_NE(decision.kind, Decision::Kind::kDrop) << "hop " << hop;
    if (decision.kind == Decision::Kind::kDeliverRouter) {
      EXPECT_EQ(current, link.router_a);
      return;
    }
    ASSERT_EQ(decision.kind, Decision::Kind::kForwardLink);
    current = decision.next_router;
  }
  FAIL() << "forwarding loop";
}

TEST_F(RoutingFixture, PrivateAddressesUnroutable) {
  const auto src_host = topo_->vantage_points()[0];
  const auto ctx =
      context_for(*topo_, src_host, net::Ipv4Addr(10, 1, 2, 3));
  const auto decision =
      plane_->decide(plane_->origin_router(src_host), ctx);
  EXPECT_EQ(decision.kind, Decision::Kind::kDrop);
}

TEST_F(RoutingFixture, AsLevelRouteMatchesWalk) {
  const auto src_host = topo_->vantage_points()[1];
  const auto dst_host = topo_->probe_hosts()[1];
  const auto src_as = topo_->index_of(topo_->host(src_host).asn);
  const auto dst_as = topo_->index_of(topo_->host(dst_host).asn);
  const auto route = plane_->as_level_route(
      src_as, dst_as, topo_->host(src_host).addr, topo_->host(dst_host).addr);
  ASSERT_FALSE(route.empty());
  EXPECT_EQ(route.front(), topo_->host(src_host).asn);
  EXPECT_EQ(route.back(), topo_->host(dst_host).asn);

  // Walk the forwarding plane and collect the AS sequence.
  const auto ctx =
      context_for(*topo_, src_host, topo_->host(dst_host).addr);
  auto current = plane_->origin_router(src_host);
  std::vector<Asn> walked = {topo_->router(current).asn};
  for (int hop = 0; hop < 80; ++hop) {
    const auto decision = plane_->decide(current, ctx);
    if (decision.kind != Decision::Kind::kForwardLink) break;
    current = decision.next_router;
    if (topo_->router(current).asn != walked.back()) {
      walked.push_back(topo_->router(current).asn);
    }
  }
  EXPECT_EQ(route, walked);
}

TEST_F(RoutingFixture, SourceSensitivityOnlyAffectsFlaggedAses) {
  // For a non-source-sensitive AS the next hop must not depend on src.
  const AsIndex dest = 4;
  for (AsIndex from = 0; from < topo_->num_ases(); ++from) {
    if (from == dest) continue;
    const auto& node = topo_->as_at(from);
    if (node.source_sensitive) continue;
    // decide() is deterministic given ctx; vary src and verify stability via
    // as_level_route, which applies the same policy.
    const auto r1 = plane_->as_level_route(from, dest, net::Ipv4Addr(1, 0, 0, 1),
                                           net::Ipv4Addr(2, 0, 0, 2));
    const auto r2 = plane_->as_level_route(from, dest, net::Ipv4Addr(9, 9, 9, 9),
                                           net::Ipv4Addr(2, 0, 0, 2));
    if (r1.empty() || r2.empty()) continue;
    EXPECT_EQ(r1.front(), r2.front());
    if (topo_->as_node(r1[std::min<std::size_t>(1, r1.size() - 1)])
            .source_sensitive) {
      continue;  // Downstream AS may deviate; only check the first hop.
    }
    ASSERT_GE(r1.size(), 2u);
    ASSERT_GE(r2.size(), 2u);
    EXPECT_EQ(r1[1], r2[1]) << "AS " << node.asn;
  }
}

// --------------------------------------------------------------------------
// Concurrent first use
// --------------------------------------------------------------------------

// Every BGP column and intra-AS matrix is filled on first use; many threads
// may race to fill one. Each must see the table a single thread computes.
TEST(RoutingConcurrency, FirstUseFromManyThreadsMatchesSerial) {
  TopologyConfig config = small_config();
  config.num_ases = 300;
  const Topology topo = TopologyBuilder::build(config);
  const BgpTable serial_bgp(topo);
  const IntraRouting serial_intra(topo);
  const BgpTable bgp(topo);
  const IntraRouting intra(topo);

  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        std::vector<AsIndex> order(topo.num_ases());
        for (AsIndex as = 0; as < order.size(); ++as) order[as] = as;
        std::shuffle(order.begin(), order.end(), std::mt19937(t + 1));
        for (const AsIndex as : order) {
          bgp.column(as);
          const auto& routers = topo.as_at(as).routers;
          intra.distance(routers.front(), routers.back());
        }
      });
    }
  }

  EXPECT_EQ(bgp.computed_columns(), topo.num_ases());
  for (AsIndex dest = 0; dest < topo.num_ases(); ++dest) {
    const auto& got = bgp.column(dest);
    const auto& want = serial_bgp.column(dest);
    EXPECT_EQ(got.next, want.next) << "dest " << dest;
    EXPECT_EQ(got.alt, want.alt) << "dest " << dest;
    EXPECT_EQ(got.path_len, want.path_len) << "dest " << dest;
    EXPECT_EQ(got.route_class, want.route_class) << "dest " << dest;
  }
  for (const auto& node : topo.ases()) {
    for (const auto from : node.routers) {
      for (const auto to : node.routers) {
        const auto got = intra.next_hops(from, to);
        const auto want = serial_intra.next_hops(from, to);
        EXPECT_EQ(got.primary, want.primary);
        EXPECT_EQ(got.alternate, want.alternate);
        EXPECT_EQ(intra.distance(from, to), serial_intra.distance(from, to));
      }
    }
  }
}

// --------------------------------------------------------------------------
// Destination resolution
// --------------------------------------------------------------------------

// What resolve() answered before it read the topology's per-address
// records: interface and host maps plus a prefix-trie walk.
ResolvedDst trie_resolve(const Topology& topo, net::Ipv4Addr addr) {
  ResolvedDst resolved;
  resolved.iface = topo.interface_at(addr);
  resolved.prefix = topo.prefix_of(addr);
  if (resolved.prefix) {
    resolved.dest_asn = topo.prefix(*resolved.prefix).origin;
    resolved.dest_as = topo.index_of(resolved.dest_asn);
    resolved.host = topo.host_at(addr);
  }
  return resolved;
}

void expect_same_resolution(const ResolvedDst& got, const ResolvedDst& want,
                            net::Ipv4Addr addr) {
  SCOPED_TRACE(addr.to_string());
  ASSERT_EQ(got.iface.has_value(), want.iface.has_value());
  if (got.iface) {
    EXPECT_EQ(got.iface->router, want.iface->router);
    EXPECT_EQ(got.iface->link, want.iface->link);
  }
  EXPECT_EQ(got.prefix, want.prefix);
  EXPECT_EQ(got.dest_asn, want.dest_asn);
  EXPECT_EQ(got.dest_as, want.dest_as);
  EXPECT_EQ(got.host, want.host);
}

// Every address the topology owns resolves from build-time records; each
// record must hold the match of its own address. A host's alias is a
// loopback in infrastructure space: its match is not the host's prefix.
TEST(ForwardingPlane, ResolveMatchesTrieForEveryOwnedAddress) {
  const Topology topo = TopologyBuilder::build(small_config());
  const BgpTable bgp(topo);
  const IntraRouting intra(topo);
  const ForwardingPlane plane(topo, bgp, intra);

  std::size_t checked = 0;
  std::size_t aliases_outside_host_prefix = 0;
  for (const auto& host : topo.hosts()) {
    expect_same_resolution(plane.resolve(host.addr),
                           trie_resolve(topo, host.addr), host.addr);
    ++checked;
    if (host.alias.is_unspecified()) continue;
    const ResolvedDst alias = plane.resolve(host.alias);
    expect_same_resolution(alias, trie_resolve(topo, host.alias), host.alias);
    EXPECT_EQ(alias.host, host.id);
    if (alias.prefix != topo.prefix_of(host.addr)) {
      ++aliases_outside_host_prefix;
    }
    ++checked;
  }
  EXPECT_GT(aliases_outside_host_prefix, 0u);
  for (const auto& router : topo.routers()) {
    // Loopback, private alias, both-end /30 interfaces and gateways.
    for (const net::Ipv4Addr addr : topo.router_addresses(router.id)) {
      const ResolvedDst got = plane.resolve(addr);
      expect_same_resolution(got, trie_resolve(topo, addr), addr);
      ASSERT_TRUE(got.iface.has_value());
      EXPECT_EQ(got.iface->router, router.id);
      ++checked;
    }
  }
  // Addresses nobody owns still take the trie: inside announced prefixes
  // and in unannounced space.
  for (const auto& prefix : topo.prefixes()) {
    const net::Ipv4Addr last = prefix.prefix.at(prefix.prefix.size() - 1);
    expect_same_resolution(plane.resolve(last), trie_resolve(topo, last),
                           last);
  }
  const net::Ipv4Addr unannounced(192, 168, 7, 9);
  expect_same_resolution(plane.resolve(unannounced),
                         trie_resolve(topo, unannounced), unannounced);
  EXPECT_FALSE(plane.resolve(unannounced).prefix.has_value());
  EXPECT_GT(checked, topo.num_hosts() + topo.num_routers());
}

}  // namespace
}  // namespace revtr::routing

#include "sim/network.h"

namespace revtr::sim {

namespace {
using net::Ipv4Addr;
using net::Packet;
using topology::HostId;
using topology::HostStamp;
using topology::kInvalidId;
using topology::Router;
using topology::RouterId;
using topology::RrStampPolicy;
}  // namespace

Network::Network(const topology::Topology& topo,
                 const routing::ForwardingPlane& plane, std::uint64_t seed)
    : topo_(topo), plane_(plane), rng_(seed), salt_seed_(seed) {}

bool Network::can_spoof(HostId sender) const {
  const auto& host = topo_.host(sender);
  return host.is_vantage_point &&
         topo_.as_node(host.asn).allows_spoofed_egress;
}

std::vector<RouterId> Network::ground_truth_path(Ipv4Addr from, Ipv4Addr to,
                                                 std::uint64_t salt,
                                                 bool has_options) const {
  std::vector<RouterId> path;
  RouterId current = kInvalidId;
  if (const auto host = topo_.host_at(from)) {
    current = topo_.host(*host).attachment;
  } else if (const auto iface = topo_.interface_at(from)) {
    current = iface->router;
  } else {
    return path;
  }

  routing::PacketContext ctx;
  ctx.src = from;
  ctx.dst = to;
  ctx.flow_key = salt;
  ctx.has_options = has_options;
  ctx.packet_salt = salt * 0x9e3779b97f4a7c15ULL + 1;

  const auto resolved = plane_.resolve(ctx.dst);
  for (int hop = 0; hop < kHopLimit; ++hop) {
    path.push_back(current);
    const auto decision = plane_.decide(current, ctx, resolved);
    switch (decision.kind) {
      case routing::Decision::Kind::kForwardLink:
        current = decision.next_router;
        break;
      case routing::Decision::Kind::kDeliverHost:
      case routing::Decision::Kind::kDeliverRouter:
      case routing::Decision::Kind::kDrop:
        return path;
    }
  }
  return path;  // Hop limit: forwarding loop; callers see the repetition.
}

void Network::stamp_rr(Packet& packet, const Router& router,
                       Ipv4Addr arrival_addr, Ipv4Addr egress_addr) const {
  if (!packet.rr || packet.rr->full()) return;
  switch (router.rr_policy) {
    case RrStampPolicy::kEgress:
      packet.rr->stamp(egress_addr);
      break;
    case RrStampPolicy::kIngress:
      packet.rr->stamp(arrival_addr);
      break;
    case RrStampPolicy::kLoopback:
      packet.rr->stamp(router.loopback);
      break;
    case RrStampPolicy::kPrivate:
      packet.rr->stamp(router.private_alias);
      break;
    case RrStampPolicy::kNoStamp:
      break;
  }
}

void Network::stamp_ts(Packet& packet, const Router& router,
                       util::SimClock::Micros elapsed) const {
  if (!packet.ts) return;
  const auto pending = packet.ts->next_pending();
  if (!pending) return;
  const Ipv4Addr wanted = packet.ts->entries()[*pending].addr;
  const auto owner = topo_.interface_at(wanted);
  if (owner && owner->router == router.id) {
    packet.ts->try_stamp(wanted,
                         static_cast<std::uint32_t>(elapsed / 1000));
  }
}

std::optional<Packet> Network::host_response(
    const Packet& request, const topology::Host& host) const {
  if (request.type != net::IcmpType::kEchoRequest) return std::nullopt;
  if (request.has_options() ? !host.rr_responsive : !host.ping_responsive) {
    return std::nullopt;
  }
  Packet reply = net::make_echo_reply(request, host.addr);
  if (reply.rr && !reply.rr->full()) {
    switch (host.stamp) {
      case HostStamp::kNormal:
        reply.rr->stamp(host.addr);
        break;
      case HostStamp::kNoStamp:
        break;
      case HostStamp::kDoubleStamp:
        reply.rr->stamp(host.alias);
        reply.rr->stamp(host.alias);
        break;
      case HostStamp::kAliasStamp:
        reply.rr->stamp(host.alias);
        break;
    }
  }
  if (reply.ts) {
    // The destination host participates in tsprespec like a router would.
    auto pending = reply.ts->next_pending();
    if (pending && (reply.ts->entries()[*pending].addr == host.addr ||
                    reply.ts->entries()[*pending].addr == host.alias)) {
      reply.ts->try_stamp(reply.ts->entries()[*pending].addr, 0);
    }
  }
  return reply;
}

std::optional<Packet> Network::router_response(const Packet& request,
                                               const Router& router) const {
  if (request.type != net::IcmpType::kEchoRequest) return std::nullopt;
  if (request.has_options() ? !router.responds_options
                            : !router.responds_ping) {
    return std::nullopt;
  }
  Packet reply = net::make_echo_reply(request, request.dst);
  if (reply.rr && !reply.rr->full()) {
    switch (router.rr_policy) {
      case RrStampPolicy::kEgress:
      case RrStampPolicy::kIngress:
        reply.rr->stamp(request.dst);  // Replies are sourced from the
        break;                         // probed interface.
      case RrStampPolicy::kLoopback:
        reply.rr->stamp(router.loopback);
        break;
      case RrStampPolicy::kPrivate:
        reply.rr->stamp(router.private_alias);
        break;
      case RrStampPolicy::kNoStamp:
        break;
    }
  }
  if (reply.ts) {
    auto pending = reply.ts->next_pending();
    if (pending) {
      const Ipv4Addr wanted = reply.ts->entries()[*pending].addr;
      const auto owner = topo_.interface_at(wanted);
      if (owner && owner->router == router.id) {
        reply.ts->try_stamp(wanted, 0);
      }
    }
  }
  return reply;
}

void Network::forward_pass(Packet packet, RouterId origin,
                           Ipv4Addr arrival_addr, bool origin_emits,
                           PassResult& result) {
  result.reset();
  RouterId current = origin;
  routing::PacketContext ctx;
  ctx.src = packet.src;
  ctx.dst = packet.dst;
  ctx.flow_key = packet.flow_key();
  ctx.has_options = packet.has_options();
  // Per-packet balancing salt for optioned (slow-path) packets. This is a
  // pure function of the flow endpoints and the option kind — NOT a draw
  // from rng_ — so a probe's path depends only on the probe itself, never
  // on how many packets this Network forwarded before it. That content
  // addressing is what lets parallel campaign workers share RR/traceroute
  // caches without cache hits perturbing later measurements (DESIGN.md §8).
  ctx.packet_salt = util::mix_hash(
      salt_seed_,
      (std::uint64_t{packet.src.value()} << 32) ^ packet.dst.value(),
      packet.rr.has_value() ? 0x5252ULL : (packet.ts ? 0x7373ULL : 0));

  const auto resolved = plane_.resolve(ctx.dst);
  for (int hop = 0; hop < kHopLimit; ++hop) {
    ++packets_forwarded_;
    result.path.push_back(current);
    const auto& router = topo_.router(current);

    // Option filtering at AS boundaries: the whole AS drops RR/TS packets.
    if (packet.has_options() &&
        topo_.as_at(router.as_index).filters_ip_options) {
      return;
    }

    const auto decision = plane_.decide(current, ctx, resolved);
    if (decision.kind == routing::Decision::Kind::kDeliverRouter) {
      result.delivered = packet;
      result.router = current;
      return;
    }
    if (decision.kind == routing::Decision::Kind::kDrop) {
      return;
    }

    // The packet must be forwarded: TTL check first.
    if (packet.ttl <= 1) {
      if (router.responds_ttl_exceeded) {
        result.icmp_error = net::make_time_exceeded(packet, arrival_addr);
        result.error_router = current;
      }
      return;
    }
    --packet.ttl;

    stamp_ts(packet, router, result.elapsed_us);

    const bool emitting = origin_emits && hop == 0;
    if (decision.kind == routing::Decision::Kind::kDeliverHost) {
      const auto& host = topo_.host(decision.host);
      // Outgoing interface into the destination subnet = gateway address.
      Ipv4Addr egress = router.loopback;
      if (const auto prefix = topo_.prefix_of(host.addr)) {
        if (const auto gateway = topo_.gateway_addr(current, *prefix)) {
          egress = *gateway;
        }
      }
      if (!emitting) stamp_rr(packet, router, arrival_addr, egress);
      result.elapsed_us += kAccessDelayUs;
      result.delivered = packet;
      result.host = decision.host;
      return;
    }

    // Forward over a link.
    const auto& link = topo_.link(decision.link);
    if (!emitting) {
      stamp_rr(packet, router, arrival_addr,
               topo_.egress_addr(current, decision.link));
    }
    result.elapsed_us += link.delay_us;
    arrival_addr = topo_.egress_addr(decision.next_router, decision.link);
    current = decision.next_router;
  }
  // Hop limit exceeded: dropped.
}

SendResult Network::send(const Packet& packet, HostId sender) {
  SendResult out;
  ++probes_injected_;
  const auto& host = topo_.host(sender);

  // Random loss applies to the probe/reply as a whole: either direction
  // failing looks the same to the measurer (no answer).
  if (loss_rate_ > 0.0 &&
      static_cast<double>(rng_() >> 11) * 0x1.0p-53 < loss_rate_) {
    return out;
  }

  // Source address validation: a spoofed packet leaves the sender's network
  // only when the host may spoof and its AS does not filter.
  if (packet.src != host.addr && !can_spoof(sender)) {
    return out;
  }

  const auto src_prefix = topo_.prefix_of(host.addr);
  Ipv4Addr first_arrival = topo_.router(host.attachment).loopback;
  if (src_prefix) {
    if (const auto gw = topo_.gateway_addr(host.attachment, *src_prefix)) {
      first_arrival = *gw;
    }
  }

  util::SimClock::Micros elapsed = kAccessDelayUs;
  PassResult& request_pass = pass_scratch_;
  forward_pass(packet, host.attachment, first_arrival, false, request_pass);
  elapsed += request_pass.elapsed_us;
  std::swap(out.request_path, request_pass.path);

  // Determine the response packet and its origin.
  std::optional<Packet> response;
  RouterId response_origin = kInvalidId;
  Ipv4Addr response_arrival;

  if (request_pass.icmp_error) {
    response = request_pass.icmp_error;
    response_origin = request_pass.error_router;
    response_arrival = topo_.router(response_origin).loopback;
  } else if (request_pass.delivered && request_pass.host != kInvalidId) {
    const auto& dest = topo_.host(request_pass.host);
    response = host_response(*request_pass.delivered, dest);
    if (response) {
      response_origin = dest.attachment;
      elapsed += kAccessDelayUs;
      response_arrival = topo_.router(response_origin).loopback;
      if (const auto prefix = topo_.prefix_of(dest.addr)) {
        if (const auto gw = topo_.gateway_addr(dest.attachment, *prefix)) {
          response_arrival = *gw;
        }
      }
    }
  } else if (request_pass.delivered && request_pass.router != kInvalidId) {
    response = router_response(*request_pass.delivered,
                               topo_.router(request_pass.router));
    response_origin = request_pass.router;
    response_arrival = topo_.router(request_pass.router).loopback;
  }

  if (!response) return out;

  // Route the response to the IP source of the probe. It is observable only
  // if that address belongs to a host (the unspoofed sender, or the spoofed
  // victim S in the Reverse Traceroute dance).
  const auto observer = topo_.host_at(response->dst);
  if (!observer) return out;

  // A router answering for itself emits the reply rather than forwarding
  // a received packet, so it must not add a second stamp. Both facts are
  // read out of request_pass before the scratch is reused for the reply.
  const bool origin_emits =
      request_pass.icmp_error.has_value() ||
      (request_pass.delivered && request_pass.router != kInvalidId);
  PassResult& reply_pass = pass_scratch_;
  forward_pass(*response, response_origin, response_arrival, origin_emits,
               reply_pass);
  elapsed += reply_pass.elapsed_us;
  std::swap(out.reply_path, reply_pass.path);

  if (!reply_pass.delivered || reply_pass.host != *observer) {
    return out;  // Reply lost (filtered, unroutable, expired).
  }
  out.reply = std::move(reply_pass.delivered);
  out.rtt_us = elapsed + kAccessDelayUs;
  return out;
}

}  // namespace revtr::sim

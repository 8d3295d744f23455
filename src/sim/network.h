// Packet-level network simulator.
//
// Executes one probe at a time against the generated topology: the packet
// starts at the sending host's access router, follows ForwardingPlane
// decisions hop by hop, accumulates link delays, honours TTL, and exercises
// the full RFC 791 option semantics — Record Route stamping according to
// each router's policy, Timestamp-prespec ordering, destination stamping
// behaviours, option filtering, and source-address spoofing (replies go to
// whatever the IP source says, which is the heart of Insight 1.3).
//
// The simulator is synchronous: send() returns the reply (if any) plus the
// simulated round-trip time. The probing layer turns this into the
// measurement primitives, and the SimClock accounting for timeouts/batching
// lives in the core engine.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/packet.h"
#include "routing/forwarding.h"
#include "topology/topology.h"
#include "util/rng.h"
#include "util/sim_clock.h"

namespace revtr::sim {

struct SendResult {
  std::optional<net::Packet> reply;
  util::SimClock::Micros rtt_us = 0;  // Meaningful when reply is set.

  // Router-level ground truth of the two directions; used by tests and by
  // evaluation code that needs truth the real paper could not observe.
  std::vector<topology::RouterId> request_path;
  std::vector<topology::RouterId> reply_path;

  bool answered() const noexcept { return reply.has_value(); }
};

class Network {
 public:
  static constexpr util::SimClock::Micros kAccessDelayUs = 200;
  static constexpr int kHopLimit = 80;

  Network(const topology::Topology& topo,
          const routing::ForwardingPlane& plane, std::uint64_t seed = 1);

  // Injects `packet` from `sender`. The IP source may be spoofed; the reply
  // (if any) is routed to the IP source, so the caller must decide which
  // host would observe it. Returns the reply only when packet.src resolves
  // to a host (otherwise the reply vanishes into the simulated Internet).
  SendResult send(const net::Packet& packet, topology::HostId sender);

  // True when `sender`'s network permits it to emit packets whose source
  // address it does not own.
  bool can_spoof(topology::HostId sender) const;

  // Router-level path a packet sourced at `from` would take toward `to`,
  // without side effects (no counters, no loss, no option processing).
  // `salt` seeds per-packet load balancing so callers can enumerate the
  // ECMP-feasible path set; `has_options` matches the forwarding plane's
  // slow-path treatment of optioned packets. `from`/`to` may be host or
  // router-interface addresses; returns empty when `from` resolves to
  // neither. This is the oracle's ground truth — the truth the real paper
  // could not observe (§2).
  std::vector<topology::RouterId> ground_truth_path(
      net::Ipv4Addr from, net::Ipv4Addr to, std::uint64_t salt = 0,
      bool has_options = false) const;

  // Random per-probe loss: with probability `rate` the probe (or its
  // reply) vanishes. Measurement systems must tolerate this; the
  // loss-robustness bench sweeps it.
  void set_loss_rate(double rate) noexcept { loss_rate_ = rate; }
  double loss_rate() const noexcept { return loss_rate_; }

  // Restarts the loss stream and the per-packet balancing salt from `seed`.
  // Two Networks over the same topology with the same seed then route every
  // packet identically — the parallel campaign driver builds one per worker
  // this way so worker count cannot change measurement outcomes.
  void reseed(std::uint64_t seed) noexcept {
    rng_.reseed(seed);
    salt_seed_ = seed;
  }

  std::uint64_t packets_forwarded() const noexcept {
    return packets_forwarded_;
  }
  std::uint64_t probes_injected() const noexcept { return probes_injected_; }

  const topology::Topology& topo() const noexcept { return topo_; }

 private:
  // One forwarding pass: from `origin` router until delivery/drop. Returns
  // the packet as delivered (options updated) or nullopt when dropped.
  struct PassResult {
    std::optional<net::Packet> delivered;
    // Set when the pass ended at a host / router that should now respond.
    topology::HostId host = topology::kInvalidId;
    topology::RouterId router = topology::kInvalidId;
    // Set when TTL expired and the expiring router answers.
    std::optional<net::Packet> icmp_error;
    topology::RouterId error_router = topology::kInvalidId;
    util::SimClock::Micros elapsed_us = 0;
    std::vector<topology::RouterId> path;

    // Back to the freshly-constructed state, keeping path's capacity so a
    // reused PassResult walks the topology without allocating.
    void reset() noexcept {
      delivered.reset();
      host = topology::kInvalidId;
      router = topology::kInvalidId;
      icmp_error.reset();
      error_router = topology::kInvalidId;
      elapsed_us = 0;
      path.clear();
    }
  };

  // `origin_emits` marks a pass whose first router is the packet's own
  // originator (a router answering a probe): it forwards without stamping,
  // since RFC 791 stamping happens when *forwarding* a received packet.
  // Writes into `result` (reset first), reusing its path capacity.
  void forward_pass(net::Packet packet, topology::RouterId origin,
                    net::Ipv4Addr arrival_addr, bool origin_emits,
                    PassResult& result);

  void stamp_rr(net::Packet& packet, const topology::Router& router,
                net::Ipv4Addr arrival_addr, net::Ipv4Addr egress_addr) const;
  void stamp_ts(net::Packet& packet, const topology::Router& router,
                util::SimClock::Micros elapsed) const;

  // Builds the response a destination host generates, or nullopt when the
  // host does not answer this kind of probe.
  std::optional<net::Packet> host_response(const net::Packet& request,
                                           const topology::Host& host) const;
  std::optional<net::Packet> router_response(
      const net::Packet& request, const topology::Router& router) const;

  const topology::Topology& topo_;
  const routing::ForwardingPlane& plane_;
  util::Rng rng_;
  std::uint64_t salt_seed_;
  double loss_rate_ = 0.0;
  std::uint64_t packets_forwarded_ = 0;
  std::uint64_t probes_injected_ = 0;
  // Shared forwarding scratch: request and reply passes of every send()
  // run through here, keeping the hop-path vector's capacity warm. The
  // Network is per-worker (see reseed()), so no synchronization is needed.
  PassResult pass_scratch_;
};

}  // namespace revtr::sim

// The probe transport seam (DESIGN.md §15).
//
// A `ProbeSpec` is the wire-complete description of one measurement — the
// same content the scheduler's coalesce key hashes — and a `ProbeReply` is
// everything a probe's outcome carries. `ProbeTransport` is the seam the
// scheduler issues through: `LocalProbeTransport` executes on an in-process
// `Prober` (today's monolith, bit-for-bit), while the controller's remote
// mode serializes specs as AGENT_PROBE frames to `revtr_agentd` processes
// that run the identical `execute_spec` switch on their own prober.
//
// Determinism contract: simulated outcomes are content-addressed (stateless
// ECMP salt, endpoint-derived flow ids — DESIGN.md §8), so executing a spec
// on *any* prober built over the same topology config and net seed returns
// the same reply byte for byte. That is what lets a remote agent answer a
// probe in place of the issuing worker without perturbing results.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/ipv4.h"
#include "probing/prober.h"
#include "topology/topology.h"
#include "util/sim_clock.h"

namespace revtr::probing {

// Content-complete description of one wire probe. sched::ProbeDemand is a
// ProbeSpec plus scheduling-only fields (batch_ingress, offline closures)
// that never cross the transport.
struct ProbeSpec {
  ProbeType type = ProbeType::kPing;
  topology::HostId from = topology::kInvalidId;
  net::Ipv4Addr target;
  std::optional<net::Ipv4Addr> spoof_as;
  std::vector<net::Ipv4Addr> prespec;  // TS prespecified addresses.

  bool operator==(const ProbeSpec&) const = default;
};

// The outcome of one spec, carrying every field any probe type produces.
// sched::ProbeOutcome is a ProbeReply plus scheduler-side bookkeeping
// (coalesced flag, offline counters).
struct ProbeReply {
  bool responded = false;
  std::vector<net::Ipv4Addr> slots;  // RR reply slots.
  std::vector<bool> stamped;         // TS stamps observed.
  TracerouteResult traceroute;
  util::SimClock::Micros duration_us = 0;
  // Wire packets this reply cost (traceroute: one per TTL probed, which is
  // not traceroute.hops.size() on the targeted walk).
  std::uint64_t packets = 0;

  bool operator==(const ProbeReply&) const = default;
};

// Where wire probes go. Implementations must preserve the determinism
// contract above: same spec, same simulated world => same reply.
class ProbeTransport {
 public:
  virtual ~ProbeTransport() = default;

  virtual ProbeReply execute(const ProbeSpec& spec) = 0;

  // A whole same-ingress spoofed-RR batch. The default runs each item
  // through execute() in order; an override (a timing decorator, say) must
  // stay outcome-equivalent to that. `out` is resized to items.size().
  virtual void execute_batch(std::span<const RrBatchItem> items,
                             std::vector<RrProbeResult>& out);
};

// Executes one spec synchronously on `prober` — the single dispatch switch
// shared by the local transport and the agent daemon, so both sides of the
// process split run literally the same code per probe type.
ProbeReply execute_spec(Prober& prober, const ProbeSpec& spec);

// Today's monolith: probes execute on the caller's own prober.
class LocalProbeTransport final : public ProbeTransport {
 public:
  explicit LocalProbeTransport(Prober& prober) : prober_(prober) {}

  ProbeReply execute(const ProbeSpec& spec) override {
    return execute_spec(prober_, spec);
  }

  Prober& prober() noexcept { return prober_; }

 private:
  Prober& prober_;
};

}  // namespace revtr::probing

// Measurement primitives built on the simulator.
//
// These are the operations the real system issues from its vantage points:
// plain pings, RR pings (optionally spoofed), timestamp-prespec queries
// (optionally spoofed), and Paris traceroute. Every call is accounted by
// type so Table 4's packet budget can be regenerated, and every result
// carries a simulated duration that the engine charges to the SimClock.
//
// The prober never advances the clock itself: batches of probes are
// conceptually concurrent, so the caller decides whether durations add up
// (sequential steps) or max out (parallel batches).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/ipv4.h"
#include "obs/metrics.h"
#include "sim/network.h"
#include "topology/topology.h"
#include "util/sim_clock.h"

namespace revtr::probing {

// Table 4 packet categories.
enum class ProbeType : std::uint8_t {
  kPing,
  kRecordRoute,
  kSpoofedRecordRoute,
  kTimestamp,
  kSpoofedTimestamp,
  kTraceroute,  // Counted per packet (one per TTL probed).
};

std::string to_string(ProbeType type);

struct ProbeCounters {
  std::uint64_t ping = 0;
  std::uint64_t rr = 0;
  std::uint64_t spoofed_rr = 0;
  std::uint64_t ts = 0;
  std::uint64_t spoofed_ts = 0;
  std::uint64_t traceroute_packets = 0;
  std::uint64_t traceroutes = 0;

  std::uint64_t total() const noexcept {
    return ping + rr + spoofed_rr + ts + spoofed_ts + traceroute_packets;
  }
  ProbeCounters& operator+=(const ProbeCounters& other);
  ProbeCounters operator-(const ProbeCounters& other) const;
};

// One probe as emitted by the Prober, with its observed outcome. This is the
// ground-truth record the analysis layer (tools/revtr_mc) checks reverse
// traceroutes against: every ReverseHop must be justified by some event, and
// every packet charged to a request budget must appear here exactly once.
struct ProbeEvent {
  ProbeType type = ProbeType::kPing;
  topology::HostId from = topology::kInvalidId;
  net::Ipv4Addr target;
  std::optional<net::Ipv4Addr> spoof_as;
  bool responded = false;
  bool offline = false;    // Sent inside an OfflineScope (background survey).
  bool suppressed = false;  // Dropped by the fault policy before injection.
  std::uint64_t packets = 1;  // Traceroute: one event, many packets.
  std::vector<net::Ipv4Addr> slots;    // RR reply slots.
  std::vector<net::Ipv4Addr> prespec;  // TS prespecified addresses.
  std::vector<bool> stamped;           // TS stamps observed.
  std::vector<net::Ipv4Addr> tr_hops;  // Traceroute responsive hops in order.
  bool tr_reached = false;
};

// Passive tap on every probe the Prober emits. Observers must not issue
// probes from the callback (no re-entrancy).
class ProbeObserver {
 public:
  virtual ~ProbeObserver() = default;
  virtual void on_probe(const ProbeEvent& event) = 0;
};

// Fault injection for the model checker: consulted before a probe is
// injected (type/from/target/spoof_as/offline are filled in, outcome fields
// are not). Returning true makes the probe vanish — it is still charged to
// the counters, exactly like a probe lost in the network. Traceroutes are
// not subject to fault policies (the schedules model RR/TS filtering and
// spoof loss, which do not affect plain TTL-limited probes).
using FaultPolicy = std::function<bool(const ProbeEvent&)>;

// Registry handles for probe accounting, resolved once so the per-probe
// cost is a single sharded relaxed add. `scope` partitions: a probe sent
// under an OfflineScope counts under scope="offline" only (unlike
// ProbeCounters, where offline is a subset of the grand total).
struct ProbeMetrics {
  explicit ProbeMetrics(obs::MetricsRegistry& registry);

  // Indexed [ProbeType][offline ? 1 : 0].
  std::array<std::array<obs::Counter*, 2>, 6> probes{};
  // Traceroute invocations (heads), as opposed to per-TTL packets above.
  std::array<obs::Counter*, 2> traceroutes{};
};

struct PingResult {
  bool responded = false;
  util::SimClock::Micros duration_us = 0;
};

struct RrProbeResult {
  bool responded = false;
  // The nine-slot record as observed in the reply (possibly empty).
  std::vector<net::Ipv4Addr> slots;
  util::SimClock::Micros duration_us = 0;
};

// One probe of a spoofed-RR batch (ProbeTransport::execute_batch).
struct RrBatchItem {
  topology::HostId from = topology::kInvalidId;
  net::Ipv4Addr target;
  std::optional<net::Ipv4Addr> spoof_as;
};

struct TsProbeResult {
  bool responded = false;
  // Whether each prespecified address recorded a timestamp.
  std::vector<bool> stamped;
  util::SimClock::Micros duration_us = 0;
};

struct TracerouteHop {
  // nullopt = "*": no reply, or (targeted_trace) a TTL the walk never
  // probed. The two read alike on the spec path (execute_spec).
  std::optional<net::Ipv4Addr> addr;
  util::SimClock::Micros rtt_us = 0;

  bool operator==(const TracerouteHop&) const = default;
};

struct TracerouteResult {
  std::vector<TracerouteHop> hops;  // hops[i] is TTL i + 1, up to the stop.
  bool reached = false;  // Destination answered the final probe.
  util::SimClock::Micros duration_us = 0;  // Summed over the probes sent.

  bool operator==(const TracerouteResult&) const = default;

  // Responsive hop addresses in order (skipping "*").
  std::vector<net::Ipv4Addr> responsive_hops() const;
};

// How one TTL-limited probe was answered.
enum class TtlReply : std::uint8_t {
  kSilent,  // No reply ("*").
  kHop,     // A router on the way (time exceeded, or any other ICMP error).
  kEcho,    // The target itself: the trace reached it.
};

// Where a TTL walk stops: the trace reports hops for TTLs 1..ttl.
struct TraceStop {
  int ttl = 0;
  bool reached = false;

  bool operator==(const TraceStop&) const = default;
};

// Sends (or looks up) the probe for one TTL in 1..Prober::kMaxTracerouteTtl.
using TtlProbe = std::function<TtlReply(int ttl)>;

class Prober {
 public:
  // Unanswered probes are charged this much simulated time.
  static constexpr util::SimClock::Micros kProbeTimeoutUs =
      2 * util::SimClock::kSecond;
  static constexpr int kMaxTracerouteTtl = 40;

  explicit Prober(sim::Network& network);

  PingResult ping(topology::HostId from, net::Ipv4Addr target);

  // RR echo request from `from` to `target`. When `spoof_as` is set the
  // packet claims that source; the reply is then observed at the host
  // owning that address (nullopt result slots if the reply never arrives).
  RrProbeResult rr_ping(topology::HostId from, net::Ipv4Addr target,
                        std::optional<net::Ipv4Addr> spoof_as = std::nullopt);

  TsProbeResult ts_ping(topology::HostId from, net::Ipv4Addr target,
                        std::span<const net::Ipv4Addr> prespec,
                        std::optional<net::Ipv4Addr> spoof_as = std::nullopt);

  // Paris traceroute: constant flow identifiers across TTLs so per-flow
  // load balancers keep the probes on one path (Appx E). Walks TTL 1, 2, ...
  // (full_walk) and records every hop.
  TracerouteResult traceroute(topology::HostId from, net::Ipv4Addr target);

  // The same Paris trace, probing only the TTLs that decide where the full
  // walk stops, whether it reached `target`, and the last responsive hop
  // before the stop (targeted_walk). At loss 0 those equal traceroute()'s
  // (DESIGN.md §16); hops it did not probe read nullopt. It sends at most
  // one packet more than the full walk (a look-ahead TTL past a near
  // target) and usually about half. The symmetry step (execute_spec)
  // issues this one.
  TracerouteResult targeted_trace(topology::HostId from,
                                  net::Ipv4Addr target);

  // The two walks, apart from the wire. `probe` is called at most once per
  // TTL. full_walk probes TTL 1, 2, ... until the target answers, three
  // consecutive TTLs are silent, or kMaxTracerouteTtl. targeted_walk keeps
  // r, the last TTL known to answer (0 = the source), and probes r + 3
  // (capped): a hop there moves r; an echo means the target is the first
  // echo in r+1..r+3, probed upward; silence is probed downward to r + 1,
  // and three silent TTLs are the full walk's stop. When each TTL's reply
  // is a function of the TTL alone with echoes from some TTL d on (loss 0,
  // content-addressed paths), both return the same TraceStop.
  static TraceStop full_walk(const TtlProbe& probe);
  static TraceStop targeted_walk(const TtlProbe& probe);

  const ProbeCounters& counters() const noexcept { return counters_; }
  void reset_counters() {
    counters_ = ProbeCounters{};
    offline_counters_ = ProbeCounters{};
  }

  // Subset of counters() sent while an OfflineScope was active: background
  // measurement (ingress surveys, atlas builds/refreshes) that Table 4
  // accounts separately from per-request budgets.
  const ProbeCounters& offline_counters() const noexcept {
    return offline_counters_;
  }

  // Marks probes issued during its lifetime as offline/background. Nests.
  class OfflineScope {
   public:
    explicit OfflineScope(Prober& prober) : prober_(prober) {
      ++prober_.offline_depth_;
    }
    ~OfflineScope() { --prober_.offline_depth_; }
    OfflineScope(const OfflineScope&) = delete;
    OfflineScope& operator=(const OfflineScope&) = delete;

   private:
    Prober& prober_;
  };

  // A prober over `network` (a worker thread's copy of this prober's
  // network) that charges this prober's metrics handles, for probing on
  // its behalf from another thread; absorb() folds it back. REVTR_CHECKs
  // that this prober has no observer and no fault policy: both expect one
  // probe stream in issue order, which concurrent forks cannot give.
  Prober fork(sim::Network& network) const;
  // Adds a fork's counters, offline counters and ICMP-id sequence to this
  // prober's, leaving it as if it had sent the fork's probes itself.
  void absorb(const Prober& fork);

  // Observer outlives the prober's use of it; pass nullptr to detach.
  void set_observer(ProbeObserver* observer) noexcept { observer_ = observer; }
  // Metrics handles outlive the prober's use of them; nullptr (the default)
  // makes instrumentation a no-op. Shared across probers: the counters are
  // internally sharded per worker thread.
  void set_metrics(const ProbeMetrics* metrics) noexcept {
    metrics_ = metrics;
  }
  void set_fault_policy(FaultPolicy policy) {
    fault_policy_ = std::move(policy);
  }

  sim::Network& network() noexcept { return network_; }
  const topology::Topology& topo() const noexcept { return network_.topo(); }

 private:
  std::uint16_t next_id() noexcept { return ++sequence_; }
  bool offline() const noexcept { return offline_depth_ > 0; }
  void charge(ProbeType type);
  void charge_traceroute_head();
  // One Paris trace along `walk`: the single per-TTL send path of both
  // traceroute() and targeted_trace(), with their charging and event.
  TracerouteResult trace(topology::HostId from, net::Ipv4Addr target,
                         TraceStop (*walk)(const TtlProbe&));
  // The event of a probe about to be sent, with its request fields filled
  // in, when something reads events (an observer or a fault policy);
  // nullopt otherwise, so an untapped prober builds and copies nothing.
  std::optional<ProbeEvent> start_event(
      ProbeType type, topology::HostId from, net::Ipv4Addr target,
      std::optional<net::Ipv4Addr> spoof_as = std::nullopt) const;
  // Consults the fault policy; on a drop marks the event suppressed.
  bool vetoed(ProbeEvent& event);
  void notify(const ProbeEvent& event) {
    if (observer_ != nullptr) observer_->on_probe(event);
  }

  sim::Network& network_;
  ProbeCounters counters_;
  ProbeCounters offline_counters_;
  std::uint16_t sequence_ = 0;
  int offline_depth_ = 0;
  ProbeObserver* observer_ = nullptr;
  const ProbeMetrics* metrics_ = nullptr;
  FaultPolicy fault_policy_;
};

}  // namespace revtr::probing

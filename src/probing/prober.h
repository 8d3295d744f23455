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
  kTraceroute,  // Counted per packet (one per TTL tried).
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
  std::optional<net::Ipv4Addr> addr;  // nullopt = "*" (no reply).
  util::SimClock::Micros rtt_us = 0;

  bool operator==(const TracerouteHop&) const = default;
};

struct TracerouteResult {
  std::vector<TracerouteHop> hops;
  bool reached = false;  // Destination answered the final probe.
  util::SimClock::Micros duration_us = 0;

  bool operator==(const TracerouteResult&) const = default;

  // Responsive hop addresses in order (skipping "*").
  std::vector<net::Ipv4Addr> responsive_hops() const;
};

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
  // load balancers keep the probes on one path (Appx E).
  TracerouteResult traceroute(topology::HostId from, net::Ipv4Addr target);

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

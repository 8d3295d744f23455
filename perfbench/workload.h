// The benchmark's workloads: the program configuration each one runs, the
// request stream generated from the seed, and the public set-up calls that
// rebuild the daemon's world for the oracle and the traced twin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "eval/harness.h"
#include "server/daemon.h"
#include "service/service.h"
#include "topology/config.h"

namespace perfbench {

enum class Kind : std::uint8_t { kHot, kMiss, kAgents, kCampaign };

struct Workload {
  std::string name;
  Kind kind = Kind::kHot;
  revtr::topology::TopologyConfig topo;
  std::uint64_t lab_seed = 7;  // ServerOptions::seed / campaign seed.
  std::size_t sources = 1;
  std::size_t atlas_size = 50;
  std::size_t workers = 2;
  std::size_t agents = 0;  // > 0: remote probing through VP agents.
  // hot: Zipf exponent of destination popularity, and how many requests
  // warm the caches before timing starts.
  double zipf = 0;
  std::size_t warm_requests = 0;
  // Serving: outstanding requests per connection in the closed-loop phase,
  // and the fixed offered rate (requests/s, both connections together) of
  // the open-loop phase.
  std::size_t window = 8;
  double open_rate = 0;
  // campaign: pairs per ParallelCampaignDriver::run() call.
  std::size_t campaign_batch = 0;
  // Requests the traced twin runs (a prefix of the timed stream).
  std::size_t twin_requests = 4000;

  bool serving() const noexcept { return kind != Kind::kCampaign; }
  revtr::util::Json describe() const;
};

std::optional<Workload> find_workload(std::string_view name);

// The daemon configuration of a serving workload, listening on `socket`.
revtr::server::ServerOptions server_options(const Workload& workload,
                                            const std::string& socket);

// The world ServerDaemon::start() builds, rebuilt through the same public
// calls in the same order (Lab, full ingress survey, RevtrService sources),
// with each set-up step timed.
struct World {
  std::unique_ptr<revtr::eval::Lab> lab;
  std::unique_ptr<revtr::service::RevtrService> service;
  std::vector<revtr::topology::HostId> sources;  // SUBMIT source_index order.
  double lab_build_s = 0;
  double survey_s = 0;
  double bootstrap_s = 0;

  std::size_t destinations() const { return lab->topo.probe_hosts().size(); }
};
World build_world(const Workload& workload);

// One generated request: indices as SUBMIT carries them.
struct Request {
  std::uint32_t dest_index = 0;
  std::uint32_t source_index = 0;
};

// The request stream of a run, a pure function of (workload, seed, world
// shape). hot: Zipf draws over every destination from source 0, warm-up
// prefix first. miss/agents/campaign: every (source, destination) pair
// exactly once, in seeded random order.
std::vector<Request> make_stream(const Workload& workload,
                                 std::size_t destinations, std::size_t sources,
                                 std::uint64_t seed);

}  // namespace perfbench

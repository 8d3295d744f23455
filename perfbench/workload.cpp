#include "workload.h"

#include <algorithm>
#include <cmath>

#include "common.h"
#include "runs.h"
#include "util/rng.h"

namespace perfbench {

namespace rt = revtr;

namespace {

// Destinations are capped by the topology at its stub-AS count, so asking
// for more than any topology has yields "every stub AS hosts one".
constexpr std::size_t kAllProbeHosts = 1'000'000;
// hot stream length: far more than any run can consume.
constexpr std::size_t kHotStream = 2'000'000;

Workload base(std::string name, Kind kind, std::size_t ases,
              std::size_t vps) {
  Workload w;
  w.name = std::move(name);
  w.kind = kind;
  w.topo.seed = 7;
  w.topo.num_ases = ases;
  w.topo.num_vps = vps;
  w.topo.num_probe_hosts = kAllProbeHosts;
  return w;
}

Workload miss_shape(std::string name, Kind kind) {
  Workload w = base(std::move(name), kind, 2000, 40);
  w.sources = 40;
  return w;
}

}  // namespace

std::optional<Workload> find_workload(std::string_view name) {
  if (name == "hot") {
    Workload w = base("hot", Kind::kHot, 400, 20);
    w.zipf = 1.1;
    w.warm_requests = 20'000;
    w.open_rate = 19000;
    w.twin_requests = 50'000;
    return w;
  }
  if (name == "miss") {
    Workload w = miss_shape("miss", Kind::kMiss);
    w.open_rate = 3000;
    return w;
  }
  if (name == "agents") {
    Workload w = miss_shape("agents", Kind::kAgents);
    w.agents = 2;
    w.open_rate = 800;
    return w;
  }
  if (name == "campaign") {
    Workload w = miss_shape("campaign", Kind::kCampaign);
    w.campaign_batch = 1000;
    return w;
  }
  return std::nullopt;
}

rt::util::Json Workload::describe() const {
  rt::util::Json j = rt::util::Json::object();
  j["name"] = name;
  j["ases"] = static_cast<std::uint64_t>(topo.num_ases);
  j["vps"] = static_cast<std::uint64_t>(topo.num_vps);
  j["topology_seed"] = topo.seed;
  j["lab_seed"] = lab_seed;
  j["sources"] = static_cast<std::uint64_t>(sources);
  j["atlas_size"] = static_cast<std::uint64_t>(atlas_size);
  j["workers"] = static_cast<std::uint64_t>(workers);
  j["agents"] = static_cast<std::uint64_t>(agents);
  if (kind == Kind::kHot) {
    j["zipf"] = zipf;
    j["warm_requests"] = static_cast<std::uint64_t>(warm_requests);
  }
  if (serving()) {
    j["closed_window_per_connection"] = static_cast<std::uint64_t>(window);
    j["connections"] = 2;
    j["open_rate_per_s"] = open_rate;
  } else {
    j["campaign_batch"] = static_cast<std::uint64_t>(campaign_batch);
    j["mode"] = "staged";
    j["pacing_scale"] = 0.0;
  }
  return j;
}

rt::server::ServerOptions server_options(const Workload& workload,
                                         const std::string& socket) {
  rt::server::ServerOptions options;
  options.socket_path = socket;
  options.topo = workload.topo;
  options.seed = workload.lab_seed;
  options.workers = workload.workers;
  options.sources = workload.sources;
  options.atlas_size = workload.atlas_size;
  options.admission.workers = workload.workers;
  options.remote_probing = workload.agents > 0;
  // One tenant whose quota and rate limit never bind: the benchmark
  // measures serving, not quota policy (the replayer's provisioning).
  rt::server::TenantConfig tenant;
  tenant.api_key = "perfbench-key";
  tenant.limits.daily_limit = std::size_t{1} << 30;
  tenant.limits.daily_probe_budget = std::uint64_t{1} << 50;
  tenant.bucket.rate_per_sec = 1e9;
  tenant.bucket.burst = 1e9;
  options.tenants.push_back(tenant);
  return options;
}

World build_world(const Workload& workload) {
  World world;
  std::int64_t t0 = now_ns();
  world.lab = std::make_unique<rt::eval::Lab>(
      workload.topo, rt::core::EngineConfig::revtr2(), workload.lab_seed);
  world.lab_build_s = seconds_since(t0);

  t0 = now_ns();
  world.lab->precompute_all_ingresses();
  world.survey_s = seconds_since(t0);

  t0 = now_ns();
  rt::eval::Lab& lab = *world.lab;
  world.service = std::make_unique<rt::service::RevtrService>(
      lab.engine, lab.atlas, lab.prober, lab.topo);
  const auto& vps = lab.topo.vantage_points();
  const std::size_t want =
      std::min(std::max<std::size_t>(workload.sources, 1), vps.size());
  for (std::size_t i = 0; i < vps.size() && world.sources.size() < want;
       ++i) {
    if (world.service->add_source(vps[i], workload.atlas_size, lab.rng)) {
      world.sources.push_back(vps[i]);
    }
  }
  world.bootstrap_s = seconds_since(t0);
  return world;
}

std::optional<std::vector<double>> setup_only_runs(
    std::vector<std::string> args, const std::vector<int>& cpus) {
  args.push_back("--setup-only");
  std::vector<double> setups;
  double total = 0;
  // `+ 1`: the final, serving set-up counts towards the repeats.
  while (setups.size() + 1 < kSetupMinRepeats ||
         (total < kSetupMinSeconds && setups.size() + 1 < kSetupMaxRepeats)) {
    Child child(args, cpus);
    const auto setup = parse_ready(child.read_line(150));
    child.finish(10);
    if (!setup.has_value()) return std::nullopt;
    setups.push_back(*setup);
    total += *setup;
  }
  return setups;
}

std::optional<double> parse_ready(const std::optional<std::string>& line) {
  if (!line.has_value() || line->rfind("ready ", 0) != 0) return std::nullopt;
  return std::stod(line->substr(6));
}

std::vector<Request> make_stream(const Workload& workload,
                                 std::size_t destinations, std::size_t sources,
                                 std::uint64_t seed) {
  rt::util::Rng rng(rt::util::mix_hash(seed, 0x7065726662ULL));
  std::vector<Request> stream;
  if (workload.kind == Kind::kHot) {
    // Zipf(s) popularity: destination index i has rank i.
    std::vector<double> cdf(destinations);
    double total = 0;
    for (std::size_t rank = 0; rank < destinations; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), workload.zipf);
      cdf[rank] = total;
    }
    for (double& c : cdf) c /= total;
    stream.resize(kHotStream);
    for (Request& r : stream) {
      const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.uniform());
      r.dest_index = static_cast<std::uint32_t>(
          std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                                destinations - 1));
    }
    return stream;
  }
  stream.reserve(destinations * sources);
  for (std::size_t s = 0; s < sources; ++s) {
    for (std::size_t d = 0; d < destinations; ++d) {
      stream.push_back(Request{static_cast<std::uint32_t>(d),
                               static_cast<std::uint32_t>(s)});
    }
  }
  for (std::size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.below(i)]);
  }
  return stream;
}

}  // namespace perfbench

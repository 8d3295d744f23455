// The campaign workload: miss pairs through ParallelCampaignDriver::run()
// in staged mode (2 workers, no pacing), the batch path with no server
// layers. The campaign runs in a child process; each run() call measures one
// batch of distinct pairs with fresh engine caches, and its results stream
// back to this process for the oracle check.
//
// Child protocol (stdout lines): "ready <setup_s>", then per batch
// "batch <wall_s> <n>" followed by n result lines
// "<status> <probes> <sim_us> <addr>/<source> ...", then "done".

#include <algorithm>
#include <iostream>
#include <sstream>
#include <thread>

#include "oracle.h"
#include "runs.h"
#include "service/parallel.h"

namespace perfbench {

namespace rt = revtr;

namespace {

rt::service::ParallelCampaignOptions campaign_options(const Workload& w) {
  rt::service::ParallelCampaignOptions options;
  options.workers = w.workers;
  options.seed = w.lab_seed;
  options.engine = rt::core::EngineConfig::revtr2();
  options.pacing_scale = 0.0;
  options.mode = rt::service::EngineMode::kStaged;
  return options;
}

std::string encode_result(const rt::core::ReverseTraceroute& r) {
  std::string line = std::to_string(static_cast<int>(r.status)) + " " +
                     std::to_string(r.probes.total()) + " " +
                     std::to_string(r.span.duration());
  for (const auto& hop : r.hops) {
    line += " " + std::to_string(hop.addr.value()) + "/" +
            std::to_string(static_cast<int>(hop.source));
  }
  return line;
}

std::optional<Observed> decode_result(const std::string& line,
                                      const Request& request) {
  std::istringstream in(line);
  int status = 0;
  Observed o;
  o.request = request;
  if (!(in >> status >> o.probes >> o.sim_latency_us)) return std::nullopt;
  o.status = static_cast<rt::core::RevtrStatus>(status);
  std::string hop;
  while (in >> hop) {
    const auto slash = hop.find('/');
    if (slash == std::string::npos) return std::nullopt;
    rt::server::ResultHop h;
    h.addr = rt::net::Ipv4Addr(
        static_cast<std::uint32_t>(std::stoul(hop.substr(0, slash))));
    h.source = static_cast<rt::core::HopSource>(std::stoi(hop.substr(slash + 1)));
    o.hops.push_back(h);
  }
  return o;
}

}  // namespace

int campaign_role(const Workload& workload, std::uint64_t seed,
                  double seconds, bool setup_only) {
  const std::int64_t t0 = now_ns();
  World world = build_world(workload);
  send_to_parent("ready " + std::to_string(seconds_since(t0)));
  if (setup_only) return 0;

  const std::vector<Request> stream = make_stream(
      workload, world.destinations(), world.sources.size(), seed);
  const auto& hosts = world.lab->topo.probe_hosts();
  rt::eval::Lab& lab = *world.lab;
  const rt::service::CampaignDeps deps{lab.topo,  lab.plane, lab.atlas,
                                       lab.ingress, lab.ip2as,
                                       lab.relationships};
  rt::service::ParallelCampaignDriver campaign(deps,
                                               campaign_options(workload));

  std::string line;
  if (!std::getline(std::cin, line) || line != "go") return 1;
  const std::int64_t start = now_ns();
  std::vector<std::pair<rt::topology::HostId, rt::topology::HostId>> pairs;
  for (std::size_t offset = 0;
       offset + workload.campaign_batch <= stream.size() &&
       seconds_since(start) < seconds;
       offset += workload.campaign_batch) {
    pairs.clear();
    for (std::size_t i = offset; i < offset + workload.campaign_batch; ++i) {
      pairs.emplace_back(hosts[stream[i].dest_index],
                         world.sources[stream[i].source_index]);
    }
    const auto report = campaign.run(pairs);
    std::string out = "batch " + std::to_string(report.wall_seconds) + " " +
                      std::to_string(report.results.size()) + "\n";
    for (const auto& r : report.results) out += encode_result(r) + "\n";
    out.pop_back();
    send_to_parent(out);
  }
  send_to_parent("done");
  while (std::getline(std::cin, line) && line != "stop") {
  }
  return 0;
}

Report run_campaign(const Workload& workload, const RunOptions& options) {
  Report report;
  const World world = build_world(workload);
  const std::vector<Request> stream = make_stream(
      workload, world.destinations(), world.sources.size(), options.seed);
  report.record["destinations"] =
      static_cast<std::uint64_t>(world.destinations());
  report.record["sources"] = static_cast<std::uint64_t>(world.sources.size());

  const std::vector<std::string> args = {
      "--role",    "campaign", "--workload",
      workload.name, "--seed", std::to_string(options.seed),
      "--seconds", std::to_string(options.seconds)};
  const Placement cpus = placement();
  auto setups = setup_only_runs(args, cpus.program);
  Child child(args, cpus.program);
  const auto setup = parse_ready(child.read_line(150));
  if (!setups.has_value() || !setup.has_value()) {
    report.fail("campaign set-up failed");
    return report;
  }
  setups->push_back(*setup);

  pin_self(cpus.generator);
  const double cpu0 = proc_cpu_seconds(child.pid());
  const double gen_cpu0 = self_cpu_seconds();
  child.send_line("go");
  std::vector<Observed> results;
  std::vector<double> batch_rps;
  std::vector<double> batch_us;
  bool done = false;
  while (!done) {
    const auto l = child.read_line(options.seconds + 60);
    if (!l.has_value()) break;
    if (*l == "done") {
      done = true;
    } else if (l->rfind("batch ", 0) == 0) {
      std::istringstream in(l->substr(6));
      double wall = 0;
      std::size_t n = 0;
      in >> wall >> n;
      batch_rps.push_back(static_cast<double>(n) / wall);
      batch_us.push_back(wall * 1e6);
      for (std::size_t i = 0; i < n; ++i) {
        const auto r = child.read_line(30);
        const std::size_t index = results.size();
        const auto o = r.has_value() && index < stream.size()
                           ? decode_result(*r, stream[index])
                           : std::nullopt;
        if (!o.has_value()) {
          report.fail("unreadable campaign result");
          done = true;
          break;
        }
        results.push_back(*o);
      }
    }
  }
  const double cpu1 = proc_cpu_seconds(child.pid());
  const double gen_cpu1 = self_cpu_seconds();
  const double rss_mb = proc_peak_rss_mb(child.pid());
  pin_self({});
  child.send_line("stop");
  if (!child.finish(10)) report.fail("campaign child did not exit cleanly");
  if (!done || results.empty()) {
    report.fail("campaign did not finish");
    return report;
  }

  const Verdict verdict = check_against_oracle(
      workload, world, results,
      std::max(1u, std::min(3u, std::thread::hardware_concurrency())));
  std::uint64_t probes = 0;
  std::uint64_t probe_free = 0;
  double sim_s = 0;
  for (const Observed& o : results) {
    probes += o.probes;
    if (o.probes == 0) ++probe_free;
    sim_s += static_cast<double>(o.sim_latency_us) * 1e-6;
  }
  const double n = static_cast<double>(results.size());
  report.attempted = results.size();
  report.failed = 0;
  report.set("setup_s", quantile(*setups, 0.5), "s");
  report.set("rss_mb", rss_mb, "MiB");
  report.set("client.rps", quantile(batch_rps, 0.5), "1/s");
  // A campaign's user waits for the whole run() call: its latency is the
  // batch's wall time, not any one request's.
  report.set("client.p50_us", quantile(batch_us, 0.5), "us");
  report.set("client.p99_us", quantile(batch_us, 0.99), "us");
  report.set("cpu_us_per_request", (cpu1 - cpu0) * 1e6 / n, "us");
  report.set("probes_per_request", static_cast<double>(probes) / n, "count");
  report.set("sim_mean_s", sim_s / n, "s");
  report.set("right_share", 1.0 - static_cast<double>(verdict.wrong) / n,
             "ratio");
  report.set("check.wrong_share", static_cast<double>(verdict.wrong) / n,
             "ratio");
  report.set("check.failed_share", 0.0, "ratio");
  report.set("core.probe_free_share", static_cast<double>(probe_free) / n,
             "ratio");
  // The batch path crosses no server layer, no agent, and has no open-loop
  // generator: those layers' numbers are zero here by construction.
  for (const char* name :
       {"client.submit_p50_us", "client.submit_p99_us", "server.wall_p50_us",
        "server.wall_p99_us", "server.outside_p50_us", "loadgen.late_p99_us"}) {
    report.set(name, 0.0, "us");
  }
  for (const char* name :
       {"server.rejected", "server.shed", "server.protocol_errors",
        "sched.reassigned", "sched.stale_results", "sched.agents_expired",
        "agent.probes_per_request"}) {
    report.set(name, 0.0, "count");
  }
  report.set("agent.max_share", 0.0, "ratio");
  report.set("loadgen.cpu_us_per_request",
             (gen_cpu1 - gen_cpu0) * 1e6 / n, "us");

  rt::util::Json tallies = rt::util::Json::object();
  tallies["batches"] = static_cast<std::uint64_t>(batch_rps.size());
  tallies["completed"] = static_cast<std::uint64_t>(results.size());
  tallies["oracle_wrong"] = static_cast<std::uint64_t>(verdict.wrong);
  tallies["oracle_wrong_status"] =
      static_cast<std::uint64_t>(verdict.wrong_status);
  tallies["oracle_wrong_address"] =
      static_cast<std::uint64_t>(verdict.wrong_address);
  tallies["oracle_wrong_provenance_only"] =
      static_cast<std::uint64_t>(verdict.wrong_provenance);
  report.record["tallies"] = std::move(tallies);
  rt::util::Json setup_list = rt::util::Json::array();
  for (double s : *setups) setup_list.push_back(s);
  report.record["setups_s"] = std::move(setup_list);

  if (options.trace) {
    run_twin(workload, world, stream, 0,
             std::min(results.size(), workload.twin_requests), options,
             report);
  }
  return report;
}

}  // namespace perfbench

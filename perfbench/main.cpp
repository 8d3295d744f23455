// perfbench: the revtr benchmark harness.
//
//   perfbench --workload hot|miss|agents|campaign --seed N --seconds S
//             --trace 0|1 [--workdir DIR]
//
// Prints a stamp line ("run {...}": seed, workload config, nproc, compiler,
// build type, tallies) and, as the last line of stdout, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, measured untraced;
// with --trace 1 the per-layer set, from the same untraced run plus the
// traced twin. perfbench/run.py builds this binary and runs it.
//
// Internal roles (the program under test, in child processes):
//   perfbench --role daemon --workload W --socket PATH [--setup-only]
//   perfbench --role campaign --workload W --seed N --seconds S [--setup-only]
#include <cstdio>
#include <map>
#include <string>
#include <thread>

#include "runs.h"

namespace {

using perfbench::Report;

// Metric names per --trace mode; BENCHMARK.json lists the same sets and
// run.py checks that the printed keys match it.
const char* const kEndToEnd[] = {
    "setup_s",          "rss_mb",     "cpu_us_per_request",
    "probes_per_request", "sim_mean_s", "right_share",
};

const char* const kPerLayer[] = {
    "client.rps", "client.p50_us", "client.p99_us", "client.submit_p50_us",
    "client.submit_p99_us", "server.wall_p50_us",
    "server.wall_p99_us", "server.outside_p50_us", "server.rejected",
    "server.shed", "server.protocol_errors", "frame.submit_encode_ns",
    "frame.result_decode_ns", "frame.result_bytes", "frame.agent_probe_ns",
    "frame.agent_result_ns", "admission.decide_ns",
    "core.self_us_per_request", "core.rounds_per_request",
    "core.probe_free_share", "core.rr_cache_replays_per_request",
    "sched.pump_self_us_per_request", "sched.submit_us_per_request",
    "sched.collect_us_per_request", "sched.coalesced_share",
    "sched.spoof_batch_fill", "sched.throttled", "sched.reassigned",
    "sched.stale_results", "sched.agents_expired", "probing.execute_us.rr",
    "probing.execute_us.spoofed_rr_batch", "probing.execute_us.ping",
    "probing.execute_us.ts", "probing.execute_us.traceroute",
    "probing.busy_share", "probing.probes_per_request.ping",
    "probing.probes_per_request.rr", "probing.probes_per_request.spoofed_rr",
    "probing.probes_per_request.ts", "probing.probes_per_request.traceroute",
    "agent.probes_per_request", "agent.max_share", "eval.lab_build_s",
    "vpselect.survey_s", "atlas.bootstrap_s", "loadgen.late_p99_us",
    "loadgen.cpu_us_per_request", "check.wrong_share", "check.failed_share",
    "twin.wall_s", "twin.unattributed_share", "twin.overhead_share",
};

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    if (key == "setup-only") {
      args[key] = "1";
    } else if (i + 1 < argc) {
      args[key] = argv[++i];
    }
  }
  return args;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload hot|miss|agents|campaign "
               "--seed N --seconds S --trace 0|1 [--workdir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  namespace rt = revtr;
  auto args = parse_args(argc, argv);
  const auto workload = perfbench::find_workload(args["workload"]);
  if (!workload.has_value()) return usage();

  const std::string role = args.count("role") ? args["role"] : "harness";
  if (role == "daemon") {
    return perfbench::daemon_role(*workload, args["socket"],
                                  args.count("setup-only") > 0);
  }
  if (role == "campaign") {
    return perfbench::campaign_role(
        *workload, std::stoull(args["seed"]), std::stod(args["seconds"]),
        args.count("setup-only") > 0);
  }
  if (role != "harness" || !args.count("seed") || !args.count("seconds") ||
      !args.count("trace")) {
    return usage();
  }

  perfbench::RunOptions options;
  options.seed = std::stoull(args["seed"]);
  options.seconds = std::stod(args["seconds"]);
  options.trace = args["trace"] == "1";
  options.workdir = args.count("workdir") ? args["workdir"] : ".";

  Report report = workload->serving()
                      ? perfbench::run_serving(*workload, options)
                      : perfbench::run_campaign(*workload, options);

  report.record["seed"] = options.seed;
  report.record["seconds"] = options.seconds;
  report.record["trace"] = options.trace;
  report.record["workload"] = workload->describe();
  report.record["nproc"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  report.record["compiler"] = PERFBENCH_COMPILER;
  report.record["build_type"] = PERFBENCH_BUILD_TYPE;
  rt::util::Json problems = rt::util::Json::array();
  for (const auto& p : report.problems) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
    problems.push_back(p);
  }
  report.record["problems"] = std::move(problems);
  rt::util::Json measured = rt::util::Json::object();
  for (const auto& [name, metric] : report.metrics) {
    measured[name] = metric.value;
  }
  report.record["measured"] = std::move(measured);
  std::printf("run %s\n", report.record.dump().c_str());

  rt::util::Json metrics = rt::util::Json::object();
  bool complete = true;
  const auto emit = [&](const char* name) {
    const auto it = report.metrics.find(name);
    if (it == report.metrics.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", name);
      complete = false;
      return;
    }
    rt::util::Json m = rt::util::Json::object();
    m["value"] = it->second.value;
    m["unit"] = it->second.unit;
    metrics[name] = std::move(m);
  };
  if (options.trace) {
    for (const char* name : kPerLayer) emit(name);
  } else {
    for (const char* name : kEndToEnd) emit(name);
  }
  if (!complete) return 1;

  rt::util::Json out = rt::util::Json::object();
  out["correct"] = report.correct;
  out["attempted"] = report.attempted;
  out["failed"] = report.failed;
  out["metrics"] = std::move(metrics);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

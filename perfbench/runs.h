// Entry points of the benchmark's roles. The harness role (run_serving /
// run_campaign) spawns the program roles (daemon_role / campaign_role) as
// separate processes of this binary, so the program's memory and CPU time
// are measured apart from the load generator, the oracle and the twin.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "workload.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  // Sockets and span files.
};

// Program roles (child processes).
int daemon_role(const Workload& workload, const std::string& socket,
                bool setup_only);
int campaign_role(const Workload& workload, std::uint64_t seed,
                  double seconds, bool setup_only);

// Harness roles.
Report run_serving(const Workload& workload, const RunOptions& options);
Report run_campaign(const Workload& workload, const RunOptions& options);

// The traced twin: feeds stream[first, first + count) through a runner
// built from the program's public layer calls, with a span around each
// call, and adds the per-layer metrics to `report`. `warm` requests before
// `first` are run untraced first (hot's cache warm-up).
void run_twin(const Workload& workload, const World& world,
              const std::vector<Request>& stream, std::size_t warm,
              std::size_t count, const RunOptions& options, Report& report);

// Set-up repetitions per run: at least kSetupMinRepeats, and more while they
// are cheap, until kSetupMinSeconds of set-up was measured (at most
// kSetupMaxRepeats). setup_s is their median. The last set-up is the one
// that serves the run.
inline constexpr std::size_t kSetupMinRepeats = 3;
inline constexpr std::size_t kSetupMaxRepeats = 9;
inline constexpr double kSetupMinSeconds = 1.5;

// Runs the program role `args` with --setup-only on `cpus`, one child after
// another, as often as the rule above asks before the final set-up. Returns
// the set-up times, or nullopt when a set-up failed.
std::optional<std::vector<double>> setup_only_runs(
    std::vector<std::string> args, const std::vector<int>& cpus);

// The set-up time a program role reports on its "ready <seconds>" line.
std::optional<double> parse_ready(const std::optional<std::string>& line);

}  // namespace perfbench

// Shared helpers of the benchmark harness: clocks, quantiles, /proc readers,
// child processes, and the metric record every workload fills in.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/json.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// Linear-interpolation quantile (the numpy default); 0 for an empty sample.
double quantile(std::vector<double> values, double q);

// Process CPU time (user + sys, all threads) of `pid`, from /proc.
double proc_cpu_seconds(pid_t pid);
// Peak resident set (VmHWM) of `pid` in MiB, from /proc.
double proc_peak_rss_mb(pid_t pid);
// CPU time of the calling process, nanosecond resolution.
double self_cpu_seconds();
// CPU time the host took from this machine's CPUs (the "steal" column of
// /proc/stat), summed over CPUs. On a virtual machine a thread on a CPU the
// host has taken stalls, which shows up in every latency tail.
double host_steal_seconds();

// CPU placement of a run: the program under test on every CPU but the last,
// the load generator on the last, so the two never compete for a CPU and
// every run places its threads alike. Both sets are empty (no pinning) on
// machines with fewer than 4 CPUs.
struct Placement {
  std::vector<int> program;
  std::vector<int> generator;
};
Placement placement();
// Restricts the calling thread (and threads it starts later) to `cpus`;
// an empty set allows every CPU.
void pin_self(const std::vector<int>& cpus);

// A metric as printed: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};

// What one run reports. `metrics` holds every end-to-end or per-layer
// number the run measured; main() prints the subset the --trace mode asks
// for. `record` is the run's stamp and diagnostics (printed, never gated).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  revtr::util::Json record = revtr::util::Json::object();
  std::vector<std::string> problems;  // Why `correct` is false.

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

// A child process running this binary in another role, with its stdin and
// stdout on pipes. The destructor kills and reaps it if still running, so no
// child outlives the run on any path.
class Child {
 public:
  // Starts /proc/self/exe with `args` (argv[1..]) on `cpus` (empty: any).
  Child(const std::vector<std::string>& args, const std::vector<int>& cpus);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const noexcept { return pid_; }
  bool send_line(const std::string& line);
  // Next stdout line, or nullopt on EOF or when `timeout_s` elapses.
  std::optional<std::string> read_line(double timeout_s);
  // Waits up to `timeout_s` for a clean exit; kills it otherwise. True when
  // it exited with status 0 on its own.
  bool finish(double timeout_s);
  void kill_now();

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buffer_;
  bool reaped_ = false;
};

// Child side: one line to the parent (stdout, flushed).
void send_to_parent(const std::string& line);

}  // namespace perfbench

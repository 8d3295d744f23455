#include "common.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double proc_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const auto close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double proc_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

double self_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double host_steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  in >> cpu;
  for (double& f : fields) in >> f;
  // user nice system idle iowait irq softirq steal
  return fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

Placement placement() {
  Placement p;
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  if (n < 4) return p;
  for (int cpu = 0; cpu < n - 1; ++cpu) p.program.push_back(cpu);
  p.generator.push_back(n - 1);
  return p;
}

void pin_self(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  if (cpus.empty()) {
    for (int cpu = 0; cpu < n; ++cpu) CPU_SET(cpu, &set);
  } else {
    for (const int cpu : cpus) CPU_SET(cpu, &set);
  }
  // Best effort: a machine that refuses pinning just runs unpinned.
  sched_setaffinity(0, sizeof(set), &set);
}

Child::Child(const std::vector<std::string>& args,
             const std::vector<int>& cpus) {
  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  if (pipe2(in_pipe, O_CLOEXEC) != 0 || pipe2(out_pipe, O_CLOEXEC) != 0) {
    std::perror("perfbench: pipe2");
    std::exit(2);
  }
  std::vector<std::string> argv_store = {"perfbench"};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& arg : argv_store) argv.push_back(arg.data());
  argv.push_back(nullptr);

  pid_ = fork();
  if (pid_ < 0) {
    std::perror("perfbench: fork");
    std::exit(2);
  }
  if (pid_ == 0) {
    if (!cpus.empty()) pin_self(cpus);
    dup2(in_pipe[0], STDIN_FILENO);
    dup2(out_pipe[1], STDOUT_FILENO);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(in_pipe[0]);
  close(out_pipe[1]);
  to_child_ = in_pipe[1];
  from_child_ = out_pipe[0];
}

Child::~Child() {
  kill_now();
  if (to_child_ >= 0) close(to_child_);
  if (from_child_ >= 0) close(from_child_);
}

bool Child::send_line(const std::string& line) {
  const std::string data = line + "\n";
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = write(to_child_, data.data() + done, data.size() - done);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::string> Child::read_line(double timeout_s) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  char buf[65536];
  for (;;) {
    const auto newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return line;
    }
    const std::int64_t left_ms = (deadline - now_ns()) / 1'000'000;
    if (left_ms <= 0) return std::nullopt;
    pollfd pfd{from_child_, POLLIN, 0};
    const int rc = poll(&pfd, 1, static_cast<int>(std::min<std::int64_t>(
                                     left_ms, 1'000'000)));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return std::nullopt;
    const ssize_t n = read(from_child_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    buffer_.append(buf, static_cast<std::size_t>(n));
  }
}

bool Child::finish(double timeout_s) {
  if (reaped_) return false;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  for (;;) {
    int status = 0;
    const pid_t rc = waitpid(pid_, &status, WNOHANG);
    if (rc == pid_) {
      reaped_ = true;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    if (rc < 0 || now_ns() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill_now();
  return false;
}

void Child::kill_now() {
  if (reaped_ || pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  reaped_ = true;
}

void send_to_parent(const std::string& line) {
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

}  // namespace perfbench

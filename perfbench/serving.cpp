// Serving workloads (hot, miss, agents): revtr_serverd's ServerDaemon in a
// child process, driven by a two-connection load generator in this one.
//
// A run: set the daemon up several times (setup_s is the median), keep the
// last one serving, warm the caches (hot only), then measure
//   * a closed-loop phase (DaemonClient, `window` outstanding requests per
//     connection) for half of --seconds: rps, SUBMIT round trips;
//   * an open-loop phase at the workload's fixed rate for the other half:
//     latency timed from each request's due time.
// Every request still outstanding at a phase's deadline counts as failed;
// every completed result is then checked against the oracle.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>

#include "agent/agent.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "runs.h"
#include "server/client.h"
#include "server/daemon.h"
#include "util/rng.h"

namespace perfbench {

namespace rt = revtr;

namespace {

constexpr const char* kApiKey = "perfbench-key";
// How long a phase waits for its outstanding requests after its last
// submission before counting them as failed.
constexpr double kGraceSeconds = 2.0;
// The open-loop generator is behind schedule, and the run invalid, when its
// p99 send delay exceeds this.
constexpr double kMaxLateP99Us = 20'000;

// One open-loop latency sample, keyed by the request's due time.
struct Timed {
  std::int64_t due_ns = 0;
  double us = 0;
};

// What one load-generator connection saw.
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t refused = 0;
  std::uint64_t shed = 0;
  std::uint64_t transport_failed = 0;
  std::uint64_t outstanding_at_deadline = 0;
  std::uint64_t unknown_results = 0;
  std::uint64_t completed = 0;
  std::uint64_t completed_in_window = 0;
  std::int64_t last_in_window_ns = 0;  // Last completion before the end.
  bool dry = false;                    // The feed ran out of requests.
  std::map<std::string, std::uint64_t> refusals;
  std::vector<Observed> results;
  std::vector<Timed> latency_us;     // Open loop: due -> RESULT (censored).
  std::vector<double> late_us;       // Open loop: due -> SUBMIT written.
  std::vector<double> submit_rt_us;  // Closed loop: SUBMIT -> SUBMIT_OK.

  std::uint64_t failed() const {
    return refused + shed + transport_failed + outstanding_at_deadline;
  }
  void merge(Tally&& other) {
    sent += other.sent;
    refused += other.refused;
    shed += other.shed;
    transport_failed += other.transport_failed;
    outstanding_at_deadline += other.outstanding_at_deadline;
    unknown_results += other.unknown_results;
    completed += other.completed;
    completed_in_window += other.completed_in_window;
    last_in_window_ns = std::max(last_in_window_ns, other.last_in_window_ns);
    dry = dry || other.dry;
    for (const auto& [reason, n] : other.refusals) refusals[reason] += n;
    const auto append = [](auto& into, auto& from) {
      into.insert(into.end(), std::make_move_iterator(from.begin()),
                  std::make_move_iterator(from.end()));
    };
    append(results, other.results);
    append(latency_us, other.latency_us);
    append(late_us, other.late_us);
    append(submit_rt_us, other.submit_rt_us);
  }
};

// The shared input cursor: both connections draw the next request from one
// stream, so every stream entry is sent at most once.
struct Feed {
  const std::vector<Request>& stream;
  std::atomic<std::size_t> next;
  std::size_t limit;

  std::optional<std::size_t> take() {
    const std::size_t i = next.fetch_add(1);
    if (i >= limit) return std::nullopt;
    return i;
  }
};

rt::server::Submit submit_for(const Feed& feed, std::size_t index) {
  rt::server::Submit s;
  s.request_id = index;
  s.dest_index = feed.stream[index].dest_index;
  s.source_index = feed.stream[index].source_index;
  s.priority = rt::server::Priority::kNormal;
  return s;
}

void record_result(const Feed& feed, const rt::server::Result& result,
                   Tally& tally) {
  if (result.shed) {
    ++tally.shed;
    return;
  }
  ++tally.completed;
  Observed o;
  o.request = feed.stream[result.request_id];
  o.status = result.status;
  o.hops = result.hops;
  o.probes = result.probes;
  o.sim_latency_us = result.sim_latency_us;
  tally.results.push_back(std::move(o));
}

// Closed loop over DaemonClient: keep `window` requests outstanding until
// `end_ns` (or the feed runs dry), then wait out the grace period.
Tally closed_loop(const std::string& socket, Feed& feed, std::size_t window,
                  std::int64_t end_ns) {
  Tally tally;
  rt::server::DaemonClient client;
  if (!client.connect(socket) || !client.hello(kApiKey).has_value()) {
    ++tally.transport_failed;
    return tally;
  }
  std::unordered_map<std::uint64_t, std::int64_t> outstanding;
  bool& dry = tally.dry;
  bool broken = false;
  const auto consume = [&](const rt::server::Result& result) {
    if (outstanding.erase(result.request_id) == 0) {
      ++tally.unknown_results;
      return;
    }
    if (const std::int64_t now = now_ns(); now < end_ns && !result.shed) {
      ++tally.completed_in_window;
      tally.last_in_window_ns = now;
    }
    record_result(feed, result, tally);
  };
  while (!broken && now_ns() < end_ns) {
    while (!dry && outstanding.size() < window) {
      const auto index = feed.take();
      if (!index.has_value()) {
        dry = true;
        break;
      }
      const std::int64_t t0 = now_ns();
      const bool accepted = client.submit(submit_for(feed, *index));
      tally.submit_rt_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      ++tally.sent;
      if (accepted) {
        outstanding.emplace(*index, t0);
      } else if (const auto reason = client.reject_reason()) {
        ++tally.refused;
        ++tally.refusals[std::string(rt::server::to_string(*reason))];
      } else {
        ++tally.transport_failed;
        broken = true;
        break;
      }
    }
    if (broken || outstanding.empty()) break;
    std::optional<rt::server::Result> result;
    const auto left_ms = std::max<std::int64_t>(
        (end_ns - now_ns()) / 1'000'000, 1);
    const auto status =
        client.next_result_for(result, static_cast<int>(left_ms));
    if (status == rt::server::DaemonClient::WaitStatus::kOk) {
      consume(*result);
    } else if (status == rt::server::DaemonClient::WaitStatus::kDisconnected) {
      broken = true;
    }
  }
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(kGraceSeconds * 1e9);
  while (!broken && !outstanding.empty() && now_ns() < deadline) {
    std::optional<rt::server::Result> result;
    const auto left_ms =
        std::max<std::int64_t>((deadline - now_ns()) / 1'000'000, 1);
    const auto status =
        client.next_result_for(result, static_cast<int>(left_ms));
    if (status == rt::server::DaemonClient::WaitStatus::kOk) {
      consume(*result);
    } else if (status == rt::server::DaemonClient::WaitStatus::kDisconnected) {
      broken = true;
    }
  }
  if (broken) {
    tally.transport_failed += outstanding.size();
  } else {
    tally.outstanding_at_deadline += outstanding.size();
  }
  return tally;
}

// A non-blocking pipelined connection for the open loop: SUBMITs go out at
// their due time whatever the daemon is doing, and RESULTs are read as they
// arrive, so neither side's delay hides in the other (DaemonClient waits
// for each SUBMIT_OK before it can send the next request).
class OpenConn {
 public:
  ~OpenConn() {
    if (fd_ >= 0) close(fd_);
  }

  bool connect_and_hello(const std::string& path) {
    fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return false;
    }
    rt::server::Hello hello;
    hello.api_key = kApiKey;
    if (!send(hello)) return false;
    bool ok = false;
    const std::int64_t deadline = now_ns() + 10'000'000'000;
    while (!ok && now_ns() < deadline) {
      if (!pump(100'000'000, [&](rt::server::Message&& m) {
            ok = std::holds_alternative<rt::server::HelloOk>(m);
          })) {
        return false;
      }
    }
    return ok;
  }

  bool send(const rt::server::Message& message) {
    const auto frame = rt::server::encode_frame(message);
    std::size_t done = 0;
    while (done < frame.size()) {
      const ssize_t n = write(fd_, frame.data() + done, frame.size() - done);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      done += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Waits up to `timeout_ns` for input, then hands every whole frame read
  // to `on_message`. False on EOF, error, or an undecodable frame.
  template <typename F>
  bool pump(std::int64_t timeout_ns, F&& on_message) {
    pollfd pfd{fd_, POLLIN, 0};
    const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                      static_cast<long>(timeout_ns % 1'000'000'000)};
    const int rc = ppoll(&pfd, 1, &ts, nullptr);
    if (rc < 0) return errno == EINTR;
    if (rc == 0) return true;
    std::uint8_t buf[65536];
    const ssize_t n = read(fd_, buf, sizeof(buf));
    if (n <= 0) return n < 0 && (errno == EINTR || errno == EAGAIN);
    in_.insert(in_.end(), buf, buf + n);
    std::size_t used = 0;
    for (;;) {
      const auto avail = std::span<const std::uint8_t>(in_).subspan(used);
      if (avail.size() < rt::server::kFrameHeaderSize) break;
      const auto header = rt::server::decode_frame_header(avail);
      if (!header.has_value()) return false;
      const std::size_t total =
          rt::server::kFrameHeaderSize + header->payload_len;
      if (avail.size() < total) break;
      auto message = rt::server::decode_payload(
          header->type,
          avail.subspan(rt::server::kFrameHeaderSize, header->payload_len));
      used += total;
      if (!message.has_value()) return false;
      on_message(*std::move(message));
    }
    in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(used));
    return true;
  }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> in_;
};

// Open loop: Poisson arrivals at `rate` per second from `start_ns` to
// `end_ns`, each timed from its due time. Requests refused or still
// outstanding at the deadline count as failed and enter the latency sample
// censored at the deadline: they missed any latency limit.
Tally open_loop(const std::string& socket, Feed& feed, double rate,
                std::int64_t start_ns, std::int64_t end_ns,
                std::uint64_t arrival_seed) {
  Tally tally;
  OpenConn conn;
  if (!conn.connect_and_hello(socket)) {
    ++tally.transport_failed;
    return tally;
  }
  rt::util::Rng rng(arrival_seed);
  std::vector<std::int64_t> due;
  for (double t = static_cast<double>(start_ns);;) {
    t += rng.exponential(1e9 / rate);
    if (t >= static_cast<double>(end_ns)) break;
    due.push_back(static_cast<std::int64_t>(t));
  }
  const std::int64_t deadline =
      end_ns + static_cast<std::int64_t>(kGraceSeconds * 1e9);
  std::unordered_map<std::uint64_t, std::int64_t> outstanding;  // id -> due
  const auto censored = [&](std::int64_t due_ns) {
    tally.latency_us.push_back(
        Timed{due_ns, static_cast<double>(deadline - due_ns) * 1e-3});
  };
  const auto on_message = [&](rt::server::Message&& message) {
    if (auto* result = std::get_if<rt::server::Result>(&message)) {
      const auto it = outstanding.find(result->request_id);
      if (it == outstanding.end()) {
        ++tally.unknown_results;
        return;
      }
      if (result->shed) {
        censored(it->second);
      } else {
        tally.latency_us.push_back(Timed{
            it->second, static_cast<double>(now_ns() - it->second) * 1e-3});
      }
      outstanding.erase(it);
      record_result(feed, *result, tally);
    } else if (auto* err = std::get_if<rt::server::SubmitErr>(&message)) {
      const auto it = outstanding.find(err->request_id);
      if (it == outstanding.end()) {
        ++tally.unknown_results;
        return;
      }
      censored(it->second);
      outstanding.erase(it);
      ++tally.refused;
      ++tally.refusals[std::string(rt::server::to_string(err->reason))];
    }
  };
  std::size_t next = 0;
  bool broken = false;
  while (!broken) {
    const std::int64_t now = now_ns();
    while (next < due.size() && due[next] <= now) {
      const auto index = feed.take();
      if (!index.has_value()) {
        next = due.size();
        break;
      }
      ++tally.sent;
      outstanding.emplace(*index, due[next]);
      if (!conn.send(submit_for(feed, *index))) {
        broken = true;
        break;
      }
      tally.late_us.push_back(static_cast<double>(now_ns() - due[next]) *
                              1e-3);
      ++next;
    }
    if (broken) break;
    if (next >= due.size() && outstanding.empty()) break;
    const std::int64_t wake = next < due.size() ? due[next] : deadline;
    if (now_ns() >= deadline) break;
    if (!conn.pump(std::max<std::int64_t>(wake - now_ns(), 0), on_message)) {
      broken = true;
    }
  }
  for (const auto& [id, due_ns] : outstanding) censored(due_ns);
  if (broken) {
    tally.transport_failed += outstanding.size();
  } else {
    tally.outstanding_at_deadline += outstanding.size();
  }
  return tally;
}

template <typename F>
Tally on_two_connections(F&& body) {
  Tally a;
  Tally b;
  std::thread second([&] { b = body(1); });
  a = body(0);
  second.join();
  a.merge(std::move(b));
  return a;
}

// The daemon's wall-time histogram as (le, cumulative count) pairs.
using Buckets = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

Buckets daemon_wall_histogram(Child& daemon) {
  Buckets buckets;
  if (!daemon.send_line("wall")) return buckets;
  const auto line = daemon.read_line(30);
  if (!line.has_value() || line->rfind("wall ", 0) != 0) return buckets;
  const auto json = rt::util::Json::parse(line->substr(5));
  if (!json.has_value() || !json->is_array()) return buckets;
  for (const auto& pair : json->as_array()) {
    buckets.emplace_back(static_cast<std::uint64_t>(pair.as_array()[0].as_int()),
                         static_cast<std::uint64_t>(pair.as_array()[1].as_int()));
  }
  return buckets;
}

// q-quantile of the samples recorded between two snapshots of one histogram.
double quantile_between(const Buckets& before, const Buckets& after, double q) {
  rt::obs::HistogramSample diff;
  std::size_t b = 0;
  std::uint64_t before_cumulative = 0;
  for (const auto& [le, cumulative] : after) {
    while (b < before.size() && before[b].first <= le) {
      before_cumulative = before[b++].second;
    }
    diff.buckets.emplace_back(le, cumulative - before_cumulative);
  }
  diff.count = diff.buckets.empty() ? 0 : diff.buckets.back().second;
  return rt::obs::histogram_quantile(diff, q);
}

double json_number(const rt::util::Json& json, const std::string& key) {
  const rt::util::Json* v = json.find(key);
  return v != nullptr && v->is_number() ? v->as_double() : 0.0;
}

}  // namespace

int daemon_role(const Workload& workload, const std::string& socket,
                bool setup_only) {
  const std::int64_t t0 = now_ns();
  auto daemon = std::make_unique<rt::server::ServerDaemon>(
      server_options(workload, socket));
  if (!daemon->start()) {
    send_to_parent("error daemon start failed");
    return 1;
  }
  std::vector<std::unique_ptr<rt::agent::AgentDaemon>> agents;
  std::vector<std::thread> agent_threads;
  for (std::size_t a = 0; a < workload.agents; ++a) {
    rt::agent::AgentOptions options;
    options.socket_path = socket;
    options.name = "perfbench-agent-" + std::to_string(a);
    options.topo = workload.topo;
    options.seed = workload.lab_seed;
    agents.push_back(std::make_unique<rt::agent::AgentDaemon>(options));
    agent_threads.emplace_back([raw = agents.back().get()] { raw->run(); });
  }
  // Set-up ends when the daemon can serve: started, and in remote mode with
  // every agent registered.
  const std::int64_t give_up = now_ns() + 120'000'000'000;
  for (const auto& agent : agents) {
    while (agent->agent_id() == 0 && now_ns() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (agent->agent_id() == 0) {
      send_to_parent("error agent did not register");
      std::_Exit(1);
    }
  }
  send_to_parent("ready " + std::to_string(seconds_since(t0)));

  if (!setup_only) {
    std::string line;
    while (std::getline(std::cin, line) && line != "stop") {
      if (line == "wall") {
        // The daemon's own request wall-time histogram, so the parent can
        // take the daemon-side latency of one phase by difference.
        const auto snapshot = daemon->registry().snapshot();
        const auto* wall = snapshot.find_histogram("revtr_server_request_wall_us");
        rt::util::Json buckets = rt::util::Json::array();
        if (wall != nullptr) {
          for (const auto& [le, cumulative] : wall->buckets) {
            buckets.push_back(rt::util::Json(
                rt::util::Json::Array{rt::util::Json(le),
                                      rt::util::Json(cumulative)}));
          }
        }
        send_to_parent("wall " + buckets.dump());
      }
    }
    const rt::server::ServerCounters c = daemon->counters();
    const rt::sched::SchedulerStats s = daemon->sched_stats();
    rt::util::Json report = rt::util::Json::object();
    report["accepted"] = c.accepted;
    report["rejected"] = c.rejected;
    report["completed"] = c.completed;
    report["shed"] = c.shed_queued;
    report["protocol_errors"] = c.protocol_errors;
    report["sched_demanded"] = s.demanded;
    report["sched_issued"] = s.issued;
    report["sched_coalesced"] = s.coalesced;
    report["sched_throttled"] = s.throttled;
    report["sched_wire_batches"] = s.wire_batches;
    report["sched_reassigned"] = s.reassigned;
    report["sched_stale_results"] = s.stale_results;
    report["sched_agents_expired"] = s.agents_expired;
    rt::util::Json executed = rt::util::Json::array();
    for (const auto& agent : agents) executed.push_back(agent->counters().executed);
    report["agent_executed"] = std::move(executed);
    send_to_parent("report " + report.dump());
  }
  // The daemon is not drained: a stalled daemon never drains, and the
  // parent has what it needs. Ending the process ends its threads.
  std::fflush(stdout);
  std::_Exit(0);
}

Report run_serving(const Workload& workload, const RunOptions& options) {
  Report report;
  const World world = build_world(workload);
  const std::size_t destinations = world.destinations();
  const std::vector<Request> stream = make_stream(
      workload, destinations, world.sources.size(), options.seed);
  report.record["destinations"] = static_cast<std::uint64_t>(destinations);
  report.record["sources"] = static_cast<std::uint64_t>(world.sources.size());
  report.record["stream_length"] = static_cast<std::uint64_t>(stream.size());
  report.record["world_build_s"] = rt::util::Json(rt::util::Json::Array{
      world.lab_build_s, world.survey_s, world.bootstrap_s});

  const std::string socket =
      options.workdir + "/pb" + std::to_string(getpid()) + ".sock";
  const std::vector<std::string> daemon_args = {
      "--role", "daemon", "--workload", workload.name, "--socket", socket};

  // A daemon binds its socket path afresh (unlinking a stale file) and never
  // removes it on the way out here, so the path is unlinked once at the end.
  const Placement cpus = placement();
  auto setups = setup_only_runs(daemon_args, cpus.program);
  Child daemon(daemon_args, cpus.program);
  const auto setup = parse_ready(daemon.read_line(150));
  if (!setups.has_value() || !setup.has_value()) {
    report.fail("daemon set-up failed");
    unlink(socket.c_str());
    return report;
  }
  setups->push_back(*setup);
  report.set("setup_s", quantile(*setups, 0.5), "s");

  Feed feed{stream, {0}, stream.size()};
  Tally all;
  pin_self(cpus.generator);  // Load-generator threads inherit this.
  if (workload.warm_requests > 0) {
    // Warm the atlas and RR caches through the daemon itself; untimed.
    feed.limit = std::min(workload.warm_requests, stream.size());
    const std::int64_t end = now_ns() + 60'000'000'000;
    all.merge(on_two_connections([&](int) {
      return closed_loop(socket, feed, workload.window, end);
    }));
    feed.next = feed.limit;
    feed.limit = stream.size();
  }
  const std::size_t warm_completed = all.completed;

  const double half = options.seconds / 2;
  const double cpu0 = proc_cpu_seconds(daemon.pid());
  const double gen_cpu0 = self_cpu_seconds();
  const double steal0 = host_steal_seconds();
  const std::int64_t closed_start = now_ns();
  const std::int64_t closed_end =
      closed_start + static_cast<std::int64_t>(half * 1e9);
  // The closed phase may not eat the pairs the open phase needs; when a
  // faster program runs the feed dry, rps is taken over the time it needed.
  if (workload.kind != Kind::kHot) {
    const auto reserve =
        static_cast<std::size_t>(workload.open_rate * half * 1.25) + 64;
    feed.limit = stream.size() > reserve ? stream.size() - reserve : 0;
  }
  Tally closed = on_two_connections([&](int) {
    return closed_loop(socket, feed, workload.window, closed_end);
  });
  const double closed_s =
      closed.dry ? static_cast<double>(closed.last_in_window_ns - closed_start) * 1e-9
                 : half;
  const double rps = static_cast<double>(closed.completed_in_window) /
                     std::max(closed_s, 1e-3);
  report.record["closed_phase_s"] = closed_s;
  report.record["closed_completed"] = closed.completed_in_window;
  feed.next = std::min(feed.next.load(), feed.limit);
  feed.limit = stream.size();

  const Buckets wall_before = daemon_wall_histogram(daemon);
  const std::int64_t open_start = now_ns();
  const std::int64_t open_end = open_start + static_cast<std::int64_t>(half * 1e9);
  Tally open = on_two_connections([&](int c) {
    return open_loop(socket, feed, workload.open_rate / 2, open_start,
                     open_end, rt::util::mix_hash(options.seed, c, 0x6f70ULL));
  });
  const Buckets wall_after = daemon_wall_histogram(daemon);
  const double cpu1 = proc_cpu_seconds(daemon.pid());
  const double gen_cpu1 = self_cpu_seconds();
  const double rss_mb = proc_peak_rss_mb(daemon.pid());
  pin_self({});

  std::string stats_text = "{}";
  {
    rt::server::DaemonClient control;
    if (control.connect(socket) && control.hello(kApiKey).has_value()) {
      stats_text = control.stats().value_or("{}");
    }
  }
  const rt::util::Json stats =
      rt::util::Json::parse(stats_text).value_or(rt::util::Json::object());
  daemon.send_line("stop");
  std::optional<rt::util::Json> daemon_report;
  if (const auto line = daemon.read_line(30);
      line.has_value() && line->rfind("report ", 0) == 0) {
    daemon_report = rt::util::Json::parse(line->substr(7));
  }
  daemon.finish(10);
  unlink(socket.c_str());

  const std::vector<double> submit_rt = closed.submit_rt_us;
  const std::vector<double> late = open.late_us;
  std::vector<double> latency;
  for (const Timed& t : open.latency_us) latency.push_back(t.us);
  const double p50_us = quantile(latency, 0.5);
  const double p99_us = quantile(latency, 0.99);
  report.record["host_steal_share"] =
      (host_steal_seconds() - steal0) /
      (seconds_since(closed_start) *
       static_cast<double>(std::thread::hardware_concurrency()));
  if (options.trace) {
    // Client-side spans of the open loop: due time (from the phase start)
    // and latency of every request.
    const std::string path = options.workdir + "/client-" + workload.name +
                             "-seed" + std::to_string(options.seed) + ".tsv";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "due_ns\tlatency_us\n");
      for (const Timed& t : open.latency_us) {
        std::fprintf(f, "%lld\t%.3f\n",
                     static_cast<long long>(t.due_ns - open_start), t.us);
      }
      std::fclose(f);
      report.record["client_span_file"] = path;
    }
  }
  const std::size_t latency_samples = open.latency_us.size();
  all.merge(std::move(closed));
  all.merge(std::move(open));
  const std::uint64_t timed_completed = all.completed - warm_completed;

  // Results of the timed phases only (the warm-up is set-up work).
  std::uint64_t probes = 0;
  std::uint64_t probe_free = 0;
  double sim_s = 0;
  for (std::size_t i = warm_completed; i < all.results.size(); ++i) {
    const Observed& o = all.results[i];
    probes += o.probes;
    if (o.probes == 0) ++probe_free;
    sim_s += static_cast<double>(o.sim_latency_us) * 1e-6;
  }
  const double per_request = timed_completed > 0
                                 ? 1.0 / static_cast<double>(timed_completed)
                                 : 0.0;

  const Verdict verdict = check_against_oracle(
      workload, world, all.results,
      std::max(1u, std::min(3u, std::thread::hardware_concurrency())));

  report.attempted = all.sent;
  report.failed = all.failed();
  report.set("rss_mb", rss_mb, "MiB");
  report.set("client.rps", rps, "1/s");
  report.set("client.p50_us", p50_us, "us");
  report.set("client.p99_us", p99_us, "us");
  report.set("cpu_us_per_request", (cpu1 - cpu0) * 1e6 * per_request, "us");
  report.set("probes_per_request", static_cast<double>(probes) * per_request,
             "count");
  report.set("sim_mean_s", sim_s * per_request, "s");
  const double checked = std::max<double>(static_cast<double>(verdict.checked), 1);
  report.set("right_share",
             1.0 - static_cast<double>(verdict.wrong) / checked, "ratio");
  report.set("check.wrong_share", static_cast<double>(verdict.wrong) / checked,
             "ratio");
  report.set("check.failed_share",
             static_cast<double>(all.failed()) /
                 std::max<double>(static_cast<double>(all.sent), 1),
             "ratio");

  // Per-layer numbers the untraced run already has: client-side round
  // trips, the generator's own cost and lateness, and daemon counters.
  report.set("client.submit_p50_us", quantile(submit_rt, 0.5), "us");
  report.set("client.submit_p99_us", quantile(submit_rt, 0.99), "us");
  // Daemon-side wall time (accepted -> RESULT queued) of the open-loop
  // phase, from the histogram STATS reports, taken by difference.
  const double daemon_p50 = quantile_between(wall_before, wall_after, 0.5);
  report.set("server.wall_p50_us", daemon_p50, "us");
  report.set("server.wall_p99_us",
             quantile_between(wall_before, wall_after, 0.99), "us");
  report.set("server.outside_p50_us", p50_us - daemon_p50, "us");
  report.record["stats"] = stats;
  const double late_p99 = quantile(late, 0.99);
  report.set("loadgen.late_p99_us", late_p99, "us");
  report.set("loadgen.cpu_us_per_request",
             (gen_cpu1 - gen_cpu0) * 1e6 * per_request, "us");
  report.set("core.probe_free_share",
             static_cast<double>(probe_free) * per_request, "ratio");
  if (daemon_report.has_value()) {
    const rt::util::Json& d = *daemon_report;
    report.set("server.rejected", json_number(d, "rejected"), "count");
    report.set("server.shed", json_number(d, "shed"), "count");
    report.set("server.protocol_errors", json_number(d, "protocol_errors"),
               "count");
    const double demanded = std::max(json_number(d, "sched_demanded"), 1.0);
    report.set("sched.coalesced_share",
               json_number(d, "sched_coalesced") / demanded, "ratio");
    report.set("sched.throttled", json_number(d, "sched_throttled"), "count");
    report.set("sched.reassigned", json_number(d, "sched_reassigned"), "count");
    report.set("sched.stale_results", json_number(d, "sched_stale_results"),
               "count");
    report.set("sched.agents_expired", json_number(d, "sched_agents_expired"),
               "count");
    double executed = 0;
    double busiest = 0;
    if (const rt::util::Json* a = d.find("agent_executed"); a && a->is_array()) {
      for (const auto& v : a->as_array()) {
        executed += v.as_double();
        busiest = std::max(busiest, v.as_double());
      }
    }
    const double all_completed =
        std::max(static_cast<double>(all.completed), 1.0);
    report.set("agent.probes_per_request", executed / all_completed, "count");
    report.set("agent.max_share", executed > 0 ? busiest / executed : 0,
               "ratio");
    report.record["daemon"] = *daemon_report;
  } else {
    report.fail("daemon sent no final report");
  }

  // Run validity and accounting.
  if (all.unknown_results > 0) {
    report.fail(std::to_string(all.unknown_results) +
                " results for requests never sent or already answered");
  }
  if (late_p99 > kMaxLateP99Us) {
    report.fail("open-loop generator behind schedule: late p99 " +
                std::to_string(late_p99) + " us");
  }
  if (feed.next.load() >= stream.size()) {
    report.fail("request stream exhausted before the run ended");
  }
  if (verdict.checked != all.completed) {
    report.fail("not every completed result was checked");
  }

  rt::util::Json tallies = rt::util::Json::object();
  tallies["sent"] = all.sent;
  tallies["completed"] = all.completed;
  tallies["warm_completed"] = static_cast<std::uint64_t>(warm_completed);
  tallies["refused"] = all.refused;
  tallies["shed"] = all.shed;
  tallies["transport_failed"] = all.transport_failed;
  tallies["outstanding_at_deadline"] = all.outstanding_at_deadline;
  rt::util::Json refusals = rt::util::Json::object();
  for (const auto& [reason, n] : all.refusals) refusals[reason] = n;
  tallies["refusals"] = std::move(refusals);
  tallies["open_loop_samples"] = static_cast<std::uint64_t>(latency_samples);
  tallies["oracle_checked"] = static_cast<std::uint64_t>(verdict.checked);
  tallies["oracle_pairs"] = static_cast<std::uint64_t>(verdict.distinct_pairs);
  tallies["oracle_wrong"] = static_cast<std::uint64_t>(verdict.wrong);
  tallies["oracle_wrong_status"] = static_cast<std::uint64_t>(verdict.wrong_status);
  tallies["oracle_wrong_address"] =
      static_cast<std::uint64_t>(verdict.wrong_address);
  tallies["oracle_wrong_provenance_only"] =
      static_cast<std::uint64_t>(verdict.wrong_provenance);
  report.record["tallies"] = std::move(tallies);
  rt::util::Json setup_list = rt::util::Json::array();
  for (double s : *setups) setup_list.push_back(s);
  report.record["setups_s"] = std::move(setup_list);

  if (options.trace) {
    const std::size_t first = workload.warm_requests;
    const std::size_t count =
        std::min(stream.size() - first, workload.twin_requests);
    run_twin(workload, world, stream, first, count, options, report);
  }
  return report;
}

}  // namespace perfbench

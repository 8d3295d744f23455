#include "server/daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <span>
#include <unordered_map>
#include <utility>

#include "probing/prober.h"
#include "util/check.h"
#include "util/json.h"

namespace revtr::server {

namespace {

// One daemon per process for signal routing (install_signal_handlers).
std::atomic<ServerDaemon*> g_signal_daemon{nullptr};

void drain_signal_handler(int /*signum*/) {
  // Async-signal-safe: request_drain is an atomic store + one write().
  ServerDaemon* daemon = g_signal_daemon.load(std::memory_order_acquire);
  if (daemon != nullptr) daemon->request_drain();
}

}  // namespace

// Per-connection state, owned exclusively by the net thread (no locks).
struct ServerDaemon::Conn {
  int fd = -1;
  std::uint64_t id = 0;
  FrameReader in;
  std::vector<std::uint8_t> out;
  // Pull mode: encoded RESULT frames buffered until the client POLLs.
  std::deque<std::vector<std::uint8_t>> pull_queue;
  bool authed = false;
  bool push = true;
  bool awaiting_drain = false;
  bool closed = false;
  service::UserId tenant = 0;
  // Remote mode: this connection is a registered VP agent (AGENT_REGISTER
  // accepted); `agent` is its scheduler id. drain_sent keeps the drained
  // net loop from re-sending AGENT_DRAIN every poll iteration.
  bool is_agent = false;
  bool drain_sent = false;
  sched::ProbeScheduler::AgentId agent = 0;
};

ServerDaemon::ServerDaemon(ServerOptions options)
    : options_(std::move(options)), admission_(options_.admission) {}

ServerDaemon::~ServerDaemon() {
  stop();
  if (g_signal_daemon.load(std::memory_order_acquire) == this) {
    install_signal_handlers(nullptr);
  }
}

std::int64_t ServerDaemon::now_us() const {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
  return (ns - epoch_ns_) / 1000;
}

void ServerDaemon::wake_net() noexcept {
  if (wake_pipe_[1] < 0) return;
  const char byte = 'w';
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  [[maybe_unused]] const ssize_t rc = write(wake_pipe_[1], &byte, 1);
}

void ServerDaemon::request_drain() noexcept {
  drain_requested_.store(true, std::memory_order_release);
  wake_net();
}

void ServerDaemon::begin_drain() {
  {
    const util::MutexLock lock(mu_);
    draining_ = true;
    mark_drained_if_idle_locked();
  }
  work_cv_.notify_all();
}

void ServerDaemon::mark_drained_if_idle_locked() {
  if (draining_ && queued_ == 0 && inflight_count_ == 0 && !drained_) {
    drained_ = true;
    drained_cv_.notify_all();
  }
}

void ServerDaemon::install_signal_handlers(ServerDaemon* daemon) {
  g_signal_daemon.store(daemon, std::memory_order_release);
  if (daemon != nullptr) {
    std::signal(SIGTERM, drain_signal_handler);
    std::signal(SIGINT, drain_signal_handler);
  } else {
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
  }
}

bool ServerDaemon::start() {
  REVTR_CHECK(!started_);
  epoch_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();

  // --- Measurement stack: built once, hot for the daemon's lifetime. ---
  lab_ = std::make_unique<eval::Lab>(options_.topo, options_.engine,
                                     options_.seed);
  // Every ingress plan is surveyed now so no worker ever triggers an
  // on-demand discovery mid-request (same rule as the campaign driver).
  lab_->precompute_all_ingresses();

  service_metrics_ = std::make_unique<service::ServiceMetrics>(registry_);
  engine_metrics_ = std::make_unique<core::EngineMetrics>(registry_);
  probe_metrics_ = std::make_unique<probing::ProbeMetrics>(registry_);
  sched_metrics_ = std::make_unique<sched::SchedMetrics>(registry_);
  lab_->prober.set_metrics(&*probe_metrics_);

  service_ = std::make_unique<service::RevtrService>(lab_->engine, lab_->atlas,
                                                     lab_->prober, lab_->topo);
  service_->set_metrics(&*service_metrics_);

  const auto& vps = lab_->topo.vantage_points();
  const std::size_t want_sources =
      std::min(std::max<std::size_t>(options_.sources, 1), vps.size());
  for (std::size_t i = 0;
       i < vps.size() && source_hosts_.size() < want_sources; ++i) {
    if (service_->add_source(vps[i], options_.atlas_size, lab_->rng)) {
      source_hosts_.push_back(vps[i]);
    }
  }
  if (source_hosts_.empty()) {
    std::fprintf(stderr, "revtr_serverd: no vantage point bootstrapped\n");
    return false;
  }

  tenant_configs_ = options_.tenants;
  if (tenant_configs_.empty()) tenant_configs_.emplace_back();
  for (const TenantConfig& tenant : tenant_configs_) {
    const service::UserId id = service_->add_user(tenant.name, tenant.limits);
    tenant_ids_.push_back(id);
    {
      const util::MutexLock lock(mu_);
      admission_.add_tenant(id, tenant.bucket);
    }
    {
      const util::MutexLock lock(mu_);
      queue_.set_weight(id, tenant.weight);
    }
    if (tenant_metrics_.size() <= id) tenant_metrics_.resize(id + 1);
    tenant_metrics_[id].requests = &registry_.counter(
        std::string("revtr_server_tenant_requests_total{tenant=\"") +
        tenant.name + "\"}");
  }

  scheduler_ = std::make_unique<sched::ProbeScheduler>(options_.sched);
  scheduler_->set_metrics(&*sched_metrics_);
  if (options_.sched_audit != nullptr) {
    scheduler_->set_audit(options_.sched_audit);
  }

  // One runner per worker, all over one EngineCaches (see WorkerStack).
  caches_ = std::make_shared<core::EngineCaches>();
  const service::CampaignDeps deps{lab_->topo,  lab_->plane, lab_->atlas,
                                   lab_->ingress, lab_->ip2as,
                                   lab_->relationships};
  const std::size_t workers = std::max<std::size_t>(options_.workers, 1);
  for (std::size_t w = 0; w < workers; ++w) {
    runners_.push_back(std::make_unique<service::RequestRunner>(
        deps, options_.engine, options_.seed, caches_, *scheduler_, w));
    runners_.back()->stack().prober.set_metrics(&*probe_metrics_);
    runners_.back()->stack().engine.set_metrics(&*engine_metrics_);
  }

  // Metric handles resolved once: the registry mutex (rank 10) must never
  // be taken under the daemon mutex (rank 110).
  requests_total_ = &registry_.counter("revtr_server_requests_total");
  completed_total_ = &registry_.counter("revtr_server_completed_total");
  sheds_total_ = &registry_.counter("revtr_server_sheds_total");
  deadline_miss_total_ =
      &registry_.counter("revtr_server_deadline_miss_total");
  connections_total_ = &registry_.counter("revtr_server_connections_total");
  protocol_errors_total_ =
      &registry_.counter("revtr_server_protocol_errors_total");
  for (std::uint8_t r = 0; r <= kMaxRejectReason; ++r) {
    reject_reasons_.push_back(&registry_.counter(
        std::string("revtr_server_rejects_total{reason=\"") +
        std::string(to_string(static_cast<RejectReason>(r))) + "\"}"));
  }
  wall_latency_us_ = &registry_.histogram("revtr_server_request_wall_us");
  sim_latency_us_ = &registry_.histogram("revtr_server_request_sim_us");
  queue_depth_ = &registry_.gauge("revtr_server_queue_depth");
  inflight_ = &registry_.gauge("revtr_server_inflight");

  // --- Socket + self-pipe. ---
  if (pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) != 0) {
    std::fprintf(stderr, "revtr_serverd: pipe2: %s\n", std::strerror(errno));
    return false;
  }
  listen_fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    std::fprintf(stderr, "revtr_serverd: socket: %s\n", std::strerror(errno));
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "revtr_serverd: socket path too long: %s\n",
                 options_.socket_path.c_str());
    return false;
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  unlink(options_.socket_path.c_str());
  if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    std::fprintf(stderr, "revtr_serverd: bind %s: %s\n",
                 options_.socket_path.c_str(), std::strerror(errno));
    return false;
  }
  if (listen(listen_fd_, 64) != 0) {
    std::fprintf(stderr, "revtr_serverd: listen: %s\n", std::strerror(errno));
    return false;
  }

  threads_.emplace_back([this] { net_loop(); });
  for (std::size_t w = 0; w < workers; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
  started_ = true;
  return true;
}

void ServerDaemon::wait_until_drained() {
  util::MutexLock lock(mu_);
  while (!drained_ && !stopping_) drained_cv_.wait(lock);
}

void ServerDaemon::stop() {
  if (!started_) return;
  request_drain();
  wait_until_drained();
  {
    const util::MutexLock lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  drained_cv_.notify_all();
  wake_net();
  for (auto& thread : threads_) thread.join();
  threads_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : wake_pipe_) {
    if (fd >= 0) close(fd);
    fd = -1;
  }
  unlink(options_.socket_path.c_str());
  started_ = false;
}

bool ServerDaemon::draining() const {
  const util::MutexLock lock(mu_);
  return draining_;
}

ServerCounters ServerDaemon::counters() const {
  const util::MutexLock lock(mu_);
  return counters_;
}

sched::SchedulerStats ServerDaemon::sched_stats() const {
  return scheduler_ ? scheduler_->stats() : sched::SchedulerStats{};
}

void ServerDaemon::set_worker_hold(bool hold) {
  {
    const util::MutexLock lock(mu_);
    worker_hold_ = hold;
  }
  work_cv_.notify_all();
}

std::string ServerDaemon::build_stats_json() {
  const obs::MetricsSnapshot snapshot = registry_.snapshot();
  ServerCounters c;
  std::size_t queued = 0;
  std::size_t inflight = 0;
  bool draining = false;
  bool drained = false;
  {
    const util::MutexLock lock(mu_);
    c = counters_;
    queued = queued_;
    inflight = inflight_count_;
    draining = draining_;
    drained = drained_;
  }
  util::Json json = util::Json::object();
  json["connections"] = c.connections;
  json["accepted"] = c.accepted;
  json["rejected"] = c.rejected;
  json["completed"] = c.completed;
  json["shed"] = c.shed_queued;
  json["deadline_missed"] = c.deadline_missed;
  json["protocol_errors"] = c.protocol_errors;
  json["queued"] = static_cast<std::uint64_t>(queued);
  json["inflight"] = static_cast<std::uint64_t>(inflight);
  json["draining"] = draining;
  json["drained"] = drained;
  if (const auto* wall =
          snapshot.find_histogram("revtr_server_request_wall_us")) {
    json["wall_count"] = wall->count;
    json["wall_p50_us"] = obs::histogram_quantile(*wall, 0.5);
    json["wall_p99_us"] = obs::histogram_quantile(*wall, 0.99);
    json["wall_p999_us"] = obs::histogram_quantile(*wall, 0.999);
  }
  if (const auto* sim =
          snapshot.find_histogram("revtr_server_request_sim_us")) {
    json["sim_p50_us"] = obs::histogram_quantile(*sim, 0.5);
    json["sim_p99_us"] = obs::histogram_quantile(*sim, 0.99);
  }
  return json.dump();
}

// --- Net thread. ------------------------------------------------------------

namespace {

// Appends the encoded form of `message` to the connection's output buffer.
void append_frame(std::vector<std::uint8_t>& out, const Message& message) {
  const auto frame = encode_frame(message);
  out.insert(out.end(), frame.begin(), frame.end());
}

}  // namespace

void ServerDaemon::handle_message(Conn& conn, Message message) {
  if (const Hello* hello = std::get_if<Hello>(&message)) {
    if (hello->proto_version != kProtoVersion) {
      append_frame(conn.out, HelloErr{RejectReason::kBadRequest});
      reject_reasons_[static_cast<std::size_t>(RejectReason::kBadRequest)]
          ->add();
      return;
    }
    std::size_t tenant_index = tenant_ids_.size();
    for (std::size_t i = 0; i < tenant_configs_.size(); ++i) {
      if (tenant_configs_[i].api_key == hello->api_key) {
        tenant_index = i;
        break;
      }
    }
    if (tenant_index >= tenant_ids_.size()) {
      append_frame(conn.out, HelloErr{RejectReason::kBadApiKey});
      reject_reasons_[static_cast<std::size_t>(RejectReason::kBadApiKey)]
          ->add();
      return;
    }
    conn.authed = true;
    conn.push = hello->push_results;
    conn.tenant = tenant_ids_[tenant_index];
    HelloOk ok;
    ok.tenant = conn.tenant;
    ok.server_now_us = now_us();
    ok.tenant_name = tenant_configs_[tenant_index].name;
    append_frame(conn.out, ok);
    return;
  }

  if (const Submit* submit = std::get_if<Submit>(&message)) {
    std::optional<RejectReason> reject;
    if (!conn.authed) {
      reject = RejectReason::kNotAuthenticated;
    } else if (submit->dest_index >= lab_->topo.probe_hosts().size() ||
               submit->source_index >= source_hosts_.size()) {
      reject = RejectReason::kBadRequest;
    }
    if (!reject.has_value()) {
      // Both samples are taken before mu_: the scheduler lock is rank 60,
      // the daemon mutex rank 110 — never nested.
      const std::size_t backlog = scheduler_->backlog();
      const std::int64_t now = now_us();
      const util::MutexLock lock(mu_);
      AdmissionLoad load;
      load.queued = queued_;
      load.inflight = inflight_count_;
      load.sched_backlog = backlog;
      load.draining = draining_;
      reject = admission_.decide(conn.tenant, submit->deadline_us, now, load);
      if (!reject.has_value()) {
        switch (service_->try_charge_request(conn.tenant)) {
          case service::RevtrService::QuotaDecision::kCharged:
            break;
          case service::RevtrService::QuotaDecision::kUnknownUser:
            reject = RejectReason::kBadRequest;
            break;
          case service::RevtrService::QuotaDecision::kQuotaExhausted:
            reject = RejectReason::kQuotaExhausted;
            break;
          case service::RevtrService::QuotaDecision::kProbeBudgetExhausted:
            reject = RejectReason::kProbeBudgetExhausted;
            break;
        }
      }
      if (!reject.has_value()) {
        QueuedRequest queued;
        queued.index = next_request_index_++;
        queued.conn_id = conn.id;
        queued.request_id = submit->request_id;
        queued.tenant = conn.tenant;
        queued.destination = lab_->topo.probe_hosts()[submit->dest_index];
        queued.source = source_hosts_[submit->source_index];
        queued.priority = submit->priority;
        queued.deadline_us = submit->deadline_us;
        queued.accepted_us = now;
        queue_.push(static_cast<std::size_t>(submit->priority), conn.tenant,
                    queued);
        ++queued_;
        ++counters_.accepted;
        queue_depth_->set(static_cast<std::int64_t>(queued_));
      } else {
        ++counters_.rejected;
      }
    } else {
      const util::MutexLock lock(mu_);
      ++counters_.rejected;
    }
    if (reject.has_value()) {
      reject_reasons_[static_cast<std::size_t>(*reject)]->add();
      append_frame(conn.out, SubmitErr{submit->request_id, *reject});
    } else {
      requests_total_->add();
      tenant_metrics_[conn.tenant].requests->add();
      work_cv_.notify_one();
      append_frame(conn.out, SubmitOk{submit->request_id});
    }
    return;
  }

  if (const Poll* poll_msg = std::get_if<Poll>(&message)) {
    std::uint32_t returned = 0;
    while (returned < poll_msg->max_results && !conn.pull_queue.empty()) {
      conn.out.insert(conn.out.end(), conn.pull_queue.front().begin(),
                      conn.pull_queue.front().end());
      conn.pull_queue.pop_front();
      ++returned;
    }
    PollDone done;
    done.returned = returned;
    done.pending = static_cast<std::uint32_t>(
        std::min<std::size_t>(conn.pull_queue.size(), UINT32_MAX));
    append_frame(conn.out, done);
    return;
  }

  if (std::holds_alternative<Stats>(message)) {
    append_frame(conn.out, StatsReply{build_stats_json()});
    return;
  }

  if (std::holds_alternative<Drain>(message)) {
    begin_drain();
    conn.awaiting_drain = true;
    return;
  }

  // --- Controller <-> VP-agent frames (DESIGN.md §15). ---

  if (const AgentRegister* reg = std::get_if<AgentRegister>(&message)) {
    if (!options_.remote_probing || reg->proto_version != kProtoVersion ||
        conn.is_agent) {
      append_frame(conn.out, HelloErr{RejectReason::kBadRequest});
      reject_reasons_[static_cast<std::size_t>(RejectReason::kBadRequest)]
          ->add();
      return;
    }
    // Scheduler lock is rank 60, below mu_ (110): attach before taking mu_.
    const auto agent = scheduler_->attach_agent(reg->window, now_us());
    conn.is_agent = true;
    conn.agent = agent;
    {
      const util::MutexLock lock(mu_);
      agent_conns_.emplace_back(conn.id, agent);
    }
    // The REGISTER ack reuses HELLO_OK with the agent id in the tenant
    // field (agents are not tenants; see the frame grammar).
    HelloOk ok;
    ok.tenant = static_cast<std::uint32_t>(agent);
    ok.server_now_us = now_us();
    ok.tenant_name = reg->name;
    append_frame(conn.out, ok);
    return;
  }

  if (const AgentProbeResult* res = std::get_if<AgentProbeResult>(&message)) {
    if (conn.is_agent) {
      // Stale tickets (requeued off an expired agent) are dropped inside
      // deliver_assignment. A delivery also counts as a heartbeat.
      scheduler_->deliver_assignment(conn.agent, res->ticket, res->reply,
                                     now_us());
      return;
    }
    // Fall through to the protocol-violation path below.
  } else if (const AgentHeartbeat* hb = std::get_if<AgentHeartbeat>(&message)) {
    (void)hb;
    if (conn.is_agent) {
      scheduler_->agent_heartbeat(conn.agent, now_us());
      return;
    }
  } else if (std::holds_alternative<AgentDrain>(message)) {
    if (conn.is_agent) {
      // The agent's parting message: it has flushed every result it will
      // ever send. Close; the net loop's close path detaches it.
      conn.closed = true;
      return;
    }
  }

  // Server->client message types arriving at the server are a protocol
  // violation, same as undecodable bytes.
  {
    const util::MutexLock lock(mu_);
    ++counters_.protocol_errors;
  }
  protocol_errors_total_->add();
  conn.closed = true;
}

void ServerDaemon::net_loop() {
  std::unordered_map<std::uint64_t, Conn> conns;
  std::uint64_t next_conn_id = 1;
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn_ids;
  std::array<std::uint8_t, 65536> buf;

  const auto protocol_error = [this](Conn& conn) {
    {
      const util::MutexLock lock(mu_);
      ++counters_.protocol_errors;
    }
    protocol_errors_total_->add();
    conn.closed = true;
  };

  const auto try_flush = [](Conn& conn) {
    std::size_t written = 0;
    while (written < conn.out.size()) {
      // MSG_NOSIGNAL: a peer that hung up is a closed connection, not a
      // SIGPIPE that kills the daemon.
      const ssize_t n = send(conn.fd, conn.out.data() + written,
                             conn.out.size() - written, MSG_NOSIGNAL);
      if (n > 0) {
        written += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      conn.closed = true;
      break;
    }
    conn.out.erase(conn.out.begin(),
                   conn.out.begin() + static_cast<std::ptrdiff_t>(written));
  };

  for (;;) {
    // Convert a (possibly signal-context) drain request into the guarded
    // draining transition.
    if (drain_requested_.load(std::memory_order_acquire)) begin_drain();

    // Expiry sweep: an agent silent (no heartbeat, no result) past the
    // timeout is detached — its assignments requeue — and hung up on, so
    // it sees EOF instead of talking on to a controller that forgot it.
    if (options_.remote_probing && options_.agent_timeout_us > 0) {
      for (const auto agent :
           scheduler_->expire_agents(now_us(), options_.agent_timeout_us)) {
        for (auto& [id, conn] : conns) {
          if (conn.is_agent && conn.agent == agent) conn.closed = true;
        }
      }
    }

    // Route completions produced by the workers to their connections.
    std::deque<Completion> completions;
    bool drained_now = false;
    bool stopping_now = false;
    {
      const util::MutexLock lock(mu_);
      std::swap(completions, completions_);
      drained_now = drained_;
      stopping_now = stopping_;
    }
    for (Completion& completion : completions) {
      const auto it = conns.find(completion.conn_id);
      if (it == conns.end() || it->second.closed) continue;  // Client left.
      Conn& conn = it->second;
      if (conn.push) {
        conn.out.insert(conn.out.end(), completion.frame.begin(),
                        completion.frame.end());
      } else {
        conn.pull_queue.push_back(std::move(completion.frame));
      }
    }
    if (drained_now) {
      ServerCounters c;
      {
        const util::MutexLock lock(mu_);
        c = counters_;
      }
      for (auto& [id, conn] : conns) {
        if (conn.closed) continue;
        // Tell each agent to finish up and part ways — once; drained_now
        // stays true on every later iteration.
        if (conn.is_agent && !conn.drain_sent) {
          append_frame(conn.out, AgentDrain{});
          conn.drain_sent = true;
        }
        if (!conn.awaiting_drain) continue;
        append_frame(conn.out, DrainDone{c.completed, c.shed_queued});
        conn.awaiting_drain = false;
      }
    }
    if (stopping_now) break;

    for (auto& [id, conn] : conns) {
      if (!conn.out.empty() && !conn.closed) try_flush(conn);
    }
    for (auto it = conns.begin(); it != conns.end();) {
      if (it->second.closed) {
        // A departing agent's in-flight assignments requeue for
        // reassignment (scheduler lock rank 60 — mu_ is not held here).
        // (Idempotent for an agent the expiry sweep already detached.)
        if (it->second.is_agent) {
          scheduler_->detach_agent(it->second.agent);
          const util::MutexLock lock(mu_);
          std::erase_if(agent_conns_, [&](const auto& entry) {
            return entry.first == it->first;
          });
        }
        close(it->second.fd);
        it = conns.erase(it);
      } else {
        ++it;
      }
    }

    fds.clear();
    fd_conn_ids.clear();
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const auto& [id, conn] : conns) {
      short events = POLLIN;
      if (!conn.out.empty()) events = static_cast<short>(events | POLLOUT);
      fds.push_back(pollfd{conn.fd, events, 0});
      fd_conn_ids.push_back(id);
    }
    const int rc = poll(fds.data(), static_cast<nfds_t>(fds.size()), 250);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;

    if ((fds[0].revents & POLLIN) != 0) {
      // Drain the self-pipe; the actual work happens at the loop top.
      while (read(wake_pipe_[0], buf.data(), buf.size()) > 0) {
      }
    }
    if ((fds[1].revents & POLLIN) != 0) {
      for (;;) {
        const int fd = accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) break;
        Conn conn;
        conn.fd = fd;
        conn.id = next_conn_id++;
        conns.emplace(conn.id, std::move(conn));
        {
          const util::MutexLock lock(mu_);
          ++counters_.connections;
        }
        connections_total_->add();
      }
    }
    for (std::size_t i = 2; i < fds.size(); ++i) {
      const auto it = conns.find(fd_conn_ids[i - 2]);
      if (it == conns.end()) continue;
      Conn& conn = it->second;
      if ((fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (fds[i].revents & POLLIN) == 0) {
        conn.closed = true;
        continue;
      }
      if ((fds[i].revents & POLLIN) != 0) {
        for (;;) {
          const ssize_t n = read(conn.fd, buf.data(), buf.size());
          if (n > 0) {
            conn.in.append(
                std::span(buf.data(), static_cast<std::size_t>(n)));
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          conn.closed = true;  // EOF or hard error.
          break;
        }
        // Handle every complete frame; a partial one waits for more bytes
        // (stream reassembly is not an error).
        while (!conn.closed) {
          FrameError error = FrameError::kNone;
          auto message = conn.in.next(&error);
          if (!message.has_value()) {
            if (error != FrameError::kNone) protocol_error(conn);
            break;
          }
          handle_message(conn, *std::move(message));
        }
      }
      if (!conn.closed && !conn.out.empty()) try_flush(conn);
    }
  }

  for (auto& [id, conn] : conns) close(conn.fd);
}

// --- Workers. ---------------------------------------------------------------

void ServerDaemon::worker_loop(std::size_t w) {
  service::RequestRunner& runner = *runners_[w];
  service::RequestRunner::PumpStep pump;
  if (options_.remote_probing) {
    pump.dispatch = [this] { return dispatch_to_agents(); };
  }

  // Folds one finished request into the daemon state and queues its RESULT
  // frame: measured, or shed unmeasured when `measured` is null (deadline
  // expired while queued). The frame is built and encoded outside mu_.
  const auto finish = [this](const QueuedRequest& meta,
                             const core::ReverseTraceroute* measured) {
    const std::int64_t done_us = now_us();
    const std::int64_t wall_us = done_us - meta.accepted_us;
    Result result;
    result.request_id = meta.request_id;
    result.shed = measured == nullptr;
    if (measured != nullptr) {
      result.status = measured->status;
      result.deadline_missed =
          meta.deadline_us != 0 && done_us > meta.deadline_us;
      result.sim_latency_us = measured->span.duration();
      result.probes = measured->probes.total();
      result.coalesced_probes = measured->coalesced_probes;
      for (const auto& hop : measured->hops) {
        if (result.hops.size() >= kMaxResultHops) break;
        result.hops.push_back(ResultHop{hop.addr, hop.source});
      }
      sim_latency_us_->record(static_cast<std::uint64_t>(
          std::max<std::int64_t>(result.sim_latency_us, 0)));
    }
    auto frame = encode_frame(result);
    {
      const util::MutexLock lock(mu_);
      // A shed request spent no probes and is refunded; a measured one
      // settles like a service request.
      if (result.shed) {
        service_->refund_request(meta.tenant);
        ++counters_.shed_queued;
      } else {
        service_->settle(meta.tenant, *measured);
        admission_.observe_latency(wall_us);
        ++counters_.completed;
        if (result.deadline_missed) ++counters_.deadline_missed;
      }
      --inflight_count_;
      inflight_->set(static_cast<std::int64_t>(inflight_count_));
      completions_.push_back(Completion{meta.conn_id, std::move(frame)});
      mark_drained_if_idle_locked();
    }
    if (result.shed) {
      sheds_total_->add();
    } else {
      completed_total_->add();
      if (result.deadline_missed) deadline_miss_total_->add();
      wall_latency_us_->record(
          static_cast<std::uint64_t>(std::max<std::int64_t>(wall_us, 0)));
    }
    wake_net();
  };

  for (;;) {
    std::vector<QueuedRequest> popped;
    {
      util::MutexLock lock(mu_);
      for (;;) {
        if (!worker_hold_) {
          while (queued_ > 0 && runner.active() + popped.size() <
                                    options_.max_inflight_per_worker) {
            auto next = queue_.pop();
            if (!next.has_value()) break;
            popped.push_back(*std::move(next));
            --queued_;
          }
        }
        if (!popped.empty() || runner.active() > 0) break;
        if (stopping_) return;
        if (draining_ && queued_ == 0) return;
        work_cv_.wait(lock);
      }
      inflight_count_ += popped.size();
      queue_depth_->set(static_cast<std::int64_t>(queued_));
      inflight_->set(static_cast<std::int64_t>(inflight_count_));
    }

    for (const QueuedRequest& meta : popped) {
      if (meta.deadline_us != 0 && now_us() >= meta.deadline_us) {
        // Deadline expired while queued: shed without measuring.
        finish(meta, nullptr);
        continue;
      }
      runner.start(meta.index, meta.destination, meta.source,
                   [&finish, meta](core::ReverseTraceroute measured) {
                     finish(meta, &measured);
                   });
    }

    if (runner.active() > 0) runner.step(pump);
  }
}

std::size_t ServerDaemon::dispatch_to_agents() {
  std::vector<std::pair<std::uint64_t, sched::ProbeScheduler::AgentId>> agents;
  {
    const util::MutexLock lock(mu_);
    agents = agent_conns_;
  }
  std::size_t moved = 0;
  for (const auto& [conn_id, agent] : agents) {
    // Scheduler (rank 60) and frame encoding both run outside mu_.
    const auto assignments = scheduler_->next_assignments(agent);
    if (assignments.empty()) continue;
    std::vector<Completion> frames;
    frames.reserve(assignments.size());
    for (const auto& assignment : assignments) {
      frames.push_back(Completion{
          conn_id, encode_frame(AgentProbe{assignment.ticket,
                                           assignment.spec})});
    }
    moved += assignments.size();
    const util::MutexLock lock(mu_);
    for (auto& frame : frames) completions_.push_back(std::move(frame));
  }
  if (moved > 0) wake_net();
  return moved;
}

}  // namespace revtr::server

#include "agent/agent.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>
#include <utility>
#include <variant>

#include "probing/transport.h"
#include "service/runner.h"

namespace revtr::agent {

using server::AgentDrain;
using server::AgentHeartbeat;
using server::AgentProbe;
using server::AgentProbeResult;
using server::AgentRegister;
using server::HelloOk;
using server::Message;
using ReadStatus = server::FrameSocket::ReadStatus;

namespace {

// One agent per process for signal routing (install_signal_handlers).
std::atomic<AgentDaemon*> g_signal_agent{nullptr};

void drain_signal_handler(int /*signum*/) {
  AgentDaemon* a = g_signal_agent.load(std::memory_order_acquire);
  if (a != nullptr) a->request_drain();
}

std::int64_t wall_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

AgentDaemon::AgentDaemon(AgentOptions options)
    : options_(std::move(options)),
      heartbeat_(std::max<std::int64_t>(options_.heartbeat_interval_ms, 1)) {}

AgentDaemon::~AgentDaemon() {
  if (g_signal_agent.load(std::memory_order_acquire) == this) {
    install_signal_handlers(nullptr);
  }
}

void AgentDaemon::request_drain() noexcept {
  drain_requested_.store(true, std::memory_order_release);
}

void AgentDaemon::install_signal_handlers(AgentDaemon* agent) {
  g_signal_agent.store(agent, std::memory_order_release);
  if (agent != nullptr) {
    std::signal(SIGTERM, drain_signal_handler);
    std::signal(SIGINT, drain_signal_handler);
  } else {
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
  }
}

AgentCounters AgentDaemon::counters() const {
  const util::MutexLock lock(mu_);
  return counters_;
}

bool AgentDaemon::heartbeat_if_due(std::chrono::steady_clock::time_point now) {
  if (now - last_beat_ < heartbeat_) return true;
  std::uint64_t executed = 0;
  {
    const util::MutexLock lock(mu_);
    ++counters_.heartbeats;
    executed = counters_.executed;
  }
  if (!socket_.send(AgentHeartbeat{0, executed})) return false;
  last_beat_ = now;
  return true;
}

void AgentDaemon::pace(topology::HostId vp) {
  if (options_.probes_per_sec <= 0.0) return;
  const server::TokenBucketOptions rate{
      options_.probes_per_sec,
      static_cast<double>(std::max<std::size_t>(options_.window, 1))};
  server::TokenBucket& bucket = pacers_.try_emplace(vp, rate).first->second;
  while (!bucket.try_take(wall_now_us())) {
    // Still alive while waiting: a wait longer than the controller's agent
    // timeout must not get a healthy agent expired. A failed send means the
    // controller is gone; the result send after this notices too.
    if (!heartbeat_if_due(std::chrono::steady_clock::now())) return;
    // Sleep out the deficit, bounded so the next heartbeat goes out on time
    // and a drain signal is noticed soon.
    const auto deficit = std::chrono::microseconds(static_cast<std::int64_t>(
        (1.0 - bucket.tokens()) / options_.probes_per_sec * 1e6) + 1);
    const auto until_beat = std::chrono::ceil<std::chrono::microseconds>(
        heartbeat_ - (std::chrono::steady_clock::now() - last_beat_));
    std::this_thread::sleep_for(std::min(
        {deficit, until_beat, std::chrono::microseconds(50'000)}));
    if (drain_requested_.load(std::memory_order_acquire)) {
      // Drain beats pacing: execute immediately rather than stall the
      // controller's drain on a rate limit.
      return;
    }
  }
}

bool AgentDaemon::handle_assignment(const AgentProbe& probe) {
  probing::ProbeReply reply;
  // The spec arrived off the wire: the codec bounded every field, but only
  // the agent knows its own topology — refuse a vantage point outside it
  // (answered unresponsive, so the controller's request still resolves).
  if (probe.spec.from == topology::kInvalidId ||
      probe.spec.from >= lab_->topo.num_hosts()) {
    const util::MutexLock lock(mu_);
    ++counters_.invalid_specs;
  } else {
    pace(probe.spec.from);
    reply = probing::execute_spec(lab_->prober, probe.spec);
  }
  std::uint64_t executed = 0;
  {
    const util::MutexLock lock(mu_);
    executed = ++counters_.executed;
  }
  if (!socket_.send(AgentProbeResult{probe.ticket, std::move(reply)})) {
    return false;
  }
  if (options_.die_after_probes > 0 && executed >= options_.die_after_probes) {
    // Crash hook: vanish abruptly, leaving every unanswered assignment in
    // flight for the controller to reassign.
    socket_.close();
    return false;
  }
  return true;
}

bool AgentDaemon::run() {
  // The agent's half of the simulated Internet: same topology config, same
  // network seed as the controller's worker stacks, so execute_spec here
  // returns byte-identical replies to a controller-local prober.
  lab_ = std::make_unique<eval::Lab>(options_.topo,
                                     core::EngineConfig::revtr2(),
                                     service::network_seed(options_.seed));

  // Retries while the controller is still binding, like DaemonClient.
  if (!socket_.connect(options_.socket_path)) {
    std::fprintf(stderr, "revtr_agentd: cannot connect to %s\n",
                 options_.socket_path.c_str());
    return false;
  }
  AgentRegister reg;
  reg.proto_version = server::kProtoVersion;
  reg.window = static_cast<std::uint32_t>(options_.window);
  reg.name = options_.name;
  if (!socket_.send(reg)) return false;

  std::optional<Message> ack;
  if (socket_.read(ack, /*timeout_ms=*/-1) != ReadStatus::kMessage ||
      !std::holds_alternative<HelloOk>(*ack)) {
    std::fprintf(stderr, "revtr_agentd: register rejected\n");
    socket_.close();
    return false;
  }
  agent_id_.store(std::get<HelloOk>(*ack).tenant, std::memory_order_release);

  last_beat_ = std::chrono::steady_clock::now();
  bool draining = false;
  bool clean = false;
  while (socket_.connected()) {
    if (drain_requested_.load(std::memory_order_acquire)) draining = true;
    if (draining) {
      // Everything read has been answered; say goodbye and leave. The
      // controller detaches us and requeues anything it still had queued
      // for this connection.
      std::uint64_t executed = 0;
      {
        const util::MutexLock lock(mu_);
        executed = counters_.executed;
      }
      socket_.send(AgentDrain{executed});
      clean = true;
      break;
    }
    // Heartbeat whenever one is due, busy or not: a steadily fed agent
    // never times out a read, and must still prove it is alive.
    const auto now = std::chrono::steady_clock::now();
    if (!heartbeat_if_due(now)) break;
    const auto until_beat =
        std::chrono::ceil<std::chrono::milliseconds>(heartbeat_ -
                                                     (now - last_beat_));
    std::optional<Message> message;
    const ReadStatus status =
        socket_.read(message, static_cast<int>(until_beat.count()));
    if (status == ReadStatus::kProtocolError) break;  // Unclean exit.
    if (status == ReadStatus::kClosed) {
      // Controller hung up (or expired us). Nothing is half-answered
      // (assignments are handled synchronously), so this is a clean end.
      clean = true;
      break;
    }
    // Timeout: the loop top notices a drain request and heartbeats if one
    // is due.
    if (status == ReadStatus::kTimeout) continue;
    if (const AgentProbe* probe = std::get_if<AgentProbe>(&*message)) {
      if (!handle_assignment(*probe)) break;
      continue;
    }
    if (std::holds_alternative<AgentDrain>(*message)) {
      draining = true;
      continue;
    }
    // Anything else from the controller is a protocol error.
    break;
  }
  socket_.close();
  return clean;
}

}  // namespace revtr::agent

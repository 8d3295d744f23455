#include "agent/agent.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <span>
#include <thread>
#include <utility>
#include <variant>

#include "probing/transport.h"
#include "util/rng.h"

namespace revtr::agent {

using server::AgentDrain;
using server::AgentHeartbeat;
using server::AgentProbe;
using server::AgentProbeResult;
using server::AgentRegister;
using server::FrameError;
using server::HelloOk;
using server::Message;

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
    : options_(std::move(options)) {}

AgentDaemon::~AgentDaemon() {
  if (fd_ >= 0) ::close(fd_);
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

bool AgentDaemon::connect_to_controller() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) return false;
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  // Retry while the controller is still binding, like DaemonClient.
  for (int attempt = 0; attempt <= 50; ++attempt) {
    const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      fd_ = fd;
      return true;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

bool AgentDaemon::send_frame(const Message& message) {
  if (fd_ < 0) return false;
  const auto frame = server::encode_frame(message);
  std::size_t written = 0;
  while (written < frame.size()) {
    // MSG_NOSIGNAL: a controller that hung up fails the send instead of
    // raising SIGPIPE.
    const ssize_t n =
        send(fd_, frame.data() + written, frame.size() - written,
             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<Message> AgentDaemon::read_frame(int wait_ms, bool* fatal,
                                               bool* eof) {
  *fatal = false;
  *eof = false;
  if (fd_ < 0) {
    *eof = true;
    return std::nullopt;
  }
  std::array<std::uint8_t, 16384> buf;
  for (;;) {
    const std::span<const std::uint8_t> avail(in_);
    if (avail.size() >= server::kFrameHeaderSize) {
      FrameError error = FrameError::kNone;
      const auto header = server::decode_frame_header(avail, &error);
      if (!header.has_value()) {
        *fatal = true;
        return std::nullopt;
      }
      const std::size_t total = server::kFrameHeaderSize + header->payload_len;
      if (avail.size() >= total) {
        auto decoded = server::decode_payload(
            header->type,
            avail.subspan(server::kFrameHeaderSize, header->payload_len),
            &error);
        in_.erase(in_.begin(),
                  in_.begin() + static_cast<std::ptrdiff_t>(total));
        if (!decoded.has_value()) *fatal = true;
        return decoded;
      }
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, wait_ms);
    if (rc == 0) return std::nullopt;  // Timeout; caller heartbeats.
    if (rc < 0) {
      if (errno == EINTR) {
        // A drain signal may have landed; let the caller's loop notice.
        if (drain_requested_.load(std::memory_order_acquire)) {
          return std::nullopt;
        }
        continue;
      }
      *fatal = true;
      return std::nullopt;
    }
    const ssize_t n = read(fd_, buf.data(), buf.size());
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      *eof = true;  // Controller hung up (or hard error).
      return std::nullopt;
    }
    in_.insert(in_.end(), buf.data(), buf.data() + n);
  }
}

void AgentDaemon::pace(topology::HostId vp) {
  if (options_.probes_per_sec <= 0.0) return;
  Pacer& pacer = pacers_[vp];
  const double burst = static_cast<double>(std::max<std::size_t>(
      options_.window, 1));
  for (;;) {
    const std::int64_t now = wall_now_us();
    if (pacer.last_refill_us == 0) {
      pacer.last_refill_us = now;
      pacer.tokens = burst;
    }
    const double elapsed_s =
        static_cast<double>(now - pacer.last_refill_us) / 1e6;
    pacer.tokens = std::min(burst,
                            pacer.tokens + elapsed_s * options_.probes_per_sec);
    pacer.last_refill_us = now;
    if (pacer.tokens >= 1.0) {
      pacer.tokens -= 1.0;
      return;
    }
    // Sleep out the deficit (bounded so a drain signal is noticed soon).
    const double wait_s = (1.0 - pacer.tokens) / options_.probes_per_sec;
    const auto wait_us = static_cast<std::int64_t>(wait_s * 1e6) + 1;
    std::this_thread::sleep_for(
        std::chrono::microseconds(std::min<std::int64_t>(wait_us, 50'000)));
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
    reply = probing::execute_spec(*prober_, probe.spec);
  }
  std::uint64_t executed = 0;
  {
    const util::MutexLock lock(mu_);
    executed = ++counters_.executed;
  }
  if (!send_frame(AgentProbeResult{probe.ticket, std::move(reply)})) {
    return false;
  }
  if (options_.die_after_probes > 0 && executed >= options_.die_after_probes) {
    // Crash hook: vanish abruptly, leaving every unanswered assignment in
    // flight for the controller to reassign.
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

bool AgentDaemon::run() {
  // The agent's half of the simulated Internet: same topology config, same
  // seed derivation as ServerDaemon::start(), so execute_spec here returns
  // byte-identical replies to a controller-local prober.
  lab_ = std::make_unique<eval::Lab>(options_.topo,
                                     core::EngineConfig::revtr2(),
                                     options_.seed);
  const std::uint64_t net_seed = util::mix_hash(options_.seed, 0x6e7ULL);
  network_ =
      std::make_unique<sim::Network>(lab_->topo, lab_->plane, net_seed);
  prober_ = std::make_unique<probing::Prober>(*network_);

  if (!connect_to_controller()) {
    std::fprintf(stderr, "revtr_agentd: cannot connect to %s\n",
                 options_.socket_path.c_str());
    return false;
  }
  AgentRegister reg;
  reg.proto_version = server::kProtoVersion;
  reg.window = static_cast<std::uint32_t>(options_.window);
  reg.name = options_.name;
  if (!send_frame(reg)) return false;

  bool fatal = false;
  bool eof = false;
  const auto ack = read_frame(/*wait_ms=*/-1, &fatal, &eof);
  if (!ack.has_value() || !std::holds_alternative<HelloOk>(*ack)) {
    std::fprintf(stderr, "revtr_agentd: register rejected\n");
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  agent_id_.store(std::get<HelloOk>(*ack).tenant, std::memory_order_release);

  const std::chrono::milliseconds heartbeat(
      std::max<std::int64_t>(options_.heartbeat_interval_ms, 1));
  auto last_beat = std::chrono::steady_clock::now();
  bool draining = false;
  bool clean = false;
  while (fd_ >= 0) {
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
      send_frame(AgentDrain{executed});
      clean = true;
      break;
    }
    // Heartbeat whenever one is due, busy or not: a steadily fed agent
    // never times out a read, and must still prove it is alive.
    const auto now = std::chrono::steady_clock::now();
    if (now - last_beat >= heartbeat) {
      std::uint64_t executed = 0;
      {
        const util::MutexLock lock(mu_);
        ++counters_.heartbeats;
        executed = counters_.executed;
      }
      if (!send_frame(AgentHeartbeat{0, executed})) break;
      last_beat = now;
    }
    const auto until_beat =
        std::chrono::ceil<std::chrono::milliseconds>(heartbeat -
                                                     (now - last_beat));
    auto message = read_frame(static_cast<int>(until_beat.count()), &fatal,
                              &eof);
    if (fatal) break;  // Protocol error: unclean exit.
    if (eof) {
      // Controller hung up (or expired us). Nothing is half-answered
      // (assignments are handled synchronously), so this is a clean end.
      clean = true;
      break;
    }
    // Timeout (or a drain signal interrupted the wait): the loop top
    // heartbeats if one is due.
    if (!message.has_value()) continue;
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
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  return clean;
}

}  // namespace revtr::agent

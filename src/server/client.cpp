#include "server/client.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <span>
#include <thread>
#include <utility>

namespace revtr::server {

namespace {

// Milliseconds left until `deadline`, clamped to [0, INT_MAX] for poll().
int ms_until(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                        deadline - std::chrono::steady_clock::now())
                        .count();
  return static_cast<int>(std::clamp<long long>(
      left, 0, std::numeric_limits<int>::max()));
}

}  // namespace

// --- FrameSocket. -----------------------------------------------------------

FrameSocket::~FrameSocket() { close(); }

void FrameSocket::close() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  in_ = FrameReader();
}

bool FrameSocket::connect(const std::string& socket_path, int retries) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) return false;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  for (int attempt = 0; attempt <= retries; ++attempt) {
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

bool FrameSocket::send(const Message& message) {
  if (fd_ < 0) return false;
  const auto frame = encode_frame(message);
  std::size_t written = 0;
  while (written < frame.size()) {
    // MSG_NOSIGNAL: a peer that hung up fails the send instead of raising
    // SIGPIPE, which no tool ignores.
    const ssize_t n = ::send(fd_, frame.data() + written,
                             frame.size() - written, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

FrameSocket::ReadStatus FrameSocket::read(std::optional<Message>& out,
                                          int timeout_ms) {
  out.reset();
  if (fd_ < 0) return ReadStatus::kClosed;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(std::max(timeout_ms, 0));
  std::array<std::uint8_t, 16384> buf;
  for (;;) {
    // Every whole frame already buffered goes out before the socket is
    // touched again.
    FrameError error = FrameError::kNone;
    out = in_.next(&error);
    if (out.has_value()) return ReadStatus::kMessage;
    if (error != FrameError::kNone) {
      close();
      return ReadStatus::kProtocolError;
    }
    // A blocking read needs no poll(); a bounded one waits on poll() first.
    if (timeout_ms >= 0) {
      pollfd pfd{fd_, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, ms_until(deadline));
      if (rc == 0) return ReadStatus::kTimeout;
      if (rc < 0) {
        if (errno == EINTR) continue;
        close();
        return ReadStatus::kClosed;
      }
    }
    const ssize_t n = ::read(fd_, buf.data(), buf.size());
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      close();  // EOF or hard error: the peer went away.
      return ReadStatus::kClosed;
    }
    in_.append(std::span(buf.data(), static_cast<std::size_t>(n)));
  }
}

// --- DaemonClient. ----------------------------------------------------------

std::optional<Message> DaemonClient::round_trip(const Message& request,
                                                FrameType a, FrameType b) {
  if (!socket_.send(request)) return std::nullopt;
  for (;;) {
    std::optional<Message> message;
    if (socket_.read(message, -1) != FrameSocket::ReadStatus::kMessage) {
      return std::nullopt;
    }
    const FrameType type = frame_type_of(*message);
    if (type == a || type == b) return message;
    if (Result* result = std::get_if<Result>(&*message)) {
      results_.push_back(std::move(*result));
      continue;
    }
    return std::nullopt;  // Unexpected interleaved frame: protocol error.
  }
}

std::optional<HelloOk> DaemonClient::hello(const std::string& api_key,
                                           bool push_results) {
  reject_reason_.reset();
  Hello request;
  request.proto_version = kProtoVersion;
  request.push_results = push_results;
  request.api_key = api_key;
  auto reply = round_trip(request, FrameType::kHelloOk, FrameType::kHelloErr);
  if (!reply.has_value()) return std::nullopt;
  if (const HelloErr* err = std::get_if<HelloErr>(&*reply)) {
    reject_reason_ = err->reason;
    return std::nullopt;
  }
  return std::get<HelloOk>(*std::move(reply));
}

bool DaemonClient::submit(const Submit& request) {
  reject_reason_.reset();
  auto reply =
      round_trip(request, FrameType::kSubmitOk, FrameType::kSubmitErr);
  if (!reply.has_value()) return false;
  if (const SubmitErr* err = std::get_if<SubmitErr>(&*reply)) {
    reject_reason_ = err->reason;
    return false;
  }
  return true;
}

std::optional<Result> DaemonClient::next_result() {
  std::optional<Result> out;
  next_result_for(out, /*timeout_ms=*/0);
  return out;
}

DaemonClient::WaitStatus DaemonClient::next_result_for(
    std::optional<Result>& out, int timeout_ms) {
  out.reset();
  if (!results_.empty()) {
    out = std::move(results_.front());
    results_.pop_front();
    return WaitStatus::kOk;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    std::optional<Message> message;
    switch (socket_.read(message, timeout_ms > 0 ? ms_until(deadline) : -1)) {
      case FrameSocket::ReadStatus::kMessage:
        break;
      case FrameSocket::ReadStatus::kTimeout:
        return WaitStatus::kTimeout;
      case FrameSocket::ReadStatus::kClosed:
      case FrameSocket::ReadStatus::kProtocolError:
        return WaitStatus::kDisconnected;
    }
    if (Result* result = std::get_if<Result>(&*message)) {
      out = std::move(*result);
      return WaitStatus::kOk;
    }
    // Any other frame between round trips is unexpected (results are only
    // read between them); drop it rather than desynchronize.
  }
}

std::optional<std::uint32_t> DaemonClient::poll_results(
    std::uint32_t max_results) {
  Poll request;
  request.max_results = max_results;
  auto reply = round_trip(request, FrameType::kPollDone, FrameType::kPollDone);
  if (!reply.has_value()) return std::nullopt;
  return std::get<PollDone>(*reply).pending;
}

std::optional<std::string> DaemonClient::stats() {
  auto reply =
      round_trip(Stats{}, FrameType::kStatsReply, FrameType::kStatsReply);
  if (!reply.has_value()) return std::nullopt;
  return std::get<StatsReply>(*std::move(reply)).json;
}

std::optional<DrainDone> DaemonClient::drain() {
  auto reply =
      round_trip(Drain{}, FrameType::kDrainDone, FrameType::kDrainDone);
  if (!reply.has_value()) return std::nullopt;
  return std::get<DrainDone>(*reply);
}

}  // namespace revtr::server

// Blocking peers of the revtr_serverd framed protocol (server/frame.h).
//
// FrameSocket is the socket plumbing every blocking peer shares — the API
// client below and the VP agent (agent/agent.h): connect with retries,
// whole-frame sends that never raise SIGPIPE, and frame reads with a
// timeout. Undecodable bytes close the connection.
//
// One DaemonClient owns one AF_UNIX stream connection. All calls run on the
// caller's thread with blocking I/O — the replayer gives each connection
// thread its own client; nothing here is shared or locked. RESULT frames
// interleave with other replies in push mode, so every wait_* helper
// stashes Results it passes by; next_result() consumes the stash before
// touching the socket.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "server/frame.h"

namespace revtr::server {

class FrameSocket {
 public:
  FrameSocket() = default;
  ~FrameSocket();

  FrameSocket(const FrameSocket&) = delete;
  FrameSocket& operator=(const FrameSocket&) = delete;

  // Connects to an AF_UNIX stream socket, retrying (20 ms apart) while the
  // peer is still binding. False after all retries fail.
  bool connect(const std::string& socket_path, int retries = 50);
  bool connected() const noexcept { return fd_ >= 0; }
  void close() noexcept;

  // Encodes and writes one whole frame. False when the peer is gone (a
  // hung-up peer fails the send; it never raises SIGPIPE).
  bool send(const Message& message);

  enum class ReadStatus : std::uint8_t {
    kMessage = 0,    // `out` holds the next frame.
    kTimeout,        // timeout_ms elapsed; the connection is still usable.
    kClosed,         // EOF or a socket error; the connection is closed.
    kProtocolError,  // Undecodable bytes; the connection is closed.
  };

  // Next whole frame, from bytes already buffered or else off the socket.
  // timeout_ms < 0 blocks until a frame, EOF or an error.
  ReadStatus read(std::optional<Message>& out, int timeout_ms);

 private:
  int fd_ = -1;
  FrameReader in_;
};

class DaemonClient {
 public:
  // Connects to the daemon's socket (see FrameSocket::connect).
  bool connect(const std::string& socket_path, int retries = 50) {
    return socket_.connect(socket_path, retries);
  }
  bool connected() const noexcept { return socket_.connected(); }
  void close() noexcept { socket_.close(); }

  // HELLO handshake. Empty result on transport error or HELLO_ERR
  // (reject_reason() says why).
  std::optional<HelloOk> hello(const std::string& api_key,
                               bool push_results = true);

  // Submits one request and waits for the SUBMIT_OK / SUBMIT_ERR ack.
  // True = accepted; false with reject_reason() set = rejected; false with
  // reject_reason() empty = transport error.
  bool submit(const Submit& request);

  // Next RESULT: from the stash, else blocking-read until one arrives.
  // Empty when the connection is gone.
  std::optional<Result> next_result();

  // Outcome of a bounded wait. Distinguishes "the daemon is slow" from
  // "the daemon is gone" so callers never hang forever or conflate the two
  // (revtr_cli client maps these to distinct exit codes).
  enum class WaitStatus : std::uint8_t {
    kOk = 0,        // A RESULT arrived; `out` is set.
    kTimeout,       // timeout elapsed; connection still usable.
    kDisconnected,  // EOF or undecodable bytes; connection closed.
  };

  // next_result() with a bounded wait: polls the socket so a vanished
  // daemon surfaces as kDisconnected instead of a hang. timeout_ms <= 0
  // waits forever (kTimeout is never returned).
  WaitStatus next_result_for(std::optional<Result>& out, int timeout_ms);

  // Pull mode: one POLL round trip. Appends up to `max_results` stashed
  // results and returns the server's remaining-pending count (empty on
  // transport error).
  std::optional<std::uint32_t> poll_results(std::uint32_t max_results = 16);

  // STATS round trip: the daemon's JSON snapshot text.
  std::optional<std::string> stats();

  // DRAIN: waits until the daemon finished every accepted request.
  std::optional<DrainDone> drain();

  // Reason from the most recent HELLO_ERR / SUBMIT_ERR.
  std::optional<RejectReason> reject_reason() const noexcept {
    return reject_reason_;
  }
  std::size_t stashed_results() const noexcept { return results_.size(); }

 private:
  // Sends `request`, then reads frames until one of type `a` or `b`,
  // stashing RESULTs encountered on the way. Empty on a transport error or
  // any other frame.
  std::optional<Message> round_trip(const Message& request, FrameType a,
                                    FrameType b);

  FrameSocket socket_;
  std::deque<Result> results_;
  std::optional<RejectReason> reject_reason_;
};

}  // namespace revtr::server

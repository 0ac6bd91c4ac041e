#ifndef RNT_SIM_SOCKET_TRANSPORT_H_
#define RNT_SIM_SOCKET_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "sim/transport.h"
#include "sim/wire.h"

namespace rnt::sim {

/// The node-process side of the socket backends: one SOCK_STREAM
/// connection (Unix-domain or TCP, chosen by the endpoint string) to the
/// supervisor's SocketHub, which routes summary frames between nodes and
/// applies the link interposer's fault verdicts.
///
/// Endpoint syntax: "unix:<path>" or "tcp:<host>:<port>".
///
/// Connection loss is a first-class event, not an error: Send and Poll
/// detect a dead stream (EPIPE/ECONNRESET/EOF — the interposer resets
/// connections when a partition window opens) and run a bounded-backoff
/// reconnect, re-introducing the node with a fresh kHello. While the
/// link is down, Send reports false (the network ate the transmission —
/// the caller's anti-entropy retries recover the knowledge, exactly as
/// they do for a dropped in-process message). A permanently unreachable
/// hub therefore degrades to a diagnosed incomplete run via the node's
/// give-up path rather than an exception.
///
/// Single-threaded: the node's event loop owns this object outright.
class SocketTransport final : public Transport {
 public:
  struct Options {
    NodeId self = 0;
    std::uint32_t incarnation = 0;
    std::string endpoint;
    /// Reconnect schedule: bounded exponential backoff, poll-based.
    int connect_attempts = 40;
    int backoff_initial_ms = 5;
    int backoff_max_ms = 200;
  };

  /// Connects and sends the first kHello (with the rebirth evidence).
  static StatusOr<std::unique_ptr<SocketTransport>> Connect(
      const Options& options, const HelloFrame& hello);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // Transport interface (summary traffic).
  bool Send(NodeId to, TransportMessage msg) override;
  std::vector<TransportMessage> Poll(NodeId self) override;

  /// Parks the caller until a frame is readable on the link or
  /// `timeout_ms` elapses, whichever comes first; returns at once when
  /// frames are already pending. Liveness pacing only — never semantics.
  void WaitReadable(int timeout_ms);

  /// Sends a liveness/progress heartbeat. False when the link is down
  /// and reconnect failed (the caller keeps going; the watchdog retries).
  bool SendHeartbeat(const HeartbeatFrame& f);

  /// True once the hub broadcast kAllDone (observed by some Poll).
  bool AllDone() const { return all_done_; }

  /// Times the link went down and was re-established (kHello resent).
  std::uint64_t reconnects() const { return reconnects_; }

 private:
  SocketTransport(Options options, HelloFrame hello)
      : options_(std::move(options)), hello_(std::move(hello)) {}

  /// Dials the endpoint once. Replaces fd_ on success.
  Status Dial();
  /// Bounded-backoff reconnect + re-Hello. False when still down.
  bool Reconnect();
  bool WriteFrame(const std::string& frame);
  /// Drains readable bytes into buf_ and parses frames into pending_.
  /// Returns false when the connection died (caller may Reconnect).
  bool ReadPending();
  void CloseFd();

  Options options_;
  HelloFrame hello_;
  int fd_ = -1;
  std::string buf_;
  std::vector<TransportMessage> pending_;
  bool all_done_ = false;
  std::uint64_t reconnects_ = 0;
};

}  // namespace rnt::sim

#endif  // RNT_SIM_SOCKET_TRANSPORT_H_

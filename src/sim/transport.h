#ifndef RNT_SIM_TRANSPORT_H_
#define RNT_SIM_TRANSPORT_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "dist/summary.h"

namespace rnt::sim {

/// One summary transmission, the single message type of every backend.
/// `delay` is the receiver-side hold count a fault verdict attaches (a
/// positive value holds the message for that many delivery passes;
/// distinct delays reorder messages); `clock` carries the sender's
/// Lamport clock for the socket backends (the in-process backend has a
/// global stamp counter and ignores it).
struct TransportMessage {
  NodeId from = 0;
  dist::ActionSummary summary;
  int delay = 0;
  std::uint64_t clock = 0;
};

/// The transport seam of the ℬ node loop: how summaries travel between
/// nodes. Two interchangeable backends implement it —
///
///  * MailboxTransport (message_buffer.h): the in-process
///    ConcurrentMailbox, one thread per node in one address space;
///  * SocketTransport (socket_transport.h): a Unix-domain or TCP stream
///    to the supervisor's SocketHub, one OS *process* per node.
///
/// Message faults live in the transport, never in the node: both
/// backends judge every transmission with a faults::LinkInterposer (per
/// sender in-process, at the hub for sockets). The contract mirrors ℬ's
/// message system: Send is fire-and-forget (the network may eat it —
/// false means the transport already knows it did), and Poll drains
/// everything currently pending for `self`. Value-equivalence across
/// backends on the same seed is the point: the algebra never sees which
/// backend carried its knowledge.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Hands one transmission to the network. Returns false when the
  /// transport knows the message was lost (fault verdict, severed link,
  /// dead peer connection).
  virtual bool Send(NodeId to, TransportMessage msg) = 0;

  /// Drains every transmission currently deliverable to `self`, oldest
  /// first. Single-consumer per destination.
  virtual std::vector<TransportMessage> Poll(NodeId self) = 0;
};

}  // namespace rnt::sim

#endif  // RNT_SIM_TRANSPORT_H_

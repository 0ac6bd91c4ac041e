#ifndef RNT_FAULTS_LINK_INTERPOSER_H_
#define RNT_FAULTS_LINK_INTERPOSER_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "faults/faults.h"

namespace rnt::faults {

/// The message-fault surface of both ℬ transports: every summary frame
/// the SocketHub routes between node processes passes through one
/// (owned by the hub), and so does every in-process transmission
/// (MailboxTransport owns one per sender). The verdict maps the paper's
/// message-system freedoms onto the network —
///
///  * drop: the transmission never reaches M_j (ℬ permits messages that
///    are never received);
///  * delay / duplicate: receiver-side holds and re-deliveries (M_j is
///    cumulative, any sub-summary may be re-received);
///  * partition: every frame across the severed (a, b) link is dropped
///    while the stamp window is open — judged on the caller's logical
///    clock (the hub's observed Lamport clock, or the in-process stamp
///    counter), so one stamp-windowed PartitionSpec drives both;
///  * reset: entering a partition window additionally tears down the
///    endpoints' connections once (a real TCP RST / unix-socket close),
///    forcing the nodes through their bounded-backoff reconnect path
///    (sockets only; the in-process transport has no connections).
///
/// Deterministic: random verdicts come from the plan's seeded
/// FaultInjector with its fixed-draw contract, and partition windows
/// are a pure function of the logical clock. Single-threaded (used by
/// its owner's thread only).
class LinkInterposer {
 public:
  explicit LinkInterposer(const FaultPlan& plan)
      : injector_(plan), reset_fired_(plan.partitions.size(), 0) {}

  struct Verdict {
    bool drop = false;
    /// The drop came from an open partition window (counted separately).
    bool partitioned = false;
    /// Tear down both endpoints' connections before dropping the frame —
    /// fires once per partition spec, on the first frame that hits the
    /// open window.
    bool reset = false;
    /// Receiver-side hold passes before delivery.
    int delay = 0;
    /// When >= 0, also deliver a duplicate after this many holds.
    int duplicate_delay = -1;
  };

  /// The fate of one frame from `from` to `to` at hub-observed logical
  /// clock `stamp`. Consumes a fixed number of PRNG draws per call.
  Verdict OnFrame(NodeId from, NodeId to, std::int64_t stamp);

  const FaultPlan& plan() const { return injector_.plan(); }

 private:
  FaultInjector injector_;
  /// One flag per plan.partitions entry: reset already delivered.
  std::vector<char> reset_fired_;
};

}  // namespace rnt::faults

#endif  // RNT_FAULTS_LINK_INTERPOSER_H_

#ifndef RNT_SIM_SOCKET_HUB_H_
#define RNT_SIM_SOCKET_HUB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "faults/link_interposer.h"
#include "sim/wire.h"

namespace rnt::sim {

/// The supervisor's message system: a hub-and-spoke router the k node
/// processes connect to (Unix-domain or TCP), standing in for ℬ's
/// buffer component. Every kSummary frame from node i to node j passes
/// the LinkInterposer, which maps the seeded FaultPlan onto the real
/// sockets — random drop/duplicate/delay, stamp-windowed partitions
/// judged on the hub-observed Lamport clock, and one-shot connection
/// resets when a partition window opens. A frame whose target has not
/// said its first hello yet is held and delivered after that hello; a
/// frame to a node that was up and is down again (reset, killed) is
/// lost, the modelled fault, and counted in HubStats::unroutable.
///
/// Threading: one hub thread owns all socket I/O (a poll() loop over
/// the listener and every node connection). The supervisor thread reads
/// progress snapshots and enqueues control actions (broadcast, reset)
/// through a small table guarded by hub_mu_ (kRankTransportHub).
class SocketHub {
 public:
  enum class Backend { kUnix, kTcp };

  struct Options {
    Backend backend = Backend::kUnix;
    /// Directory for the Unix socket file (unused for TCP).
    std::string dir;
    NodeId k = 3;
    faults::FaultPlan plan;
  };

  /// Progress snapshot of one node, assembled from its frames.
  struct NodeStatus {
    bool connected = false;
    bool done = false;
    bool gave_up = false;
    std::uint32_t incarnation = 0;
    std::uint64_t clock = 0;
    std::uint64_t acked_scalar = 0;
    /// Highest rebirth evidence seen: scalar recovered from the durable
    /// retention log, as reported by the latest recovering kHello.
    std::uint64_t recovered_scalar = 0;
    bool ever_recovered = false;
    /// Anti-entropy retries and timeout-aborts summed over the node's
    /// incarnations: each incarnation's last reported values (a reborn
    /// node counts from 0 again).
    std::uint64_t retries = 0;
    std::uint64_t timeout_aborts = 0;
    /// The phase counters of the node's latest heartbeat.
    NodePhases phases;
  };

  struct HubStats {
    std::uint64_t frames = 0;
    std::uint64_t dropped = 0;       // random drops
    std::uint64_t partitioned = 0;   // partition-window drops
    std::uint64_t duplicated = 0;
    std::uint64_t delayed = 0;
    std::uint64_t resets = 0;        // interposer-forced connection resets
    std::uint64_t reconnects = 0;    // kHello frames beyond the first
    /// Frames eaten because their target was down (reset by a partition
    /// or killed). Frames to a node that has not said hello yet are held
    /// for it instead, so a fault-free run keeps this at 0.
    std::uint64_t unroutable = 0;
  };

  /// Binds, listens, and starts the hub thread.
  static StatusOr<std::unique_ptr<SocketHub>> Start(const Options& options);
  ~SocketHub();

  SocketHub(const SocketHub&) = delete;
  SocketHub& operator=(const SocketHub&) = delete;

  /// The endpoint string node processes dial ("unix:..." / "tcp:...").
  const std::string& endpoint() const { return endpoint_; }

  std::vector<NodeStatus> Snapshot() const;
  HubStats Stats() const;
  /// max over nodes of the last clock each reported — the logical time
  /// partitions and kill triggers are judged on.
  std::uint64_t ObservedClock() const;

  /// Queues a kAllDone broadcast to every connected node; the hub thread
  /// is woken, so nodes learn it without waiting out a poll timeout.
  void BroadcastAllDone();
  /// Queues a connection reset for `node` (e.g. before SIGKILL, so the
  /// dead process's socket never lingers as a routing target).
  void ResetNode(NodeId node);
  /// Clears the done/gave-up flags of `node` (called right after a kill:
  /// the reborn incarnation re-earns them).
  void ClearNodeProgress(NodeId node);

  /// Stops the hub thread and closes every socket.
  void Stop();

 private:
  explicit SocketHub(Options options) : options_(std::move(options)) {}

  Status Bind();
  void ThreadMain();
  /// Interrupts the hub thread's poll() so a queued control action (or
  /// stop) is acted on at once instead of after the poll timeout.
  void Wake();
  struct Conn;
  void FlushOutbound(Conn& c);

  Options options_;
  std::string endpoint_;
  std::string unix_path_;
  int listen_fd_ = -1;
  /// eventfd the hub thread polls alongside its sockets; Wake() bumps it.
  int wake_fd_ = -1;
  std::thread thread_;

  /// One accepted connection. Owned by the hub thread; `node` is set by
  /// the kHello handshake (-1 before it).
  struct Conn {
    int fd = -1;
    int node = -1;
    std::string inbuf;
    std::string outbuf;
  };

  mutable Mutex hub_mu_{"sim.hub", kRankTransportHub};
  bool stop_ GUARDED_BY(hub_mu_) = false;
  bool broadcast_all_done_ GUARDED_BY(hub_mu_) = false;
  std::vector<char> reset_requests_ GUARDED_BY(hub_mu_);
  std::vector<NodeStatus> status_ GUARDED_BY(hub_mu_);
  HubStats stats_ GUARDED_BY(hub_mu_);
};

}  // namespace rnt::sim

#endif  // RNT_SIM_SOCKET_HUB_H_

#ifndef RNT_SIM_DIST_DRIVER_H_
#define RNT_SIM_DIST_DRIVER_H_

#include <cstdint>
#include <set>

#include "common/status.h"
#include "dist/dist_algebra.h"

namespace rnt::sim {

/// How eagerly nodes propagate action-summary knowledge (the ablation of
/// experiment E5: the paper's algebra allows *any* sub-summary to flow at
/// *any* time; a real system must pick a policy).
enum class Propagation {
  /// Sync knowledge between two nodes only when a pending step needs it.
  kLazy,
  /// After every node event, broadcast the doer's summary to all nodes.
  kEager,
  /// Lazy sync points, incremental payloads: each node keeps a per-peer
  /// frontier of what it already shipped and sends only the entries that
  /// are new (or whose status advanced) since the last send to that peer.
  /// Every delta is a legal sub-summary, so the algebra is untouched;
  /// messages never exceed kLazy's (empty deltas are skipped) and total
  /// shipped entries drop from O(total²) to O(total) per peer.
  kDelta,
};

struct DriverOptions {
  Propagation propagation = Propagation::kLazy;
  /// Actions to abort (instead of commit) once created; their
  /// descendants are never created. Exercises the lose-lock path.
  std::set<ActionId> abort_set;
};

struct DriverStats {
  std::uint64_t node_events = 0;       // create/commit/abort/perform/locks
  std::uint64_t messages = 0;          // send+receive pairs
  std::uint64_t summary_entries = 0;   // total entries shipped
  std::uint64_t performs = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t releases = 0;
  std::uint64_t loses = 0;
  /// The busiest node's NodeCore passes (on the process host, those of
  /// its last incarnation). RunProgram has no node loop and leaves it 0.
  int rounds = 0;
  /// Create/abort/commit obligations the concurrent runtimes took off
  /// their wake queues and re-judged. Change-driven scheduling keeps it
  /// linear in the work done (events + obligations), not in passes ×
  /// pending obligations; zero for the sequential drivers.
  std::uint64_t obligations_examined = 0;

  // Fault-handling counters, filled by the fault-aware hosts (always zero
  // for the failure-free RunProgram). Mirrored into txn::FaultStats via
  // ToFaultStats so faulty runs surface through the trace tooling.
  std::uint64_t retries = 0;          // knowledge re-requests after backoff
  std::uint64_t crashes = 0;          // nodes crashed (summary wiped)
  std::uint64_t dropped_msgs = 0;     // transmissions lost or partitioned
  std::uint64_t duplicated_msgs = 0;  // duplicate deliveries scheduled
  std::uint64_t delayed_msgs = 0;     // deliveries pushed past send round
  std::uint64_t recovered_nodes = 0;  // rebirths via buffer M_i replay
  std::uint64_t timeout_aborts = 0;   // stuck subtransactions aborted

  /// Adds every counter of `other` except `rounds`, which is a maximum
  /// over nodes, not a sum.
  DriverStats& operator+=(const DriverStats& other);

  friend bool operator==(const DriverStats&, const DriverStats&) = default;
};

struct DriverRun {
  DriverStats stats;
  dist::DistState final_state;
};

/// Executes the *entire* registered program on the distributed algebra:
/// every action in the registry is created at its origin, accesses
/// perform at their objects' homes under Moss locking, parents commit
/// bottom-up at their homes, and locks drain back to the root U —
/// propagating summaries per `options.propagation` and counting the
/// messages that the paper's model leaves unconstrained. It reports the
/// event and message counters; `rounds` and the fault counters stay 0.
///
/// Returns kFailedPrecondition if the program cannot make progress (which
/// would indicate a driver bug — the algebra itself is deadlock-free for
/// this tree-structured schedule). The status message
/// carries a StallDiagnosis rendering (sim/diagnosis.h): which actions
/// are still live and which object/home each is waiting on.
StatusOr<DriverRun> RunProgram(const dist::DistAlgebra& alg,
                               const DriverOptions& options = {});

}  // namespace rnt::sim

#endif  // RNT_SIM_DIST_DRIVER_H_

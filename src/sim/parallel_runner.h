#ifndef RNT_SIM_PARALLEL_RUNNER_H_
#define RNT_SIM_PARALLEL_RUNNER_H_

#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "common/status.h"
#include "dist/dist_algebra.h"
#include "faults/faults.h"
#include "sim/diagnosis.h"
#include "sim/dist_driver.h"
#include "txn/trace.h"
#include "valuemap/value_map_algebra.h"

namespace rnt::sim {

/// Options for an in-process execution of ℬ, under either scheduler
/// (ChaosRunProgram or RunParallel).
struct ParallelOptions {
  /// Knowledge policy. The node loop is reactive (nodes learn, they are
  /// not asked), so it supports the two broadcast policies: kEager ships
  /// the doer's full summary after every change; kDelta ships only the
  /// entries new since the last send to each peer (per-peer frontiers),
  /// and deltas accumulated between flushes coalesce into one message.
  /// kLazy needs a request channel the loop does not have — rejected.
  Propagation propagation = Propagation::kDelta;
  /// Actions to abort (instead of commit) once created; their descendants
  /// are never created. Same contract as DriverOptions::abort_set.
  std::set<ActionId> abort_set;
  /// The full fault schedule: message faults (drop/duplicate/delay —
  /// delays of distinct messages reorder them), crashes, and partitions,
  /// all on the logical clock (CrashSpec::at_stamp /
  /// PartitionSpec::from_stamp). A default plan injects nothing.
  faults::FaultPlan plan;
  /// Watchdog escalation threshold (NodeCore::Options, the same default
  /// as an rnt_node process): unproductive anti-entropy retries before a
  /// node timeout-aborts the deepest abortable enclosing subtransaction
  /// homed locally — the dynamic lose-lock/orphan path, for graceful
  /// degradation under partitions. Counted in stats.timeout_aborts.
  int max_attempts_per_step = 16;
  /// Consecutive no-progress passes before a node abandons its remaining
  /// obligations (returns an incomplete run rather than spinning forever;
  /// only reachable under adversarial fault plans or driver bugs).
  std::uint64_t max_idle_spins = 1u << 20;
  /// Record the applied ℬ events (globally stamped, mergeable into one
  /// valid computation). Disable for wall-clock benchmarking.
  bool record_events = true;
  /// When non-null, every recorded event's trace form is ALSO streamed
  /// into this sink *live*, from inside the run: stamp allocation,
  /// lowering, and Append happen as one atomic step (a dedicated mutex),
  /// so the sink observes exactly the stamp-order stream a post-hoc
  /// ReplayAbstract over the merged log would produce. Install a
  /// txn::OnlineChecker here to certify the run while it executes rather
  /// than after it ends. Events with no trace form (send/receive, lock
  /// bookkeeping, the virtual root) are skipped, matching ReplayAbstract.
  /// The sink itself is not locked beyond that mutex — it must tolerate
  /// being called from whichever node thread records (OnlineChecker is
  /// fine: all calls are serialized under the live mutex).
  txn::TraceSink* live_sink = nullptr;
  /// ChaosRunProgram only (RunParallel rejects it, kInvalidArgument):
  /// keep the level-4 shadow while recording — an event without a
  /// level-4 image is kInternal — and check the Lemma 23-26
  /// local-consistency obligations against it after every sweep that
  /// recorded an event or crashed or rebirthed a node (crashed nodes'
  /// knowledge obligations waived while down; a violation is kInternal).
  /// Costs O(state) per such sweep.
  bool check_invariants = false;
};

/// Result of an in-process run.
struct ParallelRun {
  DriverStats stats;
  dist::DistState final_state;
  /// The applied events of all nodes, merged in global stamp order — a
  /// valid computation of ℬ (checked by tests via IsValidSequence): every
  /// payload is a sub-summary of the sender's monotone knowledge, so a
  /// Send stays legal at any later point in the interleaving. The crash
  /// wipes are *not* events: recovery re-enters legal states via Receive
  /// of the buffer M_i, so the log replays cleanly against the
  /// un-crashed algebra. ReplayAbstract gives its level-4 image.
  std::vector<dist::DistEvent> events;
  /// False when some node is down for good or did not discharge its
  /// obligations (it gave up after max_idle_spins); `stalls` then names
  /// what each live action was waiting on.
  bool complete = true;
  StallDiagnosis stalls;
};

/// Projects the fault counters into the trace-level fault record.
txn::FaultStats ToFaultStats(const DriverStats& stats);

/// The in-process host of the NodeCore loop, under two schedulers. Both
/// run one core per node over a MailboxTransport, whose per-sender
/// seeded LinkInterposer drops, duplicates, delays and partitions
/// transmissions, and share everything else:
///
///  * the logical clock: one tick per recorded event and per watchdog
///    retry, on which the plan's crashes and partitions run;
///  * the record: each event is stamped on that clock (and streamed to
///    the live sink / level-4 shadow when set); M_i is the mailbox's
///    retention buffer, which the core's WAL self-sends keep a superset
///    of the node's volatile knowledge;
///  * the crash: once the clock reaches CrashSpec::at_stamp, before the
///    node's next pass, its volatile summary is wiped (the value map —
///    the durable lock table for objects homed there — and M_i survive)
///    and the node stops;
///  * the rebirth, by CrashSpec::RebornAt: NodeCore::Rebirth replays M_i
///    with one legal Receive (paper §9.1);
///  * the end: every node that is up is done or has given up, and no
///    node waits to be reborn. A node that is down for good or has not
///    discharged its obligations then makes the run incomplete, with a
///    StallDiagnosis.
///
/// Recovery, anti-entropy retries and timeout-aborts are NodeCore's
/// (node_core.h). Per-object perform order is pinned to the sequential
/// driver's DFS order, so a run without timeout-aborts ends with the same
/// final value maps as RunProgram on every program and fault plan.
///
/// ChaosRunProgram is the deterministic scheduler: on the calling
/// thread, each sweep steps every node's core once, in node order. Two
/// runs with equal options produce bit-identical ParallelRuns.
StatusOr<ParallelRun> ChaosRunProgram(const dist::DistAlgebra& alg,
                                      const ParallelOptions& options = {});

/// The thread scheduler: one thread per node runs its core free, and the
/// calling thread supervises — it rebirths a crashed node (after joining
/// its thread) on a fresh one and stops the run. Race-freedom rests on
/// the algebra's structure (Local Domain / Local Changes: a node's
/// events touch only its own component) and the mutex-free
/// ConcurrentMailbox. Value-deterministic, not trace-deterministic.
StatusOr<ParallelRun> RunParallel(const dist::DistAlgebra& alg,
                                  const ParallelOptions& options = {});

/// Replays a recorded ℬ computation bottom-up through the level-4 algebra
/// (send/receive map to Λ): returns the abstract (tree, value-map) state,
/// or kInternal if some event's image is undefined — the refinement
/// obligation a valid run must never trip. Used to judge runs with the
/// Theorem 9 checker.
StatusOr<valuemap::ValState> ReplayAbstract(
    const dist::DistAlgebra& alg, std::span<const dist::DistEvent> events);

/// As above, but additionally streams each replayed event's trace form
/// into `sink` *in replay order* — the hook that lets an
/// txn::OnlineChecker certify a merged parallel log incrementally while
/// it is being replayed, instead of after the whole tree is rebuilt.
/// Lock bookkeeping events (release/lose) and the virtual root's
/// commit/abort have no trace form and are skipped. `sink` may be null
/// (then this is exactly the two-argument overload).
StatusOr<valuemap::ValState> ReplayAbstract(const dist::DistAlgebra& alg,
                                            std::span<const dist::DistEvent> events,
                                            txn::TraceSink* sink);

}  // namespace rnt::sim

#endif  // RNT_SIM_PARALLEL_RUNNER_H_

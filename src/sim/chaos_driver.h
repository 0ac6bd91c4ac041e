#ifndef RNT_SIM_CHAOS_DRIVER_H_
#define RNT_SIM_CHAOS_DRIVER_H_

#include <set>
#include <vector>

#include "common/status.h"
#include "dist/dist_algebra.h"
#include "faults/faults.h"
#include "sim/diagnosis.h"
#include "sim/dist_driver.h"
#include "txn/trace.h"
#include "valuemap/value_map_algebra.h"

namespace rnt::sim {

/// Options for a fault-injected program execution.
struct ChaosOptions {
  /// The fault schedule (see faults/faults.h). A default plan injects
  /// nothing, in which case ChaosRunProgram computes the same final
  /// values as RunProgram.
  faults::FaultPlan plan;
  /// Static aborts, as in DriverOptions (the chaos driver additionally
  /// aborts *dynamically* on timeout).
  std::set<ActionId> abort_set;
  /// Hard bound on scheduler rounds.
  int max_rounds = 200000;
  /// Stall handling: a step whose knowledge request goes unanswered
  /// re-sends with exponential backoff (1 << attempt rounds, capped at
  /// 32), and after max_attempts_per_step re-requests the nearest
  /// abortable enclosing subtransaction is timeout-aborted instead of
  /// spinning.
  int max_attempts_per_step = 12;
  /// Check the Lemma 23-26 local-consistency obligations against the
  /// level-4 shadow state after every round (the "invariants under fire"
  /// mode used by the chaos tests; costs O(state) per round).
  bool check_invariants = false;
  /// Run on the multi-threaded ParallelRunner against the concurrent
  /// (mutex-free) message buffer instead of the round-based sequential
  /// loop: faults are injected into real cross-thread traffic by the
  /// in-process transport, including crashes (mid-loop thread death,
  /// rebirth by durable-buffer replay) and partitions (severed links) —
  /// crash triggers and partition windows run on the runner's logical
  /// clock (see faults::CrashSpec). Restricted to kEager/kDelta
  /// propagation semantics (the runner is reactive); `propagation` below
  /// selects which, and `max_attempts_per_step` above feeds the per-node
  /// watchdog. The level-4 shadow and the invariant check then run
  /// post-hoc over the merged event log rather than per round.
  bool concurrent_buffer = false;
  /// Knowledge policy for concurrent_buffer mode (ignored otherwise).
  Propagation propagation = Propagation::kDelta;
};

/// Result of a chaos run. `events` is the exact sequence of ℬ events the
/// driver applied — a valid computation of the distributed algebra (the
/// crash wipes are *not* events: recovery re-enters legal states via
/// Receive of the buffer M_i, so the log replays cleanly against the
/// un-crashed algebra). Two runs with equal options produce bit-identical
/// ChaosRuns.
struct ChaosRun {
  DriverStats stats;
  dist::DistState final_state;
  /// The level-4 shadow state maintained alongside the run: its tree is
  /// the abstract AAT on which perm(T) serializability and orphan-view
  /// consistency are judged.
  valuemap::ValState abstract;
  std::vector<dist::DistEvent> events;
  /// False when some subtree could not finish *or be aborted* (e.g. its
  /// only abort point was unreachable for the whole run); `stalls` then
  /// explains, per action, what each was waiting on.
  bool complete = true;
  StallDiagnosis stalls;
};

/// Projects the chaos counters into the trace-level fault record.
txn::FaultStats ToFaultStats(const DriverStats& stats);

/// Executes the registered program on ℬ under the fault plan: a
/// fault-aware variant of RunProgram in which every knowledge transfer
/// travels through a chaotic network (drop / duplicate / delay / reorder
/// / partition), nodes crash and recover mid-run, and stuck
/// subtransactions are timeout-aborted.
///
/// Robustness mechanics, all deterministic from the plan's seed:
///  * WAL discipline: every node event is followed by a self-send, so the
///    buffer M_i is a superset of node i's volatile knowledge ("all
///    information ever sent toward i" — paper §9.1).
///  * Crash: at the planned round the node's summary is wiped; its value
///    map (the durable lock table for objects homed there) survives.
///  * Recovery: at rebirth the driver issues Receive(i, M_i) — buffer
///    replay restores exactly the knowledge the WAL captured.
///  * Stall detection: missing knowledge is re-requested under bounded
///    exponential backoff (stats.retries counts re-sends).
///  * Timeout abort: a step stuck past max_attempts_per_step aborts the
///    deepest abortable subtransaction on the current execution path,
///    dynamically exercising the abort/lose-lock machinery.
///  * Graceful degradation: when even timeout-abort is impossible (no
///    reachable abort point), the subtree is abandoned, the run continues
///    elsewhere, and the result is a partial ChaosRun with
///    complete=false and a per-action stall diagnosis.
///
/// When options.check_invariants is set, CheckLocalConsistency must hold
/// after every round (crashed nodes' knowledge obligations waived while
/// down) — a violated invariant returns kInternal.
StatusOr<ChaosRun> ChaosRunProgram(const dist::DistAlgebra& alg,
                                   const ChaosOptions& options = {});

}  // namespace rnt::sim

#endif  // RNT_SIM_CHAOS_DRIVER_H_

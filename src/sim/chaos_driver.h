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
  /// Static aborts, as in DriverOptions (the nodes additionally abort
  /// *dynamically* on timeout).
  std::set<ActionId> abort_set;
  /// Watchdog escalation threshold (NodeCore::Options): unproductive
  /// anti-entropy retries before a node timeout-aborts the deepest
  /// abortable enclosing subtransaction homed locally.
  int max_attempts_per_step = 12;
  /// Check the Lemma 23-26 local-consistency obligations against the
  /// level-4 shadow state after every sweep that recorded an event or
  /// crashed or rebirthed a node (the "invariants under fire" mode used
  /// by the chaos tests; costs O(state) per such sweep).
  bool check_invariants = false;
  /// Knowledge policy: kDelta or kEager. The node loop is reactive, so
  /// kLazy is rejected (kInvalidArgument), as by RunParallel.
  Propagation propagation = Propagation::kDelta;
};

/// Result of a chaos run. `events` is the exact sequence of ℬ events the
/// nodes applied — a valid computation of the distributed algebra (the
/// crash wipes are *not* events: recovery re-enters legal states via
/// Receive of the buffer M_i, so the log replays cleanly against the
/// un-crashed algebra). Two runs with equal options produce bit-identical
/// ChaosRuns. `stats.rounds` counts host sweeps (one pass of every live
/// node).
struct ChaosRun {
  DriverStats stats;
  dist::DistState final_state;
  /// The level-4 shadow state maintained alongside the run: its tree is
  /// the abstract AAT on which perm(T) serializability and orphan-view
  /// consistency are judged.
  valuemap::ValState abstract;
  std::vector<dist::DistEvent> events;
  /// False when some node did not discharge its obligations (a node down
  /// for good, a node that gave up under a permanent partition, or the
  /// sweep bound); `stalls` then explains, per action, what each was
  /// waiting on.
  bool complete = true;
  StallDiagnosis stalls;
};

/// Projects the chaos counters into the trace-level fault record.
txn::FaultStats ToFaultStats(const DriverStats& stats);

/// Executes the registered program on ℬ under the fault plan, on one
/// thread and bit-reproducibly: the single-thread host of the same
/// NodeCore loop RunParallel and rnt_node drive. Each sweep steps every
/// node's core once, in node order, over a MailboxTransport whose
/// per-sender seeded LinkInterposer drops, duplicates, delays and
/// partitions transmissions.
///
/// The host records each event (stamping the logical clock, which also
/// ticks once per watchdog retry, exactly as in RunParallel, so a plan
/// means the same thing on every host) and applies its level-4 image to
/// the `abstract` shadow; an event whose image is undefined there is
/// kInternal. M_i is the mailbox's retention buffer. A crash fires before the node's pass once
/// the clock reaches CrashSpec::at_stamp: its summary is wiped and the
/// node is skipped until the clock reaches at_stamp + down_for, when
/// NodeCore::Rebirth replays M_i with one legal Receive. There is no
/// forced rebirth: the run ends when every node that is up is done or
/// has given up. Recovery, anti-entropy retries and timeout-aborts are
/// NodeCore's (node_core.h).
///
/// When options.check_invariants is set, CheckLocalConsistency must hold
/// (crashed nodes' knowledge obligations waived while down) — a violated
/// invariant returns kInternal.
StatusOr<ChaosRun> ChaosRunProgram(const dist::DistAlgebra& alg,
                                   const ChaosOptions& options = {});

}  // namespace rnt::sim

#endif  // RNT_SIM_CHAOS_DRIVER_H_

#ifndef RNT_SIM_SUPERVISOR_H_
#define RNT_SIM_SUPERVISOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "dist/dist_algebra.h"
#include "faults/faults.h"
#include "sim/diagnosis.h"
#include "sim/dist_driver.h"
#include "sim/phases.h"
#include "sim/program_spec.h"
#include "sim/socket_hub.h"

namespace rnt::sim {

/// One multi-process execution of ℬ: k rnt_node OS processes against a
/// SocketHub, with *real* faults delivered by this supervisor.
struct SupervisorOptions {
  ProgramSpec spec;
  /// Path to the rnt_node binary (tests get it from the build system).
  std::string node_binary;
  /// Working directory: per-node trace/retention files + the unix socket.
  std::string dir;
  SocketHub::Backend backend = SocketHub::Backend::kUnix;
  /// Drop/dup/delay + stamp-windowed partitions run at the hub's link
  /// interposer; `plan.crashes` become kill -9 of node processes, judged
  /// on the hub-observed logical clock. Stamp windows are upper bounds
  /// on patience: 0.5 s without a hub clock change fires a scheduled
  /// kill early, and counts as every live node settled for
  /// CrashSpec::RebornAt. A kNeverReborn kill is never reborn and leaves
  /// the run incomplete.
  faults::FaultPlan plan;
  Propagation propagation = Propagation::kDelta;
};

/// Where a multi-process run's wall time went: the supervisor's five
/// phases — hub start + forking the nodes (and building the replay's
/// algebra while they start), running until every node is done,
/// draining (reaping the nodes, stopping the hub), finishing the trace
/// files (reading + replaying what the run phase had not), and flushing
/// the last events into the merged log. Each is timed from its own start
/// to its own end, so work RunMultiProcess does outside them (plan
/// validation, the durability check) stays visible as wall time minus
/// total_s().
struct RunPhases {
  double spawn_s = 0;
  double run_s = 0;
  double drain_s = 0;
  double load_replay_s = 0;
  double merge_s = 0;
  /// Informational, inside run_s and not added to total_s(): the
  /// supervisor's time in tail steps (reading, replaying and merging the
  /// traces while the nodes run).
  double replay_in_run_s = 0;
  /// Per node: the phase counters of the last heartbeat the hub received
  /// from it (the latest incarnation's, after a kill).
  std::vector<NodePhases> nodes;

  double total_s() const {
    return spawn_s + run_s + drain_s + load_replay_s + merge_s;
  }
};

/// Evidence of one multi-process run, shaped to be judged by the same
/// machinery as in-process ParallelRun.
struct MultiProcessRun {
  DriverStats stats;
  /// Mechanical replay of the node traces (the ground truth a killed
  /// process cannot misreport), streamed while the nodes run.
  dist::DistState final_state;
  /// All nodes' durable traces merged by (Lamport stamp, node id).
  std::vector<dist::DistEvent> events;
  /// False when some node gave up (e.g. under a permanent partition);
  /// `stalls` then names what each live action was waiting on.
  bool complete = true;
  StallDiagnosis stalls;
  /// kill -9s actually delivered.
  int kills = 0;
  SocketHub::HubStats hub;
  /// Per node: the highest durably-acked retention scalar observed
  /// before any kill, and the highest recovered scalar any rebirth
  /// reported. The supervisor enforces recovered >= acked per node
  /// (returning kInternal on violation); both sides are exposed so
  /// tests can assert the margin too.
  std::vector<std::uint64_t> acked_at_kill;
  std::vector<std::uint64_t> recovered_scalar;
  RunPhases phases;
};

/// The post-hoc oracle of the supervisor's streamed replay: rebuilds
/// `run->final_state`, `run->events` and the event-derived `run->stats`
/// counters (node events, performs, commits, aborts, releases, loses,
/// messages, summary entries) from the k finished node traces in `dir`,
/// and times it into `run->phases` (load_replay_s, merge_s).
/// RunMultiProcess builds the same three while the nodes run (tailing
/// each node's current trace file, replaying each record as it is read,
/// emitting events up to the least stamp read across nodes); tests
/// compare the two over the same directory.
///
/// Node i's trace holds only events whose doer component is nodes[i] or
/// buffer[i] — its own node events, the Sends it received (stamped on
/// the receiver, including its WAL self-sends) and its Receives — so
/// replaying each trace into final_state as it is loaded performs
/// exactly the per-component Apply sequence of a replay of the merged
/// log. The traces are then k-way merged by (stamp, node) into
/// run->events, each event moved once. Each node's stamps must strictly
/// increase (its Lamport clock); a trace that breaks this is kDataLoss.
Status MergeNodeTraces(const std::string& dir, NodeId k,
                       const dist::DistAlgebra& alg, MultiProcessRun* run);

/// Runs the whole program across k node processes. Non-ok only for
/// harness-level failures (spawn/reap trouble, the 180 s wall deadline —
/// children killed, Timeout with per-node diagnostics — durability
/// violations, a trace that fails its checks); fault-degraded runs come
/// back ok with complete=false.
StatusOr<MultiProcessRun> RunMultiProcess(const SupervisorOptions& options);

}  // namespace rnt::sim

#endif  // RNT_SIM_SUPERVISOR_H_

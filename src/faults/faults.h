#ifndef RNT_FAULTS_FAULTS_H_
#define RNT_FAULTS_FAULTS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/types.h"

namespace rnt::faults {

/// Crash node `node`, wiping its volatile state (the action summary i.T).
/// The node is later reborn; a fault-aware driver recovers it by replaying
/// the monotone message buffer M_i — the paper's recovery story, made
/// executable (ℬ's buffer is "all information ever sent toward node i",
/// so a rebirth that receives M_i is just another legal Receive event).
///
/// Two trigger clocks, one per runtime:
///  * Round-based (`round`/`down_for`): the sequential chaos driver
///    crashes at the start of scheduler round `round` and rebirths
///    `down_for` rounds later.
///  * Logical-clock (`at_stamp`/`down_for_stamps`): the free-running
///    multi-threaded runner has no rounds; its clock is the global event
///    stamp counter (one tick per recorded ℬ event, plus watchdog
///    heartbeats). When `at_stamp >= 0` the node crashes once the global
///    stamp reaches it and is reborn `down_for_stamps` (default: the
///    round fields, reinterpreted in stamp units) ticks later. When
///    `at_stamp < 0` the runner falls back to `round`/`down_for` read as
///    stamps, so round-era plans keep working unchanged.
struct CrashSpec {
  NodeId node = 0;
  int round = 0;
  int down_for = 4;
  std::int64_t at_stamp = -1;          // < 0: derive from `round`
  std::int64_t down_for_stamps = -1;   // < 0: derive from `down_for`

  /// The logical-clock trigger used by the free-running runner.
  std::int64_t TriggerStamp() const {
    return at_stamp >= 0 ? at_stamp : static_cast<std::int64_t>(round);
  }
  /// First stamp at which the node may be reborn.
  std::int64_t RebirthStamp() const {
    std::int64_t span = down_for_stamps >= 0
                            ? down_for_stamps
                            : static_cast<std::int64_t>(down_for);
    return TriggerStamp() + std::max<std::int64_t>(1, span);
  }
};

/// Kill the whole *process* — SIGKILL, no destructors, no flush — after
/// `after_ops` durable top-level commits. The process-level analogue of
/// CrashSpec: where a node crash wipes one node's volatile summary and
/// trusts the retention buffer M_i, a process kill wipes *every* thread's
/// volatile state at once and trusts only what reached the disk (the
/// storage layer's WAL + snapshot). Executed by the fork/kill/recover
/// harness in sim/process_chaos.h: the child workload raises SIGKILL on
/// itself the moment its committed-op counter passes the trigger, so the
/// kill lands at a different engine state every run.
struct ProcessCrashSpec {
  /// Durable top-level commits to allow before the self-kill. < 0: never
  /// crash (the workload runs to completion — the control cycle).
  std::int64_t after_ops = -1;

  bool Enabled() const { return after_ops >= 0; }
};

/// Sever the link between nodes `a` and `b`: transmissions in either
/// direction are dropped by the network during the interval. Like
/// CrashSpec, the window is expressed either in scheduler rounds
/// ([from_round, until_round), sequential chaos driver) or on the
/// free-running runner's logical clock ([from_stamp, until_stamp); when
/// from_stamp < 0 the round fields are reinterpreted in stamp units).
struct PartitionSpec {
  NodeId a = 0;
  NodeId b = 0;
  int from_round = 0;
  int until_round = 0;
  std::int64_t from_stamp = -1;   // < 0: derive both bounds from rounds
  std::int64_t until_stamp = -1;

  std::int64_t FromStamp() const {
    return from_stamp >= 0 ? from_stamp
                           : static_cast<std::int64_t>(from_round);
  }
  std::int64_t UntilStamp() const {
    return from_stamp >= 0 ? until_stamp
                           : static_cast<std::int64_t>(until_round);
  }
};

/// A seeded, fully deterministic description of the faults to inject into
/// one distributed run. Two runs driven by equal plans experience
/// bit-identical fault schedules — chaos that is exactly reproducible.
///
/// Message faults are *legal-schedule* faults: ℬ already permits dropped
/// (never-received), duplicated (M_j is cumulative), delayed, and
/// reordered (any sub-summary of M_j) deliveries, so the injector only
/// chooses *which* legal events the scheduler offers; it never bends the
/// algebra's semantics.
struct FaultPlan {
  std::uint64_t seed = 0;
  /// Probability a transmission is lost before reaching the buffer.
  double drop_prob = 0.0;
  /// Probability a delivered transmission is delivered a second time.
  double dup_prob = 0.0;
  /// Probability a delivered transmission is delayed by 1..max_delay_rounds
  /// rounds (delays of distinct messages reorder them).
  double delay_prob = 0.0;
  int max_delay_rounds = 3;
  std::vector<CrashSpec> crashes;
  std::vector<PartitionSpec> partitions;

  std::string ToString() const;
};

/// Deterministic per-message fault decisions drawn from the plan's seed.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan)
      : plan_(plan), rng_(plan.seed) {}

  /// The fate of one transmission.
  struct Verdict {
    bool drop = false;
    /// True when the drop was forced by an active partition (counted
    /// separately from random loss by callers that care).
    bool partitioned = false;
    /// Rounds before the receive fires (0 = next delivery pass).
    int delay = 0;
    /// When >= 0, a duplicate delivery fires after this many rounds.
    int duplicate_delay = -1;
  };

  /// Decides the fate of a transmission from `from` to `to` at `round`.
  /// Consumes a fixed number of PRNG draws per call regardless of the
  /// probabilities, so sweeps over fault rates with one seed see the same
  /// underlying random sequence.
  /// Pass a negative `round` to disable the round-window partition check
  /// (the free-running runtimes judge stamp-windowed partitions in their
  /// LinkInterposer instead, since their loop passes are not rounds).
  Verdict OnMessage(NodeId from, NodeId to, int round);

  bool Partitioned(NodeId a, NodeId b, int round) const;

  const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  Rng rng_;
};

/// `plan`'s crashes of `node`, by ascending trigger stamp — the order a
/// free-running runtime fires them in.
std::vector<CrashSpec> CrashesOf(const FaultPlan& plan, NodeId node);

/// Validates a plan: probabilities in [0, 1], nodes within [k],
/// non-negative intervals, no self-partitions (a == b), no overlapping
/// crash intervals for the same node (in either clock domain), and
/// stamp-trigger fields that are each either unset (-1) or well-formed.
Status ValidatePlan(const FaultPlan& plan, NodeId num_nodes);

}  // namespace rnt::faults

#endif  // RNT_FAULTS_FAULTS_H_

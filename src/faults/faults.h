#ifndef RNT_FAULTS_FAULTS_H_
#define RNT_FAULTS_FAULTS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/types.h"

namespace rnt::faults {

/// Crash node `node`, wiping its volatile state (the action summary i.T).
/// The node is later reborn; a fault-aware host recovers it by replaying
/// the monotone message buffer M_i — the paper's recovery story, made
/// executable (ℬ's buffer is "all information ever sent toward node i",
/// so a rebirth that receives M_i is just another legal Receive event).
///
/// The trigger runs on the one logical clock every ℬ host keeps: the
/// event stamp counter (one tick per recorded ℬ event, plus one per
/// watchdog retry; the process hub observes the nodes' Lamport stamps).
/// The node crashes once the clock reaches `at_stamp`; RebornAt is the
/// rule every host rebirths it by.
struct CrashSpec {
  /// The `down_for` of a crash the node is never reborn from.
  static constexpr std::int64_t kNeverReborn =
      std::numeric_limits<std::int64_t>::max();

  NodeId node = 0;
  std::int64_t at_stamp = 0;
  std::int64_t down_for = 4;

  /// Whether a node down since this crash is reborn now: once the clock
  /// reaches at_stamp + down_for, or earlier once every node that is up
  /// is done or has given up (`rest_settled` — waiting longer cannot
  /// help anyone, so the window is an upper bound on patience). A
  /// kNeverReborn crash is never reborn.
  bool RebornAt(std::int64_t clock, bool rest_settled) const {
    return down_for != kNeverReborn &&
           (rest_settled || clock - at_stamp >= down_for);
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
/// direction are dropped by the network while the logical clock (see
/// CrashSpec) lies in [from_stamp, until_stamp).
struct PartitionSpec {
  NodeId a = 0;
  NodeId b = 0;
  std::int64_t from_stamp = 0;
  std::int64_t until_stamp = 0;
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
  /// Probability a delivered transmission is held for 1..max_delay_rounds
  /// of the receiver's delivery passes (delays of distinct messages
  /// reorder them).
  double delay_prob = 0.0;
  int max_delay_rounds = 3;
  std::vector<CrashSpec> crashes;
  std::vector<PartitionSpec> partitions;

  /// Whether a run under this plan can lose knowledge in flight or in a
  /// crash, so the nodes need the watchdog's anti-entropy retries.
  bool LosesKnowledge() const {
    return drop_prob > 0 || !crashes.empty() || !partitions.empty();
  }

  std::string ToString() const;
};

/// Deterministic per-message fault decisions drawn from the plan's seed.
/// Partitions are not judged here: they depend on the link and the
/// logical clock, which LinkInterposer sees.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan)
      : plan_(plan), rng_(plan.seed) {}

  /// The fate of one transmission.
  struct Verdict {
    bool drop = false;
    /// Delivery passes to hold the message for (0 = next pass).
    int delay = 0;
    /// When >= 0, a duplicate delivery fires after this many passes.
    int duplicate_delay = -1;
  };

  /// Decides the fate of the next transmission. Consumes a fixed number
  /// of PRNG draws per call regardless of the probabilities, so sweeps
  /// over fault rates with one seed see the same underlying random
  /// sequence.
  Verdict OnMessage();

  const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  Rng rng_;
};

/// `plan`'s crashes of `node`, by ascending `at_stamp` — the order a
/// host fires them in.
std::vector<CrashSpec> CrashesOf(const FaultPlan& plan, NodeId node);

/// Validates a plan: probabilities in [0, 1], nodes within [k],
/// non-negative stamps, down_for >= 1, ordered partition windows, no
/// self-partitions (a == b), and no overlapping crash windows
/// [at_stamp, at_stamp + down_for) for the same node (a kNeverReborn
/// window never closes).
Status ValidatePlan(const FaultPlan& plan, NodeId num_nodes);

}  // namespace rnt::faults

#endif  // RNT_FAULTS_FAULTS_H_

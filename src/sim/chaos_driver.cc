#include "sim/chaos_driver.h"

#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "sim/message_buffer.h"
#include "sim/node_core.h"

namespace rnt::sim {

namespace {

using dist::ActionSummary;
using dist::DistAlgebra;
using dist::DistEvent;

/// Sweeps before a run that has not settled is cut short as incomplete.
constexpr int kMaxSweeps = 200000;

/// Single-thread host of one NodeCore per node: steps the cores
/// round-robin over a MailboxTransport, keeps the level-4 shadow, and
/// crashes and rebirths nodes on the logical clock.
class ChaosHost {
 public:
  ChaosHost(const DistAlgebra& alg, const ChaosOptions& options)
      : alg_(alg),
        options_(options),
        state_(alg.Initial()),
        val_alg_(&alg.registry()),
        val_state_(val_alg_.Initial()),
        mailbox_(alg.topology().k()),
        transport_(&mailbox_, alg.topology().k(), options.plan, &clock_),
        nodes_(alg.topology().k()) {}

  StatusOr<ChaosRun> Run() {
    RNT_RETURN_IF_ERROR(ValidateHostInputs(alg_, options_.abort_set,
                                           options_.propagation,
                                           options_.plan));
    const NodeCore::Options core_options{
        .propagation = options_.propagation,
        .anti_entropy = options_.plan.LosesKnowledge(),
        .max_attempts_per_step = options_.max_attempts_per_step};
    for (NodeId i = 0; i < nodes_.size(); ++i) {
      Node& n = nodes_[i];
      n.host = this;
      n.id = i;
      n.crashes = faults::CrashesOf(options_.plan, i);
      n.core = std::make_unique<NodeCore>(alg_, i, &state_, &n, &n.stats,
                                          core_options);
      n.core->Plan(options_.abort_set);
    }
    int sweeps = 0;
    bool settled = false;
    while (!settled && sweeps < kMaxSweeps) {
      ++sweeps;
      const std::size_t recorded = events_.size();
      bool changed = false;  // a node crashed or was reborn
      settled = true;
      for (Node& n : nodes_) {
        changed |= Step(n);
        RNT_RETURN_IF_ERROR(n.core->status());
        settled =
            settled && (n.Down() || n.core->Done() || n.core->gave_up());
      }
      if (options_.check_invariants &&
          (changed || events_.size() > recorded)) {
        RNT_RETURN_IF_ERROR(CheckInvariants());
      }
    }
    return Assemble(sweeps);
  }

 private:
  struct Node final : NodeCore::Host {
    ChaosHost* host = nullptr;
    NodeId id = 0;
    std::unique_ptr<NodeCore> core;
    std::vector<faults::CrashSpec> crashes;  // by at_stamp
    std::size_t next_crash = 0;
    /// While down: the clock reading at which the node is reborn.
    std::int64_t reborn_at = -1;
    DriverStats stats;

    bool Down() const { return reborn_at >= 0; }

    Status Record(DistEvent e, std::uint64_t /*msg_clock*/) override {
      return host->Record(std::move(e));
    }
    Status Retain(const ActionSummary& payload) override {
      host->mailbox_.Retain(id, payload);
      return Status::Ok();
    }
    Status Persist() override { return Status::Ok(); }
    std::uint64_t Clock() const override { return 0; }
  };

  std::int64_t Now() const {
    return static_cast<std::int64_t>(clock_.load(std::memory_order_relaxed));
  }

  /// One node's turn: rebirth once its down time is over, crash once its
  /// next trigger is reached (skipping the pass), else one Pass. True iff
  /// the node crashed or was reborn.
  bool Step(Node& n) {
    bool changed = false;
    if (n.Down()) {
      if (Now() < n.reborn_at) return false;
      n.reborn_at = -1;
      n.core->Rebirth(mailbox_.Retained(n.id));
      changed = true;
    }
    if (n.next_crash < n.crashes.size() &&
        Now() >= n.crashes[n.next_crash].at_stamp) {
      const faults::CrashSpec& spec = n.crashes[n.next_crash++];
      // The value map (the durable lock table for objects homed here)
      // and M_i survive; the volatile summary does not.
      state_.nodes[n.id].summary = ActionSummary{};
      n.reborn_at = spec.at_stamp + spec.down_for;
      ++n.stats.crashes;
      return true;
    }
    if (n.core->Pass(transport_).retried) {
      clock_.fetch_add(1, std::memory_order_relaxed);
    }
    return changed;
  }

  /// Stamps one event on the logical clock and applies its level-4 image
  /// to the shadow (the refinement obligation — a violation under fire is
  /// a bug worth an error, not a retry).
  Status Record(DistEvent e) {
    clock_.fetch_add(1, std::memory_order_relaxed);
    if (std::optional<algebra::LockEvent> image = dist::DistToValueEvent(e)) {
      if (!val_alg_.Defined(val_state_, *image)) {
        return Status::Internal(
            "chaos run: refinement violated, no level-4 image for " +
            dist::ToString(e));
      }
      val_alg_.Apply(val_state_, *image);
    }
    events_.push_back(std::move(e));
    return Status::Ok();
  }

  Status CheckInvariants() const {
    std::set<NodeId> down;
    for (const Node& n : nodes_) {
      if (n.Down()) down.insert(n.id);
    }
    return dist::CheckLocalConsistency(alg_, state_, val_state_, &down);
  }

  ChaosRun Assemble(int sweeps) {
    DriverStats stats;
    stats.rounds = sweeps;
    bool complete = true;
    for (Node& n : nodes_) {
      const MailboxTransport::LinkStats link = transport_.stats(n.id);
      n.stats.dropped_msgs += link.dropped;
      n.stats.duplicated_msgs += link.duplicated;
      stats += n.stats;
      if (!n.core->Done() || n.core->gave_up()) complete = false;
    }
    StallDiagnosis stalls;
    if (!complete) stalls = DiagnoseStalls(alg_, state_);
    return ChaosRun{stats,     std::move(state_),  std::move(val_state_),
                    std::move(events_), complete, std::move(stalls)};
  }

  const DistAlgebra& alg_;
  const ChaosOptions& options_;
  dist::DistState state_;
  valuemap::ValueMapAlgebra val_alg_;
  valuemap::ValState val_state_;
  std::vector<DistEvent> events_;
  /// The logical clock: one tick per recorded event and watchdog retry.
  /// Atomic only because MailboxTransport reads it through a pointer.
  std::atomic<std::uint64_t> clock_{0};
  ConcurrentMailbox mailbox_;
  MailboxTransport transport_;
  std::vector<Node> nodes_;
};

}  // namespace

txn::FaultStats ToFaultStats(const DriverStats& stats) {
  txn::FaultStats f;
  f.retries = stats.retries;
  f.crashes = stats.crashes;
  f.dropped_msgs = stats.dropped_msgs;
  f.duplicated_msgs = stats.duplicated_msgs;
  f.delayed_msgs = stats.delayed_msgs;
  f.recovered_nodes = stats.recovered_nodes;
  f.timeout_aborts = stats.timeout_aborts;
  return f;
}

StatusOr<ChaosRun> ChaosRunProgram(const DistAlgebra& alg,
                                   const ChaosOptions& options) {
  ChaosHost host(alg, options);
  return host.Run();
}

}  // namespace rnt::sim

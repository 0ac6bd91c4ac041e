#include "sim/dist_driver.h"

#include <vector>

#include "sim/diagnosis.h"

namespace rnt::sim {

namespace {

using dist::DistAlgebra;
using dist::DistEvent;
using dist::DistState;

/// Safety bound on the lock-walk steps of one unblock.
constexpr int kMaxLockWalk = 100000;

/// Scheduler for one RunProgram execution.
///
/// The schedule is a depth-first traversal of the universal action tree:
/// an inner action is created on first visit, its children are processed
/// left-to-right, and it commits (or aborts, for abort_set members) after
/// its subtree completes; accesses are created and performed in place.
/// Because every subtree to the "left" of the current access has fully
/// committed, any lock standing in the way can always be walked up (via
/// release-lock events) to an ancestor of the requester — the schedule is
/// deadlock-free by construction, making message counts well-defined for
/// experiment E5. (Concurrent schedules with deadlock handling live in
/// the engine, not here; this driver exercises the *distributed algebra*.)
class Driver {
 public:
  Driver(const DistAlgebra& alg, const DriverOptions& options)
      : alg_(alg),
        topo_(alg.topology()),
        reg_(alg.registry()),
        options_(options),
        state_(alg.Initial()) {
    if (options_.propagation == Propagation::kDelta) {
      shipped_.resize(topo_.k(),
                      std::vector<dist::ActionSummary>(topo_.k()));
    }
  }

  StatusOr<DriverRun> Run() {
    for (ActionId a : options_.abort_set) {
      if (!reg_.Valid(a) || reg_.IsAccess(a) || a == kRootAction) {
        return Status::InvalidArgument(
            "abort_set must contain registered non-access actions");
      }
    }
    for (ActionId top : reg_.Children(kRootAction)) {
      RNT_RETURN_IF_ERROR(Visit(top));
    }
    // Final drain: walk remaining locks up to the root U everywhere.
    for (NodeId i = 0; i < topo_.k(); ++i) {
      for (ObjectId x : state_.nodes[i].vmap.TouchedObjects()) {
        RNT_RETURN_IF_ERROR(DrainToRoot(i, x));
      }
    }
    return DriverRun{stats_, std::move(state_)};
  }

 private:
  Status Fail(const char* what, ActionId a) {
    std::string msg = std::string("dist driver: ") + what + " for action " +
                      std::to_string(a);
    StallDiagnosis diag = DiagnoseStalls(alg_, state_);
    if (!diag.empty()) {
      msg += "; stalled actions:\n" + diag.ToString();
    }
    return Status::FailedPrecondition(std::move(msg));
  }

  /// Ships node i's knowledge to j (one message): the full summary under
  /// kLazy/kEager, or only the entries new since the last send to j under
  /// kDelta (per-peer frontier). The payload is moved, not copied, on its
  /// second hop into the buffer.
  void Sync(NodeId i, NodeId j) {
    if (i == j || state_.nodes[i].summary.empty()) return;
    dist::ActionSummary payload;
    if (options_.propagation == Propagation::kDelta) {
      payload = state_.nodes[i].summary.DeltaSince(shipped_[i][j]);
      if (payload.empty()) return;  // j was already shipped all of i.T
      shipped_[i][j].MergeFrom(payload);
    } else {
      payload = state_.nodes[i].summary;
    }
    stats_.summary_entries += payload.size();
    DistEvent send{dist::Send{i, j, std::move(payload)}};
    if (alg_.Defined(state_, send)) {
      alg_.Apply(state_, std::move(send));
      DistEvent recv{dist::Receive{j, state_.buffer[j]}};
      if (alg_.Defined(state_, recv)) alg_.Apply(state_, std::move(recv));
      ++stats_.messages;
    }
  }

  void Broadcast(NodeId i) {
    for (NodeId j = 0; j < topo_.k(); ++j) Sync(i, j);
  }

  bool ApplyNodeEvent(const DistEvent& e) {
    if (!alg_.Defined(state_, e)) return false;
    alg_.Apply(state_, e);
    ++stats_.node_events;
    if (options_.propagation == Propagation::kEager) {
      NodeId doer = alg_.Doer(e);
      if (doer < topo_.k()) Broadcast(doer);
    }
    return true;
  }

  /// Depth-first execution of the subtree rooted at `a`.
  Status Visit(ActionId a) {
    // Create at the origin, ferrying parent knowledge if missing.
    NodeId origin = topo_.Origin(a);
    ActionId p = reg_.Parent(a);
    if (p != kRootAction && !state_.nodes[origin].summary.Contains(p)) {
      Sync(topo_.Origin(p), origin);
    }
    if (!ApplyNodeEvent(DistEvent{dist::NodeCreate{origin, a}})) {
      return Fail("create blocked", a);
    }
    created_at_[a] = origin;

    if (reg_.IsAccess(a)) {
      return Perform(a);
    }

    if (options_.abort_set.count(a)) {
      // Abort at the home node; the subtree is never started.
      NodeId home = topo_.HomeOfAction(a);
      if (!state_.nodes[home].summary.Contains(a)) Sync(origin, home);
      if (!ApplyNodeEvent(DistEvent{dist::NodeAbort{home, a}})) {
        return Fail("abort blocked", a);
      }
      aborted_.insert(a);
      ++stats_.aborts;
      return Status::Ok();
    }

    for (ActionId c : reg_.Children(a)) {
      RNT_RETURN_IF_ERROR(Visit(c));
    }

    // Commit at the home node: it must know of a and of every child's
    // completion.
    NodeId home = topo_.HomeOfAction(a);
    if (!state_.nodes[home].summary.Contains(a)) Sync(origin, home);
    for (ActionId c : reg_.Children(a)) {
      if (state_.nodes[home].summary.IsActive(c)) {
        Sync(StatusAuthority(c), home);
      }
    }
    if (!ApplyNodeEvent(DistEvent{dist::NodeCommit{home, a}})) {
      return Fail("commit blocked", a);
    }
    ++stats_.commits;
    return Status::Ok();
  }

  /// The node that knows an action's final status: its home (where
  /// perform/commit/abort happen).
  NodeId StatusAuthority(ActionId a) const { return topo_.HomeOfAction(a); }

  /// The aborted ancestor (or self) of a dead action, if any.
  ActionId AbortedAncestor(ActionId a) const {
    for (ActionId c : reg_.AncestorChain(a)) {
      if (c != kRootAction && aborted_.count(c)) return c;
    }
    return kInvalidAction;
  }

  /// Walks blocking locks on x upward (release) or away (lose) until the
  /// requester `a` could acquire; every holder's relevant ancestors are
  /// already committed by the DFS discipline, so this terminates.
  Status UnblockLocks(NodeId i, ObjectId x, ActionId a) {
    for (int guard = 0; guard < kMaxLockWalk; ++guard) {
      const auto* entry = state_.nodes[i].vmap.EntriesFor(x);
      if (entry == nullptr) return Status::Ok();
      ActionId blocker = kInvalidAction;
      for (const auto& [b, v] : *entry) {
        if (b != kRootAction &&
            (a == kInvalidAction || !reg_.IsProperAncestor(b, a))) {
          blocker = b;
          break;
        }
      }
      if (blocker == kInvalidAction) return Status::Ok();
      ActionId dead = AbortedAncestor(blocker);
      if (dead != kInvalidAction) {
        if (!state_.nodes[i].summary.IsAborted(dead)) {
          Sync(StatusAuthority(dead), i);
        }
        if (!ApplyNodeEvent(DistEvent{dist::NodeLoseLock{i, blocker, x}})) {
          return Fail("lose-lock blocked", blocker);
        }
        ++stats_.loses;
      } else {
        if (!state_.nodes[i].summary.IsCommitted(blocker)) {
          Sync(StatusAuthority(blocker), i);
        }
        if (!ApplyNodeEvent(
                DistEvent{dist::NodeReleaseLock{i, blocker, x}})) {
          return Fail("release-lock blocked", blocker);
        }
        ++stats_.releases;
      }
    }
    return Fail("lock walk did not terminate", a);
  }

  Status Perform(ActionId a) {
    ObjectId x = reg_.Object(a);
    NodeId i = topo_.HomeOfObject(x);
    if (!state_.nodes[i].summary.Contains(a)) {
      Sync(created_at_.at(a), i);
    }
    RNT_RETURN_IF_ERROR(UnblockLocks(i, x, a));
    Value u = state_.nodes[i].vmap.PrincipalValue(x, reg_);
    if (!ApplyNodeEvent(DistEvent{dist::NodePerform{i, a, u}})) {
      return Fail("perform blocked", a);
    }
    ++stats_.performs;
    return Status::Ok();
  }

  /// Final drain of an object's locks all the way to the root U.
  Status DrainToRoot(NodeId i, ObjectId x) {
    return UnblockLocks(i, x, kInvalidAction);
  }

  const DistAlgebra& alg_;
  const dist::Topology& topo_;
  const action::ActionRegistry& reg_;
  const DriverOptions& options_;
  DistState state_;
  /// kDelta only: shipped_[i][j] = everything i has already sent to j.
  std::vector<std::vector<dist::ActionSummary>> shipped_;
  std::map<ActionId, NodeId> created_at_;
  std::set<ActionId> aborted_;
  DriverStats stats_;
};

}  // namespace

DriverStats& DriverStats::operator+=(const DriverStats& other) {
  for (auto field :
       {&DriverStats::node_events, &DriverStats::messages,
        &DriverStats::summary_entries, &DriverStats::performs,
        &DriverStats::commits, &DriverStats::aborts, &DriverStats::releases,
        &DriverStats::loses, &DriverStats::obligations_examined,
        &DriverStats::retries, &DriverStats::crashes,
        &DriverStats::dropped_msgs, &DriverStats::duplicated_msgs,
        &DriverStats::delayed_msgs, &DriverStats::recovered_nodes,
        &DriverStats::timeout_aborts}) {
    this->*field += other.*field;
  }
  return *this;
}

StatusOr<DriverRun> RunProgram(const DistAlgebra& alg,
                               const DriverOptions& options) {
  Driver driver(alg, options);
  return driver.Run();
}

}  // namespace rnt::sim

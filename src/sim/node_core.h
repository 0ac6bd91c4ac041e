#ifndef RNT_SIM_NODE_CORE_H_
#define RNT_SIM_NODE_CORE_H_

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "dist/delta_log.h"
#include "dist/dist_algebra.h"
#include "sim/dist_driver.h"

namespace rnt::sim {

/// The transport-independent core of one ℬ node's event loop, shared by
/// the in-process ParallelRunner (one thread per node) and the rnt_node
/// process (NodeRuntime): the node's planned obligations, the scheduler
/// that discharges them, and the knowledge-shipping bookkeeping. The
/// host owns the state, the transport and durability; the core decides
/// *which* node event to apply next and hands it to the host.
///
/// Obligations come from one DFS of the universal tree (children in id
/// order — the sequential driver's schedule): creates of actions whose
/// origin is this node, aborts of planned-abort actions homed here,
/// commits of live inner actions homed here (DFS post-order), and one
/// ticket list per object homed here (per-object perform order pinned to
/// the DFS order, which makes the runtimes deadlock-free and
/// value-identical to the sequential driver).
///
/// Change-driven scheduling: an obligation is re-judged only when one of
/// its inputs changed in local knowledge, never by rescanning the list.
/// The inputs, and what wakes on them:
///
///  * create(a): the parent's entry and the ancestors' aborts — a change
///    to x wakes the creates of x's children; an abort of x wakes the
///    creates of x's whole subtree (dead descendants resolve by never
///    running);
///  * abort(a) / commit(a): a's own entry, its children's entries and
///    created flags — a change to x wakes x's and parent(x)'s obligation,
///    resolving a create wakes the parent's;
///  * an object: its ticket head's entry, or the entry of the lock
///    holder it is blocked on — it waits on exactly one action and wakes
///    when that action changes; any abort wakes every object (the head
///    or blocker may have just died). The object's lock table only
///    changes through its own processing.
///
/// Rebirth (Recover) rebuilds every cursor from recovered knowledge and
/// wakes everything. Per-pass work is therefore proportional to what
/// changed since the last pass, and a whole run to events + obligations.
class NodeCore {
 public:
  /// How the core applies a node event. The host checks
  /// DistAlgebra::Defined, applies, records and write-ahead-logs it;
  /// false means the host latched a fatal error (the core stops).
  class Host {
   public:
    virtual bool ApplyNodeEvent(dist::DistEvent e) = 0;

   protected:
    ~Host() = default;
  };

  /// `state` holds this node's component (read-only here; the host
  /// mutates it). `stats` receives the scheduler's counters.
  NodeCore(const dist::DistAlgebra& alg, NodeId self,
           const dist::DistState* state, Host* host, DriverStats* stats);
  NodeCore(const NodeCore&) = delete;
  NodeCore& operator=(const NodeCore&) = delete;

  /// Builds the obligation lists; subtrees of `abort_set` members are
  /// pruned (aborted once created, descendants never created). Wakes
  /// everything.
  void Plan(const std::set<ActionId>& abort_set);

  /// Knowledge arrived: `changed` are the summary entries a Receive added
  /// or upgraded (ActionSummary::MergeFrom's change list).
  void Learned(const std::vector<ActionId>& changed);

  /// Peer `from` sent `payload`, so it certainly holds it: its delta
  /// frontier advances (echo suppression).
  void Covered(NodeId from, const dist::ActionSummary& payload) {
    delta_.Covered(from, payload);
  }

  /// Rebirth: rebuilds every cursor from the recovered summary and the
  /// durable lock table (a performed access carries committed status,
  /// effect (d21), so ticket cursors are recoverable), marks the whole
  /// summary as changed for shipping, and wakes every obligation.
  void Recover();

  /// One scheduling pass over the woken obligations, in the loop order
  /// creates, aborts, objects, commits. True iff some obligation moved.
  bool Work();

  /// The watchdog's escalation (the chaos driver's timeout-abort): abort
  /// the deepest abortable enclosing subtransaction homed here — first
  /// among a stuck lock holder's ancestors (freeing the lock via the
  /// lose-lock path), then on the node's own pending commit path (DFS
  /// post-order scan; orphaning the stuck subtree). Only locally homed
  /// actions are eligible: a node applies events to its own component
  /// only (Local Domain — the runtimes' race-freedom invariant). Counted
  /// in stats.timeout_aborts. True iff an abort was applied.
  bool TimeoutAbort();

  /// Every obligation of this node is discharged.
  bool Done() const {
    return creates_left_ == 0 && finals_left_ == 0 && objects_left_ == 0;
  }

  /// Ships pending knowledge: under kDelta calls `ship(j, delta)` for each
  /// peer with a non-empty delta (only entries beyond its frontier);
  /// under kEager `ship(j, summary)` for each peer that has not seen the
  /// current version. Everything since the last flush coalesces into at
  /// most one payload per peer.
  template <typename Ship>
  void Flush(Propagation policy, Ship&& ship) {
    const dist::ActionSummary& t = summary();
    if (policy == Propagation::kDelta) {
      delta_.Flush(t, self_, ship);
      return;
    }
    delta_.Clear();
    if (t.empty()) return;
    for (NodeId j = 0; j < shipped_version_.size(); ++j) {
      if (j == self_ || shipped_version_[j] == version_) continue;
      shipped_version_[j] = version_;
      ship(j, dist::ActionSummary(t));
    }
  }

 private:
  struct ObjectWork {
    ObjectId x = 0;
    std::vector<ActionId> tickets;  // live accesses on x, DFS order
    std::size_t next = 0;
    bool drained = false;
    /// The action whose local status this object is waiting on.
    ActionId waiting_on = kInvalidAction;
  };

  const dist::NodeState& node() const { return state_->nodes[self_]; }
  const dist::ActionSummary& summary() const { return node().summary; }

  /// Applies through the host; on success reports the change.
  bool Apply(dist::DistEvent e);
  /// `a`'s local entry changed: note it for shipping, wake dependents.
  void Changed(ActionId a);
  void WakeCreate(ActionId a);
  void WakeFinal(ActionId a);
  void WakeObject(std::uint32_t o);
  void WakeSubtreeCreates(ActionId a);
  void WakeAll();
  void ResolveCreate(std::uint32_t slot);
  void ResolveFinal(std::uint32_t slot);

  bool TryCreates();
  bool TryAborts();
  bool TryObjects();
  bool TryCommits();
  /// Runs one object until it waits (or is drained). True on progress.
  bool RunObject(ObjectWork& ow, std::uint32_t o);
  /// Walks blocking locks on x as far as local knowledge allows. Returns
  /// the holder still blocking `requester` (kInvalidAction: for anything
  /// but the root), or kInvalidAction when the chain is clear.
  ActionId WalkLocks(ObjectId x, ActionId requester, bool* progress);
  bool AbortAncestorHomedHere(ActionId blocker, ActionId requester);

  const dist::Topology& topo_;
  const action::ActionRegistry& reg_;
  const NodeId self_;
  const dist::DistState* state_;
  Host* host_;
  DriverStats* stats_;
  bool failed_ = false;

  /// Creates in DFS order; slot lookup by ActionId (-1: not planned here).
  std::vector<ActionId> creates_;
  std::vector<std::int32_t> create_slot_;
  std::vector<char> created_;  // by create slot
  std::size_t creates_left_ = 0;
  /// Final obligations: planned aborts, then commits in DFS post-order.
  std::vector<ActionId> finals_;
  std::size_t aborts_ = 0;  // finals_[0, aborts_) are aborts
  std::vector<std::int32_t> final_slot_;
  std::vector<char> done_;  // by final slot
  std::size_t finals_left_ = 0;
  /// Descendants of planned aborts (never created anywhere); empty when
  /// the abort set is.
  std::vector<char> dead_;
  std::vector<ObjectWork> objects_;
  std::size_t objects_left_ = 0;

  /// Wake queues (slots) with their queued flags.
  std::vector<std::uint32_t> create_queue_;
  std::vector<char> create_queued_;
  std::vector<std::uint32_t> abort_queue_;
  std::vector<std::uint32_t> commit_queue_;
  std::vector<char> final_queued_;
  std::vector<std::uint32_t> object_queue_;
  std::vector<char> object_queued_;
  /// Objects waiting on an action, by that action. Entries whose object
  /// has since moved on (waiting_on differs) are skipped when they fire.
  std::map<ActionId, std::vector<std::uint32_t>> object_waiters_;

  /// Knowledge shipping: the kDelta change list + per-peer frontiers,
  /// and kEager's version (bumped on every node event and every Receive
  /// that taught something) against per-peer last-shipped versions.
  dist::DeltaLog delta_;
  std::uint64_t version_ = 0;
  std::vector<std::uint64_t> shipped_version_;
};

}  // namespace rnt::sim

#endif  // RNT_SIM_NODE_CORE_H_

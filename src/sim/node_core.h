#ifndef RNT_SIM_NODE_CORE_H_
#define RNT_SIM_NODE_CORE_H_

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "dist/delta_log.h"
#include "dist/dist_algebra.h"
#include "common/status.h"
#include "faults/faults.h"
#include "sim/dist_driver.h"
#include "sim/transport.h"

namespace rnt::sim {

/// One ℬ node's whole event loop, the single copy both runtimes drive:
/// the in-process host (parallel_runner.h; a sweep or one thread per
/// node) and the rnt_node process (NodeRuntime). Per pass it delivers mail, discharges woken
/// obligations, ships knowledge and runs the watchdog; every node event
/// goes through DistAlgebra::Defined, Apply, and the WAL self-send. The
/// host supplies only what differs between the runtimes (see Host).
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
/// Rebirth rebuilds every cursor from recovered knowledge and wakes
/// everything. Per-pass work is therefore proportional to what changed
/// since the last pass, and a whole run to events + obligations.
class NodeCore {
 public:
  /// What differs between the runtimes. Record, Retain and Persist
  /// return the host's failure (I/O on a durable log); the core latches
  /// the first one and stops.
  ///
  /// A host may buffer what Record and Retain hand it until Persist:
  /// the core calls Persist before a pass's first transmission and
  /// again before the pass returns, so nothing a pass learned leaves
  /// the node, and no pass ends, before it is durable (per pass: trace
  /// write → retention write → transmit).
  class Host {
   public:
    /// Stamps and records one applied event. `msg_clock` is the transmit
    /// clock of the message being delivered (0 for the node's own
    /// events): the process host's Lamport merge.
    virtual Status Record(dist::DistEvent e, std::uint64_t msg_clock) = 0;
    /// Adds `payload` to the node's durable M_i. Always called after
    /// the Send that carried it was recorded (retention ⊆ trace).
    virtual Status Retain(const dist::ActionSummary& payload) = 0;
    /// Makes everything recorded and retained so far durable: the
    /// recorded events first, then the retained entries, so a kill at
    /// any instant leaves retention ⊆ trace.
    virtual Status Persist() = 0;
    /// The clock stamped on outgoing transmissions.
    virtual std::uint64_t Clock() const = 0;

   protected:
    ~Host() = default;
  };

  struct Options {
    Propagation propagation = Propagation::kDelta;
    /// Whether the watchdog's anti-entropy retries run. A host enables
    /// them when it can lose knowledge: in-process when the plan drops,
    /// crashes or partitions; always for a process behind a real socket.
    bool anti_entropy = true;
    /// Unproductive retries before a timeout-abort (see TimeoutAbort).
    int max_attempts_per_step = 16;
    /// Idle passes before the node abandons its remaining obligations.
    std::uint64_t max_idle_spins = 1u << 20;
  };

  /// What one Pass did, for the host's own bookkeeping.
  struct PassResult {
    bool progress = false;
    /// The node became done (or gave up) during this pass.
    bool finished = false;
    /// The watchdog fired (the host ticks its clock / heartbeats).
    bool retried = false;
  };

  /// Idle passes before the first anti-entropy retry; later retries back
  /// off exponentially (shift capped at 5).
  static constexpr std::uint64_t kStallRetrySpins = 64;

  /// `state` holds this node's component, which only this core mutates;
  /// `stats` receives the counters.
  NodeCore(const dist::DistAlgebra& alg, NodeId self, dist::DistState* state,
           Host* host, DriverStats* stats, const Options& options);
  NodeCore(const NodeCore&) = delete;
  NodeCore& operator=(const NodeCore&) = delete;

  /// Builds the obligation lists; subtrees of `abort_set` members are
  /// pruned (aborted once created, descendants never created). Wakes
  /// everything.
  void Plan(const std::set<ActionId>& abort_set);

  /// Rebirth (paper §9.1): one legal Receive of the retained M_i, then
  /// every cursor is rebuilt from the recovered summary and the durable
  /// lock table (a performed access carries committed status, effect
  /// (d21), so ticket cursors are recoverable), the whole summary is
  /// marked for shipping, and every obligation wakes. Held (undelivered)
  /// messages were volatile and are gone.
  void Rebirth(const dist::ActionSummary& retained);

  /// One loop pass: deliver mail, discharge woken obligations (creates,
  /// aborts, objects, commits), persist, ship knowledge, and on an idle
  /// pass run the watchdog — a full-summary anti-entropy broadcast under
  /// bounded exponential backoff, escalating to TimeoutAbort — and the
  /// give-up. Returns with everything it recorded persisted.
  PassResult Pass(Transport& net);

  /// Every obligation of this node is discharged.
  bool Done() const {
    return creates_left_ == 0 && finals_left_ == 0 && objects_left_ == 0;
  }
  bool gave_up() const { return gave_up_; }
  std::uint64_t idle() const { return idle_; }
  std::uint64_t passes() const { return passes_; }
  /// The first failure (an undefined event, or a host error).
  const Status& status() const { return status_; }

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

  /// Latches the first failure; true iff `s` is ok.
  bool Check(Status s);
  /// Host::Persist, latched.
  bool Persist() { return Check(host_->Persist()); }
  /// Defined → Apply → record; a summary-changing event is then
  /// WAL-logged as a one-entry Send{i,i} (recorded, then retained) so M_i
  /// stays a durable superset of i.T. On success reports the change.
  bool Apply(dist::DistEvent e);
  /// Receives the mail due this pass: Send (merge into M_i) + retain +
  /// Receive (merge into i.T) per message; delayed ones are held.
  bool Deliver(Transport& net);
  /// Ships pending knowledge: under kDelta each peer gets the entries
  /// beyond its frontier; under kEager the summary, to each peer that
  /// has not seen its current version. At most one payload per peer.
  void Flush(Transport& net);
  void Broadcast(Transport& net, bool unseen_only);
  void Watchdog(Transport& net);
  /// The watchdog's escalation (the timeout-abort): abort
  /// the deepest abortable enclosing subtransaction homed here — first
  /// among a stuck lock holder's ancestors (freeing the lock via the
  /// lose-lock path), then on the node's own pending commit path (DFS
  /// post-order scan; orphaning the stuck subtree). Only locally homed
  /// actions are eligible: a node applies events to its own component
  /// only (Local Domain — the runtimes' race-freedom invariant). Counted
  /// in stats.timeout_aborts. True iff an abort was applied.
  bool TimeoutAbort();
  /// `a`'s local entry changed (a node event, or an entry a Receive added
  /// or upgraded): note it for shipping, wake dependents.
  void Changed(ActionId a);
  void WakeCreate(ActionId a);
  void WakeFinal(ActionId a);
  void WakeObject(std::uint32_t o);
  void WakeSubtreeCreates(ActionId a);
  void WakeAll();
  void ResolveCreate(std::uint32_t slot);
  void ResolveFinal(std::uint32_t slot);

  /// One pass over the woken obligations of each kind, in the loop
  /// order. True iff some obligation moved.
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

  const dist::DistAlgebra& alg_;
  const dist::Topology& topo_;
  const action::ActionRegistry& reg_;
  const NodeId self_;
  dist::DistState* state_;
  Host* host_;
  DriverStats* stats_;
  const Options options_;
  Status status_ = Status::Ok();
  bool failed_ = false;

  /// Messages held back by a delay verdict (volatile), and the scratch
  /// change list of a Receive (ActionSummary::MergeFrom's).
  std::vector<TransportMessage> held_;
  std::vector<ActionId> learned_;
  /// Watchdog: idle passes, unproductive retries since the last local
  /// progress, and the idle count at which the next retry fires.
  std::uint64_t passes_ = 0;
  std::uint64_t idle_ = 0;
  int attempts_ = 0;
  std::uint64_t next_retry_idle_ = kStallRetrySpins;
  bool marked_done_ = false;
  bool gave_up_ = false;

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

  /// Knowledge shipping: the kDelta change list + per-peer frontiers
  /// (a delivery from j advances j's frontier: echo suppression),
  /// and kEager's version (bumped on every node event and every Receive
  /// that taught something) against per-peer last-shipped versions.
  dist::DeltaLog delta_;
  std::uint64_t version_ = 0;
  std::vector<std::uint64_t> shipped_version_;
};

/// The inputs an in-process host of the loop rejects with
/// kInvalidArgument: an abort_set member that is not a registered
/// non-access action, kLazy propagation (the loop is reactive: nodes
/// learn, they are not asked), and a plan ValidatePlan rejects.
Status ValidateHostInputs(const dist::DistAlgebra& alg,
                          const std::set<ActionId>& abort_set,
                          Propagation propagation,
                          const faults::FaultPlan& plan);

}  // namespace rnt::sim

#endif  // RNT_SIM_NODE_CORE_H_

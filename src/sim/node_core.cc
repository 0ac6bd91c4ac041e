#include "sim/node_core.h"

#include <algorithm>
#include <utility>
#include <variant>

namespace rnt::sim {

using dist::ActionSummary;
using dist::DistEvent;

namespace {

/// The summary entry a node event changes, with its new status — the one
/// definition of what the WAL self-send logs. kInvalidAction for lock
/// bookkeeping (release/lose), which changes no entry.
std::pair<ActionId, action::ActionStatus> ChangedEntry(const DistEvent& e) {
  using action::ActionStatus;
  if (const auto* c = std::get_if<dist::NodeCreate>(&e)) {
    return {c->a, ActionStatus::kActive};
  }
  if (const auto* c = std::get_if<dist::NodeCommit>(&e)) {
    return {c->a, ActionStatus::kCommitted};
  }
  if (const auto* c = std::get_if<dist::NodeAbort>(&e)) {
    return {c->a, ActionStatus::kAborted};
  }
  if (const auto* p = std::get_if<dist::NodePerform>(&e)) {
    return {p->a, ActionStatus::kCommitted};  // effect (d21)
  }
  return {kInvalidAction, ActionStatus::kActive};
}

}  // namespace

NodeCore::NodeCore(const dist::DistAlgebra& alg, NodeId self,
                   dist::DistState* state, Host* host, DriverStats* stats,
                   const Options& options)
    : alg_(alg),
      topo_(alg.topology()),
      reg_(alg.registry()),
      self_(self),
      state_(state),
      host_(host),
      stats_(stats),
      options_(options),
      delta_(alg.topology().k()),
      shipped_version_(alg.topology().k(), 0) {}

void NodeCore::Plan(const std::set<ActionId>& abort_set) {
  create_slot_.assign(reg_.size(), -1);
  final_slot_.assign(reg_.size(), -1);
  if (!abort_set.empty()) dead_.assign(reg_.size(), 0);
  std::vector<ActionId> aborts;
  std::vector<ActionId> commits;
  std::map<ObjectId, std::vector<ActionId>> tickets;
  // DFS: schedule creates/aborts/commits/tickets; abort_set subtrees are
  // pruned (their descendants are dead — never created anywhere).
  std::vector<std::pair<ActionId, bool>> stack;  // (action, expanded)
  const std::vector<ActionId>& tops = reg_.Children(kRootAction);
  for (auto it = tops.rbegin(); it != tops.rend(); ++it) {
    stack.emplace_back(*it, false);
  }
  while (!stack.empty()) {
    auto [a, expanded] = stack.back();
    stack.pop_back();
    if (expanded) {
      if (topo_.HomeOfAction(a) == self_) commits.push_back(a);
      continue;
    }
    if (topo_.Origin(a) == self_) {
      create_slot_[a] = static_cast<std::int32_t>(creates_.size());
      creates_.push_back(a);
    }
    if (reg_.IsAccess(a)) {
      if (topo_.HomeOfAction(a) == self_) tickets[reg_.Object(a)].push_back(a);
      continue;
    }
    if (abort_set.count(a) != 0) {
      if (topo_.HomeOfAction(a) == self_) aborts.push_back(a);
      std::vector<ActionId> sub(reg_.Children(a));
      while (!sub.empty()) {
        const ActionId d = sub.back();
        sub.pop_back();
        dead_[d] = 1;
        sub.insert(sub.end(), reg_.Children(d).begin(),
                   reg_.Children(d).end());
      }
      continue;  // subtree pruned
    }
    stack.emplace_back(a, true);  // commit after the subtree
    const std::vector<ActionId>& kids = reg_.Children(a);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.emplace_back(*it, false);
    }
  }
  aborts_ = aborts.size();
  finals_ = std::move(aborts);
  finals_.insert(finals_.end(), commits.begin(), commits.end());
  for (std::size_t i = 0; i < finals_.size(); ++i) {
    final_slot_[finals_[i]] = static_cast<std::int32_t>(i);
  }
  for (auto& [x, list] : tickets) {
    ObjectWork ow;
    ow.x = x;
    ow.tickets = std::move(list);
    objects_.push_back(std::move(ow));
  }
  created_.assign(creates_.size(), 0);
  done_.assign(finals_.size(), 0);
  create_queued_.assign(creates_.size(), 0);
  final_queued_.assign(finals_.size(), 0);
  object_queued_.assign(objects_.size(), 0);
  creates_left_ = creates_.size();
  finals_left_ = finals_.size();
  objects_left_ = objects_.size();
  WakeAll();
}

void NodeCore::Rebirth(const ActionSummary& retained) {
  held_.clear();
  if (!retained.empty()) {
    DistEvent recv{dist::Receive{self_, retained}};
    if (!alg_.Defined(*state_, recv)) {
      // Every retained fact was recorded as a Send toward us before it
      // was retained, so this would mean the WAL discipline is broken.
      Check(Status::Internal("rebirth replay is not a legal Receive"));
      return;
    }
    alg_.Apply(*state_, recv);
    if (!Check(host_->Record(std::move(recv), 0)) || !Persist()) return;
  }
  ++stats_->recovered_nodes;
  idle_ = 0;
  attempts_ = 0;
  next_retry_idle_ = kStallRetrySpins;
  // Rebuild every cursor from the recovered knowledge.
  const ActionSummary& t = summary();
  creates_left_ = 0;
  for (std::size_t i = 0; i < creates_.size(); ++i) {
    const ActionId a = creates_[i];
    created_[i] = (t.Contains(a) || dist::LocallyDead(reg_, t, a)) ? 1 : 0;
    if (!created_[i]) ++creates_left_;
  }
  finals_left_ = 0;
  for (std::size_t i = 0; i < finals_.size(); ++i) {
    done_[i] = (i < aborts_ ? t.IsAborted(finals_[i]) : t.IsDone(finals_[i]))
                   ? 1
                   : 0;
    if (!done_[i]) ++finals_left_;
  }
  object_waiters_.clear();
  for (ObjectWork& ow : objects_) {
    ow.next = 0;
    while (ow.next < ow.tickets.size() &&
           (t.IsCommitted(ow.tickets[ow.next]) ||
            dist::LocallyDead(reg_, t, ow.tickets[ow.next]))) {
      ++ow.next;
    }
    ow.drained = false;  // re-walk the durable lock table
    ow.waiting_on = kInvalidAction;
  }
  objects_left_ = objects_.size();
  delta_.NoteAll(t);
  ++version_;
  WakeAll();
}

// ------------------------------------------------------------------
// Change propagation.

bool NodeCore::Check(Status s) {
  if (s.ok()) return true;
  if (!failed_) status_ = std::move(s);
  failed_ = true;
  return false;
}

bool NodeCore::Apply(DistEvent e) {
  const auto [a, s] = ChangedEntry(e);
  if (!alg_.Defined(*state_, e)) {
    return Check(Status::Internal("node event unexpectedly undefined: " +
                                  dist::ToString(e)));
  }
  alg_.Apply(*state_, e);
  ++stats_->node_events;
  if (!Check(host_->Record(std::move(e), 0))) return false;
  if (a != kInvalidAction) {
    ActionSummary entry;
    entry.AddActive(a);
    if (s != action::ActionStatus::kActive) entry.SetStatus(a, s);
    // Always defined: the entry was just installed in our own summary
    // (precondition (g11), payload <= sender's knowledge).
    DistEvent send{dist::Send{self_, self_, entry}};
    alg_.Apply(*state_, send);  // merge into buffer M_i (g21)
    if (!Check(host_->Record(std::move(send), 0))) return false;
    if (!Check(host_->Retain(entry))) return false;
  }
  ++version_;
  if (a != kInvalidAction) Changed(a);
  return true;
}

void NodeCore::Changed(ActionId a) {
  delta_.Note(a);
  if (!reg_.Valid(a)) return;  // a peer's unknown id: ship it, wake nothing
  for (ActionId c : reg_.Children(a)) WakeCreate(c);
  WakeFinal(a);
  const ActionId p = reg_.Parent(a);
  if (p != kRootAction) WakeFinal(p);
  auto it = object_waiters_.find(a);
  if (it != object_waiters_.end()) {
    for (std::uint32_t o : it->second) {
      if (objects_[o].waiting_on != a) continue;  // moved on since
      objects_[o].waiting_on = kInvalidAction;
      WakeObject(o);
    }
    object_waiters_.erase(it);
  }
  if (summary().IsAborted(a)) {
    WakeSubtreeCreates(a);
    for (std::uint32_t o = 0; o < objects_.size(); ++o) WakeObject(o);
  }
}

void NodeCore::WakeCreate(ActionId a) {
  const std::int32_t slot = create_slot_[a];
  if (slot < 0 || created_[slot] || create_queued_[slot]) return;
  create_queued_[slot] = 1;
  create_queue_.push_back(static_cast<std::uint32_t>(slot));
}

void NodeCore::WakeFinal(ActionId a) {
  const std::int32_t slot = final_slot_[a];
  if (slot < 0 || done_[slot] || final_queued_[slot]) return;
  final_queued_[slot] = 1;
  const auto s = static_cast<std::uint32_t>(slot);
  (s < aborts_ ? abort_queue_ : commit_queue_).push_back(s);
}

void NodeCore::WakeObject(std::uint32_t o) {
  if (objects_[o].drained || object_queued_[o]) return;
  object_queued_[o] = 1;
  object_queue_.push_back(o);
}

void NodeCore::WakeSubtreeCreates(ActionId a) {
  std::vector<ActionId> stack(reg_.Children(a));
  while (!stack.empty()) {
    const ActionId d = stack.back();
    stack.pop_back();
    WakeCreate(d);
    const std::vector<ActionId>& kids = reg_.Children(d);
    stack.insert(stack.end(), kids.begin(), kids.end());
  }
}

void NodeCore::WakeAll() {
  for (ActionId a : creates_) WakeCreate(a);
  for (ActionId a : finals_) WakeFinal(a);
  for (std::uint32_t o = 0; o < objects_.size(); ++o) WakeObject(o);
}

void NodeCore::ResolveCreate(std::uint32_t slot) {
  created_[slot] = 1;
  --creates_left_;
  // The parent's commit reads its children's created flags.
  const ActionId p = reg_.Parent(creates_[slot]);
  if (p != kRootAction) WakeFinal(p);
}

void NodeCore::ResolveFinal(std::uint32_t slot) {
  done_[slot] = 1;
  --finals_left_;
}

// ------------------------------------------------------------------
// The loop pass: mail, obligations, shipping, watchdog.

NodeCore::PassResult NodeCore::Pass(Transport& net) {
  PassResult r;
  if (failed_) return r;
  ++passes_;
  r.progress = Deliver(net);
  r.progress |= TryCreates();
  r.progress |= TryAborts();
  r.progress |= TryObjects();
  r.progress |= TryCommits();
  // Ship nothing the host failed to make durable.
  if (failed_ || !Persist()) return r;
  if (!marked_done_ && Done()) {
    marked_done_ = true;
    r.finished = true;
    r.progress = true;
  }
  Flush(net);
  if (r.progress) {
    idle_ = 0;
    attempts_ = 0;
    next_retry_idle_ = kStallRetrySpins;
    return r;
  }
  ++idle_;
  if (options_.anti_entropy && idle_ >= next_retry_idle_) {
    Watchdog(net);
    r.retried = true;
  }
  if (!marked_done_ && idle_ > options_.max_idle_spins) {
    // Permanent starvation (e.g. an unhealed partition): abandon the
    // rest and degrade to a diagnosed incomplete run instead of hanging.
    gave_up_ = true;
    marked_done_ = true;
    r.finished = true;
  }
  return r;
}

bool NodeCore::Deliver(Transport& net) {
  std::vector<TransportMessage> due;
  for (TransportMessage& m : held_) {
    if (--m.delay <= 0) due.push_back(std::move(m));
  }
  std::erase_if(held_, [](const TransportMessage& m) { return m.delay <= 0; });
  for (TransportMessage& m : net.Poll(self_)) {
    if (m.delay > 0) {
      ++stats_->delayed_msgs;
      held_.push_back(std::move(m));
    } else {
      due.push_back(std::move(m));
    }
  }
  bool progress = false;
  for (TransportMessage& m : due) {
    ++stats_->messages;
    stats_->summary_entries += m.summary.size();
    // The Send is stamped here, on the receiver (the Lamport merge for
    // the process host), so a transmission the network ate never became
    // an event at all.
    if (!Check(host_->Record(DistEvent{dist::Send{m.from, self_, m.summary}},
                             m.clock))) {
      break;
    }
    state_->buffer[self_].MergeFrom(m.summary);  // (g21), on the receiver
    // The payload joins the durable M_i in step with the recorded Send,
    // so a rebirth's replay Receive is legal at its point in the log.
    if (!Check(host_->Retain(m.summary))) break;
    if (!Check(host_->Record(DistEvent{dist::Receive{self_, m.summary}}, 0))) {
      break;
    }
    // The sender certainly knows what it sent: advancing its frontier
    // suppresses echo traffic.
    delta_.Covered(m.from, m.summary);
    learned_.clear();
    if (state_->nodes[self_].summary.MergeFrom(m.summary, &learned_)) {
      ++version_;
      for (ActionId a : learned_) Changed(a);
      progress = true;
    }
  }
  return progress;
}

void NodeCore::Flush(Transport& net) {
  if (options_.propagation == Propagation::kDelta) {
    delta_.Flush(summary(), self_, [&](NodeId j, ActionSummary payload) {
      net.Send(j, TransportMessage{self_, std::move(payload), 0,
                                   host_->Clock()});
    });
    return;
  }
  delta_.Clear();
  Broadcast(net, /*unseen_only=*/true);
}

/// Ships the whole summary to every peer (that has not seen its current
/// version, when `unseen_only`). Transmissions are fire-and-forget, by
/// ℬ's message model: the transport applies (and counts) the faults, and
/// anti-entropy repairs whatever it ate.
void NodeCore::Broadcast(Transport& net, bool unseen_only) {
  const ActionSummary& t = summary();
  if (t.empty()) return;
  for (NodeId j = 0; j < topo_.k(); ++j) {
    if (j == self_ || (unseen_only && shipped_version_[j] == version_)) {
      continue;
    }
    shipped_version_[j] = version_;
    net.Send(j, TransportMessage{self_, ActionSummary(t), 0, host_->Clock()});
  }
}

/// One watchdog firing: an anti-entropy full-summary broadcast (a
/// dropped delta is gone for good; a healed partition needs a resend)
/// and, past the escalation threshold, a timeout-abort. The host ticks
/// its logical clock on a retried pass, so stamp-based rebirths and
/// partition heals stay live while every node idles.
void NodeCore::Watchdog(Transport& net) {
  ++stats_->retries;
  ++attempts_;
  Broadcast(net, /*unseen_only=*/false);
  // The abort is the pass's last record: persist it before returning.
  if (!marked_done_ && attempts_ > options_.max_attempts_per_step &&
      TimeoutAbort() && Persist()) {
    attempts_ = 0;
  }
  next_retry_idle_ = idle_ + (kStallRetrySpins << std::min(attempts_, 5));
}

// ------------------------------------------------------------------
// Scheduling.

bool NodeCore::TryCreates() {
  const ActionSummary& t = summary();
  bool progress = false;
  // Index loop: creating a parent homed here wakes its children's
  // creates onto this same queue, and they run in this pass.
  for (std::size_t q = 0; q < create_queue_.size() && !failed_; ++q) {
    const std::uint32_t slot = create_queue_[q];
    create_queued_[slot] = 0;
    if (created_[slot]) continue;
    ++stats_->obligations_examined;
    const ActionId a = creates_[slot];
    if (dist::LocallyDead(reg_, t, a)) {
      // A timeout-abort killed an enclosing subtransaction: the create
      // obligation is resolved by never running (the subtree is dead).
      ResolveCreate(slot);
      progress = true;
      continue;
    }
    const ActionId p = reg_.Parent(a);
    if (p != kRootAction && (!t.Contains(p) || t.IsCommitted(p))) continue;
    if (!Apply(DistEvent{dist::NodeCreate{self_, a}})) break;
    ResolveCreate(slot);
    progress = true;
  }
  create_queue_.clear();
  return progress;
}

bool NodeCore::TryAborts() {
  bool progress = false;
  for (std::size_t q = 0; q < abort_queue_.size() && !failed_; ++q) {
    const std::uint32_t slot = abort_queue_[q];
    final_queued_[slot] = 0;
    if (done_[slot]) continue;
    ++stats_->obligations_examined;
    const ActionId a = finals_[slot];
    if (!summary().IsActive(a)) continue;
    if (!Apply(DistEvent{dist::NodeAbort{self_, a}})) break;
    ResolveFinal(slot);
    ++stats_->aborts;
    progress = true;
  }
  abort_queue_.clear();
  return progress;
}

bool NodeCore::TryCommits() {
  const ActionSummary& t = summary();
  bool progress = false;
  // A child's commit wakes its parent's onto this same queue.
  for (std::size_t q = 0; q < commit_queue_.size() && !failed_; ++q) {
    const std::uint32_t slot = commit_queue_[q];
    final_queued_[slot] = 0;
    if (done_[slot]) continue;
    ++stats_->obligations_examined;
    const ActionId a = finals_[slot];
    if (!t.IsActive(a)) continue;
    // Stronger than ℬ's (b12): every live child must be *created* (all
    // of a's children are created on this very node, so this is a local
    // check) and *done* in local knowledge — the strengthening the
    // level-4 image needs (its commit wants every created child done).
    bool ready = true;
    for (ActionId c : reg_.Children(a)) {
      if (!dead_.empty() && dead_[c]) continue;
      const std::int32_t cs = create_slot_[c];
      if (cs < 0 || !created_[cs] || !t.IsDone(c)) {
        ready = false;
        break;
      }
    }
    if (!ready) continue;
    if (!Apply(DistEvent{dist::NodeCommit{self_, a}})) break;
    ResolveFinal(slot);
    ++stats_->commits;
    progress = true;
  }
  commit_queue_.clear();
  return progress;
}

bool NodeCore::TryObjects() {
  bool progress = false;
  for (std::size_t q = 0; q < object_queue_.size() && !failed_; ++q) {
    const std::uint32_t o = object_queue_[q];
    object_queued_[o] = 0;
    progress |= RunObject(objects_[o], o);
  }
  object_queue_.clear();
  return progress;
}

/// Performs ticket-head accesses once their lock chain clears, walking
/// blockers (release committed / lose dead) as far as local knowledge
/// allows; after the last ticket, drains the object's locks to the root
/// U the same way. Stops when the object must wait on some action.
bool NodeCore::RunObject(ObjectWork& ow, std::uint32_t o) {
  const ActionSummary& t = summary();
  bool progress = false;
  auto wait_on = [&](ActionId a) {
    if (ow.waiting_on == a) return;
    ow.waiting_on = a;
    object_waiters_[a].push_back(o);
  };
  while (!failed_) {
    if (ow.next < ow.tickets.size()) {
      const ActionId a = ow.tickets[ow.next];
      if (dist::LocallyDead(reg_, t, a)) {
        // Orphaned ticket (enclosing subtransaction timeout-aborted):
        // it will never perform — skip it so the queue keeps moving.
        ++ow.next;
        progress = true;
        continue;
      }
      if (!t.IsActive(a)) {
        wait_on(a);
        return progress;
      }
      const ActionId blocker = WalkLocks(ow.x, a, &progress);
      if (failed_) break;
      if (blocker != kInvalidAction) {
        wait_on(blocker);
        return progress;
      }
      const Value u = node().vmap.PrincipalValue(ow.x, reg_);
      if (!Apply(DistEvent{dist::NodePerform{self_, a, u}})) break;
      ++stats_->performs;
      ++ow.next;
      progress = true;
      continue;
    }
    if (!ow.drained) {
      const ActionId blocker = WalkLocks(ow.x, kInvalidAction, &progress);
      if (failed_) break;
      if (blocker != kInvalidAction) {
        wait_on(blocker);
        return progress;
      }
      ow.drained = true;
      --objects_left_;
      progress = true;
    }
    break;
  }
  return progress;
}

ActionId NodeCore::WalkLocks(ObjectId x, ActionId requester, bool* progress) {
  const ActionSummary& t = summary();
  for (;;) {
    const auto* entry = node().vmap.EntriesFor(x);
    if (entry == nullptr) return kInvalidAction;
    ActionId blocker = kInvalidAction;
    for (const auto& [b, v] : *entry) {
      if (b != kRootAction && (requester == kInvalidAction ||
                               !reg_.IsProperAncestor(b, requester))) {
        blocker = b;
        break;
      }
    }
    if (blocker == kInvalidAction) return kInvalidAction;
    if (dist::LocallyDead(reg_, t, blocker)) {
      if (!Apply(DistEvent{dist::NodeLoseLock{self_, blocker, x}})) {
        return kInvalidAction;
      }
      ++stats_->loses;
      *progress = true;
    } else if (t.IsCommitted(blocker)) {
      if (!Apply(DistEvent{dist::NodeReleaseLock{self_, blocker, x}})) {
        return kInvalidAction;
      }
      ++stats_->releases;
      *progress = true;
    } else {
      return blocker;  // knowledge not here yet; broadcasts will bring it
    }
  }
}

// ------------------------------------------------------------------
// Watchdog escalation.

bool NodeCore::TimeoutAbort() {
  const ActionSummary& t = summary();
  for (ObjectWork& ow : objects_) {  // stuck lock holders first
    if (ow.next >= ow.tickets.size()) continue;
    const ActionId requester = ow.tickets[ow.next];
    if (!t.IsActive(requester)) continue;
    const auto* entry = node().vmap.EntriesFor(ow.x);
    if (entry == nullptr) continue;
    for (const auto& [b, v] : *entry) {
      if (b == kRootAction || reg_.IsProperAncestor(b, requester)) continue;
      if (dist::LocallyDead(reg_, t, b) || t.IsCommitted(b)) break;
      if (AbortAncestorHomedHere(b, requester)) return true;
      break;
    }
  }
  // Own path: commits are in DFS post-order, so the first pending entry
  // is the deepest unfinished subtransaction homed here.
  for (std::size_t slot = aborts_; slot < finals_.size(); ++slot) {
    if (done_[slot]) continue;
    const ActionId a = finals_[slot];
    if (!t.IsActive(a)) continue;
    if (!Apply(DistEvent{dist::NodeAbort{self_, a}})) return false;
    ResolveFinal(static_cast<std::uint32_t>(slot));
    ++stats_->timeout_aborts;
    return true;
  }
  return false;
}

/// Aborts the deepest non-access ancestor of `blocker` that is homed
/// here, active, and not an ancestor of `requester` (a blocked step
/// never shoots down its own transaction from here).
bool NodeCore::AbortAncestorHomedHere(ActionId blocker, ActionId requester) {
  const ActionSummary& t = summary();
  for (ActionId c = blocker; c != kRootAction; c = reg_.Parent(c)) {
    if (reg_.IsAccess(c)) continue;
    if (reg_.IsAncestor(c, requester)) continue;
    if (topo_.HomeOfAction(c) != self_) continue;
    if (!t.IsActive(c)) continue;
    if (!Apply(DistEvent{dist::NodeAbort{self_, c}})) return false;
    const std::int32_t slot = final_slot_[c];
    if (slot >= 0 && !done_[slot]) {
      ResolveFinal(static_cast<std::uint32_t>(slot));
    }
    ++stats_->timeout_aborts;
    return true;
  }
  return false;
}

Status ValidateHostInputs(const dist::DistAlgebra& alg,
                          const std::set<ActionId>& abort_set,
                          Propagation propagation,
                          const faults::FaultPlan& plan) {
  const action::ActionRegistry& reg = alg.registry();
  for (ActionId a : abort_set) {
    if (!reg.Valid(a) || reg.IsAccess(a) || a == kRootAction) {
      return Status::InvalidArgument(
          "abort_set must contain registered non-access actions");
    }
  }
  if (propagation == Propagation::kLazy) {
    return Status::InvalidArgument(
        "the node loop is reactive: use kDelta or kEager propagation");
  }
  return faults::ValidatePlan(plan, alg.topology().k());
}

}  // namespace rnt::sim

#include "sim/node_core.h"

#include <variant>

namespace rnt::sim {

using dist::ActionSummary;
using dist::DistEvent;

NodeCore::NodeCore(const dist::DistAlgebra& alg, NodeId self,
                   const dist::DistState* state, Host* host,
                   DriverStats* stats)
    : topo_(alg.topology()),
      reg_(alg.registry()),
      self_(self),
      state_(state),
      host_(host),
      stats_(stats),
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

void NodeCore::Recover() {
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

bool NodeCore::Apply(DistEvent e) {
  ActionId changed = kInvalidAction;
  if (const auto* c = std::get_if<dist::NodeCreate>(&e)) {
    changed = c->a;
  } else if (const auto* c = std::get_if<dist::NodeCommit>(&e)) {
    changed = c->a;
  } else if (const auto* c = std::get_if<dist::NodeAbort>(&e)) {
    changed = c->a;
  } else if (const auto* p = std::get_if<dist::NodePerform>(&e)) {
    changed = p->a;  // effect (d21) sets the access committed
  }
  if (!host_->ApplyNodeEvent(std::move(e))) {
    failed_ = true;
    return false;
  }
  ++version_;
  if (changed != kInvalidAction) Changed(changed);
  return true;
}

void NodeCore::Learned(const std::vector<ActionId>& changed) {
  if (changed.empty()) return;
  ++version_;
  for (ActionId a : changed) Changed(a);
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
// Scheduling.

bool NodeCore::Work() {
  bool progress = TryCreates();
  progress |= TryAborts();
  progress |= TryObjects();
  progress |= TryCommits();
  return progress;
}

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
    // check) and *done* in local knowledge — the same strengthening the
    // chaos driver documents, needed for the level-4 image.
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

}  // namespace rnt::sim

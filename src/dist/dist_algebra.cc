#include "dist/dist_algebra.h"

#include <sstream>

namespace rnt::dist {

bool LocalChildrenDone(const action::ActionRegistry& reg,
                       const ActionSummary& summary, ActionId a) {
  for (ActionId c : reg.Children(a)) {
    if (summary.IsActive(c)) return false;
  }
  return true;
}

bool LocallyDead(const action::ActionRegistry& reg,
                 const ActionSummary& summary, ActionId a) {
  for (; a != kRootAction; a = reg.Parent(a)) {
    if (summary.IsAborted(a)) return true;
  }
  return false;
}

bool DistAlgebra::Defined(const State& s, const Event& e) const {
  const action::ActionRegistry& reg = topo_->registry();
  if (const auto* c = std::get_if<NodeCreate>(&e)) {
    if (c->a == kRootAction || !reg.Valid(c->a)) return false;
    if (topo_->Origin(c->a) != c->i) return false;
    const ActionSummary& t = s.nodes[c->i].summary;
    if (t.Contains(c->a)) return false;  // (a11)
    ActionId p = reg.Parent(c->a);
    if (p != kRootAction) {  // (a12)
      if (!t.Contains(p) || t.IsCommitted(p)) return false;
    }
    return true;
  }
  if (const auto* c = std::get_if<NodeCommit>(&e)) {
    if (c->a == kRootAction || !reg.Valid(c->a) || reg.IsAccess(c->a)) {
      return false;
    }
    if (topo_->HomeOfAction(c->a) != c->i) return false;
    const ActionSummary& t = s.nodes[c->i].summary;
    return t.IsActive(c->a) && LocalChildrenDone(reg, t, c->a);
  }
  if (const auto* c = std::get_if<NodeAbort>(&e)) {
    if (c->a == kRootAction || !reg.Valid(c->a) || reg.IsAccess(c->a)) {
      return false;
    }
    if (topo_->HomeOfAction(c->a) != c->i) return false;
    return s.nodes[c->i].summary.IsActive(c->a);
  }
  if (const auto* p = std::get_if<NodePerform>(&e)) {
    if (!reg.Valid(p->a) || !reg.IsAccess(p->a)) return false;
    if (topo_->HomeOfAction(p->a) != p->i) return false;
    const NodeState& n = s.nodes[p->i];
    if (!n.summary.IsActive(p->a)) return false;  // (d11)
    ObjectId x = reg.Object(p->a);
    if (const auto* entry = n.vmap.EntriesFor(x)) {  // (d12)
      for (const auto& [b, v] : *entry) {
        if (!reg.IsProperAncestor(b, p->a)) return false;
      }
    }
    return p->u == n.vmap.PrincipalValue(x, reg);  // (d13)
  }
  if (const auto* r = std::get_if<NodeReleaseLock>(&e)) {
    if (r->a == kRootAction) return false;
    if (topo_->HomeOfObject(r->x) != r->i) return false;
    const NodeState& n = s.nodes[r->i];
    return n.vmap.IsDefined(r->x, r->a) && n.summary.IsCommitted(r->a);
  }
  if (const auto* l = std::get_if<NodeLoseLock>(&e)) {
    if (l->a == kRootAction) return false;
    if (topo_->HomeOfObject(l->x) != l->i) return false;
    const NodeState& n = s.nodes[l->i];
    return n.vmap.IsDefined(l->x, l->a) && LocallyDead(reg, n.summary, l->a);
  }
  if (const auto* snd = std::get_if<Send>(&e)) {
    if (snd->from >= topo_->k() || snd->to >= topo_->k()) return false;
    // (g11): T' ≤ i.T.
    return snd->summary.IsSubsummaryOf(s.nodes[snd->from].summary);
  }
  const auto& rcv = std::get<Receive>(e);
  if (rcv.to >= topo_->k()) return false;
  // (h11): T' ≤ M_j.
  return rcv.summary.IsSubsummaryOf(s.buffer[rcv.to]);
}

void DistAlgebra::Apply(State& s, const Event& e) const {
  const action::ActionRegistry& reg = topo_->registry();
  if (const auto* c = std::get_if<NodeCreate>(&e)) {
    s.nodes[c->i].summary.AddActive(c->a);
  } else if (const auto* c = std::get_if<NodeCommit>(&e)) {
    s.nodes[c->i].summary.SetStatus(c->a, action::ActionStatus::kCommitted);
  } else if (const auto* c = std::get_if<NodeAbort>(&e)) {
    s.nodes[c->i].summary.SetStatus(c->a, action::ActionStatus::kAborted);
  } else if (const auto* p = std::get_if<NodePerform>(&e)) {
    NodeState& n = s.nodes[p->i];
    n.summary.SetStatus(p->a, action::ActionStatus::kCommitted);  // (d21)
    ObjectId x = reg.Object(p->a);
    n.vmap.Set(x, p->a, reg.UpdateOf(p->a).Apply(p->u));  // (d22)
  } else if (const auto* r = std::get_if<NodeReleaseLock>(&e)) {
    NodeState& n = s.nodes[r->i];
    n.vmap.Set(r->x, reg.Parent(r->a), n.vmap.Get(r->x, r->a));  // (e21)
    n.vmap.Erase(r->x, r->a);                                    // (e22)
  } else if (const auto* l = std::get_if<NodeLoseLock>(&e)) {
    s.nodes[l->i].vmap.Erase(l->x, l->a);  // (f21)
  } else if (const auto* snd = std::get_if<Send>(&e)) {
    s.buffer[snd->to].MergeFrom(snd->summary);  // (g21)
  } else {
    const auto& rcv = std::get<Receive>(e);
    s.nodes[rcv.to].summary.MergeFrom(rcv.summary);  // (h21)
  }
}

void DistAlgebra::Apply(State& s, Event&& e) const {
  if (auto* snd = std::get_if<Send>(&e)) {
    s.buffer[snd->to].MergeFrom(std::move(snd->summary));  // (g21)
    return;
  }
  if (auto* rcv = std::get_if<Receive>(&e)) {
    s.nodes[rcv->to].summary.MergeFrom(std::move(rcv->summary));  // (h21)
    return;
  }
  Apply(s, static_cast<const Event&>(e));
}

NodeId DistAlgebra::Doer(const Event& e) const {
  if (const auto* c = std::get_if<NodeCreate>(&e)) return c->i;
  if (const auto* c = std::get_if<NodeCommit>(&e)) return c->i;
  if (const auto* c = std::get_if<NodeAbort>(&e)) return c->i;
  if (const auto* c = std::get_if<NodePerform>(&e)) return c->i;
  if (const auto* c = std::get_if<NodeReleaseLock>(&e)) return c->i;
  if (const auto* c = std::get_if<NodeLoseLock>(&e)) return c->i;
  if (const auto* c = std::get_if<Send>(&e)) return c->from;
  return topo_->k();  // the buffer
}

std::optional<algebra::LockEvent> DistToValueEvent(const DistEvent& e) {
  using algebra::LockEvent;
  if (const auto* c = std::get_if<NodeCreate>(&e)) {
    return LockEvent{algebra::Create{c->a}};
  }
  if (const auto* c = std::get_if<NodeCommit>(&e)) {
    return LockEvent{algebra::Commit{c->a}};
  }
  if (const auto* c = std::get_if<NodeAbort>(&e)) {
    return LockEvent{algebra::Abort{c->a}};
  }
  if (const auto* c = std::get_if<NodePerform>(&e)) {
    return LockEvent{algebra::Perform{c->a, c->u}};
  }
  if (const auto* c = std::get_if<NodeReleaseLock>(&e)) {
    return LockEvent{algebra::ReleaseLock{c->a, c->x}};
  }
  if (const auto* c = std::get_if<NodeLoseLock>(&e)) {
    return LockEvent{algebra::LoseLock{c->a, c->x}};
  }
  return std::nullopt;  // send/receive -> Λ
}

Status CheckLocalConsistency(const DistAlgebra& alg, const DistState& b,
                             const valuemap::ValState& abstract,
                             const std::set<NodeId>* down_nodes) {
  const Topology& topo = alg.topology();
  const action::ActionRegistry& reg = alg.registry();
  const action::ActionTree& tree = abstract.tree;
  auto fail = [](std::string msg) { return Status::Internal(std::move(msg)); };
  auto is_down = [down_nodes](NodeId i) {
    return down_nodes != nullptr && down_nodes->count(i) != 0;
  };

  for (NodeId i = 0; i < topo.k(); ++i) {
    const NodeState& n = b.nodes[i];
    // vertices_T ∩ {origin = i} ⊆ i.vertices; committed/aborted_T ∩
    // {home = i} ⊆ i.committed/aborted. Waived while i is crashed: its
    // volatile summary was wiped and awaits buffer replay.
    for (ActionId a : tree.Vertices()) {
      if (is_down(i)) break;
      if (a == kRootAction) continue;
      if (topo.Origin(a) == i && !n.summary.Contains(a)) {
        std::ostringstream os;
        os << "node " << i << " missing origin action " << a;
        return fail(os.str());
      }
      if (topo.HomeOfAction(a) == i) {
        if (tree.IsCommitted(a) && !n.summary.IsCommitted(a)) {
          std::ostringstream os;
          os << "node " << i << " missing commit of home action " << a;
          return fail(os.str());
        }
        if (tree.IsAborted(a) && !n.summary.IsAborted(a)) {
          std::ostringstream os;
          os << "node " << i << " missing abort of home action " << a;
          return fail(os.str());
        }
      }
    }
    // i.vertices ⊆ vertices_T with status containment.
    for (const auto& [a, s] : n.summary.entries()) {
      if (!tree.Contains(a)) {
        std::ostringstream os;
        os << "node " << i << " knows unactivated action " << a;
        return fail(os.str());
      }
      if (s == action::ActionStatus::kCommitted && !tree.IsCommitted(a)) {
        std::ostringstream os;
        os << "node " << i << " believes " << a << " committed; tree says "
           << action::ActionStatusName(tree.StatusOf(a));
        return fail(os.str());
      }
      if (s == action::ActionStatus::kAborted && !tree.IsAborted(a)) {
        std::ostringstream os;
        os << "node " << i << " believes " << a << " aborted; tree says "
           << action::ActionStatusName(tree.StatusOf(a));
        return fail(os.str());
      }
    }
    // i.V is the restriction of V to objects homed at i.
    for (ObjectId x : abstract.vmap.TouchedObjects()) {
      if (topo.HomeOfObject(x) != i) continue;
      const auto* want = abstract.vmap.EntriesFor(x);
      const auto* got = n.vmap.EntriesFor(x);
      if ((want == nullptr) != (got == nullptr) ||
          (want != nullptr && *want != *got)) {
        std::ostringstream os;
        os << "node " << i << " value map for x" << x
           << " differs from abstract V";
        return fail(os.str());
      }
    }
    for (ObjectId x : n.vmap.TouchedObjects()) {
      if (topo.HomeOfObject(x) != i) {
        std::ostringstream os;
        os << "node " << i << " holds entries for foreign object x" << x;
        return fail(os.str());
      }
      const auto* want = abstract.vmap.EntriesFor(x);
      if (want == nullptr) {
        std::ostringstream os;
        os << "node " << i << " has entries for x" << x
           << " absent from abstract V";
        return fail(os.str());
      }
    }
    (void)reg;
  }
  // Buffer consistency: M_j ≤ T for every j.
  for (NodeId j = 0; j < topo.k(); ++j) {
    for (const auto& [a, s] : b.buffer[j].entries()) {
      if (!tree.Contains(a)) {
        std::ostringstream os;
        os << "buffer M_" << j << " mentions unactivated action " << a;
        return fail(os.str());
      }
      if (s == action::ActionStatus::kCommitted && !tree.IsCommitted(a)) {
        std::ostringstream os;
        os << "buffer M_" << j << " claims commit of " << a;
        return fail(os.str());
      }
      if (s == action::ActionStatus::kAborted && !tree.IsAborted(a)) {
        std::ostringstream os;
        os << "buffer M_" << j << " claims abort of " << a;
        return fail(os.str());
      }
    }
  }
  return Status::Ok();
}

std::vector<DistEvent> DistEventCandidates::operator()(const DistState& s) {
  const Topology& topo = alg_->topology();
  const action::ActionRegistry& reg = alg_->registry();
  std::vector<DistEvent> out;
  for (ActionId a = 1; a < reg.size(); ++a) {
    NodeId origin = topo.Origin(a);
    if (!s.nodes[origin].summary.Contains(a)) {
      out.push_back(NodeCreate{origin, a});
    }
    NodeId home = topo.HomeOfAction(a);
    const NodeState& hn = s.nodes[home];
    if (hn.summary.IsActive(a)) {
      if (reg.IsAccess(a)) {
        out.push_back(
            NodePerform{home, a, hn.vmap.PrincipalValue(reg.Object(a), reg)});
      } else {
        out.push_back(NodeCommit{home, a});
        out.push_back(NodeAbort{home, a});
      }
    }
  }
  for (NodeId i = 0; i < topo.k(); ++i) {
    const NodeState& n = s.nodes[i];
    for (ObjectId x : n.vmap.TouchedObjects()) {
      for (const auto& [a, v] : *n.vmap.EntriesFor(x)) {
        if (n.summary.IsCommitted(a)) out.push_back(NodeReleaseLock{i, a, x});
        out.push_back(NodeLoseLock{i, a, x});  // filtered by Defined
      }
    }
    if (!n.summary.empty()) {
      for (NodeId j = 0; j < topo.k(); ++j) {
        if (j == i) continue;
        out.push_back(Send{i, j, n.summary});
        if (random_subsummaries_) {
          ActionSummary sub = n.summary.RandomSub(rng_);
          if (!sub.empty()) out.push_back(Send{i, j, std::move(sub)});
        }
      }
    }
  }
  for (NodeId j = 0; j < topo.k(); ++j) {
    if (s.buffer[j].empty()) continue;
    out.push_back(Receive{j, s.buffer[j]});
    if (random_subsummaries_) {
      ActionSummary sub = s.buffer[j].RandomSub(rng_);
      if (!sub.empty()) out.push_back(Receive{j, std::move(sub)});
    }
  }
  return out;
}

std::string ToString(const DistEvent& e) {
  std::ostringstream os;
  if (const auto* c = std::get_if<NodeCreate>(&e)) {
    os << "create(n" << c->i << ", " << c->a << ")";
  } else if (const auto* c = std::get_if<NodeCommit>(&e)) {
    os << "commit(n" << c->i << ", " << c->a << ")";
  } else if (const auto* c = std::get_if<NodeAbort>(&e)) {
    os << "abort(n" << c->i << ", " << c->a << ")";
  } else if (const auto* c = std::get_if<NodePerform>(&e)) {
    os << "perform(n" << c->i << ", " << c->a << ", u=" << c->u << ")";
  } else if (const auto* c = std::get_if<NodeReleaseLock>(&e)) {
    os << "release-lock(n" << c->i << ", " << c->a << ", x" << c->x << ")";
  } else if (const auto* c = std::get_if<NodeLoseLock>(&e)) {
    os << "lose-lock(n" << c->i << ", " << c->a << ", x" << c->x << ")";
  } else if (const auto* c = std::get_if<Send>(&e)) {
    os << "send(n" << c->from << " -> n" << c->to << ", |T'|="
       << c->summary.size() << ")";
  } else {
    const auto& r = std::get<Receive>(e);
    os << "receive(n" << r.to << ", |T'|=" << r.summary.size() << ")";
  }
  return os.str();
}

}  // namespace rnt::dist

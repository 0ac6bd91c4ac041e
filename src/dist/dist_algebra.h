#ifndef RNT_DIST_DIST_ALGEBRA_H_
#define RNT_DIST_DIST_ALGEBRA_H_

#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "algebra/algebra.h"
#include "algebra/events.h"
#include "common/status.h"
#include "dist/summary.h"
#include "dist/topology.h"
#include "valuemap/value_map.h"
#include "valuemap/value_map_algebra.h"

namespace rnt::dist {

/// Events of the distributed algebra ℬ (paper §9.2 (a)-(h)). The first
/// six mirror the value-map events with an explicit doer node; the last
/// two move action-summary knowledge through the message buffer.

struct NodeCreate {
  NodeId i;
  ActionId a;
  friend bool operator==(const NodeCreate&, const NodeCreate&) = default;
};
struct NodeCommit {
  NodeId i;
  ActionId a;
  friend bool operator==(const NodeCommit&, const NodeCommit&) = default;
};
struct NodeAbort {
  NodeId i;
  ActionId a;
  friend bool operator==(const NodeAbort&, const NodeAbort&) = default;
};
struct NodePerform {
  NodeId i;
  ActionId a;
  Value u;
  friend bool operator==(const NodePerform&, const NodePerform&) = default;
};
struct NodeReleaseLock {
  NodeId i;
  ActionId a;
  ObjectId x;
  friend bool operator==(const NodeReleaseLock&,
                         const NodeReleaseLock&) = default;
};
struct NodeLoseLock {
  NodeId i;
  ActionId a;
  ObjectId x;
  friend bool operator==(const NodeLoseLock&, const NodeLoseLock&) = default;
};
/// send_{i,j,T'} — doer i: merges T' into the buffer's M_j.
struct Send {
  NodeId from;
  NodeId to;
  ActionSummary summary;
  friend bool operator==(const Send&, const Send&) = default;
};
/// receive_{j,T'} — doer 'buffer': merges T' (≤ M_j) into j's summary.
struct Receive {
  NodeId to;
  ActionSummary summary;
  friend bool operator==(const Receive&, const Receive&) = default;
};

using DistEvent =
    std::variant<NodeCreate, NodeCommit, NodeAbort, NodePerform,
                 NodeReleaseLock, NodeLoseLock, Send, Receive>;

std::string ToString(const DistEvent& e);

/// Per-node component state: the node's action summary i.T (its partial
/// knowledge of statuses) and its value map i.V (lock state for the
/// objects homed at i).
struct NodeState {
  ActionSummary summary;
  valuemap::ValueMap vmap;

  friend bool operator==(const NodeState&, const NodeState&) = default;
};

/// Global state of ℬ: the Cartesian product of node states and the
/// buffer component (M_j = all information ever sent toward node j).
struct DistState {
  std::vector<NodeState> nodes;
  std::vector<ActionSummary> buffer;  // M_j, indexed by destination j

  friend bool operator==(const DistState&, const DistState&) = default;
};

/// children(A) ∩ summary.vertices ⊆ summary.done — precondition (b12),
/// judged against the universal tree. Walks only the children of `a`
/// (the registry's child index), so a commit check costs O(children),
/// not O(|summary|).
bool LocalChildrenDone(const action::ActionRegistry& reg,
                       const ActionSummary& summary, ActionId a);

/// anc(A) ∩ summary.aborted ≠ ∅ — precondition (f12) at this level: a
/// node only needs *local* knowledge that some ancestor (or `a` itself)
/// aborted. Walks parent pointers; allocation-free. The one copy every
/// ℬ runtime shares.
bool LocallyDead(const action::ActionRegistry& reg,
                 const ActionSummary& summary, ActionId a);

/// Level 5: the distributed algebra ℬ (paper §9), a slightly simplified
/// Moss algorithm (no read/write distinction) running on k nodes plus a
/// message system. Each event's precondition consults only its doer's
/// component — the Local Domain property — and effects are componentwise
/// — Local Changes (Lemma 22); both are structural in this implementation
/// since Defined/Apply only touch s.nodes[doer] (or the buffer).
class DistAlgebra {
 public:
  using State = DistState;
  using Event = DistEvent;

  explicit DistAlgebra(const Topology* topology) : topo_(topology) {}

  State Initial() const {
    DistState s;
    s.nodes.resize(topo_->k());
    s.buffer.resize(topo_->k());
    return s;
  }

  bool Defined(const State& s, const Event& e) const;
  void Apply(State& s, const Event& e) const;
  /// Move form: a Send/Receive event that the caller is done with donates
  /// its summary to the state (map nodes are spliced into the buffer /
  /// node summary instead of copied — the second hop of a message costs
  /// no allocation). Other events forward to the const& overload.
  void Apply(State& s, Event&& e) const;

  /// The doer d(π) of an event: its node for (a)-(g), the buffer for (h).
  /// Buffer is represented as index k().
  NodeId Doer(const Event& e) const;

  const Topology& topology() const { return *topo_; }
  const action::ActionRegistry& registry() const { return topo_->registry(); }

 private:
  const Topology* topo_;
};

static_assert(algebra::EventStateAlgebra<DistAlgebra>);

/// The interpretation h‴ : P → Π‴ ∪ {Λ} (paper §9.3): node events map to
/// the value-map events of the same name with the node index suppressed;
/// send/receive map to Λ.
std::optional<algebra::LockEvent> DistToValueEvent(const DistEvent& e);

/// Executable i-consistency (the local possibilities mappings h_i of
/// paper §9.3): checks that the abstract level-4 state (T, V) is in
/// h_i(b) for every node i and for the buffer. Used by the refinement
/// tests to discharge the local-mapping proof obligations (Lemmas 23-26)
/// on concrete runs.
///
/// `down_nodes`, when given, names nodes that are currently crashed:
/// their *knowledge* obligations (summary must contain origin actions and
/// home statuses) are waived — a wiped volatile summary is not a
/// reachable ℬ state until recovery replays the buffer M_i — while their
/// truthfulness obligations (no invented statuses) and their durable
/// value maps are still checked.
Status CheckLocalConsistency(const DistAlgebra& alg, const DistState& b,
                             const valuemap::ValState& abstract,
                             const std::set<NodeId>* down_nodes = nullptr);

/// Candidate-event generator for random exploration of ℬ. Proposes node
/// events enabled by local knowledge, full-summary sends between all node
/// pairs, full-buffer receives, and (seeded) random sub-summary sends to
/// exercise partial knowledge propagation.
class DistEventCandidates {
 public:
  DistEventCandidates(const DistAlgebra* alg, std::uint64_t seed,
                      bool random_subsummaries = true)
      : alg_(alg), rng_(seed), random_subsummaries_(random_subsummaries) {}

  std::vector<DistEvent> operator()(const DistState& s);

 private:
  const DistAlgebra* alg_;
  Rng rng_;
  bool random_subsummaries_;
};

}  // namespace rnt::dist

#endif  // RNT_DIST_DIST_ALGEBRA_H_

#ifndef RNT_ACTION_REGISTRY_H_
#define RNT_ACTION_REGISTRY_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "action/update.h"
#include "common/types.h"

namespace rnt::action {

/// The universal set of actions, configured a priori into a tree
/// (the paper's `act` with `parent`, `accesses`, `object`, `update`).
///
/// The paper treats the universal action tree as a naming scheme: an
/// action's name encodes its position in the nesting tree and, for
/// accesses (leaves), the object it touches and the function it applies.
/// The registry realizes that naming scheme: ids are dense indices, the
/// root U is id 0, and an action's parent/object/update are immutable
/// after registration. Which of these potential actions actually get
/// *activated* in an execution is recorded separately, in an ActionTree.
///
/// Invariants enforced:
///  * accesses are leaves — an access can never be given a child;
///  * parents precede children (a parent must already be registered);
///  * the root U is never an access.
///
/// The registry is not thread-safe; concurrent engines build a private
/// registry from their execution trace (see txn/trace.h).
class ActionRegistry {
 public:
  ActionRegistry() {
    // The virtual root U.
    nodes_.push_back(Node{kInvalidAction, /*depth=*/0, /*object=*/0,
                          Update::Read(), /*is_access=*/false});
    children_.emplace_back();
  }

  /// Registers a non-access (inner) action under `parent`.
  ActionId NewAction(ActionId parent) {
    assert(parent < nodes_.size());
    assert(!nodes_[parent].is_access && "accesses are leaves");
    nodes_.push_back(Node{parent, nodes_[parent].depth + 1, /*object=*/0,
                          Update::Read(), /*is_access=*/false});
    return Link(parent);
  }

  /// Registers an access (leaf) to `object` applying `update`.
  /// Accesses may not be children of the root U (the paper assumes
  /// U itself is not an access and top-level actions are transactions,
  /// but children of U performing accesses directly are permitted by the
  /// model; we allow them for generality).
  ActionId NewAccess(ActionId parent, ObjectId object, Update update) {
    assert(parent < nodes_.size());
    assert(!nodes_[parent].is_access && "accesses are leaves");
    nodes_.push_back(
        Node{parent, nodes_[parent].depth + 1, object, update,
             /*is_access=*/true});
    return Link(parent);
  }

  std::size_t size() const { return nodes_.size(); }
  bool Valid(ActionId a) const { return a < nodes_.size(); }

  /// Parent of `a`; kInvalidAction for the root U.
  ActionId Parent(ActionId a) const {
    assert(Valid(a));
    return nodes_[a].parent;
  }

  /// Depth of `a` (root U has depth 0).
  std::uint32_t Depth(ActionId a) const {
    assert(Valid(a));
    return nodes_[a].depth;
  }

  /// The children of `a` in id order (registration order) — the
  /// universal tree's child lists, kept as an index so per-action
  /// questions (precondition b12, subtree walks) cost O(children) instead
  /// of a scan of every registered action.
  const std::vector<ActionId>& Children(ActionId a) const {
    assert(Valid(a));
    return children_[a];
  }

  bool IsAccess(ActionId a) const {
    assert(Valid(a));
    return nodes_[a].is_access;
  }

  /// The object accessed by access `a` (the paper's object(A)).
  ObjectId Object(ActionId a) const {
    assert(Valid(a) && nodes_[a].is_access);
    return nodes_[a].object;
  }

  /// The update function of access `a` (the paper's update(A)).
  const Update& UpdateOf(ActionId a) const {
    assert(Valid(a) && nodes_[a].is_access);
    return nodes_[a].update;
  }

  /// True iff `anc` is an ancestor of `a` (reflexive: anc(A) contains A).
  bool IsAncestor(ActionId anc, ActionId a) const {
    assert(Valid(anc) && Valid(a));
    while (nodes_[a].depth > nodes_[anc].depth) a = nodes_[a].parent;
    return a == anc;
  }

  /// True iff `anc` is a proper ancestor of `a`.
  bool IsProperAncestor(ActionId anc, ActionId a) const {
    return anc != a && IsAncestor(anc, a);
  }

  /// Least common ancestor of `a` and `b` (the paper's lca(A, B)).
  ActionId Lca(ActionId a, ActionId b) const {
    assert(Valid(a) && Valid(b));
    while (nodes_[a].depth > nodes_[b].depth) a = nodes_[a].parent;
    while (nodes_[b].depth > nodes_[a].depth) b = nodes_[b].parent;
    while (a != b) {
      a = nodes_[a].parent;
      b = nodes_[b].parent;
    }
    return a;
  }

  /// The chain a, parent(a), ..., U (inclusive at both ends).
  std::vector<ActionId> AncestorChain(ActionId a) const {
    assert(Valid(a));
    std::vector<ActionId> chain;
    chain.reserve(nodes_[a].depth + 1);
    for (;;) {
      chain.push_back(a);
      if (a == kRootAction) break;
      a = nodes_[a].parent;
    }
    return chain;
  }

  /// The child of `anc` that is an ancestor of `a`. Requires `anc` to be a
  /// proper ancestor of `a`. Used to project datasteps up to sibling level
  /// when computing induced orders.
  ActionId ChildToward(ActionId anc, ActionId a) const {
    assert(IsProperAncestor(anc, a));
    while (nodes_[a].parent != anc) a = nodes_[a].parent;
    return a;
  }

 private:
  struct Node {
    ActionId parent;
    std::uint32_t depth;
    ObjectId object;  // meaningful only when is_access
    Update update;    // meaningful only when is_access
    bool is_access;
  };

  /// Indexes the just-pushed node under `parent`; returns its id.
  ActionId Link(ActionId parent) {
    const auto id = static_cast<ActionId>(nodes_.size() - 1);
    children_.emplace_back();
    children_[parent].push_back(id);
    return id;
  }

  std::vector<Node> nodes_;
  std::vector<std::vector<ActionId>> children_;  // by ActionId, id order
};

/// Initial value of every object: the library-wide convention is
/// init(x) = 0 for all x. The paper's distinguished init(x) is arbitrary;
/// fixing it to zero loses no generality because a leading write access
/// reaches any other initial value. (Documented in DESIGN.md §2.)
inline constexpr Value kInitValue = 0;

}  // namespace rnt::action

#endif  // RNT_ACTION_REGISTRY_H_

#ifndef RNT_DIST_SUMMARY_H_
#define RNT_DIST_SUMMARY_H_

#include <map>
#include <string>
#include <vector>

#include "action/action_tree.h"
#include "common/random.h"
#include "common/types.h"

namespace rnt::dist {

/// An action summary (paper §9.1): partial knowledge of action statuses.
/// Unlike an action tree, the vertex set need not be closed under parent,
/// and there is no root — a node may know of a grandchild's commit before
/// ever hearing of the intermediate ancestors.
///
/// Statuses in a summary are monotone: once a node learns that an action
/// is committed or aborted, merging older "active" knowledge does not
/// regress it. (In the paper this is implicit: the home node is the only
/// component that changes a status, and ∪ is used only to add knowledge.)
class ActionSummary {
 public:
  ActionSummary() = default;

  bool Contains(ActionId a) const { return entries_.count(a) != 0; }

  /// Requires Contains(a).
  action::ActionStatus StatusOf(ActionId a) const { return entries_.at(a); }

  bool IsActive(ActionId a) const {
    auto it = entries_.find(a);
    return it != entries_.end() &&
           it->second == action::ActionStatus::kActive;
  }
  bool IsCommitted(ActionId a) const {
    auto it = entries_.find(a);
    return it != entries_.end() &&
           it->second == action::ActionStatus::kCommitted;
  }
  bool IsAborted(ActionId a) const {
    auto it = entries_.find(a);
    return it != entries_.end() &&
           it->second == action::ActionStatus::kAborted;
  }
  bool IsDone(ActionId a) const {
    auto it = entries_.find(a);
    return it != entries_.end() &&
           it->second != action::ActionStatus::kActive;
  }

  /// True iff this summary already implies knowing (a, s): `a` is present
  /// at status `s`, or `s` is 'active' (a done status implies it).
  bool Covers(ActionId a, action::ActionStatus s) const {
    auto it = entries_.find(a);
    return it != entries_.end() &&
           (it->second == s || s == action::ActionStatus::kActive);
  }

  /// Appends (a, s) where `a` is larger than every id present — the O(1)
  /// build path for sub-summaries assembled in id order.
  void AppendLargest(ActionId a, action::ActionStatus s) {
    entries_.emplace_hint(entries_.end(), a, s);
  }

  /// Adds `a` with status 'active'.
  void AddActive(ActionId a) {
    entries_.emplace(a, action::ActionStatus::kActive);
  }

  /// Sets the status of an already-present action.
  void SetStatus(ActionId a, action::ActionStatus s) { entries_[a] = s; }

  /// T <- T ∪ T′ (paper §9.1), with done-status priority. Entries already
  /// known at an equal-or-later status are skipped without re-insertion
  /// (no node allocation for knowledge we already hold). Returns true iff
  /// the merge changed this summary — callers use it to detect whether a
  /// delivery taught the node anything new.
  bool MergeFrom(const ActionSummary& other) {
    return MergeFrom(other, nullptr);
  }

  /// As above, and appends to `*changed` (when non-null) the id of every
  /// entry the merge added or upgraded, in id order — what a change-
  /// driven node loop needs to wake dependent work and to ship deltas.
  bool MergeFrom(const ActionSummary& other, std::vector<ActionId>* changed) {
    bool any = false;
    auto hint = entries_.begin();
    for (const auto& [a, s] : other.entries_) {
      hint = entries_.lower_bound(a);
      if (hint != entries_.end() && hint->first == a) {
        if (hint->second != action::ActionStatus::kActive ||
            s == action::ActionStatus::kActive) {
          continue;
        }
        hint->second = s;
      } else {
        hint = entries_.emplace_hint(hint, a, s);
      }
      any = true;
      if (changed != nullptr) changed->push_back(a);
    }
    return any;
  }

  /// Move form of MergeFrom for the message hop into the buffer: when this
  /// summary is empty the incoming map is adopted wholesale; otherwise
  /// nodes are spliced in via std::map::merge (no per-entry copies) and
  /// only the conflicting leftovers are inspected for status upgrades.
  bool MergeFrom(ActionSummary&& other) {
    if (other.entries_.empty()) return false;
    if (entries_.empty()) {
      entries_ = std::move(other.entries_);
      other.entries_.clear();
      return true;
    }
    const std::size_t before = entries_.size();
    entries_.merge(other.entries_);
    bool changed = entries_.size() != before;
    for (const auto& [a, s] : other.entries_) {  // keys we already had
      auto it = entries_.find(a);
      if (it->second == action::ActionStatus::kActive &&
          s != action::ActionStatus::kActive) {
        it->second = s;
        changed = true;
      }
    }
    other.entries_.clear();
    return changed;
  }

  /// The sub-summary of entries not yet covered by `frontier`: actions the
  /// frontier has never seen, plus actions whose status advanced past the
  /// frontier's record (active -> committed/aborted). This is the delta a
  /// node ships to a peer it last updated at `frontier`; because every
  /// entry is taken verbatim from *this*, the delta is always a legal
  /// sub-summary of the sender's knowledge (Send precondition g11), and
  ///   frontier ∪ DeltaSince(frontier) == *this
  /// whenever frontier ≤ *this (the frontier-merge identity the delta
  /// tests pin down).
  ActionSummary DeltaSince(const ActionSummary& frontier) const {
    ActionSummary out;
    auto it = frontier.entries_.begin();
    const auto end = frontier.entries_.end();
    for (const auto& [a, s] : entries_) {
      while (it != end && it->first < a) ++it;
      if (it != end && it->first == a &&
          (it->second == s || s == action::ActionStatus::kActive)) {
        continue;  // frontier already covers (a, s)
      }
      out.entries_.emplace_hint(out.entries_.end(), a, s);
    }
    return out;
  }

  /// T′ ≤ T: componentwise containment of vertices/committed/aborted.
  bool IsSubsummaryOf(const ActionSummary& other) const {
    for (const auto& [a, s] : entries_) {
      auto it = other.entries_.find(a);
      if (it == other.entries_.end()) return false;
      if (s != action::ActionStatus::kActive && it->second != s) return false;
    }
    return true;
  }

  /// A uniformly random sub-summary (each entry kept with probability 1/2,
  /// done statuses optionally weakened to active) — used by the random
  /// executor to exercise partial-knowledge sends.
  ActionSummary RandomSub(Rng& rng) const {
    ActionSummary out;
    for (const auto& [a, s] : entries_) {
      if (!rng.Chance(0.5)) continue;
      if (s != action::ActionStatus::kActive && rng.Chance(0.25)) {
        out.entries_.emplace(a, action::ActionStatus::kActive);
      } else {
        out.entries_.emplace(a, s);
      }
    }
    return out;
  }

  const std::map<ActionId, action::ActionStatus>& entries() const {
    return entries_;
  }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  std::string ToString() const;

  friend bool operator==(const ActionSummary&, const ActionSummary&) = default;

 private:
  std::map<ActionId, action::ActionStatus> entries_;
};

}  // namespace rnt::dist

#endif  // RNT_DIST_SUMMARY_H_

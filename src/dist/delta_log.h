#ifndef RNT_DIST_DELTA_LOG_H_
#define RNT_DIST_DELTA_LOG_H_

#include <algorithm>
#include <vector>

#include "common/types.h"
#include "dist/summary.h"

namespace rnt::dist {

/// One node's bookkeeping for delta knowledge shipping: a per-peer
/// frontier (what that peer is known to hold) and the ids of the local
/// summary entries that changed since the last flush.
///
/// A flush computes, for each peer j, the entries of the local summary
/// that j's frontier does not cover — the same sub-summary as
/// `t.DeltaSince(frontier(j))` — but walks only the change list instead
/// of the whole summary. The two agree because of one invariant: every
/// entry of `t` that some frontier does not cover is on the change list.
/// It holds when every change to `t` is reported through Note/NoteAll
/// (node events, Receive merges, rebirth) and frontiers only grow
/// (Covered merges, Flush advances): a flush leaves every entry of `t`
/// covered by every peer's frontier, and clears the list.
///
/// A wipe of `t` (crash) needs no report: entries that vanished are
/// skipped at the next flush, and the rebirth that refills `t` calls
/// NoteAll.
class DeltaLog {
 public:
  explicit DeltaLog(NodeId k) : frontiers_(k) {}

  /// The local summary entry of `a` was added or its status advanced.
  void Note(ActionId a) { changed_.push_back(a); }

  /// Every entry of `t` counts as changed (rebirth: the recovered
  /// summary is compared against the surviving frontiers afresh).
  void NoteAll(const ActionSummary& t) {
    for (const auto& [a, s] : t.entries()) changed_.push_back(a);
  }

  /// Peer `j` certainly holds `payload` (it sent it): advance j's
  /// frontier, so the flush does not echo the payload back.
  void Covered(NodeId j, const ActionSummary& payload) {
    frontiers_[j].MergeFrom(payload);
  }

  /// For every peer j ≠ `self` whose delta is non-empty, calls
  /// `ship(j, delta)` with delta == t.DeltaSince(frontier(j)) and
  /// advances frontier(j) by it; then clears the change list. Work is
  /// O(changes · k · log |t|), independent of |t| itself.
  template <typename Ship>
  void Flush(const ActionSummary& t, NodeId self, Ship&& ship) {
    if (changed_.empty()) return;
    std::sort(changed_.begin(), changed_.end());
    changed_.erase(std::unique(changed_.begin(), changed_.end()),
                   changed_.end());
    const auto& entries = t.entries();
    for (NodeId j = 0; j < frontiers_.size(); ++j) {
      if (j == self) continue;
      const ActionSummary& frontier = frontiers_[j];
      ActionSummary delta;
      for (ActionId a : changed_) {
        auto it = entries.find(a);
        if (it == entries.end()) continue;  // wiped by a crash
        if (frontier.Covers(a, it->second)) continue;
        delta.AppendLargest(a, it->second);
      }
      if (delta.empty()) continue;
      frontiers_[j].MergeFrom(delta);
      ship(j, std::move(delta));
    }
    changed_.clear();
  }

  /// Drops the change list without shipping (full-summary policies,
  /// which track freshness by version instead).
  void Clear() { changed_.clear(); }

  const ActionSummary& frontier(NodeId j) const { return frontiers_[j]; }
  std::size_t pending() const { return changed_.size(); }

 private:
  std::vector<ActionSummary> frontiers_;
  std::vector<ActionId> changed_;
};

}  // namespace rnt::dist

#endif  // RNT_DIST_DELTA_LOG_H_

#ifndef RNT_STORAGE_RETENTION_LOG_H_
#define RNT_STORAGE_RETENTION_LOG_H_

#include <memory>
#include <string>

#include "action/action_tree.h"
#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "dist/summary.h"

namespace rnt::storage {

/// Durable backing for a node's retention buffer M_i (paper §9.1).
///
/// The in-process ℬ host keeps M_i in ConcurrentMailbox::Retain only —
/// its crashes wipe a node, not the process. The rnt_node process
/// retains into this log instead, so after kill -9 the node's M_i is
/// rebuilt from disk and rebirth replays it as the paper's one legal
/// Receive. Appends are batched: one batch per node pass — the trace
/// write first, then this retention write, then any transmission (per
/// pass: trace write → retention write → transmit).
///
/// M_i monotonicity makes the format trivial: entries only ever *add*
/// knowledge (a status may upgrade active → committed/aborted, never
/// regress), so an append-only record stream replayed in order — with
/// upgrades-only merge — reconstructs exactly the retained summary, and
/// a torn tail loses only knowledge the node never acted on.
///
/// Torn-tail policy is at parity with the WAL: Open scans the existing
/// file and truncates an incomplete or CRC-failing final record before
/// appending (so a kill -9 tear never corrupts later appends), Load
/// discards the same tear, and mid-file damage is kDataLoss either way.
/// A batch is a run of ordinary records, so a kill in the middle of one
/// leaves an intact record prefix plus at most one torn record — the
/// same tail a single append can leave.
///
/// The same monotonicity bounds recovery (§9.1's compaction hint): once
/// a status is final, every earlier record for the action is subsumed,
/// so Checkpoint() rewrites the log as one record per *entry* at its
/// current status — replay work becomes O(distinct actions), not
/// O(appends) — without changing Load's result at all.
///
/// Record: crc32 (u32, over payload) · size (u32) · payload
/// Payload: action u32 · status u8.
class RetentionLog {
 public:
  struct Options {
    /// fdatasync every append. Default off: page-cache durability
    /// survives process kill (the fault model here); the paper's node
    /// is "resilient" against component crash, not media loss.
    bool fsync = false;
  };

  /// Opens (creating or appending to) the node's retention file,
  /// truncating a torn tail left by a kill mid-append.
  static StatusOr<std::unique_ptr<RetentionLog>> Open(
      const std::string& dir, NodeId node, Options options);
  static StatusOr<std::unique_ptr<RetentionLog>> Open(const std::string& dir,
                                                      NodeId node);
  ~RetentionLog();

  RetentionLog(const RetentionLog&) = delete;
  RetentionLog& operator=(const RetentionLog&) = delete;

  /// Appends one retained fact. Thread-safe (the runner's delivery and
  /// self-send paths both retain).
  Status Append(ActionId action, action::ActionStatus status);
  /// Appends one record per entry of `entries`, with a single write.
  Status Append(const dist::ActionSummary& entries);

  /// Compacts the log to exactly `retained`'s entries at their current
  /// statuses (atomic tmp + rename, then reopened for appending).
  /// `retained` must cover the log — the caller passes its in-memory
  /// M_i mirror, which the write-through discipline keeps a superset of
  /// everything appended. Dedupe-only: Load after Checkpoint returns
  /// the same summary, so the recovered ≥ acked scalar is preserved.
  Status Checkpoint(const dist::ActionSummary& retained);

  /// Appends since Open/Checkpoint — the compaction heuristic's input.
  std::uint64_t AppendsSinceCheckpoint() const;

  /// True when compaction would shrink replay meaningfully: the append
  /// count has outgrown the distinct-entry count by both a factor and an
  /// absolute slack (so small logs never churn).
  bool SuggestCheckpoint(std::size_t distinct_entries) const;

  /// Replays a node's retention file into a summary. Torn tails are
  /// discarded (unacknowledged knowledge); CRC damage inside the log is
  /// kDataLoss. kNotFound if the node never persisted anything.
  static StatusOr<dist::ActionSummary> Load(const std::string& dir,
                                            NodeId node);

  static std::string FileName(NodeId node);

 private:
  RetentionLog(std::string path, int fd, Options options)
      : path_(std::move(path)), options_(options), fd_(fd) {}

  /// Writes `records` (whole encoded records, `count` of them).
  Status Write(const std::string& records, std::uint64_t count);

  const std::string path_;
  const Options options_;
  mutable Mutex retention_mu_{"storage.retention", kRankRetentionLog};
  int fd_ GUARDED_BY(retention_mu_) = -1;
  std::uint64_t appends_ GUARDED_BY(retention_mu_) = 0;
};

}  // namespace rnt::storage

#endif  // RNT_STORAGE_RETENTION_LOG_H_

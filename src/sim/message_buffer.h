#ifndef RNT_SIM_MESSAGE_BUFFER_H_
#define RNT_SIM_MESSAGE_BUFFER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "dist/summary.h"
#include "faults/link_interposer.h"
#include "sim/mpsc_queue.h"
#include "sim/transport.h"

namespace rnt::sim {

/// The concurrent message buffer of the parallel runner: one MPSC queue
/// per destination node (the Treiber-list core lives in
/// sim::MpscQueue, shared with the batched front end's submission
/// queues). Producers push with a lock-free CAS loop; the single
/// consumer for a destination detaches the whole list with one exchange
/// and reverses it to recover FIFO order. Slots are cache-line
/// separated so concurrent senders to different destinations never
/// contend.
///
/// Each slot also holds the destination's *durable retention buffer* —
/// the monotone M_i of the paper's §9.1 recovery argument ("all
/// information ever sent toward node i"). The owner thread merges every
/// delivered payload and every WAL self-append into it via Retain; a
/// crash may wipe the node's volatile ActionSummary, but the retention
/// summary survives and a reborn node recovers with one legal
/// Receive(i, Retained(i)). Single-writer discipline: only node i's
/// (current) thread calls Retain(i, ...); crash/rebirth hand-offs are
/// sequenced by the supervisor's thread join, so no lock is needed.
class ConcurrentMailbox {
 public:
  explicit ConcurrentMailbox(NodeId k) : slots_(k) {}

  ConcurrentMailbox(const ConcurrentMailbox&) = delete;
  ConcurrentMailbox& operator=(const ConcurrentMailbox&) = delete;

  /// Lock-free multi-producer push toward `to`.
  void Push(NodeId to, TransportMessage msg) {
    slots_[to].queue.Push(std::move(msg));
  }

  /// Detaches and returns every pending message for `to`, oldest first.
  /// Must only be called by node `to`'s thread (single consumer).
  std::vector<TransportMessage> Drain(NodeId to) {
    return slots_[to].queue.Drain();
  }

  /// True when no message is pending for `to` (racy by nature; used only
  /// as a fast-path hint to skip an empty Drain).
  bool Empty(NodeId to) const { return slots_[to].queue.Empty(); }

  /// Merges `payload` into destination `to`'s durable retention buffer
  /// M_to. Owner-thread only (see class comment).
  void Retain(NodeId to, const dist::ActionSummary& payload) {
    slots_[to].retained.MergeFrom(payload);
  }

  /// The durable M_to: everything ever retained toward `to`. Readable by
  /// the owner thread, or by the supervisor after joining it.
  const dist::ActionSummary& Retained(NodeId to) const {
    return slots_[to].retained;
  }

 private:
  struct alignas(64) Slot {
    MpscQueue<TransportMessage> queue;
    /// Durable retention summary M_i (single-writer: the owner thread).
    dist::ActionSummary retained;
  };
  std::vector<Slot> slots_;
};

/// The in-process Transport backend over a ConcurrentMailbox, with the
/// plan's message faults applied on the way in — the same fault surface
/// the SocketHub applies to frames. Each sender owns one
/// faults::LinkInterposer seeded `plan.seed * 1000003 + 17 * i + 1`, so
/// sender i's verdict stream depends only on its own transmissions, and
/// partition windows are judged on `clock` (the runner's logical clock;
/// null reads as 0) at send time. A dropped or partitioned transmission
/// is never queued (Send returns false); a duplicate is queued first,
/// with its own hold count. Sender i's link is touched only by the
/// thread currently running node i (rebirths are sequenced by a join).
class MailboxTransport final : public Transport {
 public:
  /// Counters of what the network did to one sender's transmissions.
  struct LinkStats {
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
  };

  MailboxTransport(ConcurrentMailbox* mailbox, NodeId k,
                   const faults::FaultPlan& plan = {},
                   const std::atomic<std::uint64_t>* clock = nullptr)
      : mailbox_(mailbox), clock_(clock) {
    links_.reserve(k);
    for (NodeId i = 0; i < k; ++i) {
      faults::FaultPlan own = plan;
      own.seed = plan.seed * 1000003u + 17u * i + 1u;
      links_.emplace_back(own);
    }
  }

  bool Send(NodeId to, TransportMessage msg) override {
    Link& link = links_[msg.from];
    const std::uint64_t now =
        clock_ == nullptr ? 0 : clock_->load(std::memory_order_relaxed);
    const faults::LinkInterposer::Verdict v = link.interposer.OnFrame(
        msg.from, to, static_cast<std::int64_t>(now));
    if (v.drop) {
      ++link.stats.dropped;
      return false;
    }
    if (v.duplicate_delay >= 0) {
      ++link.stats.duplicated;
      mailbox_->Push(to, TransportMessage{msg.from, msg.summary,
                                          std::max(1, v.duplicate_delay),
                                          msg.clock});
    }
    msg.delay += v.delay;
    mailbox_->Push(to, std::move(msg));
    return true;
  }

  std::vector<TransportMessage> Poll(NodeId self) override {
    if (mailbox_->Empty(self)) return {};
    return mailbox_->Drain(self);
  }

  /// What the network did to `from`'s transmissions. Read after the
  /// sender's thread has been joined.
  LinkStats stats(NodeId from) const { return links_[from].stats; }

 private:
  struct alignas(64) Link {
    explicit Link(const faults::FaultPlan& plan) : interposer(plan) {}
    faults::LinkInterposer interposer;
    LinkStats stats;
  };

  ConcurrentMailbox* mailbox_;
  const std::atomic<std::uint64_t>* clock_;
  std::vector<Link> links_;  // by sender
};

}  // namespace rnt::sim

#endif  // RNT_SIM_MESSAGE_BUFFER_H_

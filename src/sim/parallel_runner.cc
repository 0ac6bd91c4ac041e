#include "sim/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <variant>

#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "sim/message_buffer.h"
#include "sim/node_core.h"
#include "sim/transport.h"
#include "storage/retention_log.h"
#include "txn/online_checker.h"

namespace rnt::sim {

namespace {

using dist::ActionSummary;
using dist::DistAlgebra;
using dist::DistEvent;
using dist::DistState;

/// Multi-threaded executor of ℬ: one free-running event loop per node.
///
/// Race-freedom rests on the algebra's structure, not on locks. Thread i
/// exclusively owns state_.nodes[i] (every node event's precondition and
/// effect touch only the doer's component — Local Domain / Local Changes,
/// Lemma 22) and state_.buffer[i] (the Send effect (g21) merges into the
/// *destination's* buffer, so the runner applies a Send on the receiving
/// thread when the message is drained from the mailbox). The only
/// cross-thread channel is the mutex-free ConcurrentMailbox.
///
/// The recorded event log is a valid ℬ computation in stamp order even
/// though no thread ever checks a Send against the sender's component:
/// summaries are monotone (entries are only added, statuses only advance),
/// so a payload that was a sub-summary of the sender's knowledge when it
/// was enqueued stays one at every later point — and the stamp counter is
/// an RMW on one atomic, totally ordered consistently with the mailbox's
/// release/acquire edges.
///
/// Resilience: the stamp counter doubles as the *logical clock* for the
/// full FaultPlan. Each node WAL-appends every summary change into the
/// mailbox's durable retention buffer (a one-entry self-send, recorded in
/// the log so the buffer M_i of the replayed computation matches the
/// device). A crash wipes the node's volatile summary and terminates its
/// thread; the supervisor joins it and, once the logical clock passes the
/// rebirth stamp (or the whole system quiesces — liveness beats schedule
/// fidelity), spawns a fresh thread that replays M_i with one legal
/// Receive and reconstructs its obligation cursors from the recovered
/// knowledge plus the durable lock table (performed accesses carry
/// committed status per effect (d21), so ticket cursors are recoverable).
/// Partitions are enforced by the mailbox's link filter on the same
/// clock; a per-node watchdog (bounded-backoff anti-entropy, then
/// timeout-abort of the deepest locally-homed abortable enclosing
/// subtransaction) turns unservable waits into graceful degradation.
class ParallelRunner {
 public:
  ParallelRunner(const DistAlgebra& alg, const ParallelOptions& options)
      : alg_(alg),
        topo_(alg.topology()),
        reg_(alg.registry()),
        options_(options),
        state_(alg.Initial()),
        mailbox_(topo_.k()),
        link_check_(options.plan),
        workers_(topo_.k()),
        live_lowering_(&alg.registry()) {
    retry_enabled_ = options.plan.drop_prob > 0 ||
                     !options.plan.crashes.empty() ||
                     !options.plan.partitions.empty();
  }

  StatusOr<ParallelRun> Run() {
    RNT_RETURN_IF_ERROR(Validate());
    if (!options_.durable_dir.empty()) {
      // Durable M_i write-through: one append-only log per node. Opened
      // before any thread exists; appends happen on the owner thread
      // under the same single-writer discipline as mailbox retention.
      retention_logs_.resize(topo_.k());
      for (NodeId i = 0; i < topo_.k(); ++i) {
        auto log = storage::RetentionLog::Open(options_.durable_dir, i);
        RNT_RETURN_IF_ERROR(log.status());
        retention_logs_[i] = std::move(*log);
      }
    }
    Plan();
    if (!options_.plan.partitions.empty()) {
      // Link-level partition enforcement at the mailbox, judged on the
      // logical clock (loop passes are not rounds).
      mailbox_.SetLinkFilter([this](NodeId from, NodeId to) {
        return link_check_.PartitionedAtStamp(
            from, to,
            static_cast<std::int64_t>(seq_.load(std::memory_order_relaxed)));
      });
    }
    return Supervise();
  }

 private:
  /// Thread-lifecycle state of one node, for the crash/rebirth handshake
  /// with the supervisor. Written by the node thread (kCrashed/kFinished,
  /// release) and by the supervisor (kAwaitingRebirth after join,
  /// kRunning before respawn).
  enum ExitState : int {
    kRunning = 0,
    kCrashed,          // thread returned after a crash wipe; join me
    kAwaitingRebirth,  // joined; waiting for the rebirth stamp
    kFinished,         // thread returned for good
  };

  struct Worker final : NodeCore::Host {
    ParallelRunner* runner = nullptr;
    NodeId id = 0;
    /// Obligations, their change-driven scheduler and the shipping
    /// bookkeeping (node_core.h).
    std::unique_ptr<NodeCore> core;
    /// Receiver-side fault machinery: messages held back by a delay
    /// verdict, and the per-node injector for outgoing transmissions.
    std::vector<NodeMessage> held;
    std::unique_ptr<faults::FaultInjector> injector;
    std::uint64_t idle = 0;
    std::uint64_t passes = 0;
    bool marked_done = false;
    bool gave_up = false;
    /// Crash schedule for this node (by ascending trigger stamp) and the
    /// rebirth handshake with the supervisor.
    std::vector<faults::CrashSpec> crash_specs;
    std::size_t next_crash = 0;
    std::int64_t rebirth_stamp = 0;
    std::atomic<int> exit_state{kRunning};
    /// Watchdog: unproductive anti-entropy retries since the last local
    /// progress, and the idle count at which the next retry fires.
    int attempts = 0;
    std::uint64_t next_retry_idle = 0;
    DriverStats stats;
    std::vector<std::pair<std::uint64_t, DistEvent>> log;

    bool ApplyNodeEvent(DistEvent e) override {
      return runner->ApplyNodeEvent(*this, std::move(e));
    }
  };

  Status Validate() const {
    for (ActionId a : options_.abort_set) {
      if (!reg_.Valid(a) || reg_.IsAccess(a) || a == kRootAction) {
        return Status::InvalidArgument(
            "abort_set must contain registered non-access actions");
      }
    }
    if (options_.propagation == Propagation::kLazy) {
      return Status::InvalidArgument(
          "parallel runner is reactive: use kDelta or kEager propagation");
    }
    RNT_RETURN_IF_ERROR(faults::ValidatePlan(options_.plan, topo_.k()));
    return Status::Ok();
  }

  /// Builds each node's obligation lists (one DFS of the universal tree
  /// per node, children in id order — exactly the sequential driver's
  /// schedule) and its fault machinery.
  void Plan() {
    const NodeId k = topo_.k();
    for (NodeId i = 0; i < k; ++i) {
      Worker& w = workers_[i];
      w.runner = this;
      w.id = i;
      faults::FaultPlan plan = options_.plan;
      plan.seed = plan.seed * 1000003u + 17u * i + 1u;
      w.injector = std::make_unique<faults::FaultInjector>(plan);
      for (const faults::CrashSpec& c : options_.plan.crashes) {
        if (c.node == i) w.crash_specs.push_back(c);
      }
      std::sort(w.crash_specs.begin(), w.crash_specs.end(),
                [](const faults::CrashSpec& a, const faults::CrashSpec& b) {
                  return a.TriggerStamp() < b.TriggerStamp();
                });
      w.next_retry_idle =
          static_cast<std::uint64_t>(std::max(1, options_.stall_retry_spins));
      w.core = std::make_unique<NodeCore>(alg_, i, &state_, &w, &w.stats);
      w.core->Plan(options_.abort_set);
    }
  }

  // ----------------------------------------------------------------
  // Supervisor: spawns node threads, joins crashed ones, and rebirths
  // them once the logical clock passes their rebirth stamp.

  StatusOr<ParallelRun> Supervise() {
    const NodeId k = topo_.k();
    std::vector<std::thread> threads(k);
    auto spawn = [&](NodeId i, bool recover) {
      workers_[i].exit_state.store(kRunning, std::memory_order_release);
      threads[i] =
          std::thread([this, i, recover] { RunNode(workers_[i], recover); });
    };
    for (NodeId i = 0; i < k; ++i) spawn(i, /*recover=*/false);
    std::uint64_t last_seq = seq_.load(std::memory_order_acquire);
    int quiet_polls = 0;
    // One poll every 50us; ~10ms of global stamp silence counts as
    // quiescence (every live node is stalled, so waiting longer for a
    // rebirth stamp cannot help — the clock only advances with events).
    constexpr int kQuiescentPolls = 200;
    for (;;) {
      bool all_finished = true;
      bool awaiting = false;
      bool others_live = false;
      for (NodeId i = 0; i < k; ++i) {
        Worker& w = workers_[i];
        int st = w.exit_state.load(std::memory_order_acquire);
        if (st == kCrashed) {
          threads[i].join();
          w.exit_state.store(kAwaitingRebirth, std::memory_order_relaxed);
          st = kAwaitingRebirth;
        }
        if (st == kFinished) continue;
        all_finished = false;
        if (st == kAwaitingRebirth) {
          awaiting = true;
        } else {
          others_live = true;
        }
      }
      if (all_finished) break;
      const std::uint64_t now_seq = seq_.load(std::memory_order_acquire);
      quiet_polls = now_seq == last_seq ? quiet_polls + 1 : 0;
      last_seq = now_seq;
      if (awaiting) {
        const bool failed = failed_.load(std::memory_order_acquire);
        const bool force =
            failed || !others_live || quiet_polls >= kQuiescentPolls;
        for (NodeId i = 0; i < k; ++i) {
          Worker& w = workers_[i];
          if (w.exit_state.load(std::memory_order_relaxed) !=
              kAwaitingRebirth) {
            continue;
          }
          if (failed) {
            // The run is already lost; skip the rebirth ceremony.
            w.exit_state.store(kFinished, std::memory_order_relaxed);
            continue;
          }
          if (force ||
              static_cast<std::int64_t>(now_seq) >= w.rebirth_stamp) {
            spawn(i, /*recover=*/true);
            quiet_polls = 0;
          }
        }
      }
      // Wall-clock poll interval: liveness only — never semantics. The
      // run's outcome is independent of how often the supervisor looks.
      std::this_thread::sleep_for(  // rnt-lint: allow(wall-clock-wait)
          std::chrono::microseconds(50));
    }
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
    {
      MutexLock lock(error_mu_);
      if (!first_error_.ok()) return first_error_;
    }
    return Assemble();
  }

  // ----------------------------------------------------------------
  // Per-node event loop.

  void RunNode(Worker& w, bool recover) {
    if (recover) Recover(w);
    const NodeId k = topo_.k();
    while (!failed_.load(std::memory_order_acquire)) {
      if (w.next_crash < w.crash_specs.size() &&
          static_cast<std::int64_t>(seq_.load(std::memory_order_acquire)) >=
              w.crash_specs[w.next_crash].TriggerStamp()) {
        Crash(w);
        return;  // mid-loop thread termination; supervisor rebirths us
      }
      ++w.passes;
      bool progress = false;
      progress |= DeliverMail(w);
      progress |= w.core->Work();
      if (!w.marked_done && w.core->Done()) {
        w.marked_done = true;
        done_nodes_.fetch_add(1, std::memory_order_acq_rel);
        progress = true;
      }
      Flush(w);
      if (done_nodes_.load(std::memory_order_acquire) == k) break;
      if (progress) {
        w.idle = 0;
        w.attempts = 0;
        w.next_retry_idle = static_cast<std::uint64_t>(
            std::max(1, options_.stall_retry_spins));
      } else {
        ++w.idle;
        if (retry_enabled_ && options_.stall_retry_spins > 0 &&
            w.idle >= w.next_retry_idle) {
          Watchdog(w);
        }
        if (w.idle > options_.max_idle_spins && !w.marked_done) {
          w.gave_up = true;  // abandon; others may still finish
          w.marked_done = true;
          done_nodes_.fetch_add(1, std::memory_order_acq_rel);
        }
        std::this_thread::yield();
      }
    }
    w.exit_state.store(kFinished, std::memory_order_release);
  }

  /// One watchdog firing: an anti-entropy full-summary re-broadcast (a
  /// dropped delta is gone for good; a healed partition needs a resend),
  /// a logical-clock heartbeat so stamp-based rebirths and partition
  /// heals stay live while every thread idles, and — past the escalation
  /// threshold — a timeout-abort. Backoff is bounded-exponential in idle
  /// passes (shift capped at 5), the chaos driver's policy transplanted
  /// into the free-running loop.
  void Watchdog(Worker& w) {
    ++w.stats.retries;
    ++w.attempts;
    seq_.fetch_add(1, std::memory_order_acq_rel);  // heartbeat tick
    FullBroadcast(w);
    if (!w.marked_done && w.attempts > options_.max_attempts_per_step) {
      if (w.core->TimeoutAbort()) w.attempts = 0;
    }
    const std::uint64_t base = static_cast<std::uint64_t>(
        std::max(1, options_.stall_retry_spins));
    w.next_retry_idle = w.idle + (base << std::min(w.attempts, 5));
  }

  /// Crash: wipe the volatile summary (the durable value map — the lock
  /// table for objects homed here — and the mailbox retention buffer M_i
  /// survive), drop receiver-side held messages (volatile), and hand the
  /// thread back to the supervisor for rebirth.
  void Crash(Worker& w) {
    const faults::CrashSpec& spec = w.crash_specs[w.next_crash];
    ++w.next_crash;
    state_.nodes[w.id].summary = ActionSummary{};
    w.held.clear();
    w.rebirth_stamp = spec.RebirthStamp();
    ++w.stats.crashes;
    w.exit_state.store(kCrashed, std::memory_order_release);
  }

  /// Rebirth: buffer replay is one legal Receive of the durable M_i
  /// (paper §9.1 — "all information ever sent toward i"), after which the
  /// core reconstructs its obligation cursors from the recovered
  /// knowledge and the durable lock table (NodeCore::Recover).
  void Recover(Worker& w) {
    const ActionSummary& m = mailbox_.Retained(w.id);
    if (!retention_logs_.empty()) {
      // Recover-from-disk audit: the on-disk log, re-read and merged
      // monotonically, must cover everything the in-memory M_i holds —
      // write-through happened before this thread ever died, so a
      // process restart would have recovered at least this knowledge.
      auto loaded =
          storage::RetentionLog::Load(options_.durable_dir, w.id);
      if (!loaded.ok()) {
        Fail(loaded.status());
        return;
      }
      if (!m.IsSubsummaryOf(*loaded)) {
        Fail(Status::Internal(
            "parallel runner: durable retention log for node " +
            std::to_string(w.id) +
            " does not cover the in-memory M_i (write-through broken)"));
        return;
      }
    }
    if (!m.empty()) {
      DistEvent recv{dist::Receive{w.id, m}};
      if (!alg_.Defined(state_, recv)) {
        // Retention is built from exactly the Send payloads recorded
        // toward us, so this would mean the WAL discipline is broken.
        Fail(Status::Internal(
            "parallel runner: rebirth replay is not a legal Receive"));
        return;
      }
      alg_.Apply(state_, recv);
      Record(w, std::move(recv));
    }
    ++w.stats.recovered_nodes;
    w.core->Recover();
    w.idle = 0;
    w.attempts = 0;
    w.next_retry_idle =
        static_cast<std::uint64_t>(std::max(1, options_.stall_retry_spins));
  }

  /// Applies one node event on its owning thread: Defined is checked
  /// against the doer's own component only, so the check is race-free.
  /// Summary-changing events (create/commit/abort/perform) are followed
  /// by a WAL append — a one-entry self-send into the mailbox's durable
  /// retention buffer — so M_i stays a superset of node i's volatile
  /// knowledge and a crash can be recovered by buffer replay.
  bool ApplyNodeEvent(Worker& w, DistEvent e) {
    ActionId wal_a = kInvalidAction;
    action::ActionStatus wal_s = action::ActionStatus::kActive;
    if (const auto* c = std::get_if<dist::NodeCreate>(&e)) {
      wal_a = c->a;
    } else if (const auto* c = std::get_if<dist::NodeCommit>(&e)) {
      wal_a = c->a;
      wal_s = action::ActionStatus::kCommitted;
    } else if (const auto* c = std::get_if<dist::NodeAbort>(&e)) {
      wal_a = c->a;
      wal_s = action::ActionStatus::kAborted;
    } else if (const auto* p = std::get_if<dist::NodePerform>(&e)) {
      wal_a = p->a;  // effect (d21) sets the access committed
      wal_s = action::ActionStatus::kCommitted;
    }
    if (!alg_.Defined(state_, e)) {
      Fail(Status::Internal("parallel runner: event unexpectedly undefined: " +
                            dist::ToString(e)));
      return false;
    }
    alg_.Apply(state_, e);
    ++w.stats.node_events;
    Record(w, std::move(e));
    if (wal_a != kInvalidAction) WalAppend(w, wal_a, wal_s);
    return true;
  }

  /// WAL discipline: one-entry self-send after a summary change. The
  /// entry is retained on the durable device and recorded in the log as
  /// Send{i, i, entry}, so the replayed computation's buffer M_i matches
  /// the retention buffer a rebirth replays.
  void WalAppend(Worker& w, ActionId a, action::ActionStatus s) {
    ActionSummary entry;
    entry.AddActive(a);
    if (s != action::ActionStatus::kActive) entry.SetStatus(a, s);
    mailbox_.Retain(w.id, entry);
    RetainDurable(w.id, entry);
    DistEvent send{dist::Send{w.id, w.id, std::move(entry)}};
    // Always defined: the entry was just installed in our own summary
    // (precondition (g11), payload <= sender's knowledge).
    alg_.Apply(state_, send);  // merge into buffer M_i (g21)
    Record(w, std::move(send));
  }

  void Record(Worker& w, DistEvent e) {
    if (options_.live_sink == nullptr) {
      if (!options_.record_events) return;
      w.log.emplace_back(seq_.fetch_add(1, std::memory_order_relaxed),
                         std::move(e));
      return;
    }
    // Live certification path: the stamp, the lowering, and the sink
    // Append form one critical section, so the live stream's order is
    // exactly the stamp order a post-hoc replay of the merged log walks —
    // the live verdict and the post-hoc verdict judge the same sequence.
    MutexLock lock(live_mu_);
    const std::uint64_t stamp = seq_.fetch_add(1, std::memory_order_relaxed);
    if (auto image = dist::DistToValueEvent(e)) {
      if (auto tree_ev = algebra::LockToTreeEvent(*image)) {
        if (auto trace_ev = live_lowering_.Lower(*tree_ev)) {
          options_.live_sink->Append(*trace_ev);
        }
      }
    }
    if (options_.record_events) w.log.emplace_back(stamp, std::move(e));
  }

  /// Writes `payload` through to node `node`'s on-disk retention log
  /// (no-op without durable_dir). Runs on the node's owner thread, right
  /// where the in-memory Retain happened, so disk M_i trails memory by at
  /// most the entries of the current call.
  void RetainDurable(NodeId node, const ActionSummary& payload) {
    if (retention_logs_.empty()) return;
    for (const auto& [a, s] : payload.entries()) {
      const Status w = retention_logs_[node]->Append(a, s);
      if (!w.ok()) {
        Fail(w);
        return;
      }
    }
  }

  void Fail(Status s) {
    bool expected = false;
    if (failed_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
      MutexLock lock(error_mu_);
      first_error_ = std::move(s);
    }
  }

  /// Drains the mailbox and applies Send (merge into own buffer M_i) +
  /// Receive (merge into own summary) per delivered message; messages
  /// under a delay verdict are held for later passes (reordering).
  bool DeliverMail(Worker& w) {
    bool progress = false;
    std::vector<NodeMessage> due;
    std::vector<ActionId> learned;
    for (NodeMessage& m : w.held) {
      if (--m.delay <= 0) {
        due.push_back(std::move(m));
      }
    }
    std::erase_if(w.held, [](const NodeMessage& m) { return m.delay <= 0; });
    if (!transport_.Idle(w.id)) {
      for (TransportMessage& m : transport_.Poll(w.id)) {
        if (m.delay > 0) {
          ++w.stats.delayed_msgs;
          w.held.push_back(NodeMessage{m.from, std::move(m.summary), m.delay});
        } else {
          due.push_back(NodeMessage{m.from, std::move(m.summary), m.delay});
        }
      }
    }
    for (NodeMessage& m : due) {
      ++w.stats.messages;
      w.stats.summary_entries += m.summary.size();
      Record(w, DistEvent{dist::Send{m.from, w.id, m.summary}});
      state_.buffer[w.id].MergeFrom(m.summary);  // (g21), on the receiver
      // Durable retention: the delivered payload joins M_i on the device,
      // exactly in step with the recorded Send (so a rebirth's replay
      // Receive is legal at its point in the merged log).
      mailbox_.Retain(w.id, m.summary);
      RetainDurable(w.id, m.summary);
      Record(w, DistEvent{dist::Receive{w.id, m.summary}});
      // The sender certainly knows what it sent: advancing our frontier
      // for it suppresses echo traffic.
      w.core->Covered(m.from, m.summary);
      learned.clear();
      if (state_.nodes[w.id].summary.MergeFrom(m.summary, &learned)) {
        w.core->Learned(learned);
        progress = true;
      }
    }
    return progress;
  }

  // ----------------------------------------------------------------
  // Knowledge shipping.

  /// Ships pending knowledge to every peer (NodeCore::Flush): under
  /// kDelta only the entries beyond each peer's frontier travel, and
  /// everything that accumulated since the last flush coalesces into a
  /// single message per peer.
  void Flush(Worker& w) {
    w.core->Flush(options_.propagation,
                  [this, &w](NodeId j, ActionSummary payload) {
                    Transmit(w, j, std::move(payload));
                  });
  }

  void FullBroadcast(Worker& w) {
    const ActionSummary& t = state_.nodes[w.id].summary;
    if (t.empty()) return;
    for (NodeId j = 0; j < topo_.k(); ++j) {
      if (j != w.id) Transmit(w, j, t);
    }
  }

  /// Pushes one transmission through the (possibly chaotic) concurrent
  /// buffer. The Send event itself is applied — and stamped — on the
  /// receiving thread at drain time; a dropped transmission therefore
  /// never becomes an event at all, exactly like the chaos driver's
  /// lost-before-the-buffer semantics.
  void Transmit(Worker& w, NodeId to, ActionSummary payload) {
    // round = -1: the free-running loop has no rounds, so the injector's
    // round-window partition check is disabled; partitions are enforced
    // link-level by the mailbox filter on the logical clock instead. The
    // fixed-draw contract is untouched (draw count never depends on the
    // round).
    faults::FaultInjector::Verdict v =
        w.injector->OnMessage(w.id, to, /*round=*/-1);
    if (v.drop) {
      ++w.stats.dropped_msgs;
      return;
    }
    if (v.duplicate_delay >= 0) {
      ++w.stats.duplicated_msgs;
      if (!transport_.Send(to, TransportMessage{w.id, payload,
                                                std::max(1, v.duplicate_delay),
                                                0})) {
        ++w.stats.dropped_msgs;  // severed link: the network ate it
      }
    }
    if (!transport_.Send(to,
                         TransportMessage{w.id, std::move(payload), v.delay,
                                          0})) {
      ++w.stats.dropped_msgs;
    }
  }

  // ----------------------------------------------------------------

  StatusOr<ParallelRun> Assemble() {
    ParallelRun run;
    run.final_state = std::move(state_);
    std::size_t total = 0;
    for (Worker& w : workers_) {
      run.stats.node_events += w.stats.node_events;
      run.stats.messages += w.stats.messages;
      run.stats.summary_entries += w.stats.summary_entries;
      run.stats.performs += w.stats.performs;
      run.stats.commits += w.stats.commits;
      run.stats.aborts += w.stats.aborts;
      run.stats.releases += w.stats.releases;
      run.stats.loses += w.stats.loses;
      run.stats.retries += w.stats.retries;
      run.stats.crashes += w.stats.crashes;
      run.stats.recovered_nodes += w.stats.recovered_nodes;
      run.stats.timeout_aborts += w.stats.timeout_aborts;
      run.stats.obligations_examined += w.stats.obligations_examined;
      run.stats.dropped_msgs += w.stats.dropped_msgs;
      run.stats.duplicated_msgs += w.stats.duplicated_msgs;
      run.stats.delayed_msgs += w.stats.delayed_msgs;
      run.stats.rounds = std::max(run.stats.rounds,
                                  static_cast<int>(std::min<std::uint64_t>(
                                      w.passes, 0x7fffffff)));
      if (w.gave_up) run.complete = false;
      total += w.log.size();
    }
    if (options_.record_events) {
      std::vector<std::pair<std::uint64_t, DistEvent>> merged;
      merged.reserve(total);
      for (Worker& w : workers_) {
        std::move(w.log.begin(), w.log.end(), std::back_inserter(merged));
        w.log.clear();
      }
      std::sort(merged.begin(), merged.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      run.events.reserve(merged.size());
      for (auto& [stamp, e] : merged) run.events.push_back(std::move(e));
    }
    return run;
  }

  const DistAlgebra& alg_;
  const dist::Topology& topo_;
  const action::ActionRegistry& reg_;
  const ParallelOptions& options_;
  DistState state_;
  ConcurrentMailbox mailbox_;
  /// The transport seam (transport.h): this runner always uses the
  /// in-process backend, but Transmit/DeliverMail only ever see the
  /// Transport interface — the same code shape the per-process
  /// NodeRuntime runs against its socket backends.
  MailboxTransport transport_{&mailbox_};
  /// Per-node durable retention logs (empty without durable_dir); the
  /// slot for node i is appended to only by i's current thread.
  std::vector<std::unique_ptr<storage::RetentionLog>> retention_logs_;
  /// Const after construction; consulted concurrently by the mailbox's
  /// link filter (PartitionedAtStamp only reads the plan).
  faults::FaultInjector link_check_;
  bool retry_enabled_ = false;
  std::vector<Worker> workers_;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint32_t> done_nodes_{0};
  std::atomic<bool> failed_{false};
  Mutex error_mu_{"runner.error", kRankRunnerError};
  /// The first failure wins; read back single-threaded after join().
  Status first_error_ GUARDED_BY(error_mu_) = Status::Ok();
  /// Serializes the live-sink path in Record(): stamp + lower + Append
  /// as one step (see ParallelOptions::live_sink).
  Mutex live_mu_{"runner.live", kRankRunnerLive};
  txn::TreeEventLowering live_lowering_ GUARDED_BY(live_mu_);
};

}  // namespace

StatusOr<ParallelRun> RunParallel(const dist::DistAlgebra& alg,
                                  const ParallelOptions& options) {
  ParallelRunner runner(alg, options);
  return runner.Run();
}

StatusOr<valuemap::ValState> ReplayAbstract(
    const dist::DistAlgebra& alg, std::span<const dist::DistEvent> events) {
  return ReplayAbstract(alg, events, nullptr);
}

StatusOr<valuemap::ValState> ReplayAbstract(const dist::DistAlgebra& alg,
                                            std::span<const dist::DistEvent> events,
                                            txn::TraceSink* sink) {
  valuemap::ValueMapAlgebra val_alg(&alg.registry());
  valuemap::ValState s = val_alg.Initial();
  txn::TreeEventLowering lowering(&alg.registry());
  for (const dist::DistEvent& e : events) {
    std::optional<algebra::LockEvent> image = dist::DistToValueEvent(e);
    if (!image.has_value()) continue;  // send/receive -> Λ
    if (!val_alg.Defined(s, *image)) {
      return Status::Internal(
          "refinement violated: no level-4 image for " + dist::ToString(e));
    }
    val_alg.Apply(s, *image);
    if (sink != nullptr) {
      // Stream the event's trace form as it replays, so an online
      // checker sees exactly the prefix order the tree is built in.
      if (auto tree_ev = algebra::LockToTreeEvent(*image)) {
        if (auto trace_ev = lowering.Lower(*tree_ev)) sink->Append(*trace_ev);
      }
    }
  }
  return s;
}

}  // namespace rnt::sim

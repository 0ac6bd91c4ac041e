#include "sim/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "sim/message_buffer.h"
#include "sim/node_core.h"
#include "storage/retention_log.h"
#include "txn/online_checker.h"

namespace rnt::sim {

namespace {

using dist::ActionSummary;
using dist::DistAlgebra;
using dist::DistEvent;
using dist::DistState;

/// Multi-threaded executor of ℬ: one free-running NodeCore loop per
/// node thread. This file is the in-process *host* of that loop: it
/// stamps events with the global atomic, retains into the mailbox (plus
/// the optional RetentionLog), and crashes a node as thread death.
///
/// Race-freedom rests on the algebra's structure, not on locks. Thread i
/// exclusively owns state_.nodes[i] (every node event's precondition and
/// effect touch only the doer's component — Local Domain / Local Changes,
/// Lemma 22) and state_.buffer[i] (the Send effect (g21) merges into the
/// *destination's* buffer, so a Send is applied on the receiving thread
/// when the message is drained from the mailbox). The only cross-thread
/// channel is the mutex-free ConcurrentMailbox.
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
/// full FaultPlan. A crash wipes the node's volatile summary and
/// terminates its thread; the supervisor joins it and, once the logical
/// clock passes the rebirth stamp (or the whole system quiesces —
/// liveness beats schedule fidelity), spawns a fresh thread whose core
/// replays M_i with one legal Receive (NodeCore::Rebirth). Message
/// faults and stamp-windowed partitions are applied by the
/// MailboxTransport on the same clock.
class ParallelRunner {
 public:
  ParallelRunner(const DistAlgebra& alg, const ParallelOptions& options)
      : alg_(alg),
        topo_(alg.topology()),
        options_(options),
        state_(alg.Initial()),
        mailbox_(topo_.k()),
        transport_(&mailbox_, topo_.k(), options.plan, &seq_),
        clocked_(!options.plan.crashes.empty() ||
                 !options.plan.partitions.empty()),
        workers_(topo_.k()),
        live_lowering_(&alg.registry()) {}

  StatusOr<ParallelRun> Run() {
    RNT_RETURN_IF_ERROR(ValidateHostInputs(alg_, options_.abort_set,
                                           options_.propagation,
                                           options_.plan));
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
    /// The node loop (node_core.h); survives crashes, like the durable
    /// lock table it reads.
    std::unique_ptr<NodeCore> core;
    /// Crash schedule for this node (by ascending trigger stamp) and the
    /// rebirth handshake with the supervisor.
    std::vector<faults::CrashSpec> crash_specs;
    std::size_t next_crash = 0;
    std::int64_t rebirth_stamp = 0;
    std::atomic<int> exit_state{kRunning};
    DriverStats stats;
    std::vector<std::pair<std::uint64_t, DistEvent>> log;

    Status Record(DistEvent e, std::uint64_t /*msg_clock*/) override {
      runner->Record(*this, std::move(e));
      return Status::Ok();
    }
    /// M_i: the mailbox's in-memory buffer, written through to the
    /// on-disk retention log (one write per payload) when durable_dir is
    /// set.
    Status Retain(const ActionSummary& payload) override {
      runner->mailbox_.Retain(id, payload);
      if (runner->retention_logs_.empty()) return Status::Ok();
      return runner->retention_logs_[id]->Append(payload);
    }
    /// Record and Retain take effect at once: nothing is buffered.
    Status Persist() override { return Status::Ok(); }
    std::uint64_t Clock() const override { return 0; }
  };

  /// Builds each node's core (obligations planned by one DFS of the
  /// universal tree) and its crash schedule.
  void Plan() {
    const NodeCore::Options core_options{
        .propagation = options_.propagation,
        .anti_entropy = options_.plan.LosesKnowledge(),
        .max_attempts_per_step = options_.max_attempts_per_step,
        .max_idle_spins = options_.max_idle_spins};
    for (NodeId i = 0; i < topo_.k(); ++i) {
      Worker& w = workers_[i];
      w.runner = this;
      w.id = i;
      w.crash_specs = faults::CrashesOf(options_.plan, i);
      w.core = std::make_unique<NodeCore>(alg_, i, &state_, &w, &w.stats,
                                          core_options);
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
  // Per-node thread.

  void RunNode(Worker& w, bool recover) {
    if (recover) Recover(w);
    const NodeId k = topo_.k();
    while (!failed_.load(std::memory_order_acquire)) {
      if (w.next_crash < w.crash_specs.size() &&
          static_cast<std::int64_t>(seq_.load(std::memory_order_acquire)) >=
              w.crash_specs[w.next_crash].at_stamp) {
        Crash(w);
        return;  // mid-loop thread termination; supervisor rebirths us
      }
      const NodeCore::PassResult r = w.core->Pass(transport_);
      if (!w.core->status().ok()) {
        Fail(w.core->status());
        break;
      }
      if (r.finished) done_nodes_.fetch_add(1, std::memory_order_acq_rel);
      if (r.retried) seq_.fetch_add(1, std::memory_order_acq_rel);  // tick
      if (done_nodes_.load(std::memory_order_acquire) == k) break;
      if (!r.progress) std::this_thread::yield();
    }
    w.exit_state.store(kFinished, std::memory_order_release);
  }

  /// Crash: wipe the volatile summary (the durable value map — the lock
  /// table for objects homed here — and the mailbox retention buffer M_i
  /// survive) and hand the thread back to the supervisor for rebirth.
  void Crash(Worker& w) {
    const faults::CrashSpec& spec = w.crash_specs[w.next_crash];
    ++w.next_crash;
    state_.nodes[w.id].summary = ActionSummary{};
    w.rebirth_stamp = spec.at_stamp + spec.down_for;
    ++w.stats.crashes;
    w.exit_state.store(kCrashed, std::memory_order_release);
  }

  /// Rebirth from the in-memory M_i (paper §9.1 — "all information ever
  /// sent toward i"), after auditing it against the on-disk log.
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
    w.core->Rebirth(m);  // a failure surfaces after the first Pass
  }

  /// Stamps one event. Recording off and no live sink: the stamp still
  /// ticks when the plan schedules crashes or partitions — they run on
  /// this clock, which must not freeze.
  void Record(Worker& w, DistEvent e) {
    if (options_.live_sink == nullptr) {
      if (options_.record_events) {
        w.log.emplace_back(seq_.fetch_add(1, std::memory_order_relaxed),
                           std::move(e));
      } else if (clocked_) {
        seq_.fetch_add(1, std::memory_order_relaxed);
      }
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

  void Fail(Status s) {
    bool expected = false;
    if (failed_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
      MutexLock lock(error_mu_);
      first_error_ = std::move(s);
    }
  }

  // ----------------------------------------------------------------

  StatusOr<ParallelRun> Assemble() {
    ParallelRun run;
    run.final_state = std::move(state_);
    std::size_t total = 0;
    for (Worker& w : workers_) {
      const MailboxTransport::LinkStats link = transport_.stats(w.id);
      w.stats.dropped_msgs += link.dropped;
      w.stats.duplicated_msgs += link.duplicated;
      run.stats += w.stats;
      run.stats.rounds = std::max(run.stats.rounds,
                                  static_cast<int>(std::min<std::uint64_t>(
                                      w.core->passes(), 0x7fffffff)));
      if (w.core->gave_up()) run.complete = false;
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
    if (!run.complete) run.stalls = DiagnoseStalls(alg_, run.final_state);
    return run;
  }

  const DistAlgebra& alg_;
  const dist::Topology& topo_;
  const ParallelOptions& options_;
  DistState state_;
  /// The logical clock: one tick per recorded event and watchdog retry.
  std::atomic<std::uint64_t> seq_{0};
  ConcurrentMailbox mailbox_;
  /// Every transmission goes through here, where the plan's message
  /// faults and partitions are applied (message_buffer.h).
  MailboxTransport transport_;
  /// The plan schedules on the logical clock, so it must tick.
  const bool clocked_;
  /// Per-node durable retention logs (empty without durable_dir); the
  /// slot for node i is appended to only by i's current thread.
  std::vector<std::unique_ptr<storage::RetentionLog>> retention_logs_;
  std::vector<Worker> workers_;
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

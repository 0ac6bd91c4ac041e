#include "sim/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <iterator>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "sim/message_buffer.h"
#include "sim/node_core.h"
#include "txn/online_checker.h"

namespace rnt::sim {

namespace {

using dist::ActionSummary;
using dist::DistAlgebra;
using dist::DistEvent;

/// The in-process host of one NodeCore per node (parallel_runner.h): the
/// state, clock, record, crash and rebirth both schedulers share, and
/// the two schedulers over them.
///
/// Under the thread scheduler, thread i exclusively owns state_.nodes[i]
/// and state_.buffer[i] (every node event touches only the doer's
/// component — Local Domain / Local Changes, Lemma 22 — and a Send is
/// applied on the receiving thread, when the message is drained), and
/// the only cross-thread channel is the mutex-free ConcurrentMailbox.
/// The merged log is a valid ℬ computation in stamp order even though no
/// thread checks a Send against the sender's component: summaries are
/// monotone, so a payload that was a sub-summary of the sender's
/// knowledge when it was enqueued stays one at every later point — and
/// the stamp counter is an RMW on one atomic, totally ordered
/// consistently with the mailbox's release/acquire edges.
class InProcessHost {
 public:
  InProcessHost(const DistAlgebra& alg, const ParallelOptions& options)
      : alg_(alg),
        options_(options),
        state_(alg.Initial()),
        mailbox_(alg.topology().k()),
        transport_(&mailbox_, alg.topology().k(), options.plan, &clock_),
        clocked_(!options.plan.crashes.empty() ||
                 !options.plan.partitions.empty()),
        nodes_(alg.topology().k()),
        lowering_(&alg.registry()),
        val_alg_(&alg.registry()) {
    if (options.check_invariants) shadow_ = val_alg_.Initial();
  }

  /// The deterministic scheduler: sweeps every node once, in node order,
  /// on the calling thread.
  StatusOr<ParallelRun> RunSweeps() {
    RNT_RETURN_IF_ERROR(Start());
    bool settled = false;  // as of the last sweep
    for (;;) {
      const std::int64_t before = Now();
      bool changed = false;  // a node crashed or was reborn
      for (Node& n : nodes_) {
        changed |= Step(n, settled);
        RNT_RETURN_IF_ERROR(n.core->status());
      }
      if (options_.check_invariants && (changed || Now() != before)) {
        RNT_RETURN_IF_ERROR(CheckInvariants());
      }
      settled = RestSettled();
      if (settled && !RebirthPending()) return Assemble();
    }
  }

  /// The thread scheduler: one thread per node; the calling thread joins
  /// crashed ones, rebirths them and stops the run.
  StatusOr<ParallelRun> RunThreads() {
    if (options_.check_invariants) {
      return Status::InvalidArgument(
          "RunParallel: check_invariants needs the sweep scheduler "
          "(ChaosRunProgram)");
    }
    RNT_RETURN_IF_ERROR(Start());
    // A node is down exactly while its slot holds no thread: a crashed
    // thread is joined before anything reads or rebirths its node.
    std::vector<std::thread> threads(nodes_.size());
    auto spawn = [&](Node& n) {
      threads[n.id] = std::thread([this, &n] { RunNode(n); });
    };
    for (Node& n : nodes_) spawn(n);
    while (!stop_.load(std::memory_order_acquire)) {
      for (Node& n : nodes_) {
        if (n.down.load(std::memory_order_acquire) != nullptr &&
            threads[n.id].joinable()) {
          threads[n.id].join();
        }
      }
      const bool settled = RestSettled();
      if (settled && !RebirthPending()) break;
      for (Node& n : nodes_) {
        if (threads[n.id].joinable() ||
            !n.down.load(std::memory_order_relaxed)->RebornAt(Now(),
                                                              settled)) {
          continue;
        }
        Rebirth(n);  // a failure surfaces after the thread's first pass
        spawn(n);
      }
      // Wall-clock poll interval: liveness only — never semantics. The
      // run's outcome is independent of how often the supervisor looks.
      std::this_thread::sleep_for(  // rnt-lint: allow(wall-clock-wait)
          std::chrono::microseconds(50));
    }
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
    {
      MutexLock lock(error_mu_);
      if (!first_error_.ok()) return first_error_;
    }
    // A crash that fired after the last look: every node that is up has
    // settled, so the crash rule rebirths it now.
    for (Node& n : nodes_) {
      const faults::CrashSpec* down = n.down.load(std::memory_order_relaxed);
      if (down == nullptr || !down->RebornAt(Now(), /*rest_settled=*/true)) {
        continue;
      }
      Rebirth(n);
      RNT_RETURN_IF_ERROR(n.core->status());
    }
    return Assemble();
  }

 private:
  struct Node final : NodeCore::Host {
    InProcessHost* host = nullptr;
    NodeId id = 0;
    /// The node loop (node_core.h); survives crashes, like the durable
    /// lock table it reads.
    std::unique_ptr<NodeCore> core;
    std::vector<faults::CrashSpec> crashes;  // by at_stamp
    std::size_t next_crash = 0;
    /// The crash the node is down from; null while it is up. Set by the
    /// node's own turn or thread, cleared by its rebirth.
    std::atomic<const faults::CrashSpec*> down{nullptr};
    /// The core is done or gave up (monotone).
    std::atomic<bool> settled{false};
    DriverStats stats;
    std::vector<std::pair<std::uint64_t, DistEvent>> log;

    Status Record(DistEvent e, std::uint64_t /*msg_clock*/) override {
      return host->Record(*this, std::move(e));
    }
    /// M_i: the mailbox's retention buffer.
    Status Retain(const ActionSummary& payload) override {
      host->mailbox_.Retain(id, payload);
      return Status::Ok();
    }
    /// Record and Retain take effect at once: nothing is buffered.
    Status Persist() override { return Status::Ok(); }
    std::uint64_t Clock() const override { return 0; }
  };

  /// Validates the inputs and builds each node's core (obligations
  /// planned by one DFS of the universal tree) and crash schedule.
  Status Start() {
    RNT_RETURN_IF_ERROR(ValidateHostInputs(alg_, options_.abort_set,
                                           options_.propagation,
                                           options_.plan));
    const NodeCore::Options core_options{
        .propagation = options_.propagation,
        .anti_entropy = options_.plan.LosesKnowledge(),
        .max_attempts_per_step = options_.max_attempts_per_step,
        .max_idle_spins = options_.max_idle_spins};
    for (NodeId i = 0; i < nodes_.size(); ++i) {
      Node& n = nodes_[i];
      n.host = this;
      n.id = i;
      n.crashes = faults::CrashesOf(options_.plan, i);
      n.core = std::make_unique<NodeCore>(alg_, i, &state_, &n, &n.stats,
                                          core_options);
      n.core->Plan(options_.abort_set);
    }
    return Status::Ok();
  }

  std::int64_t Now() const {
    return static_cast<std::int64_t>(clock_.load(std::memory_order_acquire));
  }

  /// Crashes `n` once its next trigger is reached: the volatile summary
  /// is wiped (the value map and M_i survive). True iff it crashed.
  bool MaybeCrash(Node& n) {
    if (n.next_crash == n.crashes.size() ||
        Now() < n.crashes[n.next_crash].at_stamp) {
      return false;
    }
    state_.nodes[n.id].summary = ActionSummary{};
    ++n.stats.crashes;
    n.down.store(&n.crashes[n.next_crash++], std::memory_order_release);
    return true;
  }

  /// Paper §9.1: one legal Receive of M_i, then the cursor rebuild. A
  /// failure is latched in the core.
  void Rebirth(Node& n) {
    n.down.store(nullptr, std::memory_order_relaxed);
    n.core->Rebirth(mailbox_.Retained(n.id));
  }

  /// One pass of `n`'s core. True iff it made progress.
  bool Pass(Node& n) {
    const NodeCore::PassResult r = n.core->Pass(transport_);
    if (r.finished) n.settled.store(true, std::memory_order_release);
    if (r.retried) clock_.fetch_add(1, std::memory_order_acq_rel);  // tick
    return r.progress;
  }

  /// Every node that is up is done or has given up.
  bool RestSettled() const {
    return std::all_of(nodes_.begin(), nodes_.end(), [](const Node& n) {
      return n.down.load(std::memory_order_acquire) != nullptr ||
             n.settled.load(std::memory_order_acquire);
    });
  }

  /// Some node is down from a crash it will be reborn from.
  bool RebirthPending() const {
    return std::any_of(nodes_.begin(), nodes_.end(), [](const Node& n) {
      const faults::CrashSpec* down = n.down.load(std::memory_order_acquire);
      return down != nullptr &&
             down->down_for != faults::CrashSpec::kNeverReborn;
    });
  }

  /// One node's turn in a sweep: rebirth by the crash rule, crash once
  /// its next trigger is reached (skipping the pass), else one pass.
  /// True iff the node crashed or was reborn.
  bool Step(Node& n, bool settled) {
    bool changed = false;
    const faults::CrashSpec* down = n.down.load(std::memory_order_relaxed);
    if (down != nullptr) {
      if (!down->RebornAt(Now(), settled)) return false;
      Rebirth(n);
      changed = true;
    }
    if (MaybeCrash(n)) return true;
    Pass(n);
    return changed;
  }

  /// A node thread: passes until the node crashes, or the run ends or
  /// stops.
  void RunNode(Node& n) {
    while (!stop_.load(std::memory_order_acquire)) {
      if (MaybeCrash(n)) return;  // mid-loop thread death
      const bool progress = Pass(n);
      if (!n.core->status().ok()) {
        Fail(n.core->status());
        return;
      }
      if (progress) continue;
      if (n.settled.load(std::memory_order_relaxed) && RestSettled() &&
          !RebirthPending()) {
        return;
      }
      std::this_thread::yield();
    }
  }

  void Fail(Status s) {
    MutexLock lock(error_mu_);
    if (first_error_.ok()) first_error_ = std::move(s);
    stop_.store(true, std::memory_order_release);
  }

  /// Stamps one event. Recording off and nothing watching: the stamp
  /// still ticks when the plan schedules crashes or partitions — they
  /// run on this clock, which must not freeze.
  Status Record(Node& n, DistEvent e) {
    if (options_.live_sink == nullptr && !options_.check_invariants) {
      if (options_.record_events) {
        n.log.emplace_back(clock_.fetch_add(1, std::memory_order_relaxed),
                           std::move(e));
      } else if (clocked_) {
        clock_.fetch_add(1, std::memory_order_relaxed);
      }
      return Status::Ok();
    }
    // The stamp, the level-4 image and the sink Append form one critical
    // section, so the live stream's order is exactly the stamp order a
    // post-hoc replay of the merged log walks.
    MutexLock lock(live_mu_);
    const std::uint64_t stamp = clock_.fetch_add(1, std::memory_order_relaxed);
    if (std::optional<algebra::LockEvent> image = dist::DistToValueEvent(e)) {
      if (shadow_.has_value()) {
        if (!val_alg_.Defined(*shadow_, *image)) {
          return Status::Internal(
              "refinement violated: no level-4 image for " +
              dist::ToString(e));
        }
        val_alg_.Apply(*shadow_, *image);
      }
      if (options_.live_sink != nullptr) {
        if (auto tree_ev = algebra::LockToTreeEvent(*image)) {
          if (auto trace_ev = lowering_.Lower(*tree_ev)) {
            options_.live_sink->Append(*trace_ev);
          }
        }
      }
    }
    if (options_.record_events) n.log.emplace_back(stamp, std::move(e));
    return Status::Ok();
  }

  Status CheckInvariants() {
    std::set<NodeId> down;
    for (const Node& n : nodes_) {
      if (n.down.load(std::memory_order_relaxed) != nullptr) down.insert(n.id);
    }
    MutexLock lock(live_mu_);
    return dist::CheckLocalConsistency(alg_, state_, *shadow_, &down);
  }

  ParallelRun Assemble() {
    ParallelRun run;
    std::size_t total = 0;
    for (Node& n : nodes_) {
      const MailboxTransport::LinkStats link = transport_.stats(n.id);
      n.stats.dropped_msgs += link.dropped;
      n.stats.duplicated_msgs += link.duplicated;
      run.stats += n.stats;
      run.stats.rounds = std::max(
          run.stats.rounds,
          static_cast<int>(std::min<std::uint64_t>(n.core->passes(), INT_MAX)));
      if (n.down.load(std::memory_order_relaxed) != nullptr ||
          !n.core->Done() || n.core->gave_up()) {
        run.complete = false;
      }
      total += n.log.size();
    }
    std::vector<std::pair<std::uint64_t, DistEvent>> merged;
    merged.reserve(total);
    for (Node& n : nodes_) {
      std::move(n.log.begin(), n.log.end(), std::back_inserter(merged));
    }
    std::sort(merged.begin(), merged.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    run.events.reserve(merged.size());
    for (auto& [stamp, e] : merged) run.events.push_back(std::move(e));
    run.final_state = std::move(state_);
    if (!run.complete) run.stalls = DiagnoseStalls(alg_, run.final_state);
    return run;
  }

  const DistAlgebra& alg_;
  const ParallelOptions& options_;
  dist::DistState state_;
  /// The logical clock: one tick per recorded event and watchdog retry.
  std::atomic<std::uint64_t> clock_{0};
  ConcurrentMailbox mailbox_;
  /// Every transmission goes through here, where the plan's message
  /// faults and partitions are applied (message_buffer.h).
  MailboxTransport transport_;
  /// The plan schedules on the logical clock, so it must tick.
  const bool clocked_;
  std::vector<Node> nodes_;
  /// Thread scheduler: set to end the run (by the supervisor, or by the
  /// first failure).
  std::atomic<bool> stop_{false};
  Mutex error_mu_{"runner.error", kRankRunnerError};
  /// The first failure wins; read back after every thread is joined.
  Status first_error_ GUARDED_BY(error_mu_) = Status::Ok();
  /// Serializes the watched path of Record (see ParallelOptions::
  /// live_sink and check_invariants).
  Mutex live_mu_{"runner.live", kRankRunnerLive};
  txn::TreeEventLowering lowering_ GUARDED_BY(live_mu_);
  valuemap::ValueMapAlgebra val_alg_;
  /// The level-4 shadow, kept when check_invariants is set.
  std::optional<valuemap::ValState> shadow_ GUARDED_BY(live_mu_);
};

}  // namespace

txn::FaultStats ToFaultStats(const DriverStats& stats) {
  txn::FaultStats f;
  f.retries = stats.retries;
  f.crashes = stats.crashes;
  f.dropped_msgs = stats.dropped_msgs;
  f.duplicated_msgs = stats.duplicated_msgs;
  f.delayed_msgs = stats.delayed_msgs;
  f.recovered_nodes = stats.recovered_nodes;
  f.timeout_aborts = stats.timeout_aborts;
  return f;
}

StatusOr<ParallelRun> ChaosRunProgram(const DistAlgebra& alg,
                                      const ParallelOptions& options) {
  InProcessHost host(alg, options);
  return host.RunSweeps();
}

StatusOr<ParallelRun> RunParallel(const DistAlgebra& alg,
                                  const ParallelOptions& options) {
  InProcessHost host(alg, options);
  return host.RunThreads();
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

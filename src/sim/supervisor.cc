#include "sim/supervisor.h"

#include <algorithm>
#include <climits>
#include <csignal>
#include <cstring>
#include <ctime>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sim/diagnosis.h"
#include "sim/event_log.h"
#include "sim/phases.h"
#include "sim/process_chaos.h"
#include "sim/wire.h"

namespace rnt::sim {

namespace {

using dist::DistEvent;

void PauseMs(int ms) { (void)::poll(nullptr, 0, ms); }

/// Monotonic milliseconds for the wall deadline (liveness only;
/// outcomes are replay-certified from the durable traces).
std::int64_t NowMs() {
  timespec ts{};
  (void)::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

/// Whole-run wall deadline. Generous: CI machines are slow, and a
/// healthy chaos run ends by progress, not by clock.
constexpr std::int64_t kDeadlineMs = 180000;

struct Child {
  pid_t pid = -1;
  std::uint32_t incarnation = 0;
  bool alive = false;
  std::vector<faults::CrashSpec> specs;  // sorted by trigger stamp
  std::size_t next_spec = 0;
  /// The kill the node is down from, awaiting rebirth; null otherwise.
  const faults::CrashSpec* down = nullptr;
  std::uint64_t max_acked = 0;
};

StatusOr<pid_t> SpawnNode(const SupervisorOptions& options, NodeId node,
                          std::uint32_t incarnation, bool recover,
                          const std::string& endpoint) {
  std::vector<std::string> args;
  args.push_back(options.node_binary);
  args.push_back("--spec=" + options.spec.Serialize());
  args.push_back("--node=" + std::to_string(node));
  args.push_back("--dir=" + options.dir);
  args.push_back("--endpoint=" + endpoint);
  args.push_back("--incarnation=" + std::to_string(incarnation));
  args.push_back(std::string("--propagation=") +
                 (options.propagation == Propagation::kEager ? "eager"
                                                             : "delta"));
  if (recover) args.push_back("--recover");
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return Status::Internal("supervisor: fork failed");
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    ::_exit(127);  // exec failed; the parent sees the 127 below
  }
  return pid;
}

std::string DescribeNodes(const std::vector<SocketHub::NodeStatus>& snap,
                          const std::vector<Child>& children) {
  std::string out;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    out += "node " + std::to_string(i) + ": pid=" +
           std::to_string(children[i].pid) +
           " inc=" + std::to_string(children[i].incarnation) +
           (snap[i].connected ? " connected" : " disconnected") +
           (snap[i].done ? " done" : " pending") +
           (snap[i].gave_up ? " gave-up" : "") +
           " clock=" + std::to_string(snap[i].clock) +
           " acked=" + std::to_string(snap[i].acked_scalar) + "; ";
  }
  return out;
}

/// The node whose component `e` changes: nodes[i] for i's node events
/// and Receives, buffer[i] for a Send toward i.
NodeId ComponentOf(const dist::DistAlgebra& alg, const DistEvent& e) {
  if (const auto* snd = std::get_if<dist::Send>(&e)) return snd->to;
  if (const auto* rcv = std::get_if<dist::Receive>(&e)) return rcv->to;
  return alg.Doer(e);
}

/// The checks every record of node `node`'s trace must pass before it is
/// replayed: its stamp strictly follows the node's previous one (the
/// node's Lamport clock, across incarnations), and it changes only the
/// node's own components.
Status CheckRecord(const dist::DistAlgebra& alg, NodeId node,
                   std::uint64_t* last_stamp, const StampedEvent& se) {
  if (se.stamp <= *last_stamp) {
    return Status::DataLoss("node " + std::to_string(node) +
                            " trace: stamp " + std::to_string(se.stamp) +
                            " does not follow " + std::to_string(*last_stamp));
  }
  *last_stamp = se.stamp;
  if (ComponentOf(alg, se.event) != node) {
    return Status::DataLoss("node " + std::to_string(node) +
                            " trace holds another node's event: " +
                            dist::ToString(se.event));
  }
  return Status::Ok();
}

/// Adds one merged event to the event-derived run counters.
void Tally(const DistEvent& e, DriverStats* stats) {
  if (const auto* snd = std::get_if<dist::Send>(&e)) {
    if (snd->from != snd->to) {
      ++stats->messages;
      stats->summary_entries += snd->summary.size();
    }
    return;
  }
  if (std::holds_alternative<dist::Receive>(e)) return;
  ++stats->node_events;
  if (std::holds_alternative<dist::NodePerform>(e)) ++stats->performs;
  if (std::holds_alternative<dist::NodeCommit>(e)) ++stats->commits;
  if (std::holds_alternative<dist::NodeAbort>(e)) ++stats->aborts;
  if (std::holds_alternative<dist::NodeReleaseLock>(e)) ++stats->releases;
  if (std::holds_alternative<dist::NodeLoseLock>(e)) ++stats->loses;
}

/// The fleet's ground truth, built while the nodes run. One Step reads
/// what each node's current trace file gained (TraceReader: whole,
/// checked records only), replays every record into run->final_state as
/// it is read — a node's trace changes only its own components, so this
/// is the merged log's per-component Apply order — and queues it. It
/// then emits into run->events, in (stamp, node) order, every queued
/// event whose stamp is at most the watermark: the least over nodes of
/// the last stamp read. A node's later records carry larger stamps than
/// its last one, so nothing at or below the watermark can still arrive,
/// and the emitted prefix is exactly MergeNodeTraces's order.
class TraceStream {
 public:
  TraceStream(const std::string& dir, NodeId k, const dist::DistAlgebra& alg,
              MultiProcessRun* run)
      : dir_(dir), alg_(alg), run_(run), nodes_(k) {
    run_->final_state = alg_.Initial();
    for (NodeId i = 0; i < k; ++i) Open(i);
  }

  /// One tail step over every node. True iff some file had new bytes.
  StatusOr<bool> Step() {
    bool read = false;
    for (NodeId i = 0; i < nodes_.size(); ++i) {
      Node& n = nodes_[i];
      const std::size_t from = n.queue.size();
      RNT_ASSIGN_OR_RETURN(const std::size_t bytes, n.reader->Poll(n.queue));
      read = read || bytes > 0;
      RNT_RETURN_IF_ERROR(Replay(i, from));
    }
    Emit(Watermark());
    return read;
  }

  /// Node `node`'s current incarnation is dead and reaped: finishes its
  /// file under the torn-tail policy and moves on to the next one. An
  /// incarnation killed before it opened its trace left no file.
  Status EndIncarnation(NodeId node) {
    RNT_RETURN_IF_ERROR(Finish(node));
    ++nodes_[node].incarnation;
    Open(node);
    return Status::Ok();
  }

  /// Every node has exited: finishes each file (timed as load_replay_s)
  /// and flushes the queues (merge_s).
  Status Drain() {
    const double start_s = MonotonicSeconds();
    for (NodeId i = 0; i < nodes_.size(); ++i) {
      RNT_RETURN_IF_ERROR(Finish(i));
    }
    const double merge_start_s = MonotonicSeconds();
    run_->phases.load_replay_s = merge_start_s - start_s;
    Emit(std::numeric_limits<std::uint64_t>::max());
    run_->phases.merge_s = MonotonicSeconds() - merge_start_s;
    return Status::Ok();
  }

 private:
  struct Node {
    std::uint32_t incarnation = 0;
    std::unique_ptr<TraceReader> reader;
    std::uint64_t last_stamp = 0;
    /// Read and replayed, not yet emitted: queue[head..].
    std::vector<StampedEvent> queue;
    std::size_t head = 0;
  };

  void Open(NodeId node) {
    nodes_[node].reader = std::make_unique<TraceReader>(
        dir_ + "/" + EventLog::FileName(node, nodes_[node].incarnation));
  }

  Status Finish(NodeId node) {
    Node& n = nodes_[node];
    const std::size_t from = n.queue.size();
    const Status s = n.reader->Finish(n.queue);
    if (!s.ok() && s.code() != StatusCode::kNotFound) return s;
    return Replay(node, from);
  }

  /// Checks and applies queue[from..] of node `node`.
  Status Replay(NodeId node, std::size_t from) {
    Node& n = nodes_[node];
    for (std::size_t j = from; j < n.queue.size(); ++j) {
      RNT_RETURN_IF_ERROR(CheckRecord(alg_, node, &n.last_stamp, n.queue[j]));
      alg_.Apply(run_->final_state, n.queue[j].event);
    }
    return Status::Ok();
  }

  std::uint64_t Watermark() const {
    std::uint64_t w = std::numeric_limits<std::uint64_t>::max();
    for (const Node& n : nodes_) w = std::min(w, n.last_stamp);
    return w;
  }

  /// Moves every queued event with stamp <= `watermark` into
  /// run->events by (stamp, node), each event moved once.
  void Emit(std::uint64_t watermark) {
    const NodeId k = static_cast<NodeId>(nodes_.size());
    for (;;) {
      NodeId from = k;
      std::uint64_t best = watermark;
      for (NodeId i = 0; i < k; ++i) {
        const Node& n = nodes_[i];
        if (n.head == n.queue.size()) continue;
        const std::uint64_t stamp = n.queue[n.head].stamp;
        if (stamp < best || (stamp == best && from == k)) {
          from = i;
          best = stamp;
        }
      }
      if (from == k) break;
      DistEvent& e = nodes_[from].queue[nodes_[from].head++].event;
      Tally(e, &run_->stats);
      run_->events.push_back(std::move(e));
    }
    for (Node& n : nodes_) {
      if (n.head == n.queue.size()) {
        n.queue.clear();
        n.head = 0;
      } else if (n.head >= n.queue.size() / 2) {
        n.queue.erase(n.queue.begin(),
                      n.queue.begin() + static_cast<std::ptrdiff_t>(n.head));
        n.head = 0;
      }
    }
  }

  const std::string dir_;
  const dist::DistAlgebra& alg_;
  MultiProcessRun* const run_;
  std::vector<Node> nodes_;
};

}  // namespace

Status MergeNodeTraces(const std::string& dir, NodeId k,
                       const dist::DistAlgebra& alg, MultiProcessRun* run) {
  const double start_s = MonotonicSeconds();
  // Load + replay, node by node: a node's trace changes only its own
  // components, so this is the merged log's per-component Apply order.
  run->final_state = alg.Initial();
  std::vector<std::vector<StampedEvent>> traces(k);
  std::size_t total = 0;
  for (NodeId i = 0; i < k; ++i) {
    auto trace = EventLog::LoadNode(dir, i);
    RNT_RETURN_IF_ERROR(trace.status());
    traces[i] = std::move(*trace);
    std::uint64_t last_stamp = 0;
    for (const StampedEvent& se : traces[i]) {
      RNT_RETURN_IF_ERROR(CheckRecord(alg, i, &last_stamp, se));
      alg.Apply(run->final_state, se.event);
    }
    total += traces[i].size();
  }
  const double merge_start_s = MonotonicSeconds();
  run->phases.load_replay_s = merge_start_s - start_s;

  // k-way merge by (stamp, node): receiver stamps strictly follow the
  // sender's transmit clock, so this order is a legal ℬ computation
  // (certified post-hoc by the callers).
  run->events.clear();
  run->events.reserve(total);
  std::vector<std::size_t> next(k, 0);
  for (;;) {
    NodeId from = k;
    for (NodeId i = 0; i < k; ++i) {
      if (next[i] == traces[i].size()) continue;
      if (from == k ||
          traces[i][next[i]].stamp < traces[from][next[from]].stamp) {
        from = i;
      }
    }
    if (from == k) break;
    DistEvent& e = traces[from][next[from]++].event;
    Tally(e, &run->stats);
    run->events.push_back(std::move(e));
  }
  run->phases.merge_s = MonotonicSeconds() - merge_start_s;
  return Status::Ok();
}

StatusOr<MultiProcessRun> RunMultiProcess(const SupervisorOptions& options) {
  const NodeId k = options.spec.k;
  RNT_RETURN_IF_ERROR(faults::ValidatePlan(options.plan, k));

  const double spawn_start_s = MonotonicSeconds();
#if defined(__GLIBC__)
  // fork copies the supervisor's page tables, so each node's resident
  // set starts from the supervisor's: hand the heap earlier work freed
  // (a previous run's replayed state, say) back to the OS first.
  (void)::malloc_trim(0);
#endif

  SocketHub::Options hub_options;
  hub_options.backend = options.backend;
  hub_options.dir = options.dir;
  hub_options.k = k;
  hub_options.plan = options.plan;
  auto hub_or = SocketHub::Start(hub_options);
  RNT_RETURN_IF_ERROR(hub_or.status());
  SocketHub& hub = **hub_or;

  std::vector<Child> children(k);
  for (NodeId i = 0; i < k; ++i) {
    children[i].specs = faults::CrashesOf(options.plan, i);
  }
  // On any early return, make sure no child outlives the harness.
  auto kill_all = [&] {
    for (Child& ch : children) {
      if (ch.alive && ch.pid > 0) {
        (void)::kill(ch.pid, SIGKILL);
        // Cleanup path of an already-failing run: the first error
        // wins, a reap timeout here could only mask it.
        (void)ReapWithDeadline(  // rnt-lint: allow(status-must-use)
            ch.pid, 10000, "node (cleanup)");
        ch.alive = false;
      }
    }
  };

  for (NodeId i = 0; i < k; ++i) {
    auto pid = SpawnNode(options, i, 0, /*recover=*/false, hub.endpoint());
    if (!pid.ok()) {
      kill_all();
      return pid.status();
    }
    children[i].pid = *pid;
    children[i].alive = true;
  }

  // The replay's algebra is built while the nodes start up.
  const action::ActionRegistry reg = options.spec.BuildRegistry();
  const dist::Topology topo = dist::Topology::RoundRobin(&reg, k);
  const dist::DistAlgebra alg(&topo);
  MultiProcessRun run;
  TraceStream stream(options.dir, k, alg, &run);

  const double run_start_s = MonotonicSeconds();
  run.phases.spawn_s = run_start_s - spawn_start_s;
  run.acked_at_kill.assign(k, 0);
  run.recovered_scalar.assign(k, 0);

  const std::int64_t start_ms = NowMs();
  std::uint64_t last_clock = 0;
  std::int64_t clock_moved_ms = start_ms;
  // 0.5s of hub-clock silence = quiescence: every live node is stalled
  // (or done), so waiting longer for a trigger/rebirth stamp cannot help
  // — the clock only advances with node events and watchdog ticks.
  constexpr std::int64_t kQuiescentMs = 500;
  bool shutdown = false;

  while (!shutdown) {
    if (NowMs() - start_ms > kDeadlineMs) {
      const std::string diag = DescribeNodes(hub.Snapshot(), children);
      kill_all();
      return Status::Timeout("multi-process run exceeded " +
                             std::to_string(kDeadlineMs) +
                             "ms; " + diag);
    }
    const auto snap = hub.Snapshot();
    std::uint64_t observed = 0;
    for (NodeId i = 0; i < k; ++i) {
      observed = std::max(observed, snap[i].clock);
      children[i].max_acked =
          std::max(children[i].max_acked, snap[i].acked_scalar);
      run.recovered_scalar[i] =
          std::max(run.recovered_scalar[i], snap[i].recovered_scalar);
    }
    const std::int64_t now_ms = NowMs();
    if (observed != last_clock) clock_moved_ms = now_ms;
    last_clock = observed;
    const bool quiesced = now_ms - clock_moved_ms >= kQuiescentMs;

    // Unexpected deaths: any child exiting before kAllDone is a failure
    // (nodes only exit on their own after the broadcast or a terminal
    // give-up; both happen after `shutdown`).
    for (NodeId i = 0; i < k; ++i) {
      Child& ch = children[i];
      if (!ch.alive) continue;
      int wstatus = 0;
      const pid_t r = ::waitpid(ch.pid, &wstatus, WNOHANG);
      if (r != ch.pid) continue;
      ch.alive = false;
      kill_all();
      std::string how =
          WIFSIGNALED(wstatus)
              ? "signal " + std::to_string(WTERMSIG(wstatus))
              : "exit code " + std::to_string(WEXITSTATUS(wstatus));
      return Status::Internal("node " + std::to_string(i) + " (pid " +
                              std::to_string(r) + ", incarnation " +
                              std::to_string(ch.incarnation) +
                              ") died unexpectedly: " + how);
    }

    // Deliver scheduled kills. Trigger = hub clock; quiescence fires
    // pending kills early — the schedule is an upper bound on patience,
    // so a short run still absorbs its full kill budget.
    bool acted = false;
    for (NodeId i = 0; i < k; ++i) {
      Child& ch = children[i];
      if (!ch.alive || ch.next_spec >= ch.specs.size()) continue;
      const faults::CrashSpec& spec = ch.specs[ch.next_spec];
      if (static_cast<std::int64_t>(observed) < spec.at_stamp &&
          !quiesced) {
        continue;
      }
      run.acked_at_kill[i] = std::max(run.acked_at_kill[i], ch.max_acked);
      hub.ResetNode(i);  // no routing to a corpse
      (void)::kill(ch.pid, SIGKILL);
      auto reaped =
          ReapWithDeadline(ch.pid, 15000, "node " + std::to_string(i));
      if (!reaped.ok()) {
        kill_all();
        return reaped.status();
      }
      hub.ClearNodeProgress(i);  // the reborn incarnation re-earns done
      const Status ended = stream.EndIncarnation(i);
      if (!ended.ok()) {
        kill_all();
        return ended;
      }
      ch.alive = false;
      ch.down = &spec;
      ++ch.next_spec;
      ++run.kills;
      acted = true;
    }

    // Rebirths, by the crash rule (quiescence standing in for every live
    // node settled).
    for (NodeId i = 0; i < k; ++i) {
      Child& ch = children[i];
      if (ch.down == nullptr ||
          !ch.down->RebornAt(static_cast<std::int64_t>(observed), quiesced)) {
        continue;
      }
      auto pid = SpawnNode(options, i, ch.incarnation + 1, /*recover=*/true,
                           hub.endpoint());
      if (!pid.ok()) {
        kill_all();
        return pid.status();
      }
      ch.pid = *pid;
      ++ch.incarnation;
      ch.alive = true;
      ch.down = nullptr;
      acted = true;
    }
    if (acted) {
      clock_moved_ms = NowMs();
      continue;
    }

    // Completion: every scheduled kill has been delivered, and every
    // node reports done (or gave up) or is down for good.
    bool all_done = true;
    for (NodeId i = 0; i < k; ++i) {
      const Child& ch = children[i];
      const bool gone =
          ch.down != nullptr &&
          ch.down->down_for == faults::CrashSpec::kNeverReborn;
      if (ch.next_spec < ch.specs.size() ||
          !(gone || (ch.alive && snap[i].done))) {
        all_done = false;
        break;
      }
    }
    if (all_done) {
      hub.BroadcastAllDone();
      shutdown = true;
      break;
    }
    // Tail step: the nodes' new trace records are read and replayed
    // now, while the nodes run; the loop pauses only when none came.
    const double tail_start_s = MonotonicSeconds();
    auto read = stream.Step();
    run.phases.replay_in_run_s += MonotonicSeconds() - tail_start_s;
    if (!read.ok()) {
      kill_all();
      return read.status();
    }
    if (!*read) PauseMs(2);
  }

  const double drain_start_s = MonotonicSeconds();
  run.phases.run_s = drain_start_s - run_start_s;

  // Graceful drain: children exit 0 after acting on kAllDone.
  for (NodeId i = 0; i < k; ++i) {
    Child& ch = children[i];
    if (!ch.alive) continue;
    auto reaped = ReapWithDeadline(ch.pid, 30000,
                                   "node " + std::to_string(i) + " (drain)");
    if (!reaped.ok()) {
      kill_all();
      return reaped.status();
    }
    ch.alive = false;
    if (!WIFEXITED(*reaped) || WEXITSTATUS(*reaped) != 0) {
      std::string how =
          WIFSIGNALED(*reaped)
              ? "signal " + std::to_string(WTERMSIG(*reaped))
              : "exit code " + std::to_string(WEXITSTATUS(*reaped));
      kill_all();
      return Status::Internal("node " + std::to_string(i) +
                              " failed during drain: " + how);
    }
  }
  const auto final_snap = hub.Snapshot();
  for (NodeId i = 0; i < k; ++i) {
    run.recovered_scalar[i] =
        std::max(run.recovered_scalar[i], final_snap[i].recovered_scalar);
    if (final_snap[i].gave_up || children[i].down != nullptr) {
      run.complete = false;
    }
    run.phases.nodes.push_back(final_snap[i].phases);
    run.stats.rounds = std::max(
        run.stats.rounds,
        static_cast<int>(std::min<std::uint64_t>(final_snap[i].phases.passes,
                                                 INT_MAX)));
  }
  run.hub = hub.Stats();
  hub.Stop();
  run.phases.drain_s = MonotonicSeconds() - drain_start_s;

  // Durability invariant: a rebirth must recover at least everything the
  // dead incarnation had durably acknowledged. Both scalars are monotone
  // (retention only grows; compaction is dedupe-only), so max-vs-max per
  // node is the per-kill obligation's strongest surviving form.
  for (NodeId i = 0; i < k; ++i) {
    if (children[i].incarnation == 0) continue;  // never killed
    if (run.recovered_scalar[i] < run.acked_at_kill[i]) {
      return Status::Internal(
          "node " + std::to_string(i) + " recovered scalar " +
          std::to_string(run.recovered_scalar[i]) +
          " < durably acked " + std::to_string(run.acked_at_kill[i]) +
          " at kill time (retention write-through broken)");
    }
  }

  run.stats.crashes = static_cast<std::uint64_t>(run.kills);
  run.stats.dropped_msgs = run.hub.dropped + run.hub.partitioned;
  run.stats.duplicated_msgs = run.hub.duplicated;
  run.stats.delayed_msgs = run.hub.delayed;
  for (NodeId i = 0; i < k; ++i) {
    run.stats.recovered_nodes +=
        final_snap[i].ever_recovered ? children[i].incarnation : 0;
    run.stats.retries += final_snap[i].retries;
    run.stats.timeout_aborts += final_snap[i].timeout_aborts;
  }

  // Ground truth: the final state is a mechanical replay of the durable
  // traces, not anything a process claimed over the wire.
  RNT_RETURN_IF_ERROR(stream.Drain());
  if (!run.complete) run.stalls = DiagnoseStalls(alg, run.final_state);
  return run;
}

}  // namespace rnt::sim

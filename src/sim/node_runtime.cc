#include "sim/node_runtime.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "action/registry.h"
#include "dist/dist_algebra.h"
#include "dist/summary.h"
#include "dist/topology.h"
#include "sim/event_log.h"
#include "sim/node_core.h"
#include "sim/socket_transport.h"
#include "sim/wire.h"
#include "storage/retention_log.h"

namespace rnt::sim {

namespace {

using dist::ActionSummary;
using dist::DistAlgebra;
using dist::DistEvent;
using dist::DistState;

/// One ℬ node running as a whole OS process. This is the in-process
/// ParallelRunner's per-node loop (parallel_runner.cc) transplanted
/// behind a Transport, with three substitutions:
///
///  * the shared atomic stamp counter becomes a per-node Lamport clock
///    (each recorded event stamps ++clock; a delivery first raises the
///    clock to the sender's transmit clock, so receiver stamps strictly
///    follow the transmission and the post-hoc merge by (stamp, node)
///    is a legal ℬ order);
///  * the in-memory event log becomes a durable per-incarnation trace
///    file, appended *before* the retention append of the same fact —
///    so a kill -9 at any instruction leaves retention ⊆ trace, and the
///    rebirth Receive of the retention log is legal against the buffer
///    mirror a mechanical trace replay rebuilds;
///  * fault injection moves entirely to the hub's link interposer (the
///    process cannot be trusted to drop its own frames once kill -9 is
///    real) — the node only *reacts*: held delayed messages, reconnects,
///    anti-entropy rebroadcasts, give-up.
class NodeRuntime final : NodeCore::Host {
 public:
  explicit NodeRuntime(const NodeRuntimeOptions& options)
      : options_(options),
        reg_(options.spec.BuildRegistry()),
        topo_(dist::Topology::RoundRobin(&reg_, options.spec.k)),
        alg_(&topo_),
        state_(alg_.Initial()),
        core_(alg_, options.node, &state_, this, &stats_) {}

  Status Run() {
    RNT_RETURN_IF_ERROR(Plan());
    RNT_RETURN_IF_ERROR(OpenDurable());
    if (options_.recover) RNT_RETURN_IF_ERROR(Recover());
    RNT_RETURN_IF_ERROR(Connect());
    return Loop();
  }

 private:
  /// The node's obligations (node_core.h). No static abort set here:
  /// aborts come only from the timeout watchdog.
  Status Plan() {
    if (options_.node >= topo_.k()) {
      return Status::InvalidArgument("node id out of range");
    }
    core_.Plan({});
    next_retry_idle_ =
        static_cast<std::uint64_t>(std::max(1, options_.stall_retry_spins));
    return Status::Ok();
  }

  Status OpenDurable() {
    // Retention first: Open repairs a torn tail in place, so the Load
    // below (and every later rebirth) reads a clean prefix.
    auto log = storage::RetentionLog::Open(options_.dir, options_.node);
    RNT_RETURN_IF_ERROR(log.status());
    retention_ = std::move(*log);
    auto loaded = storage::RetentionLog::Load(options_.dir, options_.node);
    if (loaded.ok()) {
      retained_ = std::move(*loaded);
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
    return Status::Ok();
  }

  /// Rebirth (paper §9.1). Two durable sources, two roles:
  ///
  ///  1. Mechanical replay of this node's own trace files rebuilds the
  ///     node component exactly as the crashed incarnations left it —
  ///     summary, lock table, buffer mirror M_i. These events are
  ///     *already recorded*; they are applied, not re-recorded.
  ///  2. One Receive of the retention log's summary is recorded as the
  ///     first event of the new incarnation — the paper's single legal
  ///     Receive that re-establishes knowledge a crash between apply
  ///     and trace-append may have cost the summary.
  ///
  /// Legality of (2) is structural: every retained fact was traced as a
  /// Send (self-WAL or delivery) *before* its retention append, so the
  /// replayed buffer mirror contains the whole retention summary.
  Status Recover() {
    for (std::uint32_t g = 0; g < options_.incarnation; ++g) {
      auto events = EventLog::Load(options_.dir, options_.node, g);
      if (!events.ok()) {
        if (events.status().code() == StatusCode::kNotFound) {
          continue;  // killed before this incarnation traced anything
        }
        return events.status();
      }
      for (StampedEvent& se : *events) {
        clock_ = std::max(clock_, se.stamp);
        alg_.Apply(state_, std::move(se.event));
      }
    }
    return Status::Ok();
  }

  Status Connect() {
    auto trace =
        EventLog::Open(options_.dir, options_.node, options_.incarnation);
    RNT_RETURN_IF_ERROR(trace.status());
    trace_ = std::move(*trace);
    if (options_.recover) {
      if (!retained_.empty()) {
        DistEvent recv{dist::Receive{options_.node, retained_}};
        if (!alg_.Defined(state_, recv)) {
          return Status::Internal(
              "rnt_node: rebirth replay is not a legal Receive (trace-"
              "before-retention discipline broken)");
        }
        alg_.Apply(state_, recv);
        if (!Record(std::move(recv))) return err_;
      }
      core_.Recover();
    }
    HelloFrame hello;
    hello.node = options_.node;
    hello.incarnation = options_.incarnation;
    hello.recovered = options_.recover;
    hello.recovered_scalar = SummaryScalar(retained_);
    hello.clock = clock_;
    auto transport = SocketTransport::Connect(
        SocketTransport::Options{options_.node, options_.incarnation,
                                 options_.endpoint},
        hello);
    RNT_RETURN_IF_ERROR(transport.status());
    transport_ = std::move(*transport);
    return Status::Ok();
  }

  // ----------------------------------------------------------------
  // Event loop.

  Status Loop() {
    for (;;) {
      ++passes_;
      bool progress = false;
      progress |= DeliverMail();
      progress |= core_.Work();
      if (!err_.ok()) return err_;
      if (!marked_done_ && core_.Done()) {
        marked_done_ = true;
        progress = true;
        // Liveness-only signal: a lost heartbeat is re-sent next pass.
        (void)transport_->SendHeartbeat(  // rnt-lint: allow(status-must-use)
            Heartbeat());
      }
      Flush();
      if (!err_.ok()) return err_;
      if (transport_->AllDone()) break;
      if ((passes_ & 0xff) == 0) {
        // Periodic liveness; the next beat supersedes a lost one.
        (void)transport_->SendHeartbeat(  // rnt-lint: allow(status-must-use)
            Heartbeat());
      }
      if (progress) {
        idle_ = 0;
        attempts_ = 0;
        next_retry_idle_ = static_cast<std::uint64_t>(
            std::max(1, options_.stall_retry_spins));
      } else {
        ++idle_;
        if (options_.stall_retry_spins > 0 && idle_ >= next_retry_idle_) {
          Watchdog();
          if (!err_.ok()) return err_;
        }
        if (!marked_done_ && idle_ > options_.max_idle_spins) {
          // Permanent starvation (e.g. an unhealed partition): degrade
          // to a diagnosed incomplete run instead of hanging.
          gave_up_ = true;
          marked_done_ = true;
          // Best-effort give-up notice; heartbeats repeat each pass.
          (void)transport_->SendHeartbeat(  // rnt-lint: allow(status-must-use)
              Heartbeat());
        }
        if (idle_ > 10 * options_.max_idle_spins) {
          break;  // supervisor unreachable for good; exit on our own
        }
        // Single-core friendliness: park on the link for at most 1 ms;
        // an arriving frame wakes the node at once.
        if (idle_ > 8) transport_->WaitReadable(/*timeout_ms=*/1);
      }
    }
    // Bounded rebirth: leave the retention log compacted, so the next
    // incarnation (or a post-mortem audit) replays O(entries) records.
    if (!retained_.empty()) {
      RNT_RETURN_IF_ERROR(retention_->Checkpoint(retained_));
    }
    return Status::Ok();
  }

  HeartbeatFrame Heartbeat() const {
    HeartbeatFrame f;
    f.node = options_.node;
    f.clock = clock_;
    f.done = marked_done_;
    f.gave_up = gave_up_;
    f.acked_scalar = SummaryScalar(retained_);
    return f;
  }

  /// Anti-entropy + escalation, mirroring the in-process watchdog: a
  /// clock tick (so hub-observed time advances while everyone stalls),
  /// a full-summary rebroadcast, a heartbeat, and past the threshold a
  /// timeout-abort; bounded-exponential backoff (shift cap 5).
  void Watchdog() {
    ++attempts_;
    ++clock_;  // heartbeat tick
    FullBroadcast();
    // Watchdog beat: loss is indistinguishable from silence and the
    // next backoff round beats again.
    (void)transport_->SendHeartbeat(  // rnt-lint: allow(status-must-use)
        Heartbeat());
    if (!marked_done_ && attempts_ > options_.max_attempts_per_step) {
      if (core_.TimeoutAbort()) attempts_ = 0;
    }
    const std::uint64_t base = static_cast<std::uint64_t>(
        std::max(1, options_.stall_retry_spins));
    next_retry_idle_ = idle_ + (base << std::min(attempts_, 5));
  }

  /// Stamps and durably traces one event. False latches err_.
  bool Record(DistEvent e) {
    const std::uint64_t stamp = ++clock_;
    const Status s = trace_->Append(stamp, e);
    if (!s.ok()) {
      err_ = s;
      return false;
    }
    return true;
  }

  /// Durability order per fact: trace append (in Record) strictly before
  /// the retention append here — the invariant the rebirth Receive rests
  /// on (retention ⊆ traced sends at every kill point).
  bool RetainDurable(const ActionSummary& payload) {
    for (const auto& [a, s] : payload.entries()) {
      const Status w = retention_->Append(a, s);
      if (!w.ok()) {
        err_ = w;
        return false;
      }
    }
    retained_.MergeFrom(payload);
    if (retention_->SuggestCheckpoint(retained_.size())) {
      const Status c = retention_->Checkpoint(retained_);
      if (!c.ok()) {
        err_ = c;
        return false;
      }
    }
    return true;
  }

  /// Apply + trace + WAL self-send, the process analogue of the
  /// in-process ApplyNodeEvent: summary-changing events are followed by
  /// a one-entry Send{i,i} (traced, then retained) so M_i stays a
  /// durable superset of the node's acted-on knowledge.
  bool ApplyNodeEvent(DistEvent e) override {
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
      err_ = Status::Internal("rnt_node: event unexpectedly undefined: " +
                              dist::ToString(e));
      return false;
    }
    alg_.Apply(state_, e);
    if (!Record(std::move(e))) return false;
    if (wal_a != kInvalidAction) {
      ActionSummary entry;
      entry.AddActive(wal_a);
      if (wal_s != action::ActionStatus::kActive) {
        entry.SetStatus(wal_a, wal_s);
      }
      DistEvent send{dist::Send{options_.node, options_.node, entry}};
      alg_.Apply(state_, send);  // merge into own buffer mirror (g21)
      if (!Record(std::move(send))) return false;
      if (!RetainDurable(entry)) return false;
    }
    return true;
  }

  /// Polls the transport and applies Send + Receive per delivered
  /// message; delay-verdict messages are held for later passes. The
  /// Lamport merge happens here: delivery raises the clock past the
  /// sender's transmit clock before the Send is stamped.
  bool DeliverMail() {
    bool progress = false;
    std::vector<TransportMessage> due;
    std::vector<ActionId> learned;
    for (TransportMessage& m : held_) {
      if (--m.delay <= 0) due.push_back(std::move(m));
    }
    std::erase_if(held_,
                  [](const TransportMessage& m) { return m.delay <= 0; });
    for (TransportMessage& m : transport_->Poll(options_.node)) {
      if (m.delay > 0) {
        held_.push_back(std::move(m));
      } else {
        due.push_back(std::move(m));
      }
    }
    for (TransportMessage& m : due) {
      clock_ = std::max(clock_, m.clock);
      if (!Record(DistEvent{dist::Send{m.from, options_.node, m.summary}})) {
        return progress;
      }
      state_.buffer[options_.node].MergeFrom(m.summary);
      if (!RetainDurable(m.summary)) return progress;
      if (!Record(DistEvent{dist::Receive{options_.node, m.summary}})) {
        return progress;
      }
      // The sender certainly knows what it sent; suppress echo traffic.
      core_.Covered(m.from, m.summary);
      learned.clear();
      if (state_.nodes[options_.node].summary.MergeFrom(m.summary,
                                                        &learned)) {
        core_.Learned(learned);
        progress = true;
      }
    }
    return progress;
  }

  // ----------------------------------------------------------------
  // Knowledge shipping.

  void Flush() {
    core_.Flush(options_.propagation, [this](NodeId j, ActionSummary payload) {
      Transmit(j, std::move(payload));
    });
  }

  void FullBroadcast() {
    const ActionSummary& t = state_.nodes[options_.node].summary;
    if (t.empty()) return;
    for (NodeId j = 0; j < topo_.k(); ++j) {
      if (j != options_.node) Transmit(j, t);
    }
  }

  /// One transmission toward the hub. No event is recorded here — as in
  /// the in-process runner, the Send is stamped by the *receiver* at
  /// delivery, so a frame the interposer drops never becomes an event.
  /// A false return means the link ate it; anti-entropy re-sends.
  void Transmit(NodeId to, ActionSummary payload) {
    // Fire-and-forget by ℬ's message model: the network may eat any
    // transmission, and anti-entropy rebroadcasts repair the gap.
    (void)transport_->Send(  // rnt-lint: allow(status-must-use)
        to, TransportMessage{options_.node, std::move(payload), 0, clock_});
  }

  const NodeRuntimeOptions& options_;
  action::ActionRegistry reg_;
  dist::Topology topo_;
  DistAlgebra alg_;
  DistState state_;

  DriverStats stats_;  // scheduler counters (the trace is the record)
  NodeCore core_;
  std::vector<TransportMessage> held_;

  std::uint64_t clock_ = 0;
  std::unique_ptr<EventLog> trace_;
  std::unique_ptr<storage::RetentionLog> retention_;
  /// In-memory mirror of the retention log's deduped content; merged
  /// only after the corresponding Append returned, so its scalar is the
  /// durably-acknowledged progress the heartbeat reports.
  ActionSummary retained_;
  std::unique_ptr<SocketTransport> transport_;

  std::uint64_t passes_ = 0;
  std::uint64_t idle_ = 0;
  int attempts_ = 0;
  std::uint64_t next_retry_idle_ = 0;
  bool marked_done_ = false;
  bool gave_up_ = false;
  Status err_ = Status::Ok();
};

}  // namespace

Status RunNodeProcess(const NodeRuntimeOptions& options) {
  NodeRuntime node(options);
  return node.Run();
}

}  // namespace rnt::sim

#include "sim/node_runtime.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "action/registry.h"
#include "dist/dist_algebra.h"
#include "dist/summary.h"
#include "dist/topology.h"
#include "sim/event_log.h"
#include "sim/node_core.h"
#include "sim/phases.h"
#include "sim/socket_transport.h"
#include "sim/wire.h"
#include "storage/retention_log.h"

namespace rnt::sim {

namespace {

using dist::ActionSummary;
using dist::DistAlgebra;
using dist::DistEvent;
using dist::DistState;

/// Idle passes before the node gives up, degrading the run to diagnosed
/// incomplete instead of hanging. The rest of the watchdog runs at
/// NodeCore's defaults.
constexpr std::uint64_t kMaxIdleSpins = 20000;

/// One ℬ node running as a whole OS process: the process *host* of the
/// shared NodeCore loop (node_core.h). What it supplies:
///
///  * stamps from a per-node Lamport clock (each recorded event stamps
///    ++clock; a delivery first raises the clock to the sender's
///    transmit clock, so receiver stamps strictly follow the
///    transmission and the post-hoc merge by (stamp, node) is a legal ℬ
///    order), written to a durable per-incarnation trace file;
///  * retention into the RetentionLog, with checkpointing;
///  * one durable write of each log per pass. Record encodes into a
///    pass buffer and Retain merges into a pending summary (deduped
///    within the pass); Persist, which the core calls before the pass's
///    first transmission, writes the trace buffer, then the pending
///    entries — per pass: trace write → retention write → transmit. So a
///    kill -9 at any instruction leaves retention ⊆ trace, nothing
///    transmitted is missing from either log, and the rebirth Receive
///    of the retention log is legal against the buffer mirror a
///    mechanical trace replay rebuilds;
///  * heartbeats to the hub, carrying the watchdog's and the phase
///    counters. Message faults are the hub's link interposer's business
///    (the process cannot be trusted to drop its own frames once kill -9
///    is real), and anti-entropy always runs.
class NodeRuntime final : NodeCore::Host {
 public:
  explicit NodeRuntime(const NodeRuntimeOptions& options)
      : options_(options),
        reg_(options.spec.BuildRegistry()),
        topo_(dist::Topology::RoundRobin(&reg_, options.spec.k)),
        alg_(&topo_),
        state_(alg_.Initial()),
        core_(alg_, options.node, &state_, this, &stats_,
              NodeCore::Options{.propagation = options.propagation,
                                .anti_entropy = true,
                                .max_idle_spins = kMaxIdleSpins}) {}

  Status Run() {
    if (options_.node >= topo_.k()) {
      return Status::InvalidArgument("node id out of range");
    }
    // No static abort set here: aborts come only from the watchdog.
    core_.Plan({});
    RNT_RETURN_IF_ERROR(OpenDurable());
    if (options_.recover) RNT_RETURN_IF_ERROR(Replay());
    RNT_RETURN_IF_ERROR(Connect());
    return Loop();
  }

 private:
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

  /// Rebirth (paper §9.1), part one: mechanical replay of this node's own
  /// trace files rebuilds the node component exactly as the crashed
  /// incarnations left it — summary, lock table, buffer mirror M_i.
  /// These events are *already recorded*; they are applied, not
  /// re-recorded. Part two is NodeCore::Rebirth in Connect: one Receive
  /// of the retention log's summary, recorded as the first event of the
  /// new incarnation, re-establishes knowledge a crash between apply and
  /// trace-append may have cost the summary. Its legality is structural:
  /// every retained fact was traced as a Send (self-WAL or delivery)
  /// *before* its retention append, so the replayed buffer mirror
  /// contains the whole retention summary.
  Status Replay() {
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
      core_.Rebirth(retained_);
      RNT_RETURN_IF_ERROR(core_.status());
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

  Status Loop() {
    for (;;) {
      const double t0 = MonotonicSeconds();
      const NodeCore::PassResult r = core_.Pass(*transport_);
      phases_.pass_s += MonotonicSeconds() - t0;
      RNT_RETURN_IF_ERROR(core_.status());
      if (r.retried) ++clock_;  // heartbeat tick: hub-observed time moves
      if (r.finished || r.retried || (core_.passes() & 0xff) == 0) {
        // Liveness-only signal (done, give-up, watchdog, or periodic): a
        // lost heartbeat is indistinguishable from silence and the next
        // one supersedes it.
        (void)transport_->SendHeartbeat(  // rnt-lint: allow(status-must-use)
            Heartbeat());
      }
      if (transport_->AllDone()) break;
      if (core_.idle() > 10 * kMaxIdleSpins) {
        break;  // supervisor unreachable for good; exit on our own
      }
      // Single-core friendliness: park on the link for at most 1 ms; an
      // arriving frame wakes the node at once.
      if (!r.progress && core_.idle() > 8) {
        const double w0 = MonotonicSeconds();
        transport_->WaitReadable(/*timeout_ms=*/1);
        phases_.wait_s += MonotonicSeconds() - w0;
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
    f.done = core_.Done() || core_.gave_up();
    f.gave_up = core_.gave_up();
    f.acked_scalar = SummaryScalar(retained_);
    f.retries = stats_.retries;
    f.timeout_aborts = stats_.timeout_aborts;
    f.phases = phases_;
    f.phases.passes = core_.passes();
    return f;
  }

  Status Record(DistEvent e, std::uint64_t msg_clock) override {
    clock_ = std::max(clock_, msg_clock);
    EventLog::EncodeRecord(trace_batch_, ++clock_, e);
    return Status::Ok();
  }

  Status Retain(const ActionSummary& payload) override {
    pending_.MergeFrom(payload);
    return Status::Ok();
  }

  /// Writes the pass's trace records, then its retained entries, then
  /// folds those into the in-memory mirror — so the mirror's scalar is
  /// durably acknowledged progress.
  Status Persist() override {
    if (trace_batch_.empty() && pending_.empty()) return Status::Ok();
    const double t0 = MonotonicSeconds();
    RNT_RETURN_IF_ERROR(trace_->AppendRecords(trace_batch_));
    trace_batch_.clear();
    RNT_RETURN_IF_ERROR(retention_->Append(pending_));
    retained_.MergeFrom(std::move(pending_));  // leaves pending_ empty
    if (retention_->SuggestCheckpoint(retained_.size())) {
      RNT_RETURN_IF_ERROR(retention_->Checkpoint(retained_));
    }
    ++phases_.persists;
    phases_.persist_s += MonotonicSeconds() - t0;
    return Status::Ok();
  }

  std::uint64_t Clock() const override { return clock_; }

  const NodeRuntimeOptions& options_;
  action::ActionRegistry reg_;
  dist::Topology topo_;
  DistAlgebra alg_;
  DistState state_;

  DriverStats stats_;  // scheduler counters (the trace is the record)
  NodeCore core_;

  std::uint64_t clock_ = 0;
  std::unique_ptr<EventLog> trace_;
  std::unique_ptr<storage::RetentionLog> retention_;
  /// The pass's encoded trace records and retained entries, written by
  /// the next Persist.
  std::string trace_batch_;
  ActionSummary pending_;
  /// In-memory mirror of the retention log's deduped content; merged
  /// only after the corresponding write returned, so its scalar is the
  /// durably-acknowledged progress the heartbeat reports.
  ActionSummary retained_;
  std::unique_ptr<SocketTransport> transport_;
  NodePhases phases_;
};

}  // namespace

Status RunNodeProcess(const NodeRuntimeOptions& options) {
  NodeRuntime node(options);
  return node.Run();
}

}  // namespace rnt::sim

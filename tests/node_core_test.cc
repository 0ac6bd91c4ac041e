#include "sim/node_core.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <variant>
#include <vector>

#include "algebra/algebra.h"
#include "dist/dist_algebra.h"
#include "faults/faults.h"
#include "sim/dist_driver.h"
#include "sim/message_buffer.h"
#include "sim/transport.h"
#include "testutil.h"

// The single ℬ node loop (sim/node_core.h) in isolation: k cores over a
// fake host and an in-memory transport, stepped round-robin on one
// thread. The host only records what the core asks of it, buffering it
// until Persist the way the process host does, so the tests pin the
// core's own contract — the per-fact durability order both runtimes
// rely on, log-before-transmit at pass granularity, a merged log that
// is a valid ℬ computation, and the sequential driver's final values.

namespace rnt::sim {
namespace {

using action::ActionRegistry;
using action::ActionStatus;
using dist::ActionSummary;
using dist::DistEvent;

/// One call the core made on its host.
struct Call {
  bool retain = false;  // false: Record
  DistEvent event;
  ActionSummary payload;
};

/// Buffers every call until Persist, like the process host; Persist
/// moves the batch, in call order, to `calls` and appends its recorded
/// events to one shared log — single-threaded, so persist order is a
/// global order.
class FakeHost final : public NodeCore::Host {
 public:
  explicit FakeHost(std::vector<DistEvent>* log) : log_(log) {}

  Status Record(DistEvent e, std::uint64_t /*msg_clock*/) override {
    unpersisted.push_back(Call{false, std::move(e), {}});
    return Status::Ok();
  }
  Status Retain(const ActionSummary& payload) override {
    unpersisted.push_back(Call{true, {}, payload});
    return Status::Ok();
  }
  Status Persist() override {
    for (Call& c : unpersisted) {
      if (c.retain) {
        retained.MergeFrom(c.payload);
      } else {
        log_->push_back(c.event);
      }
      calls.push_back(std::move(c));
    }
    unpersisted.clear();
    return Status::Ok();
  }
  std::uint64_t Clock() const override { return 0; }

  std::vector<Call> calls;        // persisted, in call order
  std::vector<Call> unpersisted;  // recorded or retained since Persist
  ActionSummary retained;  // M_i, as the host would keep it durably

 private:
  std::vector<DistEvent>* log_;
};

/// Forwards to the real transport, counting transmissions made while
/// the sender's host still held unpersisted records.
class SpyTransport final : public Transport {
 public:
  SpyTransport(Transport* inner,
               const std::vector<std::unique_ptr<FakeHost>>* hosts)
      : inner_(inner), hosts_(hosts) {}

  bool Send(NodeId to, TransportMessage msg) override {
    if (!(*hosts_)[msg.from]->unpersisted.empty()) ++early_sends;
    ++sends;
    return inner_->Send(to, std::move(msg));
  }
  std::vector<TransportMessage> Poll(NodeId self) override {
    return inner_->Poll(self);
  }

  std::uint64_t sends = 0;
  std::uint64_t early_sends = 0;

 private:
  Transport* inner_;
  const std::vector<std::unique_ptr<FakeHost>>* hosts_;
};

/// The summary entry a node event must WAL, derived independently of the
/// core; `*logs` is false for lock bookkeeping, which WALs nothing.
ActionSummary ExpectedWalEntry(const DistEvent& e, bool* logs) {
  ActionId a = kInvalidAction;
  ActionStatus s = ActionStatus::kActive;
  if (const auto* c = std::get_if<dist::NodeCreate>(&e)) {
    a = c->a;
  } else if (const auto* c = std::get_if<dist::NodeCommit>(&e)) {
    a = c->a;
    s = ActionStatus::kCommitted;
  } else if (const auto* c = std::get_if<dist::NodeAbort>(&e)) {
    a = c->a;
    s = ActionStatus::kAborted;
  } else if (const auto* p = std::get_if<dist::NodePerform>(&e)) {
    a = p->a;
    s = ActionStatus::kCommitted;
  }
  ActionSummary entry;
  *logs = a != kInvalidAction;
  if (*logs) {
    entry.AddActive(a);
    if (s != ActionStatus::kActive) entry.SetStatus(a, s);
  }
  return entry;
}

bool IsNodeEvent(const DistEvent& e) {
  return !std::holds_alternative<dist::Send>(e) &&
         !std::holds_alternative<dist::Receive>(e);
}

/// Runs `k` cores round-robin until all are done; `crash_at` > 0 wipes
/// node 1's summary before that pass and rebirths it from its M_i. A
/// lossy `plan` turns the watchdog on (anti-entropy broadcasts, and
/// timeout-aborts after `max_attempts` unproductive retries); a run
/// that timeout-aborted may end with other values than the sequential
/// driver, so only its durability order and validity are judged. Sums
/// the cores' counters into `*total` when non-null.
void RunRoundRobin(std::uint64_t seed, NodeId k, Propagation prop,
                   int crash_at, const faults::FaultPlan& plan = {},
                   int max_attempts = 16, DriverStats* total = nullptr) {
  Rng rng(seed);
  ActionRegistry reg = testutil::MakeRandomRegistry(rng);
  std::set<ActionId> abort_set;
  for (ActionId a = 1; a < reg.size(); ++a) {
    if (!reg.IsAccess(a) && reg.Parent(a) != kRootAction) {
      abort_set.insert(a);
      break;
    }
  }
  dist::Topology topo = dist::Topology::RoundRobin(&reg, k);
  dist::DistAlgebra alg(&topo);
  DriverOptions seq_opt;
  seq_opt.abort_set = abort_set;
  auto seq = RunProgram(alg, seq_opt);
  ASSERT_TRUE(seq.ok()) << seq.status();

  dist::DistState state = alg.Initial();
  ConcurrentMailbox mailbox(k);
  MailboxTransport mail(&mailbox, k, plan);
  std::vector<DistEvent> log;
  std::vector<std::unique_ptr<FakeHost>> hosts;
  SpyTransport net(&mail, &hosts);
  std::vector<DriverStats> stats(k);
  std::vector<std::unique_ptr<NodeCore>> cores;
  NodeCore::Options options;
  options.propagation = prop;
  options.anti_entropy = plan.drop_prob > 0;
  options.max_attempts_per_step = max_attempts;
  for (NodeId i = 0; i < k; ++i) {
    hosts.push_back(std::make_unique<FakeHost>(&log));
  }
  for (NodeId i = 0; i < k; ++i) {
    cores.push_back(std::make_unique<NodeCore>(alg, i, &state, hosts[i].get(),
                                               &stats[i], options));
    cores[i]->Plan(abort_set);
  }
  // Lossy runs lean on anti-entropy retries; fault-free runs keep the
  // tight bound.
  const int max_passes = plan.drop_prob > 0 ? 100000 : 10000;
  bool all_done = false;
  for (int pass = 1; pass <= max_passes && !all_done; ++pass) {
    if (pass == crash_at && k > 1) {
      state.nodes[1].summary = ActionSummary{};
      cores[1]->Rebirth(hosts[1]->retained);
      ASSERT_TRUE(hosts[1]->unpersisted.empty()) << "rebirth left records";
    }
    all_done = true;
    for (NodeId i = 0; i < k; ++i) {
      cores[i]->Pass(net);
      ASSERT_TRUE(cores[i]->status().ok()) << cores[i]->status();
      ASSERT_TRUE(hosts[i]->unpersisted.empty())
          << "node " << i << " ended pass " << pass << " with "
          << hosts[i]->unpersisted.size() << " unpersisted records";
      all_done = all_done && cores[i]->Done();
    }
  }
  ASSERT_TRUE(all_done) << "seed " << seed;
  EXPECT_GT(net.sends, 0u);
  EXPECT_EQ(net.early_sends, 0u) << "transmitted before persisting";

  // Per-fact order: record(event) → record(Send{i,i,entry}) →
  // retain(entry) for every summary-changing node event, and
  // record(Send{j,i,m}) → retain(m) → record(Receive{i,m}) per delivery.
  std::uint64_t wal_facts = 0;
  for (NodeId i = 0; i < k; ++i) {
    const std::vector<Call>& calls = hosts[i]->calls;
    for (std::size_t c = 0; c < calls.size(); ++c) {
      if (calls[c].retain) continue;
      const DistEvent& e = calls[c].event;
      if (IsNodeEvent(e)) {
        bool logs = false;
        const ActionSummary entry = ExpectedWalEntry(e, &logs);
        if (!logs) continue;
        ASSERT_LT(c + 2, calls.size());
        const auto* send = std::get_if<dist::Send>(&calls[c + 1].event);
        ASSERT_TRUE(!calls[c + 1].retain && send != nullptr)
            << "node " << i << ": " << dist::ToString(e);
        EXPECT_EQ(send->from, i);
        EXPECT_EQ(send->to, i);
        EXPECT_EQ(send->summary, entry);
        ASSERT_TRUE(calls[c + 2].retain);
        EXPECT_EQ(calls[c + 2].payload, entry);
        ++wal_facts;
        c += 2;
      } else if (const auto* send = std::get_if<dist::Send>(&e);
                 send != nullptr && send->from != i) {
        ASSERT_LT(c + 2, calls.size());
        ASSERT_TRUE(calls[c + 1].retain);
        EXPECT_EQ(calls[c + 1].payload, send->summary);
        const auto* recv = std::get_if<dist::Receive>(&calls[c + 2].event);
        ASSERT_TRUE(!calls[c + 2].retain && recv != nullptr);
        EXPECT_EQ(recv->summary, send->summary);
        c += 2;
      }
    }
  }
  EXPECT_GT(wal_facts, 0u);

  EXPECT_TRUE(algebra::IsValidSequence(alg, std::span<const DistEvent>(log)))
      << "seed " << seed;
  std::uint64_t performs = 0;
  std::uint64_t timeout_aborts = 0;
  for (const DriverStats& s : stats) {
    performs += s.performs;
    timeout_aborts += s.timeout_aborts;
    if (total != nullptr) {
      total->retries += s.retries;
      total->timeout_aborts += s.timeout_aborts;
    }
  }
  if (timeout_aborts > 0) return;
  EXPECT_EQ(performs, seq->stats.performs) << "seed " << seed;
  for (ObjectId x = 0; x < 3; ++x) {
    const NodeId h = topo.HomeOfObject(x);
    EXPECT_EQ(state.nodes[h].vmap.Get(x, kRootAction),
              seq->final_state.nodes[h].vmap.Get(x, kRootAction))
        << "object " << x << " seed " << seed;
  }
}

TEST(NodeCoreTest, RoundRobinCoresMatchSequentialDriver) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RunRoundRobin(seed, 3, Propagation::kDelta, /*crash_at=*/0);
    RunRoundRobin(seed, 2, Propagation::kEager, /*crash_at=*/0);
  }
}

TEST(NodeCoreTest, PassPersistsBeforeTransmit) {
  // RunRoundRobin fails any transmission made while the sender's host
  // holds unpersisted records, and any pass (or rebirth) that returns
  // with some. A lossy network with a hair-trigger watchdog drives the
  // paths where a pass records after its flush: anti-entropy
  // broadcasts followed by a timeout-abort.
  faults::FaultPlan lossy;
  lossy.drop_prob = 0.3;
  DriverStats total;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    lossy.seed = seed;
    RunRoundRobin(seed, 3, Propagation::kDelta, /*crash_at=*/0, lossy,
                  /*max_attempts=*/1, &total);
    RunRoundRobin(seed, 2, Propagation::kEager, /*crash_at=*/4, lossy,
                  /*max_attempts=*/1, &total);
  }
  EXPECT_GT(total.retries, 0u);
  EXPECT_GT(total.timeout_aborts, 0u);
}

TEST(NodeCoreTest, RebirthFromRetainedSummaryIsLossless) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RunRoundRobin(seed, 3, Propagation::kDelta, /*crash_at=*/3);
  }
}

}  // namespace
}  // namespace rnt::sim

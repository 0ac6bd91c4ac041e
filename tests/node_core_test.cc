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
#include "sim/dist_driver.h"
#include "sim/message_buffer.h"
#include "testutil.h"

// The single ℬ node loop (sim/node_core.h) in isolation: k cores over a
// fake host and an in-memory transport, stepped round-robin on one
// thread. The host only records what the core asks of it, so the tests
// pin the core's own contract — the per-fact durability order both
// runtimes rely on, a merged log that is a valid ℬ computation, and the
// sequential driver's final values.

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

/// Records every call in order, and appends recorded events to one
/// shared log — single-threaded, so call order is a global order.
class FakeHost final : public NodeCore::Host {
 public:
  explicit FakeHost(std::vector<DistEvent>* log) : log_(log) {}

  Status Record(DistEvent e, std::uint64_t /*msg_clock*/) override {
    log_->push_back(e);
    calls.push_back(Call{false, std::move(e), {}});
    return Status::Ok();
  }
  Status Retain(const ActionSummary& payload) override {
    retained.MergeFrom(payload);
    calls.push_back(Call{true, {}, payload});
    return Status::Ok();
  }
  std::uint64_t Clock() const override { return 0; }

  std::vector<Call> calls;
  ActionSummary retained;  // M_i, as the host would keep it durably

 private:
  std::vector<DistEvent>* log_;
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
/// node 1's summary before that pass and rebirths it from its M_i.
void RunRoundRobin(std::uint64_t seed, NodeId k, Propagation prop,
                   int crash_at) {
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
  MailboxTransport net(&mailbox, k);
  std::vector<DistEvent> log;
  std::vector<std::unique_ptr<FakeHost>> hosts;
  std::vector<DriverStats> stats(k);
  std::vector<std::unique_ptr<NodeCore>> cores;
  NodeCore::Options options;
  options.propagation = prop;
  options.anti_entropy = false;
  for (NodeId i = 0; i < k; ++i) {
    hosts.push_back(std::make_unique<FakeHost>(&log));
  }
  for (NodeId i = 0; i < k; ++i) {
    cores.push_back(std::make_unique<NodeCore>(alg, i, &state, hosts[i].get(),
                                               &stats[i], options));
    cores[i]->Plan(abort_set);
  }
  bool all_done = false;
  for (int pass = 1; pass <= 10000 && !all_done; ++pass) {
    if (pass == crash_at && k > 1) {
      state.nodes[1].summary = ActionSummary{};
      cores[1]->Rebirth(hosts[1]->retained);
    }
    all_done = true;
    for (NodeId i = 0; i < k; ++i) {
      cores[i]->Pass(net);
      ASSERT_TRUE(cores[i]->status().ok()) << cores[i]->status();
      all_done = all_done && cores[i]->Done();
    }
  }
  ASSERT_TRUE(all_done) << "seed " << seed;

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
  for (const DriverStats& s : stats) performs += s.performs;
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

TEST(NodeCoreTest, RebirthFromRetainedSummaryIsLossless) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RunRoundRobin(seed, 3, Propagation::kDelta, /*crash_at=*/3);
  }
}

}  // namespace
}  // namespace rnt::sim

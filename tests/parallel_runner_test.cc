#include "sim/parallel_runner.h"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <thread>
#include <vector>

#include "aat/aat.h"
#include "algebra/algebra.h"
#include "sim/message_buffer.h"
#include "sim/program_spec.h"
#include "testutil.h"
#include "txn/online_checker.h"

namespace rnt::sim {
namespace {

using action::ActionRegistry;
using action::Update;

TEST(ConcurrentMailboxTest, FifoPerDestination) {
  ConcurrentMailbox mb(2);
  for (int i = 0; i < 5; ++i) {
    dist::ActionSummary s;
    s.AddActive(static_cast<ActionId>(i + 1));
    mb.Push(1, TransportMessage{0, std::move(s)});
  }
  EXPECT_TRUE(mb.Empty(0));
  EXPECT_FALSE(mb.Empty(1));
  std::vector<TransportMessage> got = mb.Drain(1);
  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(got[i].summary.Contains(static_cast<ActionId>(i + 1)))
        << "oldest first";
  }
  EXPECT_TRUE(mb.Empty(1));
}

TEST(ConcurrentMailboxTest, ConcurrentProducersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  ConcurrentMailbox mb(1);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&mb, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        dist::ActionSummary s;
        s.AddActive(static_cast<ActionId>(p * kPerProducer + i + 1));
        mb.Push(0, TransportMessage{static_cast<NodeId>(p), std::move(s)});
      }
    });
  }
  std::vector<TransportMessage> got;
  // Drain concurrently with the producers; the tail drains after join.
  for (int spin = 0; spin < 100; ++spin) {
    for (TransportMessage& m : mb.Drain(0)) got.push_back(std::move(m));
  }
  for (std::thread& t : producers) t.join();
  for (TransportMessage& m : mb.Drain(0)) got.push_back(std::move(m));
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  std::set<ActionId> ids;
  for (const TransportMessage& m : got) {
    ASSERT_EQ(m.summary.size(), 1u);
    ids.insert(m.summary.entries().begin()->first);
  }
  EXPECT_EQ(ids.size(), got.size()) << "no duplicate, no loss";
}

TEST(ParallelRunnerTest, SingleNodeMatchesSequential) {
  ActionRegistry reg;
  ActionId t = reg.NewAction(kRootAction);
  reg.NewAccess(t, 0, Update::Add(5));
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 1);
  dist::DistAlgebra alg(&topo);
  auto run = RunParallel(alg);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->complete);
  EXPECT_EQ(run->stats.performs, 1u);
  EXPECT_EQ(run->stats.commits, 1u);
  EXPECT_EQ(run->stats.messages, 0u);
  EXPECT_EQ(run->final_state.nodes[0].vmap.Get(0, kRootAction), 5);
}

/// The headline guarantee: the multi-threaded runner computes the same
/// final value maps as the sequential DFS driver on every program, and
/// its merged event log is a valid computation of ℬ whose abstract image
/// passes the Theorem 9 serializability check.
void CheckEquivalence(std::uint64_t seed, Propagation prop,
                      const std::set<ActionId>* abort_set_hint) {
  Rng rng(seed);
  testutil::RandomRegistryParams p;
  p.top_level = 3;
  p.max_children = 3;
  p.max_depth = 3;
  p.objects = 4;
  ActionRegistry reg = testutil::MakeRandomRegistry(rng, p);
  std::set<ActionId> abort_set;
  if (abort_set_hint == nullptr) {
    // Abort the first inner action under a top-level txn, when one exists.
    for (ActionId a = 1; a < reg.size(); ++a) {
      if (!reg.IsAccess(a) && reg.Parent(a) != kRootAction) {
        abort_set.insert(a);
        break;
      }
    }
  } else {
    abort_set = *abort_set_hint;
  }
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 3);
  dist::DistAlgebra alg(&topo);

  DriverOptions seq_opt;
  seq_opt.abort_set = abort_set;
  auto seq = RunProgram(alg, seq_opt);
  ASSERT_TRUE(seq.ok()) << seq.status() << " seed " << seed;

  ParallelOptions par_opt;
  par_opt.propagation = prop;
  par_opt.abort_set = abort_set;
  auto par = RunParallel(alg, par_opt);
  ASSERT_TRUE(par.ok()) << par.status() << " seed " << seed;
  EXPECT_TRUE(par->complete) << "seed " << seed;

  // Same semantic outcome: identical counts of the semantic events and
  // identical final value for every object at its home. (Lock-walk event
  // counts may differ: the parallel drain releases eagerly.)
  EXPECT_EQ(par->stats.performs, seq->stats.performs) << "seed " << seed;
  EXPECT_EQ(par->stats.commits, seq->stats.commits) << "seed " << seed;
  EXPECT_EQ(par->stats.aborts, seq->stats.aborts) << "seed " << seed;
  for (ObjectId x = 0; x < static_cast<ObjectId>(p.objects); ++x) {
    NodeId h = topo.HomeOfObject(x);
    EXPECT_EQ(par->final_state.nodes[h].vmap.Get(x, kRootAction),
              seq->final_state.nodes[h].vmap.Get(x, kRootAction))
        << "object " << x << " seed " << seed;
  }

  // The merged log is a valid ℬ computation...
  EXPECT_TRUE(algebra::IsValidSequence(
      alg, std::span<const dist::DistEvent>(par->events)))
      << "seed " << seed;
  // ...whose abstract image exists and is perm-data-serializable — judged
  // both post-hoc and by the streaming checker riding the replay.
  txn::OnlineChecker online;
  auto abstract = ReplayAbstract(
      alg, std::span<const dist::DistEvent>(par->events), &online);
  ASSERT_TRUE(abstract.ok()) << abstract.status() << " seed " << seed;
  EXPECT_TRUE(aat::IsPermDataSerializable(abstract->tree)) << "seed " << seed;
  const auto verdict = online.Verdict();
  EXPECT_EQ(verdict.outcome, txn::OnlineChecker::Outcome::kOk)
      << "online checker dissents, seed " << seed << ": " << verdict.detail;
}

TEST(ParallelRunnerTest, DeltaMatchesSequentialOnRandomPrograms) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    CheckEquivalence(seed, Propagation::kDelta, nullptr);
  }
}

TEST(ParallelRunnerTest, EagerMatchesSequentialOnRandomPrograms) {
  for (std::uint64_t seed = 100; seed < 105; ++seed) {
    CheckEquivalence(seed, Propagation::kEager, nullptr);
  }
}

TEST(ParallelRunnerTest, NoAbortsEquivalence) {
  std::set<ActionId> empty;
  for (std::uint64_t seed = 200; seed < 204; ++seed) {
    CheckEquivalence(seed, Propagation::kDelta, &empty);
  }
}

TEST(ParallelRunnerTest, RejectsLazyPropagation) {
  ActionRegistry reg;
  ActionId t = reg.NewAction(kRootAction);
  reg.NewAccess(t, 0, Update::Add(1));
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 2);
  dist::DistAlgebra alg(&topo);
  ParallelOptions opt;
  opt.propagation = Propagation::kLazy;
  auto run = RunParallel(alg, opt);
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

/// Crash and partition plans are accepted now (the crash-recovery and
/// partition behaviors themselves are exercised in
/// parallel_recovery_test.cc); only *ill-formed* plans are rejected, via
/// the tightened ValidatePlan.
TEST(ParallelRunnerTest, AcceptsCrashPlansRejectsIllFormedOnes) {
  ActionRegistry reg;
  ActionId t = reg.NewAction(kRootAction);
  reg.NewAccess(t, 0, Update::Add(1));
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 2);
  dist::DistAlgebra alg(&topo);
  ParallelOptions opt;
  opt.plan.crashes.push_back(faults::CrashSpec{0, 5, 3});
  opt.plan.partitions.push_back(faults::PartitionSpec{0, 1, 0, 10});
  auto run = RunParallel(alg, opt);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->complete);
  EXPECT_EQ(run->stats.crashes, 1u);
  EXPECT_EQ(run->stats.recovered_nodes, 1u);

  ParallelOptions self_part;
  self_part.plan.partitions.push_back(faults::PartitionSpec{1, 1, 0, 10});
  EXPECT_EQ(RunParallel(alg, self_part).status().code(),
            StatusCode::kInvalidArgument);

  ParallelOptions overlap;
  overlap.plan.crashes.push_back(faults::CrashSpec{0, 5, 10});
  overlap.plan.crashes.push_back(faults::CrashSpec{0, 8, 10});
  EXPECT_EQ(RunParallel(alg, overlap).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ConcurrentMailboxTest, RetentionIsMonotoneAndSurvivesDrain) {
  ConcurrentMailbox mb(2);
  dist::ActionSummary s1;
  s1.AddActive(1);
  mb.Push(1, TransportMessage{0, s1});
  mb.Retain(1, s1);  // owner thread retains what it drains
  dist::ActionSummary s2;
  s2.AddActive(1);
  s2.SetStatus(1, action::ActionStatus::kCommitted);
  s2.AddActive(2);
  mb.Retain(1, s2);
  (void)mb.Drain(1);
  // M_1 holds the union, with done-status priority, after the queue is
  // long empty — the durable buffer the rebirth Receive replays.
  EXPECT_TRUE(mb.Retained(1).IsCommitted(1));
  EXPECT_TRUE(mb.Retained(1).IsActive(2));
  EXPECT_TRUE(mb.Retained(0).empty());
}

TEST(ParallelRunnerTest, RejectsAccessInAbortSet) {
  ActionRegistry reg;
  ActionId t = reg.NewAction(kRootAction);
  ActionId a = reg.NewAccess(t, 0, Update::Read());
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 1);
  dist::DistAlgebra alg(&topo);
  ParallelOptions opt;
  opt.abort_set = {a};
  auto run = RunParallel(alg, opt);
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParallelRunnerTest, DeltaShipsFewerEntriesThanEager) {
  Rng rng(7);
  testutil::RandomRegistryParams p;
  p.top_level = 4;
  p.max_children = 3;
  p.max_depth = 3;
  p.objects = 6;
  ActionRegistry reg = testutil::MakeRandomRegistry(rng, p);
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 4);
  dist::DistAlgebra alg(&topo);
  ParallelOptions delta;
  delta.propagation = Propagation::kDelta;
  auto drun = RunParallel(alg, delta);
  ASSERT_TRUE(drun.ok()) << drun.status();
  ParallelOptions eager;
  eager.propagation = Propagation::kEager;
  auto erun = RunParallel(alg, eager);
  ASSERT_TRUE(erun.ok()) << erun.status();
  EXPECT_LT(drun->stats.summary_entries, erun->stats.summary_entries);
  for (ObjectId x = 0; x < 6; ++x) {
    NodeId h = topo.HomeOfObject(x);
    EXPECT_EQ(drun->final_state.nodes[h].vmap.Get(x, kRootAction),
              erun->final_state.nodes[h].vmap.Get(x, kRootAction));
  }
}

TEST(ParallelRunnerTest, RecordEventsOffStillComputesFinalState) {
  Rng rng(3);
  ActionRegistry reg = testutil::MakeRandomRegistry(rng);
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 2);
  dist::DistAlgebra alg(&topo);
  ParallelOptions opt;
  opt.record_events = false;
  auto run = RunParallel(alg, opt);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->events.empty());
  EXPECT_GT(run->stats.performs, 0u);
}

TEST(ParallelRunnerTest, ObligationWorkIsLinearInProgramSize) {
  // Change-driven scheduling: a create/abort/commit obligation is
  // re-judged only when one of its inputs changed in local knowledge,
  // so the obligations examined over a whole fault-free run stay within
  // a small constant of the work actually done — at every program size,
  // and independent of how many idle passes the threads spin through.
  for (std::uint32_t top_level : {512u, 2048u}) {
    ProgramSpec spec;
    spec.seed = 7;
    spec.top_level = top_level;
    spec.objects = 256;
    spec.k = 3;
    const ActionRegistry reg = spec.BuildRegistry();
    const dist::Topology topo = dist::Topology::RoundRobin(&reg, spec.k);
    const dist::DistAlgebra alg(&topo);
    ParallelOptions opt;
    opt.record_events = false;
    auto run = RunParallel(alg, opt);
    ASSERT_TRUE(run.ok()) << run.status();
    ASSERT_TRUE(run->complete);
    const std::uint64_t creates = reg.size() - 1;  // every action, once
    const std::uint64_t work =
        run->stats.node_events + creates + run->stats.commits;
    EXPECT_GT(run->stats.obligations_examined, 0u);
    EXPECT_LE(run->stats.obligations_examined, 2 * work)
        << "top_level " << top_level << ": examined "
        << run->stats.obligations_examined << " for " << work
        << " events + obligations";
  }
}

}  // namespace
}  // namespace rnt::sim

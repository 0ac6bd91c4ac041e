#include "dist/dist_algebra.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "algebra/algebra.h"
#include "dist/delta_log.h"
#include "testutil.h"

namespace rnt::dist {
namespace {

using action::ActionRegistry;
using action::ActionStatus;
using action::Update;

TEST(ActionSummaryTest, BasicStatusTracking) {
  ActionSummary s;
  EXPECT_FALSE(s.Contains(1));
  s.AddActive(1);
  EXPECT_TRUE(s.IsActive(1));
  s.SetStatus(1, ActionStatus::kCommitted);
  EXPECT_TRUE(s.IsCommitted(1));
  EXPECT_TRUE(s.IsDone(1));
  EXPECT_FALSE(s.IsAborted(1));
}

TEST(ActionSummaryTest, MergeIsMonotone) {
  ActionSummary know, stale;
  know.AddActive(1);
  know.SetStatus(1, ActionStatus::kCommitted);
  stale.AddActive(1);  // old knowledge: still active
  know.MergeFrom(stale);
  EXPECT_TRUE(know.IsCommitted(1)) << "merge must not regress status";
  stale.MergeFrom(know);
  EXPECT_TRUE(stale.IsCommitted(1)) << "merge upgrades status";
}

TEST(ActionSummaryTest, SubsummaryRelation) {
  ActionSummary big;
  big.AddActive(1);
  big.AddActive(2);
  big.SetStatus(2, ActionStatus::kAborted);
  ActionSummary small;
  small.AddActive(2);  // weaker knowledge of 2
  EXPECT_TRUE(small.IsSubsummaryOf(big));
  small.SetStatus(2, ActionStatus::kAborted);
  EXPECT_TRUE(small.IsSubsummaryOf(big));
  small.SetStatus(2, ActionStatus::kCommitted);
  EXPECT_FALSE(small.IsSubsummaryOf(big));
  ActionSummary stranger;
  stranger.AddActive(9);
  EXPECT_FALSE(stranger.IsSubsummaryOf(big));
}

/// A random summary over actions 1..n: each entry is absent, active, or
/// advanced to the action's (deterministic) final status. Statuses are
/// truthful — two summaries never disagree on an action's fate, mirroring
/// the algebra's invariant that only the home node decides it — so merge
/// must be idempotent and commutative over any pair drawn here.
ActionSummary RandomSummary(Rng& rng, ActionId n) {
  ActionSummary s;
  for (ActionId a = 1; a <= n; ++a) {
    if (rng.Chance(0.3)) continue;
    s.AddActive(a);
    if (rng.Chance(0.5)) {
      s.SetStatus(a, a % 2 == 0 ? ActionStatus::kCommitted
                                : ActionStatus::kAborted);
    }
  }
  return s;
}

TEST(ActionSummaryTest, MergeIsIdempotentAndCommutative) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    ActionSummary a = RandomSummary(rng, 12);
    ActionSummary b = RandomSummary(rng, 12);
    ActionSummary ab = a;
    EXPECT_FALSE(ab.MergeFrom(a)) << "self-merge reports no change";
    ab.MergeFrom(b);
    ActionSummary ba = b;
    ba.MergeFrom(a);
    EXPECT_EQ(ab, ba) << "merge is commutative, seed " << seed;
    ActionSummary abb = ab;
    EXPECT_FALSE(abb.MergeFrom(b)) << "re-merge is a no-op, seed " << seed;
    EXPECT_EQ(abb, ab) << "merge is idempotent, seed " << seed;
  }
}

TEST(ActionSummaryTest, MergeSkipsKnownEntriesButUpgradesStatus) {
  ActionSummary know;
  know.AddActive(1);
  know.AddActive(2);
  know.SetStatus(2, ActionStatus::kCommitted);
  ActionSummary in;
  in.AddActive(1);
  in.SetStatus(1, ActionStatus::kAborted);
  in.AddActive(2);  // stale: active
  in.AddActive(3);  // new
  EXPECT_TRUE(know.MergeFrom(in));
  EXPECT_TRUE(know.IsAborted(1)) << "status upgrade applied";
  EXPECT_TRUE(know.IsCommitted(2)) << "stale entry ignored";
  EXPECT_TRUE(know.IsActive(3)) << "new entry added";
}

TEST(ActionSummaryTest, RvalueMergeMatchesLvalueMerge) {
  for (std::uint64_t seed = 40; seed < 50; ++seed) {
    Rng rng(seed);
    ActionSummary a = RandomSummary(rng, 10);
    ActionSummary b = RandomSummary(rng, 10);
    ActionSummary via_copy = a;
    via_copy.MergeFrom(b);
    ActionSummary via_move = a;
    ActionSummary b_moved = b;
    via_move.MergeFrom(std::move(b_moved));
    EXPECT_EQ(via_move, via_copy) << "seed " << seed;
  }
}

TEST(ActionSummaryTest, DeltaSinceCoversExactlyTheFrontierGap) {
  for (std::uint64_t seed = 60; seed < 80; ++seed) {
    Rng rng(seed);
    ActionSummary full = RandomSummary(rng, 12);
    // A frontier is knowledge already shipped: any sub-summary.
    ActionSummary frontier = full.RandomSub(rng);
    ActionSummary delta = full.DeltaSince(frontier);
    EXPECT_TRUE(delta.IsSubsummaryOf(full))
        << "every delta is a legal sub-summary, seed " << seed;
    ActionSummary rebuilt = frontier;
    rebuilt.MergeFrom(delta);
    EXPECT_EQ(rebuilt, full)
        << "frontier ∪ delta == full summary, seed " << seed;
    EXPECT_TRUE(full.DeltaSince(full).empty()) << "no gap, no delta";
  }
}

TEST(ActionSummaryTest, FrontierIsMonotoneUnderRepeatedDeltas) {
  // Simulate a peer link: knowledge grows, deltas ship, the frontier only
  // ever gains entries/status — and consecutive deltas coalesce into one
  // legal payload.
  Rng rng(7);
  ActionSummary know, frontier;
  for (int round = 0; round < 30; ++round) {
    ActionId a = static_cast<ActionId>(rng.Below(15) + 1);
    if (!know.Contains(a)) {
      know.AddActive(a);
    } else if (know.IsActive(a)) {
      know.SetStatus(a, rng.Chance(0.5) ? ActionStatus::kCommitted
                                        : ActionStatus::kAborted);
    }
    ActionSummary before = frontier;
    ActionSummary delta = know.DeltaSince(frontier);
    // Coalescing: two pending deltas merged equal one delta computed late.
    ActionSummary d2 = know.DeltaSince(frontier);
    ActionSummary coalesced = delta;
    coalesced.MergeFrom(d2);
    EXPECT_TRUE(coalesced.IsSubsummaryOf(know))
        << "coalesced deltas stay legal sub-summaries";
    frontier.MergeFrom(delta);
    EXPECT_TRUE(before.IsSubsummaryOf(frontier)) << "frontier is monotone";
    EXPECT_EQ(frontier, know) << "after shipping, peer is caught up";
  }
}

TEST(ActionSummaryTest, RandomSubIsAlwaysSubsummary) {
  Rng rng(5);
  ActionSummary s;
  for (ActionId a = 1; a <= 10; ++a) {
    s.AddActive(a);
    if (a % 2 == 0) s.SetStatus(a, ActionStatus::kCommitted);
    if (a % 5 == 0) s.SetStatus(a, ActionStatus::kAborted);
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(s.RandomSub(rng).IsSubsummaryOf(s));
  }
}

/// The whole-summary scan precondition (b12) was judged by before the
/// registry grew a child index — kept as the reference the indexed
/// LocalChildrenDone must agree with.
bool LocalChildrenDoneByScan(const ActionRegistry& reg,
                             const ActionSummary& summary, ActionId a) {
  for (const auto& [c, s] : summary.entries()) {
    if (c != kRootAction && reg.Parent(c) == a && s == ActionStatus::kActive) {
      return false;
    }
  }
  return true;
}

/// Reference for LocallyDead: the materialized ancestor chain.
bool LocallyDeadByChain(const ActionRegistry& reg,
                        const ActionSummary& summary, ActionId a) {
  for (ActionId c : reg.AncestorChain(a)) {
    if (c != kRootAction && summary.IsAborted(c)) return true;
  }
  return false;
}

TEST(DistPredicateTest, ChildIndexAgreesWithWholeSummaryScan) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    testutil::RandomRegistryParams p;
    p.top_level = 2 + static_cast<int>(rng.Below(4));
    ActionRegistry reg = testutil::MakeRandomRegistry(rng, p);
    // Arbitrary (not necessarily parent-closed) knowledge: each action
    // absent, active, committed or aborted.
    ActionSummary t;
    for (ActionId a = 1; a < reg.size(); ++a) {
      switch (rng.Below(4)) {
        case 0:
          break;
        case 1:
          t.AddActive(a);
          break;
        case 2:
          t.AddActive(a);
          t.SetStatus(a, ActionStatus::kCommitted);
          break;
        default:
          t.AddActive(a);
          t.SetStatus(a, ActionStatus::kAborted);
      }
    }
    for (ActionId a = 0; a < reg.size(); ++a) {
      EXPECT_EQ(LocalChildrenDone(reg, t, a),
                LocalChildrenDoneByScan(reg, t, a))
          << "action " << a << " seed " << seed;
      EXPECT_EQ(LocallyDead(reg, t, a), LocallyDeadByChain(reg, t, a))
          << "action " << a << " seed " << seed;
    }
  }
}

/// Every action has one fate (even: committed, odd: aborted), so all the
/// summaries below are truthful and never disagree — as in ℬ, where only
/// the home node decides a status.
ActionStatus Fate(ActionId a) {
  return a % 2 == 0 ? ActionStatus::kCommitted : ActionStatus::kAborted;
}

ActionSummary RandomTruthfulSummary(Rng& rng, ActionId n, double keep) {
  ActionSummary s;
  for (ActionId a = 1; a <= n; ++a) {
    if (!rng.Chance(keep)) continue;
    s.AddActive(a);
    if (rng.Chance(0.5)) s.SetStatus(a, Fate(a));
  }
  return s;
}

TEST(DeltaLogTest, ChangeListDeltaEqualsDeltaSinceAtEveryFlush) {
  constexpr NodeId kPeers = 3;
  constexpr NodeId kSelf = 1;
  constexpr ActionId kActions = 40;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed);
    ActionSummary t;
    DeltaLog log(kPeers);
    std::vector<ActionSummary> frontier(kPeers);  // reference frontiers
    int flushes = 0;
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t op = rng.Below(100);
      if (op < 40) {
        // Node event: create, or decide a known action's fate.
        const auto a = static_cast<ActionId>(rng.Below(kActions) + 1);
        if (!t.Contains(a)) {
          t.AddActive(a);
          log.Note(a);
        } else if (t.IsActive(a)) {
          t.SetStatus(a, Fate(a));
          log.Note(a);
        }
      } else if (op < 60) {
        // Receive merge: a peer's payload, echo-suppressed as the
        // runtimes do (the sender's frontier covers what it sent).
        const auto from = static_cast<NodeId>(rng.Below(kPeers));
        ActionSummary payload = RandomTruthfulSummary(rng, kActions, 0.2);
        if (from != kSelf) {
          log.Covered(from, payload);
          frontier[from].MergeFrom(payload);
        }
        std::vector<ActionId> changed;
        t.MergeFrom(payload, &changed);
        for (ActionId a : changed) log.Note(a);
      } else if (op < 70) {
        // Echo-suppression merge on its own (a payload that never reached
        // the summary, e.g. a stale duplicate).
        const auto j = static_cast<NodeId>(rng.Below(kPeers));
        if (j == kSelf) continue;
        ActionSummary payload = RandomTruthfulSummary(rng, kActions, 0.1);
        log.Covered(j, payload);
        frontier[j].MergeFrom(payload);
      } else if (op < 73) {
        // Crash wipe, then rebirth from a retained buffer.
        t = ActionSummary{};
        if (rng.Chance(0.5)) {
          t.MergeFrom(RandomTruthfulSummary(rng, kActions, 0.5));
          log.NoteAll(t);
        }
      } else {
        std::vector<ActionSummary> shipped(kPeers);
        log.Flush(t, kSelf, [&](NodeId j, ActionSummary delta) {
          EXPECT_FALSE(delta.empty());
          shipped[j] = std::move(delta);
        });
        for (NodeId j = 0; j < kPeers; ++j) {
          if (j == kSelf) continue;
          const ActionSummary want = t.DeltaSince(frontier[j]);
          EXPECT_EQ(shipped[j], want)
              << "peer " << j << " step " << step << " seed " << seed;
          frontier[j].MergeFrom(want);
          EXPECT_EQ(log.frontier(j), frontier[j]);
        }
        EXPECT_EQ(log.pending(), 0u);
        ++flushes;
      }
    }
    EXPECT_GT(flushes, 50) << "seed " << seed;
  }
}

TEST(TopologyTest, AccessesLiveWithTheirObjects) {
  ActionRegistry reg;
  ActionId t = reg.NewAction(kRootAction);
  ActionId a = reg.NewAccess(t, 5, Update::Read());
  Topology topo = Topology::RoundRobin(&reg, 3);
  EXPECT_EQ(topo.HomeOfAction(a), topo.HomeOfObject(5));
  EXPECT_EQ(topo.HomeOfObject(5), 5u % 3u);
}

TEST(TopologyTest, OriginIsParentsHomeExceptTopLevel) {
  ActionRegistry reg;
  ActionId t = reg.NewAction(kRootAction);   // id 1
  ActionId s = reg.NewAction(t);             // id 2
  Topology topo = Topology::RoundRobin(&reg, 2);
  EXPECT_EQ(topo.Origin(t), topo.HomeOfAction(t)) << "top-level";
  EXPECT_EQ(topo.Origin(s), topo.HomeOfAction(t)) << "child born at parent";
}

class DistAlgebraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    t1_ = reg_.NewAction(kRootAction);                    // id 1
    a1_ = reg_.NewAccess(t1_, 0, Update::Add(1));         // id 2, x0
    t2_ = reg_.NewAction(kRootAction);                    // id 3
    a2_ = reg_.NewAccess(t2_, 0, Update::Add(2));         // id 4, x0
    topo_ = std::make_unique<Topology>(
        &reg_, 2, [](ObjectId) -> NodeId { return 0; },
        [this](ActionId a) -> NodeId { return a == t2_ ? 1u : 0u; });
    alg_ = std::make_unique<DistAlgebra>(topo_.get());
  }

  void Step(DistState& s, const DistEvent& e) {
    ASSERT_TRUE(alg_->Defined(s, e)) << ToString(e);
    alg_->Apply(s, e);
  }

  ActionRegistry reg_;
  ActionId t1_, a1_, t2_, a2_;
  std::unique_ptr<Topology> topo_;
  std::unique_ptr<DistAlgebra> alg_;
};

TEST_F(DistAlgebraTest, CreateOnlyAtOrigin) {
  auto s = alg_->Initial();
  EXPECT_FALSE(alg_->Defined(s, NodeCreate{0, t2_})) << "t2 originates at 1";
  EXPECT_TRUE(alg_->Defined(s, NodeCreate{1, t2_}));
  EXPECT_TRUE(alg_->Defined(s, NodeCreate{0, t1_}));
}

TEST_F(DistAlgebraTest, ChildNeedsParentKnowledge) {
  auto s = alg_->Initial();
  // a2's origin is home(parent) = node 1; its parent t2 must be known
  // there and uncommitted.
  EXPECT_FALSE(alg_->Defined(s, NodeCreate{1, a2_}));
  Step(s, NodeCreate{1, t2_});
  EXPECT_TRUE(alg_->Defined(s, NodeCreate{1, a2_}));
}

TEST_F(DistAlgebraTest, PerformNeedsLocalKnowledgeAtHomeNode) {
  auto s = alg_->Initial();
  Step(s, NodeCreate{1, t2_});
  Step(s, NodeCreate{1, a2_});
  // a2 was created at node 1 (its origin), but its home (x0's home) is
  // node 0, which has not heard of it yet: perform undefined.
  EXPECT_FALSE(alg_->Defined(s, NodePerform{0, a2_, 0}));
  // Propagate knowledge: node 1 sends its summary; node 0 receives.
  Step(s, Send{1, 0, s.nodes[1].summary});
  Step(s, Receive{0, s.buffer[0]});
  EXPECT_TRUE(alg_->Defined(s, NodePerform{0, a2_, 0}));
}

TEST_F(DistAlgebraTest, FullDistributedCommitFlow) {
  auto s = alg_->Initial();
  // t1/a1 live at node 0 entirely.
  Step(s, NodeCreate{0, t1_});
  Step(s, NodeCreate{0, a1_});
  Step(s, NodePerform{0, a1_, 0});
  EXPECT_TRUE(s.nodes[0].vmap.IsDefined(0, a1_));
  Step(s, NodeReleaseLock{0, a1_, 0});
  Step(s, NodeCommit{0, t1_});
  Step(s, NodeReleaseLock{0, t1_, 0});
  EXPECT_EQ(s.nodes[0].vmap.Get(0, kRootAction), 1);
  // t2 at node 1; its access runs at node 0 after knowledge flows.
  Step(s, NodeCreate{1, t2_});
  Step(s, NodeCreate{1, a2_});
  Step(s, Send{1, 0, s.nodes[1].summary});
  Step(s, Receive{0, s.buffer[0]});
  Step(s, NodePerform{0, a2_, 1});
  Step(s, NodeReleaseLock{0, a2_, 0});
  // Commit of t2 happens at node 1: it must first learn a2 is done.
  EXPECT_FALSE(alg_->Defined(s, NodeCommit{1, t2_}))
      << "node 1 still believes a2 active";
  Step(s, Send{0, 1, s.nodes[0].summary});
  Step(s, Receive{1, s.buffer[1]});
  Step(s, NodeCommit{1, t2_});
  // Node 0 releases t2's lock only after hearing about the commit.
  EXPECT_FALSE(alg_->Defined(s, NodeReleaseLock{0, t2_, 0}));
  Step(s, Send{1, 0, s.nodes[1].summary});
  Step(s, Receive{0, s.buffer[0]});
  Step(s, NodeReleaseLock{0, t2_, 0});
  EXPECT_EQ(s.nodes[0].vmap.Get(0, kRootAction), 3);
}

TEST_F(DistAlgebraTest, StaleAbortKnowledgeAllowsLoseLock) {
  auto s = alg_->Initial();
  Step(s, NodeCreate{0, t1_});
  Step(s, NodeCreate{0, a1_});
  Step(s, NodePerform{0, a1_, 0});
  Step(s, NodeAbort{0, t1_});
  // Node 0 knows t1 aborted: it may discard both locks.
  EXPECT_TRUE(alg_->Defined(s, NodeLoseLock{0, a1_, 0}));
  Step(s, NodeLoseLock{0, a1_, 0});
  EXPECT_FALSE(s.nodes[0].vmap.IsDefined(0, a1_));
}

TEST_F(DistAlgebraTest, SendRequiresSubsummary) {
  auto s = alg_->Initial();
  Step(s, NodeCreate{0, t1_});
  ActionSummary lie;
  lie.AddActive(t1_);
  lie.SetStatus(t1_, ActionStatus::kCommitted);
  EXPECT_FALSE(alg_->Defined(s, Send{0, 1, lie}))
      << "cannot send knowledge you do not have";
  ActionSummary truth;
  truth.AddActive(t1_);
  EXPECT_TRUE(alg_->Defined(s, Send{0, 1, truth}));
}

TEST_F(DistAlgebraTest, ReceiveRequiresBufferedKnowledge) {
  auto s = alg_->Initial();
  ActionSummary sum;
  sum.AddActive(t1_);
  EXPECT_FALSE(alg_->Defined(s, Receive{1, sum})) << "nothing sent yet";
  Step(s, NodeCreate{0, t1_});
  Step(s, Send{0, 1, sum});
  EXPECT_TRUE(alg_->Defined(s, Receive{1, sum}));
  // Duplicated delivery is fine (M_j is cumulative knowledge).
  Step(s, Receive{1, sum});
  EXPECT_TRUE(alg_->Defined(s, Receive{1, sum}));
}

TEST(DistAlgebraPropertyTest, DoerLocalityHolds) {
  // Local Domain / Local Changes (Lemma 22): an event's definability and
  // effect depend only on its doer's component. We verify definability
  // locality by perturbing a non-doer component.
  Rng rng(77);
  action::ActionRegistry reg = testutil::MakeRandomRegistry(rng);
  Topology topo = Topology::RoundRobin(&reg, 3);
  DistAlgebra alg(&topo);
  DistEventCandidates cand(&alg, 7);
  auto run = algebra::RandomRun(alg, std::ref(cand), rng, 60);
  // Ghost actions registered after the run: valid ids that the recorded
  // events never touch, used to perturb non-doer components.
  ActionId ghost1 = reg.NewAction(kRootAction);
  ActionId ghost2 = reg.NewAction(kRootAction);
  // Replay; at each step, scramble a non-doer node's summary and check
  // Defined is unchanged.
  auto s = alg.Initial();
  for (const auto& e : run.events) {
    NodeId doer = alg.Doer(e);
    DistState scrambled = s;
    for (NodeId other = 0; other < topo.k(); ++other) {
      if (other != doer) scrambled.nodes[other].summary.AddActive(ghost1);
    }
    if (doer != topo.k()) {  // buffer perturbation for node events
      for (NodeId j = 0; j < topo.k(); ++j) {
        if (!std::holds_alternative<Send>(e)) {
          scrambled.buffer[j].AddActive(ghost2);
        }
      }
    }
    EXPECT_EQ(alg.Defined(s, e), alg.Defined(scrambled, e))
        << "locality violated for " << ToString(e);
    alg.Apply(s, e);
  }
}

TEST(DistAlgebraPropertyTest, EventCandidatesDeterministicFromSeed) {
  // Two candidate generators with the same seed must propose identical
  // event lists at every state along a run — the property the chaos
  // tests' bit-reproducibility guarantee rests on.
  Rng rng(13);
  action::ActionRegistry reg = testutil::MakeRandomRegistry(rng);
  Topology topo = Topology::RoundRobin(&reg, 3);
  DistAlgebra alg(&topo);
  DistEventCandidates a(&alg, 31);
  DistEventCandidates b(&alg, 31);
  DistEventCandidates c(&alg, 32);
  auto s = alg.Initial();
  bool diverged_from_c = false;
  for (int step = 0; step < 60; ++step) {
    std::vector<DistEvent> ca = a(s);
    std::vector<DistEvent> cb = b(s);
    ASSERT_EQ(ca, cb) << "step " << step;
    if (ca != c(s)) diverged_from_c = true;
    // Advance along the first *defined* candidate so both generators see
    // the same next state.
    bool advanced = false;
    for (const DistEvent& e : ca) {
      if (alg.Defined(s, e)) {
        alg.Apply(s, e);
        advanced = true;
        break;
      }
    }
    if (!advanced) break;
  }
  EXPECT_TRUE(diverged_from_c)
      << "a different seed should propose different random sub-summaries";
}

}  // namespace
}  // namespace rnt::dist

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "aat/aat.h"
#include "algebra/algebra.h"
#include "faults/faults.h"
#include "orphan/orphan.h"
#include "sim/node_core.h"
#include "sim/parallel_runner.h"
#include "testutil.h"

namespace rnt::sim {
namespace {

using action::ActionRegistry;
using action::Update;

faults::FaultPlan ChaoticPlan(std::uint64_t seed) {
  faults::FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = 0.3;
  plan.dup_prob = 0.25;
  plan.delay_prob = 0.25;
  plan.max_delay_rounds = 3;
  plan.crashes.push_back(faults::CrashSpec{0, /*at_stamp=*/8, /*down_for=*/4});
  plan.crashes.push_back(
      faults::CrashSpec{1, /*at_stamp=*/20, /*down_for=*/5});
  plan.partitions.push_back(
      faults::PartitionSpec{0, 1, /*from_stamp=*/5, /*until_stamp=*/25});
  return plan;
}

ActionRegistry MediumRegistry(std::uint64_t seed) {
  Rng rng(seed);
  testutil::RandomRegistryParams p;
  p.top_level = 3;
  p.max_children = 3;
  p.max_depth = 3;
  p.objects = 4;
  return testutil::MakeRandomRegistry(rng, p);
}

TEST(FaultInjectorTest, DeterministicFromSeed) {
  faults::FaultPlan plan = ChaoticPlan(99);
  faults::FaultInjector a(plan);
  faults::FaultInjector b(plan);
  for (int i = 0; i < 200; ++i) {
    auto va = a.OnMessage();
    auto vb = b.OnMessage();
    EXPECT_EQ(va.drop, vb.drop) << i;
    EXPECT_EQ(va.delay, vb.delay) << i;
    EXPECT_EQ(va.duplicate_delay, vb.duplicate_delay) << i;
  }
}

TEST(FaultInjectorTest, FixedDrawCountAcrossRates) {
  // The same seed sees the same underlying random sequence at any fault
  // rate: every call consumes a fixed number of draws, so the i-th
  // verdict of a drop=0.6 injector and a drop=0.0 injector decide from
  // the *same* random positions. Observable consequence: whenever the
  // loud injector does not drop, its delay must agree with the quiet one.
  faults::FaultPlan loud;
  loud.seed = 7;
  loud.drop_prob = 0.6;
  loud.delay_prob = 1.0;
  faults::FaultPlan quiet;
  quiet.seed = 7;
  quiet.drop_prob = 0.0;
  quiet.delay_prob = 1.0;
  faults::FaultInjector a(loud);
  faults::FaultInjector b(quiet);
  int survivors = 0;
  for (int i = 0; i < 200; ++i) {
    auto va = a.OnMessage();
    auto vb = b.OnMessage();
    if (!va.drop) {
      ++survivors;
      EXPECT_EQ(va.delay, vb.delay) << "call " << i;
    }
  }
  EXPECT_GT(survivors, 0);
}

TEST(FaultInjectorTest, FixedDrawSweepAcrossDropAndDelayRates) {
  // Cross-rate sweep of the fixed-draw contract with ONE seed: every
  // injector in the drop×delay grid consumes the same number of draws per
  // call, so the i-th verdict of any two injectors decides from identical
  // random positions. Two observable consequences, checked against the
  // all-delay/no-drop baseline: (1) a verdict's delay agrees with the
  // baseline whenever both roll a delay; (2) raising drop_prob can only
  // grow the set of dropped calls — a call the loud injector passes, the
  // quiet one passes too (thresholding one shared uniform draw).
  faults::FaultPlan base;
  base.seed = 1234;
  base.drop_prob = 0.0;
  base.delay_prob = 1.0;
  base.max_delay_rounds = 4;
  constexpr int kCalls = 300;
  std::vector<int> base_delay(kCalls);
  {
    faults::FaultInjector b(base);
    for (int i = 0; i < kCalls; ++i) base_delay[i] = b.OnMessage().delay;
  }
  const double kDrops[] = {0.0, 0.2, 0.5, 0.8};
  const double kDelays[] = {0.0, 0.3, 1.0};
  std::vector<char> prev_dropped;  // from the next-lower drop rate
  for (double drop : kDrops) {
    std::vector<char> dropped(kCalls, 0);
    for (double delay : kDelays) {
      faults::FaultPlan plan = base;
      plan.drop_prob = drop;
      plan.delay_prob = delay;
      faults::FaultInjector inj(plan);
      for (int i = 0; i < kCalls; ++i) {
        auto v = inj.OnMessage();
        if (delay == 1.0) dropped[i] = v.drop ? 1 : 0;
        if (!v.drop && v.delay > 0) {
          EXPECT_EQ(v.delay, base_delay[i])
              << "call " << i << " drop=" << drop << " delay=" << delay;
        }
      }
    }
    if (!prev_dropped.empty()) {
      for (int i = 0; i < kCalls; ++i) {
        EXPECT_LE(prev_dropped[i], dropped[i])
            << "call " << i << ": survived at a higher drop rate only";
      }
    }
    prev_dropped = std::move(dropped);
  }
}

TEST(FaultInjectorTest, ValidatePlanRejectsBadInputs) {
  faults::FaultPlan plan;
  plan.drop_prob = 1.5;
  EXPECT_EQ(faults::ValidatePlan(plan, 3).code(),
            StatusCode::kInvalidArgument);
  plan.drop_prob = 0.1;
  plan.crashes.push_back(faults::CrashSpec{9, 0, 4});
  EXPECT_EQ(faults::ValidatePlan(plan, 3).code(),
            StatusCode::kInvalidArgument);
  plan.crashes.clear();
  plan.partitions.push_back(faults::PartitionSpec{0, 1, 10, 5});
  EXPECT_EQ(faults::ValidatePlan(plan, 3).code(),
            StatusCode::kInvalidArgument);
  plan.partitions.clear();
  // Crash windows [8, 12) and [10, 15) of one node overlap.
  plan.crashes.push_back(faults::CrashSpec{1, 8, 4});
  plan.crashes.push_back(faults::CrashSpec{1, 10, 5});
  EXPECT_EQ(faults::ValidatePlan(plan, 3).code(),
            StatusCode::kInvalidArgument);
  plan.crashes.clear();
  EXPECT_TRUE(faults::ValidatePlan(plan, 3).ok());
}

TEST(ChaosDriverTest, FaultFreeRunMatchesPlainDriver) {
  ActionRegistry reg = MediumRegistry(5);
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 3);
  dist::DistAlgebra alg(&topo);
  auto plain = RunProgram(alg);
  ASSERT_TRUE(plain.ok()) << plain.status();
  ParallelOptions opt;  // default plan: no faults
  opt.check_invariants = true;
  auto chaos = ChaosRunProgram(alg, opt);
  ASSERT_TRUE(chaos.ok()) << chaos.status();
  EXPECT_TRUE(chaos->complete);
  EXPECT_EQ(chaos->stats.dropped_msgs, 0u);
  EXPECT_EQ(chaos->stats.crashes, 0u);
  EXPECT_EQ(chaos->stats.timeout_aborts, 0u);
  EXPECT_EQ(chaos->stats.commits, plain->stats.commits);
  EXPECT_EQ(chaos->stats.performs, plain->stats.performs);
  for (ObjectId x = 0; x < 4; ++x) {
    NodeId h = topo.HomeOfObject(x);
    const auto* mine = chaos->final_state.nodes[h].vmap.EntriesFor(x);
    const auto* theirs = plain->final_state.nodes[h].vmap.EntriesFor(x);
    ASSERT_EQ(mine == nullptr, theirs == nullptr) << "object " << x;
    if (mine != nullptr) {
      EXPECT_EQ(*mine, *theirs) << "object " << x;
    }
  }
}

TEST(ChaosDriverTest, SurvivesChaosWithInvariantsUnderFire) {
  // The acceptance scenario: 30% drop, duplication, delays, two node
  // crashes, one temporary partition — the run terminates, holds the
  // Lemma 23-26 local-consistency obligations after every round, and its
  // terminal abstract state satisfies Theorem 9 and orphan consistency.
  ActionRegistry reg = MediumRegistry(11);
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 3);
  dist::DistAlgebra alg(&topo);
  ParallelOptions opt;
  opt.plan = ChaoticPlan(42);
  opt.check_invariants = true;
  auto run = ChaosRunProgram(alg, opt);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->complete) << run->stalls.ToString();
  EXPECT_EQ(run->stats.crashes, 2u);
  EXPECT_EQ(run->stats.recovered_nodes, 2u);
  EXPECT_GT(run->stats.dropped_msgs, 0u);
  EXPECT_GT(run->stats.duplicated_msgs, 0u);
  EXPECT_GT(run->stats.retries, 0u);
  auto abstract = ReplayAbstract(alg, run->events);
  ASSERT_TRUE(abstract.ok()) << abstract.status();
  EXPECT_TRUE(aat::IsPermDataSerializable(abstract->tree));
  EXPECT_TRUE(orphan::CheckOrphanViewConsistency(abstract->tree).ok());
}

TEST(ChaosDriverTest, EventLogIsAValidComputationOfB) {
  // The log must replay cleanly against the *un-crashed* algebra: crash
  // wipes are not events, and recovery re-enters legal states via Receive
  // of the monotone buffer, so validity of the whole sequence is exactly
  // the claim that faults were scheduled, never semantically forced.
  ActionRegistry reg = MediumRegistry(11);
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 3);
  dist::DistAlgebra alg(&topo);
  ParallelOptions opt;
  opt.plan = ChaoticPlan(42);
  auto run = ChaosRunProgram(alg, opt);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(algebra::IsValidSequence(
      alg, std::span<const dist::DistEvent>(run->events)));
}

TEST(ChaosDriverTest, BitReproducibleFromSeed) {
  ActionRegistry reg = MediumRegistry(11);
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 3);
  dist::DistAlgebra alg(&topo);
  ParallelOptions opt;
  opt.plan = ChaoticPlan(42);
  auto a = ChaosRunProgram(alg, opt);
  auto b = ChaosRunProgram(alg, opt);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_TRUE(a->stats == b->stats);
  EXPECT_TRUE(a->final_state == b->final_state);
  EXPECT_TRUE(a->events == b->events);
  // And a different seed takes a different trajectory (same program, same
  // fault rates — only the PRNG stream differs).
  ParallelOptions other = opt;
  other.plan.seed = 43;
  auto c = ChaosRunProgram(alg, other);
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_FALSE(a->events == c->events);
}

TEST(ChaosDriverTest, TimeoutAbortsUnreachableSubtransactions) {
  // Object x0 is homed on node 2, which is permanently partitioned from
  // everyone. Both transactions need x0, can never reach it, and must be
  // timeout-aborted at their own (reachable) homes, with zero performs.
  // Node 2 never learns of the two accesses it homes, so the run ends
  // incomplete, and the diagnosis names both (as on the threaded runner,
  // ParallelRecoveryTest.PermanentPartitionDegradesGracefully).
  ActionRegistry reg;
  ActionId t1 = reg.NewAction(kRootAction);
  ActionId t2 = reg.NewAction(kRootAction);
  ActionId a1 = reg.NewAccess(t1, 0, Update::Add(1));
  ActionId a2 = reg.NewAccess(t2, 0, Update::Add(2));
  dist::Topology topo(
      &reg, 3, [](ObjectId) { return 2u; },
      [&](ActionId a) { return a == t1 ? 0u : 1u; });
  dist::DistAlgebra alg(&topo);
  ParallelOptions opt;
  opt.plan.partitions.push_back(faults::PartitionSpec{0, 2, 0, 1 << 20});
  opt.plan.partitions.push_back(faults::PartitionSpec{1, 2, 0, 1 << 20});
  opt.max_attempts_per_step = 4;
  // Node 2 can never resolve its objects; keep its hopeless spin short,
  // as ParallelRecoveryTest.PermanentPartitionDegradesGracefully does.
  opt.max_idle_spins = 1u << 14;
  opt.check_invariants = true;
  auto run = ChaosRunProgram(alg, opt);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_FALSE(run->complete);
  std::set<ActionId> stuck;
  for (const StalledAction& sa : run->stalls.stalled) {
    if (sa.is_access && sa.home == 2 && sa.object == 0) stuck.insert(sa.action);
  }
  EXPECT_EQ(stuck, (std::set<ActionId>{a1, a2})) << run->stalls.ToString();
  EXPECT_EQ(run->stats.timeout_aborts, 2u);
  EXPECT_EQ(run->stats.performs, 0u);
  EXPECT_EQ(run->stats.commits, 0u);
  EXPECT_GT(run->stats.dropped_msgs, 0u) << "partition ate the requests";
  // The accesses are now live orphans below aborted parents; the tree is
  // still serializable and orphan-consistent (they never performed).
  auto abstract = ReplayAbstract(alg, run->events);
  ASSERT_TRUE(abstract.ok()) << abstract.status();
  EXPECT_TRUE(abstract->tree.IsAborted(t1));
  EXPECT_TRUE(abstract->tree.IsAborted(t2));
  EXPECT_EQ(orphan::Orphans(abstract->tree).size(), 2u);
  EXPECT_TRUE(aat::IsPermDataSerializable(abstract->tree));
  EXPECT_TRUE(orphan::CheckOrphanViewConsistency(abstract->tree).ok());
}

TEST(ChaosDriverTest, CrashRecoveryPreservesOutcome) {
  // A crash wipes node 1's volatile summary mid-run; recovery replays the
  // buffer M_1 (kept complete by the driver's WAL self-sends), so the
  // run finishes with exactly the fault-free values.
  ActionRegistry reg = MediumRegistry(23);
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 3);
  dist::DistAlgebra alg(&topo);
  ParallelOptions faultfree;
  auto base = ChaosRunProgram(alg, faultfree);
  ASSERT_TRUE(base.ok()) << base.status();
  ASSERT_TRUE(base->complete);
  ParallelOptions opt;
  opt.plan.crashes.push_back(faults::CrashSpec{1, /*at_stamp=*/6,
                                               /*down_for=*/3});
  opt.check_invariants = true;
  auto run = ChaosRunProgram(alg, opt);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->complete) << run->stalls.ToString();
  EXPECT_EQ(run->stats.crashes, 1u);
  EXPECT_EQ(run->stats.recovered_nodes, 1u);
  EXPECT_EQ(run->stats.commits, base->stats.commits);
  EXPECT_EQ(run->stats.performs, base->stats.performs);
  for (ObjectId x = 0; x < 4; ++x) {
    NodeId h = topo.HomeOfObject(x);
    const auto* mine = run->final_state.nodes[h].vmap.EntriesFor(x);
    const auto* theirs = base->final_state.nodes[h].vmap.EntriesFor(x);
    ASSERT_EQ(mine == nullptr, theirs == nullptr) << "object " << x;
    if (mine != nullptr) {
      EXPECT_EQ(*mine, *theirs) << "object " << x;
    }
  }
}

TEST(ChaosDriverTest, PermanentCrashDegradesGracefully) {
  // Node 2 hosts transaction t1 and dies forever mid-run. t1 cannot
  // commit and cannot even be aborted (its home is gone), so its subtree
  // is abandoned — but t2, homed elsewhere, still commits, and the
  // partial result carries a stall diagnosis naming the abandoned work.
  ActionRegistry reg;
  ActionId t1 = reg.NewAction(kRootAction);
  ActionId a1 = reg.NewAccess(t1, 0, Update::Add(7));
  ActionId t2 = reg.NewAction(kRootAction);
  reg.NewAccess(t2, 1, Update::Add(5));
  dist::Topology topo(
      &reg, 3, [](ObjectId x) { return static_cast<NodeId>(x % 2); },
      [&](ActionId a) { return reg.IsAncestor(t1, a) ? 2u : 0u; });
  dist::DistAlgebra alg(&topo);
  ParallelOptions opt;
  // t1 creates at node 2 and a1 at node 2 (origin = parent's home); a1
  // performs at node 0 after a knowledge transfer; then node 2 dies
  // before t1's commit can run there. The stamp comes from the
  // fault-free run of this program, whose event log records create(t1)
  // at stamp 14, a1's perform at stamp 22 and commit(t1) at stamp 36:
  // stamp 25 falls after the perform and before the commit.
  opt.plan.crashes.push_back(faults::CrashSpec{
      2, /*at_stamp=*/25, faults::CrashSpec::kNeverReborn});
  opt.max_attempts_per_step = 4;
  // Node 0 waits on t1's commit for good; it gives up after this many
  // idle passes.
  opt.max_idle_spins = 1u << 14;
  auto run = ChaosRunProgram(alg, opt);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_FALSE(run->complete);
  EXPECT_FALSE(run->stalls.empty()) << "diagnosis must name the stall";
  EXPECT_EQ(run->stats.crashes, 1u);
  EXPECT_EQ(run->stats.recovered_nodes, 0u);
  auto abstract = ReplayAbstract(alg, run->events);
  ASSERT_TRUE(abstract.ok()) << abstract.status();
  EXPECT_TRUE(abstract->tree.IsCommitted(t2)) << "t2 must still commit";
  EXPECT_TRUE(abstract->tree.IsActive(t1)) << "t1 abandoned, not aborted";
  bool names_t1 = false;
  for (const StalledAction& s : run->stalls.stalled) {
    if (s.action == t1) names_t1 = true;
  }
  EXPECT_TRUE(names_t1) << run->stalls.ToString();
  (void)a1;
}

TEST(ChaosDriverTest, StaticAbortSetStillHonored) {
  ActionRegistry reg;
  ActionId t1 = reg.NewAction(kRootAction);
  ActionId s1 = reg.NewAction(t1);
  reg.NewAccess(s1, 0, Update::Add(100));
  ActionId s2 = reg.NewAction(t1);
  reg.NewAccess(s2, 0, Update::Add(1));
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 2);
  dist::DistAlgebra alg(&topo);
  ParallelOptions opt;
  opt.abort_set = {s1};
  opt.plan.seed = 3;
  opt.plan.drop_prob = 0.2;
  opt.check_invariants = true;
  auto run = ChaosRunProgram(alg, opt);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->complete);
  EXPECT_EQ(run->stats.aborts, 1u);
  EXPECT_EQ(run->stats.performs, 1u) << "s1's access never ran";
  NodeId h = topo.HomeOfObject(0);
  EXPECT_EQ(run->final_state.nodes[h].vmap.Get(0, kRootAction), 1);
}

TEST(ChaosDriverTest, SweepManySeedsAlwaysSerializable) {
  // Property sweep: across seeds and fault rates, every terminal state
  // must satisfy Theorem 9 and orphan-view consistency, and every event
  // log must be a valid ℬ computation.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    ActionRegistry reg = MediumRegistry(seed);
    dist::Topology topo = dist::Topology::RoundRobin(&reg, 3);
    dist::DistAlgebra alg(&topo);
    ParallelOptions opt;
    opt.plan = ChaoticPlan(seed * 31 + 1);
    opt.plan.drop_prob = 0.2 + 0.05 * static_cast<double>(seed % 3);
    opt.check_invariants = true;
    auto run = ChaosRunProgram(alg, opt);
    ASSERT_TRUE(run.ok()) << run.status() << " seed " << seed;
    auto abstract = ReplayAbstract(alg, run->events);
    ASSERT_TRUE(abstract.ok()) << abstract.status() << " seed " << seed;
    EXPECT_TRUE(aat::IsPermDataSerializable(abstract->tree))
        << "seed " << seed;
    EXPECT_TRUE(orphan::CheckOrphanViewConsistency(abstract->tree).ok())
        << "seed " << seed;
    EXPECT_TRUE(algebra::IsValidSequence(
        alg, std::span<const dist::DistEvent>(run->events)))
        << "seed " << seed;
  }
}

TEST(ChaosDriverTest, RejectsLazyPropagationFailFast) {
  // The node loop is reactive (nodes learn, they are not asked), so every
  // host of it rejects kLazy; the default policy, kDelta, runs.
  ActionRegistry reg = MediumRegistry(5);
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 2);
  dist::DistAlgebra alg(&topo);
  ParallelOptions lazy;
  lazy.propagation = Propagation::kLazy;
  auto run = ChaosRunProgram(alg, lazy);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  ParallelOptions par;
  par.propagation = Propagation::kLazy;
  EXPECT_EQ(RunParallel(alg, par).status().code(),
            StatusCode::kInvalidArgument);

  ParallelOptions delta;
  ASSERT_TRUE(ChaosRunProgram(alg, delta).ok());
}

TEST(FaultInjectorTest, CrashRuleRebirthsOnTheStampOrOnceTheRestSettle) {
  const faults::CrashSpec crash{1, /*at_stamp=*/10, /*down_for=*/5};
  EXPECT_FALSE(crash.RebornAt(14, /*rest_settled=*/false));
  EXPECT_TRUE(crash.RebornAt(15, /*rest_settled=*/false));
  EXPECT_TRUE(crash.RebornAt(11, /*rest_settled=*/true)) << "early rebirth";
  const faults::CrashSpec never{1, 10, faults::CrashSpec::kNeverReborn};
  EXPECT_FALSE(never.RebornAt(std::int64_t{1} << 62, false));
  EXPECT_FALSE(never.RebornAt(11, /*rest_settled=*/true));
  // A permanent crash is a valid plan; a later crash of the same node
  // falls inside its window, which never closes.
  faults::FaultPlan plan;
  plan.crashes.push_back(never);
  EXPECT_TRUE(faults::ValidatePlan(plan, 3).ok());
  plan.crashes.push_back(faults::CrashSpec{1, 1 << 30, 4});
  EXPECT_EQ(faults::ValidatePlan(plan, 3).code(),
            StatusCode::kInvalidArgument);
}

/// Final value of every object at its home.
std::vector<Value> HomeValues(const dist::Topology& topo,
                              const dist::DistState& state, ObjectId objects) {
  std::vector<Value> values;
  for (ObjectId x = 0; x < objects; ++x) {
    values.push_back(
        state.nodes[topo.HomeOfObject(x)].vmap.Get(x, kRootAction));
  }
  return values;
}

TEST(InProcessHostTest, SchedulersAgreeOnCrashDropPartitionPlans) {
  // The sweep and the thread scheduler over the same host: the same plan
  // of crashes, drops and a partition must end the same way on both.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    ActionRegistry reg = MediumRegistry(seed + 60);
    dist::Topology topo = dist::Topology::RoundRobin(&reg, 3);
    dist::DistAlgebra alg(&topo);
    ParallelOptions opt;
    opt.plan = ChaoticPlan(seed * 7 + 5);
    auto swept = ChaosRunProgram(alg, opt);
    auto threaded = RunParallel(alg, opt);
    ASSERT_TRUE(swept.ok()) << swept.status() << " seed " << seed;
    ASSERT_TRUE(threaded.ok()) << threaded.status() << " seed " << seed;
    EXPECT_EQ(swept->complete, threaded->complete) << "seed " << seed;
    EXPECT_TRUE(swept->complete) << swept->stalls.ToString();
    EXPECT_EQ(swept->stats.crashes, threaded->stats.crashes)
        << "seed " << seed;
    EXPECT_EQ(swept->stats.crashes, 2u) << "seed " << seed;
    EXPECT_EQ(swept->stats.recovered_nodes, threaded->stats.recovered_nodes)
        << "seed " << seed;
    EXPECT_EQ(swept->stats.timeout_aborts, 0u) << "seed " << seed;
    // The watchdog counts idle passes, so a loaded machine that starves a
    // node thread can make it timeout-abort live work (ROADMAP, "Outcomes
    // change only under faults"); only then may the values differ.
    if (threaded->stats.timeout_aborts > 0) continue;
    EXPECT_EQ(HomeValues(topo, swept->final_state, 4),
              HomeValues(topo, threaded->final_state, 4))
        << "seed " << seed;
  }
}

TEST(InProcessHostTest, NeverRebornCrashDegradesOnBothSchedulers) {
  // Node 2 is the home of t1, a subtransaction created at node 0 (its
  // parent's home), and dies before its first pass, for good. t1 can
  // neither commit nor be aborted there, so it is abandoned; t2, homed
  // elsewhere, still commits, and the diagnosis names t1.
  ActionRegistry reg;
  ActionId top = reg.NewAction(kRootAction);
  ActionId t1 = reg.NewAction(top);
  reg.NewAccess(t1, 0, Update::Add(7));
  ActionId t2 = reg.NewAction(kRootAction);
  reg.NewAccess(t2, 1, Update::Add(5));
  dist::Topology topo(
      &reg, 3, [](ObjectId x) { return static_cast<NodeId>(x % 2); },
      [&](ActionId a) { return reg.IsAncestor(t1, a) ? 2u : 0u; });
  dist::DistAlgebra alg(&topo);
  ParallelOptions opt;
  opt.plan.crashes.push_back(faults::CrashSpec{
      2, /*at_stamp=*/0, faults::CrashSpec::kNeverReborn});
  opt.max_idle_spins = 1u << 14;
  for (bool threads : {false, true}) {
    auto run = threads ? RunParallel(alg, opt) : ChaosRunProgram(alg, opt);
    ASSERT_TRUE(run.ok()) << run.status() << " threads " << threads;
    EXPECT_FALSE(run->complete) << "threads " << threads;
    EXPECT_EQ(run->stats.crashes, 1u) << "threads " << threads;
    EXPECT_EQ(run->stats.recovered_nodes, 0u) << "threads " << threads;
    auto abstract = ReplayAbstract(alg, run->events);
    ASSERT_TRUE(abstract.ok()) << abstract.status();
    EXPECT_TRUE(abstract->tree.IsCommitted(t2)) << "threads " << threads;
    EXPECT_TRUE(abstract->tree.IsActive(t1)) << "threads " << threads;
    EXPECT_FALSE(abstract->tree.IsCommitted(top)) << "threads " << threads;
    bool names_t1 = false;
    for (const StalledAction& sa : run->stalls.stalled) {
      if (sa.action == t1) names_t1 = true;
    }
    EXPECT_TRUE(names_t1) << "threads " << threads << "\n"
                          << run->stalls.ToString();
  }
}

TEST(InProcessHostTest, DefaultOptionsShareTheNodeProcessWatchdog) {
  // One options struct serves both schedulers, and its defaults are the
  // NodeCore defaults an rnt_node process runs with.
  const ParallelOptions options;
  const NodeCore::Options core;
  EXPECT_EQ(options.max_attempts_per_step, core.max_attempts_per_step);
  EXPECT_EQ(options.max_idle_spins, core.max_idle_spins);
  EXPECT_EQ(options.propagation, core.propagation);
}

TEST(InProcessHostTest, ThreadSchedulerRejectsCheckInvariants) {
  ActionRegistry reg = MediumRegistry(5);
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 2);
  dist::DistAlgebra alg(&topo);
  ParallelOptions opt;
  opt.check_invariants = true;
  EXPECT_EQ(RunParallel(alg, opt).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ChaosRunProgram(alg, opt).ok());
}

TEST(ChaosDriverTest, ToFaultStatsProjectsCounters) {
  DriverStats stats;
  stats.retries = 3;
  stats.crashes = 2;
  stats.dropped_msgs = 7;
  stats.duplicated_msgs = 1;
  stats.delayed_msgs = 4;
  stats.recovered_nodes = 2;
  stats.timeout_aborts = 1;
  txn::FaultStats f = ToFaultStats(stats);
  EXPECT_EQ(f.retries, 3u);
  EXPECT_EQ(f.crashes, 2u);
  EXPECT_EQ(f.dropped_msgs, 7u);
  EXPECT_EQ(f.duplicated_msgs, 1u);
  EXPECT_EQ(f.delayed_msgs, 4u);
  EXPECT_EQ(f.recovered_nodes, 2u);
  EXPECT_EQ(f.timeout_aborts, 1u);
  EXPECT_TRUE(f.Any());
  EXPECT_NE(f.ToString().find("crashes=2"), std::string::npos);
  EXPECT_FALSE(txn::FaultStats{}.Any());
}

}  // namespace
}  // namespace rnt::sim

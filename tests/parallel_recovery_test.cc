#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "aat/aat.h"
#include "algebra/algebra.h"
#include "faults/faults.h"
#include "orphan/orphan.h"
#include "sim/diagnosis.h"
#include "sim/parallel_runner.h"
#include "sim/program_spec.h"
#include "testutil.h"
#include "txn/online_checker.h"

// Crash-restart recovery and partition tolerance for the multi-threaded
// runner (DESIGN.md "Resilience in the concurrent runtime"). The headline
// property under test: a crash is *lossless* — the volatile summary is
// wiped, the node thread dies mid-loop, and the rebirth replay of the
// durable buffer M_i (paper §9.1) restores enough knowledge that every
// run still ends value-equivalent to the sequential DFS driver, with a
// merged log that is a valid ℬ computation whose abstract image passes
// the Theorem 9 checker. Labeled both `stress` (TSan hammers the
// crash/rebirth thread handoff) and `faults` (ASan sweeps the suite).

namespace rnt::sim {
namespace {

using action::ActionRegistry;
using action::Update;

ActionRegistry MediumRegistry(std::uint64_t seed) {
  Rng rng(seed);
  testutil::RandomRegistryParams p;
  p.top_level = 3;
  p.max_children = 3;
  p.max_depth = 3;
  p.objects = 4;
  return testutil::MakeRandomRegistry(rng, p);
}

/// Runs the program under `plan` on the concurrent runner and checks the
/// full recovery contract against the sequential driver: same semantic
/// event counts, same final value for every object at its home, valid
/// merged log, serializable + orphan-consistent abstract image that the
/// final state is locally consistent with, and a live Theorem 9 verdict
/// (streamed from inside the run) equal to the post-hoc one. The first
/// inner non-top action is statically aborted unless `with_abort` is
/// false. The run is left in `*out` when non-null, for scenario checks.
void CheckRecoveredEquivalence(std::uint64_t seed, const faults::FaultPlan& plan,
                               Propagation prop = Propagation::kDelta,
                               bool with_abort = true,
                               ParallelRun* out = nullptr) {
  ActionRegistry reg = MediumRegistry(seed);
  std::set<ActionId> abort_set;
  for (ActionId a = 1; a < reg.size() && with_abort; ++a) {
    if (!reg.IsAccess(a) && reg.Parent(a) != kRootAction) {
      abort_set.insert(a);
      break;
    }
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
  par_opt.plan = plan;
  txn::OnlineChecker live;
  par_opt.live_sink = &live;
  auto par = RunParallel(alg, par_opt);
  ASSERT_TRUE(par.ok()) << par.status() << " seed " << seed;
  EXPECT_TRUE(par->complete) << par->stalls.ToString() << " seed " << seed;
  EXPECT_EQ(par->stats.performs, seq->stats.performs) << "seed " << seed;
  EXPECT_EQ(par->stats.commits, seq->stats.commits) << "seed " << seed;
  EXPECT_EQ(par->stats.aborts, seq->stats.aborts) << "seed " << seed;
  for (ObjectId x = 0; x < 4; ++x) {
    NodeId h = topo.HomeOfObject(x);
    EXPECT_EQ(par->final_state.nodes[h].vmap.Get(x, kRootAction),
              seq->final_state.nodes[h].vmap.Get(x, kRootAction))
        << "object " << x << " seed " << seed;
  }
  EXPECT_TRUE(algebra::IsValidSequence(
      alg, std::span<const dist::DistEvent>(par->events)))
      << "seed " << seed;
  // The streaming checker certifies the crash-recovered log as it
  // replays; it must concur with the post-hoc Theorem 9 verdict, and so
  // must the one that watched the run live.
  txn::OnlineChecker online;
  auto abstract = ReplayAbstract(
      alg, std::span<const dist::DistEvent>(par->events), &online);
  ASSERT_TRUE(abstract.ok()) << abstract.status() << " seed " << seed;
  EXPECT_TRUE(aat::IsPermDataSerializable(abstract->tree)) << "seed " << seed;
  EXPECT_EQ(online.Verdict().outcome, txn::OnlineChecker::Outcome::kOk)
      << "seed " << seed << ": " << online.Verdict().detail;
  EXPECT_EQ(live.Verdict().outcome, online.Verdict().outcome)
      << "seed " << seed << ": " << live.Verdict().detail;
  EXPECT_TRUE(orphan::CheckOrphanViewConsistency(abstract->tree).ok())
      << "seed " << seed;
  EXPECT_TRUE(
      dist::CheckLocalConsistency(alg, par->final_state, *abstract).ok())
      << "seed " << seed;
  if (out != nullptr) *out = std::move(*par);
}

TEST(ParallelRecoveryTest, CrashRecoveryMatchesSequentialAcrossSeeds) {
  // One stamp-triggered crash per run, rotating over the three nodes.
  // The trigger stamps are tiny, so the crash always fires well before
  // the program drains; recovery must be invisible in the outcome.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    faults::FaultPlan plan;
    faults::CrashSpec crash;
    crash.node = static_cast<NodeId>(seed % 3);
    crash.at_stamp = 4 + static_cast<std::int64_t>(seed);
    crash.down_for = 3;
    plan.crashes.push_back(crash);
    CheckRecoveredEquivalence(seed, plan);
  }
}

TEST(ParallelRecoveryTest, MultiCrashRecoversEveryTime) {
  // Two non-overlapping crashes of node 0 plus one of node 1 — each
  // rebirth replays a *larger* M_i than the last (retention is monotone).
  faults::FaultPlan plan;
  plan.crashes.push_back(faults::CrashSpec{0, /*at_stamp=*/5, /*down_for=*/4});
  plan.crashes.push_back(
      faults::CrashSpec{0, /*at_stamp=*/30, /*down_for=*/4});
  plan.crashes.push_back(
      faults::CrashSpec{1, /*at_stamp=*/18, /*down_for=*/6});
  ActionRegistry reg = MediumRegistry(41);
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 3);
  dist::DistAlgebra alg(&topo);
  auto seq = RunProgram(alg);
  ASSERT_TRUE(seq.ok()) << seq.status();
  ParallelOptions opt;
  opt.plan = plan;
  auto run = RunParallel(alg, opt);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->complete);
  EXPECT_EQ(run->stats.crashes, 3u);
  EXPECT_EQ(run->stats.recovered_nodes, 3u);
  EXPECT_EQ(run->stats.performs, seq->stats.performs);
  EXPECT_EQ(run->stats.commits, seq->stats.commits);
  for (ObjectId x = 0; x < 4; ++x) {
    NodeId h = topo.HomeOfObject(x);
    EXPECT_EQ(run->final_state.nodes[h].vmap.Get(x, kRootAction),
              seq->final_state.nodes[h].vmap.Get(x, kRootAction))
        << "object " << x;
  }
  EXPECT_TRUE(algebra::IsValidSequence(
      alg, std::span<const dist::DistEvent>(run->events)));
}

TEST(ParallelRecoveryTest, CrashUnderMessageChaosStillEquivalent) {
  // Crashes compose with drop/duplicate/delay: the WAL self-sends are
  // exempt from the injector (a node's link to itself never fails), so
  // M_i stays complete even while cross-node traffic is being mangled.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    faults::FaultPlan plan;
    plan.seed = seed * 17 + 3;
    plan.drop_prob = 0.25;
    plan.dup_prob = 0.2;
    plan.delay_prob = 0.25;
    plan.max_delay_rounds = 3;
    faults::CrashSpec crash;
    crash.node = static_cast<NodeId>((seed + 1) % 3);
    crash.at_stamp = 6;
    crash.down_for = 5;
    plan.crashes.push_back(crash);
    CheckRecoveredEquivalence(seed + 50, plan,
                              seed % 2 == 0 ? Propagation::kDelta
                                            : Propagation::kEager);
  }
}

TEST(ParallelRecoveryTest, HealingPartitionCompletesEquivalently) {
  // A stamp-window partition severs the 0-1 link for the first 60 stamps.
  // Watchdog heartbeats keep the logical clock ticking even if every
  // thread idles, so the window provably expires; once healed, the
  // anti-entropy rebroadcast repairs the knowledge gap and the run must
  // finish exactly like the fault-free one.
  faults::FaultPlan plan;
  faults::PartitionSpec part;
  part.a = 0;
  part.b = 1;
  part.from_stamp = 0;
  part.until_stamp = 60;
  plan.partitions.push_back(part);
  CheckRecoveredEquivalence(7, plan);
}

TEST(ParallelRecoveryTest, CrashDuringHealingPartition) {
  // The combined scenario from the issue's acceptance bar: a node dies
  // while a partition is open, rebirths into the still-partitioned
  // network, and the run nevertheless converges after the heal.
  faults::FaultPlan plan;
  faults::CrashSpec crash;
  crash.node = 2;
  crash.at_stamp = 10;
  crash.down_for = 8;
  plan.crashes.push_back(crash);
  faults::PartitionSpec part;
  part.a = 1;
  part.b = 2;
  part.from_stamp = 5;
  part.until_stamp = 50;
  plan.partitions.push_back(part);
  CheckRecoveredEquivalence(13, plan);
}

TEST(ParallelRecoveryTest, PermanentPartitionDegradesGracefully) {
  // Object x0 is homed on node 2, permanently unreachable from nodes 0
  // and 1 (stamp windows that never close). The runner must not hang:
  // the per-node watchdog timeout-aborts the stuck top-level work at its
  // reachable home, node 2 eventually abandons obligations it can never
  // learn about, and the partial result still replays to a serializable,
  // orphan-consistent abstract state with a stall diagnosis naming the
  // abandoned work.
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
  opt.plan.partitions.push_back(
      faults::PartitionSpec{0, 2, 0, std::int64_t{1} << 40});
  opt.plan.partitions.push_back(
      faults::PartitionSpec{1, 2, 0, std::int64_t{1} << 40});
  opt.max_attempts_per_step = 4;
  // Node 2 can never resolve its create obligations; keep its hopeless
  // spin short (the default 2^20 cap exists for adversarial plans that
  // do eventually heal, and is painfully slow under sanitizers).
  opt.max_idle_spins = 1u << 14;
  auto run = RunParallel(alg, opt);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_GE(run->stats.timeout_aborts, 2u)
      << "both unreachable transactions must be timeout-aborted";
  EXPECT_GT(run->stats.dropped_msgs, 0u) << "the partition ate traffic";
  EXPECT_EQ(run->stats.performs, 0u) << "x0 was never reachable";
  // A partitioned, timeout-aborted run: aborted subtrees everywhere —
  // the streaming checker must still concur with post-hoc.
  txn::OnlineChecker online;
  auto abstract = ReplayAbstract(
      alg, std::span<const dist::DistEvent>(run->events), &online);
  ASSERT_TRUE(abstract.ok()) << abstract.status();
  // Node 2 never learns of the accesses it homes, so it gives up, and
  // the runner's own diagnosis names them.
  EXPECT_FALSE(run->complete);
  std::set<ActionId> stuck;
  for (const StalledAction& sa : run->stalls.stalled) {
    if (sa.is_access && sa.home == 2 && sa.object == 0) stuck.insert(sa.action);
  }
  EXPECT_EQ(stuck, (std::set<ActionId>{a1, a2})) << run->stalls.ToString();
  EXPECT_TRUE(algebra::IsValidSequence(
      alg, std::span<const dist::DistEvent>(run->events)));
  EXPECT_TRUE(aat::IsPermDataSerializable(abstract->tree));
  EXPECT_EQ(online.Verdict().outcome, txn::OnlineChecker::Outcome::kOk)
      << online.Verdict().detail;
  EXPECT_TRUE(orphan::CheckOrphanViewConsistency(abstract->tree).ok());
}

TEST(ParallelRecoveryTest, RoundEraPlansWorkUnchangedOnStampClock) {
  // Positional brace-init plans, the form the chaos tests and examples
  // write, mean the same stamps on this runner as on every other host.
  faults::FaultPlan plan;
  plan.crashes.push_back(faults::CrashSpec{1, /*at_stamp=*/8, /*down_for=*/4});
  plan.partitions.push_back(
      faults::PartitionSpec{0, 2, /*from_stamp=*/5, /*until_stamp=*/40});
  CheckRecoveredEquivalence(29, plan);
}

TEST(ParallelRecoveryTest, CrashFiresWithEventRecordingOff) {
  // The plan runs on the logical clock, which must tick on every event
  // even when nothing is recorded — otherwise the crash never fires.
  ProgramSpec spec;
  spec.seed = 11;
  spec.top_level = 64;
  spec.objects = 16;
  spec.k = 3;
  const ActionRegistry reg = spec.BuildRegistry();
  const dist::Topology topo = dist::Topology::RoundRobin(&reg, spec.k);
  const dist::DistAlgebra alg(&topo);
  DriverOptions seq_opt;
  auto seq = RunProgram(alg, seq_opt);
  ASSERT_TRUE(seq.ok()) << seq.status();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ParallelOptions opt;
    opt.record_events = false;
    opt.plan.seed = seed;
    faults::CrashSpec crash;
    crash.node = 1;
    crash.at_stamp = 400;
    opt.plan.crashes.push_back(crash);
    auto run = RunParallel(alg, opt);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_TRUE(run->events.empty());
    EXPECT_TRUE(run->complete) << "seed " << seed;
    EXPECT_EQ(run->stats.crashes, 1u) << "seed " << seed;
    EXPECT_EQ(run->stats.recovered_nodes, 1u) << "seed " << seed;
    // Recovery itself is lossless; only a watchdog timeout-abort (the
    // graceful-degradation path, reachable when a loaded host starves
    // the threads long enough) may change the outcome by design.
    if (run->stats.timeout_aborts > 0) continue;
    for (ObjectId x = 0; x < spec.objects; ++x) {
      const NodeId h = topo.HomeOfObject(x);
      EXPECT_EQ(run->final_state.nodes[h].vmap.Get(x, kRootAction),
                seq->final_state.nodes[h].vmap.Get(x, kRootAction))
          << "object " << x << " seed " << seed;
    }
  }
}

/// Message faults only: drop/duplicate/delay (distinct delays reorder
/// deliveries).
faults::FaultPlan MessageChaosPlan(std::uint64_t seed) {
  faults::FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = 0.2;
  plan.dup_prob = 0.2;
  plan.delay_prob = 0.3;
  plan.max_delay_rounds = 3;
  return plan;
}

TEST(ConcurrentChaosTest, DeltaModeSurvivesDropDupReorder) {
  // Drop/duplicate/reorder injected into cross-thread traffic while
  // delta propagation runs: dropped deltas are recovered by the
  // anti-entropy full-summary retry, duplicates are absorbed by merge
  // idempotence, and reordering by merge commutativity.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    CheckRecoveredEquivalence(seed * 13 + 3, MessageChaosPlan(seed * 7 + 1),
                              Propagation::kDelta, /*with_abort=*/false);
  }
}

TEST(ConcurrentChaosTest, EagerModeSurvivesMessageChaosWithAborts) {
  ParallelRun run;
  CheckRecoveredEquivalence(17, MessageChaosPlan(5), Propagation::kEager,
                            /*with_abort=*/true, &run);
  EXPECT_EQ(run.stats.aborts, 1u);
}

TEST(ConcurrentChaosTest, AcceptsAndRecoversCrashPlansOnConcurrentBuffer) {
  // The full plan: both crashes fire on the logical clock, each node
  // dies mid-loop and is rebirthed by durable-buffer replay, under
  // message chaos and a temporary partition.
  faults::FaultPlan plan;
  plan.seed = 1;
  plan.drop_prob = 0.3;
  plan.dup_prob = 0.25;
  plan.delay_prob = 0.25;
  plan.max_delay_rounds = 3;
  plan.crashes.push_back(faults::CrashSpec{0, /*at_stamp=*/8, /*down_for=*/4});
  plan.crashes.push_back(
      faults::CrashSpec{1, /*at_stamp=*/20, /*down_for=*/5});
  plan.partitions.push_back(
      faults::PartitionSpec{0, 1, /*from_stamp=*/5, /*until_stamp=*/25});
  ParallelRun run;
  CheckRecoveredEquivalence(2, plan, Propagation::kDelta,
                            /*with_abort=*/false, &run);
  EXPECT_EQ(run.stats.crashes, 2u);
  EXPECT_EQ(run.stats.recovered_nodes, 2u);
}

}  // namespace
}  // namespace rnt::sim

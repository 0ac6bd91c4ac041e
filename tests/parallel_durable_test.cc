// Durable retention for the multi-threaded runner: with
// ParallelOptions::durable_dir set, every entry retained into a node's
// M_i is written through to an on-disk RetentionLog, so the §9.1
// recovery summary survives process death — and a rebirth audits the
// write-through (in-memory M_i must be a sub-summary of the log).
#include <gtest/gtest.h>

#include "dist/dist_algebra.h"
#include "sim/parallel_runner.h"
#include "storage/retention_log.h"
#include "temp_dir.h"
#include "testutil.h"

namespace rnt::sim {
namespace {

using action::ActionRegistry;
using action::Update;

/// Three top-level transactions with nested children over four objects —
/// enough cross-node traffic for retention to carry real knowledge.
ActionRegistry MakeProgram() {
  ActionRegistry reg;
  for (int t = 0; t < 3; ++t) {
    ActionId top = reg.NewAction(kRootAction);
    reg.NewAccess(top, static_cast<ObjectId>(t), Update::Add(t + 1));
    ActionId child = reg.NewAction(top);
    reg.NewAccess(child, 3, Update::MulAdd(2, t));
  }
  return reg;
}

TEST(ParallelDurableTest, RetentionLogCoversFinalKnowledge) {
  rnt::testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  ActionRegistry reg = MakeProgram();
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 3);
  dist::DistAlgebra alg(&topo);
  ParallelOptions opt;
  opt.durable_dir = dir.path();
  // A mid-run crash forces the rebirth path, whose recover-from-disk
  // audit (in-memory M_i ⊆ on-disk log) runs inside the runner.
  opt.plan.crashes.push_back(faults::CrashSpec{1, 5, 3});
  auto run = RunParallel(alg, opt);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->complete);
  EXPECT_EQ(run->stats.crashes, 1u);
  EXPECT_EQ(run->stats.recovered_nodes, 1u);

  // Process-restart durability: reloading the logs from disk (as a new
  // process would) must cover every node's final knowledge, and a second
  // load is identical — the log is append-only and Load is pure.
  for (NodeId i = 0; i < 3; ++i) {
    auto loaded = storage::RetentionLog::Load(dir.path(), i);
    ASSERT_TRUE(loaded.ok()) << loaded.status() << " node " << i;
    EXPECT_TRUE(
        run->final_state.nodes[i].summary.IsSubsummaryOf(*loaded))
        << "node " << i << " knows more than its durable M_i";
    auto reloaded = storage::RetentionLog::Load(dir.path(), i);
    ASSERT_TRUE(reloaded.ok());
    EXPECT_EQ(*loaded, *reloaded) << "node " << i;
  }
}

TEST(ParallelDurableTest, MissingDurableDirFailsFast) {
  ActionRegistry reg = MakeProgram();
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 2);
  dist::DistAlgebra alg(&topo);
  ParallelOptions opt;
  opt.durable_dir = "/nonexistent-rnt-durable-dir";
  EXPECT_FALSE(RunParallel(alg, opt).ok());
}

}  // namespace
}  // namespace rnt::sim

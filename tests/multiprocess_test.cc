#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <span>
#include <string>
#include <vector>

#include "aat/aat.h"
#include "algebra/algebra.h"
#include "dist/dist_algebra.h"
#include "dist/topology.h"
#include "faults/faults.h"
#include "orphan/orphan.h"
#include "sim/event_log.h"
#include "sim/parallel_runner.h"
#include "sim/program_spec.h"
#include "sim/supervisor.h"
#include "temp_dir.h"
#include "txn/online_checker.h"

// The real multi-process transport (DESIGN.md "Transport layer"): k
// rnt_node OS processes over unix-domain / TCP sockets, kill -9 process
// chaos delivered by the supervisor, bounded rebirth from the durable
// retention log. The headline acceptance property: a seeded chaos run
// over 3 node processes survives >= 10 compounding kill -9 cycles plus
// stamp-windowed partitions with every top-level transaction committed,
// recovered >= acked durable knowledge per node, and a merged trace that
// is value-equivalent to the in-process backend on the same seed and
// certified by the Theorem 9 checker.

namespace rnt::sim {
namespace {

#ifndef RNT_NODE_BINARY
#error "multiprocess_test requires RNT_NODE_BINARY (see tests/CMakeLists.txt)"
#endif

ProgramSpec SmallSpec(std::uint64_t seed) {
  ProgramSpec spec;
  spec.seed = seed;
  spec.top_level = 3;
  spec.max_children = 3;
  spec.max_depth = 3;
  spec.objects = 4;
  spec.k = 3;
  return spec;
}

/// The in-process oracle for a spec: same registry, same topology, the
/// MailboxTransport backend (fault-free — transport faults must be
/// invisible in the outcome, so one oracle serves every plan).
StatusOr<ParallelRun> InProcessOracle(const ProgramSpec& spec,
                                      action::ActionRegistry* reg) {
  *reg = spec.BuildRegistry();
  dist::Topology topo =
      dist::Topology::RoundRobin(reg, static_cast<NodeId>(spec.k));
  dist::DistAlgebra alg(&topo);
  return RunParallel(alg, ParallelOptions{});
}

/// Judges one multi-process run against the oracle: value equivalence
/// per object at its home, a valid merged ℬ computation, and the
/// Theorem 9 / orphan certification of its abstract image.
void JudgeRun(const ProgramSpec& spec, const MultiProcessRun& run,
              const ParallelRun& oracle) {
  action::ActionRegistry reg = spec.BuildRegistry();
  dist::Topology topo =
      dist::Topology::RoundRobin(&reg, static_cast<NodeId>(spec.k));
  dist::DistAlgebra alg(&topo);

  // Commit rate 1.0: every top-level transaction committed at its home.
  for (ActionId a = 1; a < reg.size(); ++a) {
    if (reg.Parent(a) != kRootAction || reg.IsAccess(a)) continue;
    const NodeId h = topo.HomeOfAction(a);
    EXPECT_TRUE(run.final_state.nodes[h].summary.IsCommitted(a))
        << "top-level " << a << " not committed at home " << h;
  }
  EXPECT_EQ(run.stats.performs, oracle.stats.performs);
  EXPECT_EQ(run.stats.commits, oracle.stats.commits);
  EXPECT_EQ(run.stats.aborts, oracle.stats.aborts);
  for (ObjectId x = 0; x < static_cast<ObjectId>(spec.objects); ++x) {
    const NodeId h = topo.HomeOfObject(x);
    EXPECT_EQ(run.final_state.nodes[h].vmap.Get(x, kRootAction),
              oracle.final_state.nodes[h].vmap.Get(x, kRootAction))
        << "object " << x;
  }
  EXPECT_TRUE(algebra::IsValidSequence(
      alg, std::span<const dist::DistEvent>(run.events)));
  txn::OnlineChecker online;
  auto abstract = ReplayAbstract(
      alg, std::span<const dist::DistEvent>(run.events), &online);
  ASSERT_TRUE(abstract.ok()) << abstract.status();
  EXPECT_TRUE(aat::IsPermDataSerializable(abstract->tree));
  EXPECT_EQ(online.Verdict().outcome, txn::OnlineChecker::Outcome::kOk)
      << online.Verdict().detail;
  EXPECT_TRUE(orphan::CheckOrphanViewConsistency(abstract->tree).ok());
}

/// The supervisor replays each node's trace on its own as it reads it
/// and merges the traces by stamp; replaying the merged log in order
/// must reach exactly the same state — every node's summary, lock table
/// and buffer.
void ExpectMergedReplayGivesFinalState(const ProgramSpec& spec,
                                       const MultiProcessRun& run) {
  action::ActionRegistry reg = spec.BuildRegistry();
  dist::Topology topo =
      dist::Topology::RoundRobin(&reg, static_cast<NodeId>(spec.k));
  dist::DistAlgebra alg(&topo);
  dist::DistState replayed = alg.Initial();
  for (const dist::DistEvent& e : run.events) alg.Apply(replayed, e);
  for (NodeId i = 0; i < topo.k(); ++i) {
    EXPECT_EQ(replayed.nodes[i].summary, run.final_state.nodes[i].summary)
        << "node " << i;
    EXPECT_TRUE(replayed.nodes[i].vmap == run.final_state.nodes[i].vmap)
        << "node " << i;
    EXPECT_EQ(replayed.buffer[i], run.final_state.buffer[i]) << "node " << i;
  }
}

/// The supervisor streams the ground truth while the nodes run; the
/// post-hoc MergeNodeTraces over the same directory must reach the same
/// merged log, final state and event-derived counters.
void ExpectStreamMatchesMerge(const ProgramSpec& spec, const std::string& dir,
                              const MultiProcessRun& run) {
  action::ActionRegistry reg = spec.BuildRegistry();
  dist::Topology topo =
      dist::Topology::RoundRobin(&reg, static_cast<NodeId>(spec.k));
  dist::DistAlgebra alg(&topo);
  MultiProcessRun merged;
  const Status s = MergeNodeTraces(dir, topo.k(), alg, &merged);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(run.events, merged.events);
  for (NodeId i = 0; i < topo.k(); ++i) {
    EXPECT_EQ(run.final_state.nodes[i].summary,
              merged.final_state.nodes[i].summary)
        << "node " << i;
    EXPECT_TRUE(run.final_state.nodes[i].vmap ==
                merged.final_state.nodes[i].vmap)
        << "node " << i;
    EXPECT_EQ(run.final_state.buffer[i], merged.final_state.buffer[i])
        << "node " << i;
  }
  EXPECT_EQ(run.stats.node_events, merged.stats.node_events);
  EXPECT_EQ(run.stats.performs, merged.stats.performs);
  EXPECT_EQ(run.stats.commits, merged.stats.commits);
  EXPECT_EQ(run.stats.aborts, merged.stats.aborts);
  EXPECT_EQ(run.stats.releases, merged.stats.releases);
  EXPECT_EQ(run.stats.loses, merged.stats.loses);
  EXPECT_EQ(run.stats.messages, merged.stats.messages);
  EXPECT_EQ(run.stats.summary_entries, merged.stats.summary_entries);
}

TEST(MultiProcessTest, UnixBackendMatchesInProcessNoFaults) {
  const ProgramSpec spec = SmallSpec(11);
  action::ActionRegistry reg;
  auto oracle = InProcessOracle(spec, &reg);
  ASSERT_TRUE(oracle.ok()) << oracle.status();

  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  SupervisorOptions opt;
  opt.spec = spec;
  opt.node_binary = RNT_NODE_BINARY;
  opt.dir = dir.path();
  opt.backend = SocketHub::Backend::kUnix;
  auto run = RunMultiProcess(opt);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->complete);
  EXPECT_EQ(run->kills, 0);
  // Frames to a node that is still starting are held, not eaten.
  EXPECT_EQ(run->hub.unroutable, 0u);
  JudgeRun(spec, *run, *oracle);
  ExpectMergedReplayGivesFinalState(spec, *run);
  ExpectStreamMatchesMerge(spec, dir.path(), *run);
}

TEST(MultiProcessTest, TcpBackendMatchesInProcess) {
  const ProgramSpec spec = SmallSpec(23);
  action::ActionRegistry reg;
  auto oracle = InProcessOracle(spec, &reg);
  ASSERT_TRUE(oracle.ok()) << oracle.status();

  // Fault-free, then with one kill: rebirth must be backend-agnostic.
  for (const bool kill : {false, true}) {
    testing::TempDir dir;
    ASSERT_TRUE(dir.ok());
    SupervisorOptions opt;
    opt.spec = spec;
    opt.node_binary = RNT_NODE_BINARY;
    opt.dir = dir.path();
    opt.backend = SocketHub::Backend::kTcp;
    if (kill) {
      faults::CrashSpec crash;
      crash.node = 1;
      crash.at_stamp = 12;
      crash.down_for = 5;
      opt.plan.crashes.push_back(crash);
    }
    auto run = RunMultiProcess(opt);
    ASSERT_TRUE(run.ok()) << run.status() << " kill " << kill;
    EXPECT_TRUE(run->complete);
    EXPECT_EQ(run->kills, kill ? 1 : 0);
    // Frames to a node still starting are held; only frames to the
    // killed node while it is down may be lost (the modelled fault).
    if (!kill) {
      EXPECT_EQ(run->hub.unroutable, 0u);
    }
    JudgeRun(spec, *run, *oracle);
    ExpectStreamMatchesMerge(spec, dir.path(), *run);
  }
}

TEST(MultiProcessTest, SurvivesCompoundingKillsAndPartitions) {
  // THE acceptance run: 12 scheduled kill -9s rotating over all three
  // node processes (stamp-triggered, with the quiescence early-fire rule
  // guaranteeing each one lands), two stamp-windowed partitions that
  // sever real socket connections, and background message chaos.
  const ProgramSpec spec = SmallSpec(7);
  action::ActionRegistry reg;
  auto oracle = InProcessOracle(spec, &reg);
  ASSERT_TRUE(oracle.ok()) << oracle.status();

  faults::FaultPlan plan;
  plan.seed = 1234;
  plan.drop_prob = 0.05;
  plan.dup_prob = 0.05;
  plan.delay_prob = 0.1;
  plan.max_delay_rounds = 2;
  for (int c = 0; c < 12; ++c) {
    faults::CrashSpec crash;
    crash.node = static_cast<NodeId>(c % 3);
    crash.at_stamp = 15 + 10 * c;
    crash.down_for = 4;
    plan.crashes.push_back(crash);
  }
  faults::PartitionSpec p01;
  p01.a = 0;
  p01.b = 1;
  p01.from_stamp = 20;
  p01.until_stamp = 60;
  plan.partitions.push_back(p01);
  faults::PartitionSpec p12;
  p12.a = 1;
  p12.b = 2;
  p12.from_stamp = 70;
  p12.until_stamp = 110;
  plan.partitions.push_back(p12);

  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  SupervisorOptions opt;
  opt.spec = spec;
  opt.node_binary = RNT_NODE_BINARY;
  opt.dir = dir.path();
  opt.backend = SocketHub::Backend::kUnix;
  opt.plan = plan;
  auto run = RunMultiProcess(opt);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->complete) << "chaos must degrade to retries, not give-up";
  EXPECT_GE(run->kills, 10) << "every scheduled kill must land";
  EXPECT_EQ(run->stats.crashes, static_cast<std::uint64_t>(run->kills));
  // Bounded rebirth's durability contract, per node: everything durably
  // acknowledged before a kill was recovered by the rebirth.
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_GE(run->recovered_scalar[i], run->acked_at_kill[i])
        << "node " << i << " lost acknowledged retention";
  }
  EXPECT_GT(run->stats.recovered_nodes, 0u);
  JudgeRun(spec, *run, *oracle);
  ExpectMergedReplayGivesFinalState(spec, *run);
  ExpectStreamMatchesMerge(spec, dir.path(), *run);
}

TEST(MultiProcessTest, NeverRebornKillLeavesTheRunIncomplete) {
  // A kNeverReborn crash means the same here as in-process: the node is
  // killed (its late trigger fires on quiescence) and never comes back,
  // the run still ends, and it is incomplete.
  const ProgramSpec spec = SmallSpec(11);
  faults::FaultPlan plan;
  plan.crashes.push_back(faults::CrashSpec{
      2, /*at_stamp=*/std::int64_t{1} << 40, faults::CrashSpec::kNeverReborn});
  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  SupervisorOptions opt;
  opt.spec = spec;
  opt.node_binary = RNT_NODE_BINARY;
  opt.dir = dir.path();
  opt.plan = plan;
  auto run = RunMultiProcess(opt);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_FALSE(run->complete);
  EXPECT_EQ(run->kills, 1);
  EXPECT_EQ(run->stats.crashes, 1u);
  EXPECT_EQ(run->stats.recovered_nodes, 0u);
  EXPECT_GT(run->stats.rounds, 0) << "the busiest node's passes";
}

TEST(MultiProcessTest, DeterministicFaultsAreDeterministic) {
  // Two multi-process runs of the same spec + plan agree on the final
  // values (the fault schedule is seeded; the *interleaving* may differ,
  // the outcome may not).
  const ProgramSpec spec = SmallSpec(31);
  faults::FaultPlan plan;
  plan.seed = 5;
  plan.drop_prob = 0.1;
  faults::CrashSpec crash;
  crash.node = 0;
  crash.at_stamp = 10;
  crash.down_for = 4;
  plan.crashes.push_back(crash);

  action::ActionRegistry reg = spec.BuildRegistry();
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 3);

  std::vector<Value> first;
  for (int rep = 0; rep < 2; ++rep) {
    testing::TempDir dir;
    ASSERT_TRUE(dir.ok());
    SupervisorOptions opt;
    opt.spec = spec;
    opt.node_binary = RNT_NODE_BINARY;
    opt.dir = dir.path();
    opt.plan = plan;
    auto run = RunMultiProcess(opt);
    ASSERT_TRUE(run.ok()) << run.status() << " rep " << rep;
    EXPECT_TRUE(run->complete);
    ExpectStreamMatchesMerge(spec, dir.path(), *run);
    std::vector<Value> values;
    for (ObjectId x = 0; x < static_cast<ObjectId>(spec.objects); ++x) {
      const NodeId h = topo.HomeOfObject(x);
      values.push_back(run->final_state.nodes[h].vmap.Get(x, kRootAction));
    }
    if (rep == 0) {
      first = values;
    } else {
      EXPECT_EQ(values, first);
    }
  }
}

TEST(MultiProcessTest, ReportsNodeWatchdogCountersUnderDrops) {
  // The watchdog counters live in the node processes; their heartbeats
  // carry them to the supervisor, summed over incarnations.
  ProgramSpec spec = SmallSpec(13);
  spec.top_level = 8;
  faults::FaultPlan plan;
  plan.seed = 17;
  plan.drop_prob = 0.3;
  faults::CrashSpec crash;
  crash.node = 2;
  crash.at_stamp = 10;
  crash.down_for = 4;
  plan.crashes.push_back(crash);

  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  SupervisorOptions opt;
  opt.spec = spec;
  opt.node_binary = RNT_NODE_BINARY;
  opt.dir = dir.path();
  opt.plan = plan;
  auto run = RunMultiProcess(opt);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->complete);
  EXPECT_GT(run->hub.dropped, 0u);
  EXPECT_GT(run->stats.retries, 0u);
  ExpectStreamMatchesMerge(spec, dir.path(), *run);
}

/// Writes `events` as node `node`'s incarnation-0 trace in `dir`.
void WriteTrace(const std::string& dir, NodeId node,
                const std::vector<StampedEvent>& events) {
  auto log = EventLog::Open(dir, node, 0);
  ASSERT_TRUE(log.ok()) << log.status();
  std::string batch;
  for (const StampedEvent& se : events) {
    EventLog::EncodeRecord(batch, se.stamp, se.event);
  }
  ASSERT_TRUE((*log)->AppendRecords(batch).ok());
}

TEST(MergeNodeTracesTest, MergesByStampThenNode) {
  const ProgramSpec spec = SmallSpec(11);
  action::ActionRegistry reg = spec.BuildRegistry();
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 3);
  dist::DistAlgebra alg(&topo);
  dist::ActionSummary one;
  one.AddActive(1);
  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  WriteTrace(dir.path(), 0,
             {{1, dist::DistEvent{dist::NodeCreate{0, 1}}},
              {3, dist::DistEvent{dist::Send{0, 0, one}}}});
  WriteTrace(dir.path(), 1,
             {{1, dist::DistEvent{dist::Send{0, 1, one}}},
              {2, dist::DistEvent{dist::Receive{1, one}}}});
  MultiProcessRun run;
  ASSERT_TRUE(MergeNodeTraces(dir.path(), 3, alg, &run).ok());
  const std::vector<dist::DistEvent> expected = {
      dist::DistEvent{dist::NodeCreate{0, 1}},  // (1, node 0)
      dist::DistEvent{dist::Send{0, 1, one}},   // (1, node 1)
      dist::DistEvent{dist::Receive{1, one}},   // (2, node 1)
      dist::DistEvent{dist::Send{0, 0, one}},   // (3, node 0)
  };
  EXPECT_EQ(run.events, expected);
  EXPECT_TRUE(run.final_state.nodes[0].summary.IsActive(1));
  EXPECT_EQ(run.final_state.buffer[0], one);
  EXPECT_EQ(run.final_state.buffer[1], one);
  EXPECT_EQ(run.final_state.nodes[1].summary, one);
  EXPECT_EQ(run.stats.node_events, 1u);
  EXPECT_EQ(run.stats.messages, 1u);
}

TEST(MergeNodeTracesTest, RejectsStampsThatDoNotIncrease) {
  // A node's Lamport stamps strictly increase; a sort would silently
  // reorder a trace that breaks this, the merge refuses it.
  const ProgramSpec spec = SmallSpec(11);
  action::ActionRegistry reg = spec.BuildRegistry();
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 3);
  dist::DistAlgebra alg(&topo);
  for (const std::uint64_t second : {std::uint64_t{4}, std::uint64_t{5}}) {
    testing::TempDir dir;
    ASSERT_TRUE(dir.ok());
    WriteTrace(dir.path(), 2,
               {{5, dist::DistEvent{dist::NodeCreate{2, 1}}},
                {second, dist::DistEvent{dist::NodeCommit{2, 1}}}});
    MultiProcessRun run;
    const Status s = MergeNodeTraces(dir.path(), 3, alg, &run);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << "second stamp " << second;
  }
}

TEST(MergeNodeTracesTest, RejectsAnotherNodesEvent) {
  const ProgramSpec spec = SmallSpec(11);
  action::ActionRegistry reg = spec.BuildRegistry();
  dist::Topology topo = dist::Topology::RoundRobin(&reg, 3);
  dist::DistAlgebra alg(&topo);
  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  WriteTrace(dir.path(), 0, {{1, dist::DistEvent{dist::NodeCreate{1, 1}}}});
  MultiProcessRun run;
  EXPECT_EQ(MergeNodeTraces(dir.path(), 3, alg, &run).code(),
            StatusCode::kDataLoss);
}

/// Runs rnt_node with `flag` appended to an otherwise valid argv; returns
/// the exit code and fills `err` with its stderr.
int RunNodeWithFlag(const std::string& flag, std::string* err) {
  testing::TempDir dir;
  const std::string err_path = dir.path() + "/stderr.txt";
  const std::string cmd = std::string(RNT_NODE_BINARY) + " --spec=" +
                          SmallSpec(1).Serialize() + " --dir=" + dir.path() +
                          " --endpoint=unix:" + dir.path() + "/no-hub.sock " +
                          flag + " 2>" + err_path;
  const int status = std::system(cmd.c_str());
  std::ifstream in(err_path);
  std::stringstream text;
  text << in.rdbuf();
  *err = text.str();
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(RntNodeArgvTest, RejectsBadValuesBeforeConnecting) {
  // Each bad value must be refused by name, with the usage line, before
  // the process dials the (absent) hub.
  for (const std::string flag :
       {"--propagation=lazy", "--node=one", "--incarnation=-1",
        "--max-idle-spins=12x"}) {
    std::string err;
    EXPECT_EQ(RunNodeWithFlag(flag, &err), 1) << flag;
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(err.find(name), std::string::npos) << flag << ": " << err;
    EXPECT_NE(err.find("usage: rnt_node"), std::string::npos) << err;
  }
}

}  // namespace
}  // namespace rnt::sim

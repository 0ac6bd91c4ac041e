// Chaos tour: the same distributed-ledger program executed three times on
// the distributed algebra ℬ — once on a perfect network, once under a
// deterministic fault plan that drops 30% of messages, duplicates and
// delays others, crashes two nodes mid-run (wiping their volatile
// summaries), and partitions a link for twenty stamps of the logical
// clock — then once more under the same storm with one thread per node.
//
// The point of the tour: the *outcome* is identical. Crashed nodes
// recover by replaying their buffer M_i ("all information ever sent
// toward i", §9.1), dropped knowledge is re-sent by anti-entropy, and
// the final tree is serializable and orphan-consistent either way — the
// faults only show up in the cost counters.
//
//   ./build/examples/chaos_tour [seed]

#include <cstdio>
#include <cstdlib>

#include "aat/aat.h"
#include "orphan/orphan.h"
#include "sim/parallel_runner.h"

using rnt::ActionId;
using rnt::NodeId;
using rnt::ObjectId;

namespace {

constexpr NodeId kNodes = 3;
constexpr ObjectId kObjects = 4;

// Three branch offices, each posting to a local ledger and to a shared
// settlement object homed at node 0 — knowledge must cross nodes.
void BuildProgram(rnt::action::ActionRegistry& reg) {
  const ObjectId settlement = 0;
  for (NodeId n = 0; n < kNodes; ++n) {
    ActionId top = reg.NewAction(rnt::kRootAction);
    ActionId local = reg.NewAction(top);
    reg.NewAccess(local, static_cast<ObjectId>(1 + n),
                  rnt::action::Update::Add(100 + n));
    ActionId settle = reg.NewAction(top);
    reg.NewAccess(settle, settlement, rnt::action::Update::Add(100 + n));
  }
}

/// Prints one leg; false if its log has no level-4 image.
bool PrintRun(const char* label, const rnt::dist::DistAlgebra& alg,
              const rnt::sim::ParallelRun& run) {
  auto replayed = rnt::sim::ReplayAbstract(alg, run.events);
  if (!replayed.ok()) {
    std::printf("%s replay failed: %s\n", label,
                replayed.status().ToString().c_str());
    return false;
  }
  const rnt::action::ActionTree& abstract = replayed->tree;
  const rnt::sim::DriverStats& s = run.stats;
  std::printf(
      "  [%s] rounds=%d messages=%llu performs=%llu commits=%llu\n"
      "           dropped=%llu duplicated=%llu delayed=%llu retries=%llu\n"
      "           crashes=%llu recovered=%llu timeout_aborts=%llu\n",
      label, s.rounds, static_cast<unsigned long long>(s.messages),
      static_cast<unsigned long long>(s.performs),
      static_cast<unsigned long long>(s.commits),
      static_cast<unsigned long long>(s.dropped_msgs),
      static_cast<unsigned long long>(s.duplicated_msgs),
      static_cast<unsigned long long>(s.delayed_msgs),
      static_cast<unsigned long long>(s.retries),
      static_cast<unsigned long long>(s.crashes),
      static_cast<unsigned long long>(s.recovered_nodes),
      static_cast<unsigned long long>(s.timeout_aborts));
  bool serial = rnt::aat::IsPermDataSerializable(abstract);
  bool orphan_ok = rnt::orphan::CheckOrphanViewConsistency(abstract).ok();
  std::printf("           complete=%s serializable=%s orphan-consistent=%s\n",
              run.complete ? "yes" : "NO", serial ? "yes" : "NO",
              orphan_ok ? "yes" : "NO");
  for (ObjectId x = 0; x < kObjects; ++x) {
    NodeId home = x % kNodes;  // RoundRobin placement, as below
    rnt::Value v = run.final_state.nodes[home].vmap.Get(x, rnt::kRootAction);
    std::printf("           object %u @ node %u = %lld\n", x, home,
                static_cast<long long>(v));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = argc > 1
                           ? static_cast<std::uint64_t>(std::atoll(argv[1]))
                           : 42;

  rnt::action::ActionRegistry reg;
  BuildProgram(reg);
  rnt::dist::Topology topo = rnt::dist::Topology::RoundRobin(&reg, kNodes);
  rnt::dist::DistAlgebra alg(&topo);

  std::printf("chaos tour: %u nodes, seed %llu\n", kNodes,
              static_cast<unsigned long long>(seed));

  // Leg 1: perfect network (the default FaultPlan injects nothing).
  rnt::sim::ParallelOptions calm;
  calm.check_invariants = true;
  auto baseline = rnt::sim::ChaosRunProgram(alg, calm);
  if (!baseline.ok()) {
    std::printf("baseline failed: %s\n", baseline.status().ToString().c_str());
    return 1;
  }
  std::printf("leg 1 — calm seas:\n");
  if (!PrintRun("calm ", alg, *baseline)) return 1;

  // Leg 2: the same program through the storm. Every fault below is
  // scheduled deterministically from the seed; rerunning with the same
  // seed reproduces the run bit-for-bit.
  rnt::sim::ParallelOptions stormy;
  stormy.check_invariants = true;
  stormy.plan.seed = seed;
  stormy.plan.drop_prob = 0.3;
  stormy.plan.dup_prob = 0.25;
  stormy.plan.delay_prob = 0.25;
  stormy.plan.max_delay_rounds = 3;
  stormy.plan.crashes.push_back(
      rnt::faults::CrashSpec{0, /*at_stamp=*/8, /*down_for=*/4});
  stormy.plan.crashes.push_back(
      rnt::faults::CrashSpec{1, /*at_stamp=*/20, /*down_for=*/5});
  stormy.plan.partitions.push_back(
      rnt::faults::PartitionSpec{0, 1, /*from_stamp=*/5, /*until_stamp=*/25});
  auto storm = rnt::sim::ChaosRunProgram(alg, stormy);
  if (!storm.ok()) {
    std::printf("storm failed: %s\n", storm.status().ToString().c_str());
    return 1;
  }
  std::printf("leg 2 — message chaos, two crashes, one partition:\n");
  if (!PrintRun("storm", alg, *storm)) return 1;

  // Leg 3: the same storm under the *thread* scheduler. Nodes are now
  // real threads; the crash kills node 0's thread mid-loop (its volatile
  // summary wiped, the durable retention buffer M_0 intact) and the
  // supervisor rebirths it with one legal Receive. The plan means the
  // same stamps here as in leg 2, and every leg is judged the same way:
  // its log replays through the level-4 algebra.
  rnt::sim::ParallelOptions parallel_storm = stormy;
  parallel_storm.check_invariants = false;  // a sweep-only check
  auto pstorm = rnt::sim::RunParallel(alg, parallel_storm);
  if (!pstorm.ok()) {
    std::printf("parallel storm failed: %s\n",
                pstorm.status().ToString().c_str());
    return 1;
  }
  std::printf("leg 3 — the same storm, one thread per node:\n");
  if (!PrintRun("storm∥", alg, *pstorm)) return 1;
  rnt::txn::FaultStats fstats = rnt::sim::ToFaultStats(pstorm->stats);
  std::printf("           fault record: %s\n", fstats.ToString().c_str());
  std::printf("           stall diagnosis: %s\n",
              pstorm->stalls.empty() ? "(none — every obligation resolved)"
                                     : pstorm->stalls.ToString().c_str());

  bool same = true;
  for (ObjectId x = 0; x < kObjects; ++x) {
    NodeId home = x % kNodes;
    rnt::Value base_v =
        baseline->final_state.nodes[home].vmap.Get(x, rnt::kRootAction);
    same = same &&
           base_v == storm->final_state.nodes[home].vmap.Get(
                         x, rnt::kRootAction) &&
           base_v == pstorm->final_state.nodes[home].vmap.Get(
                         x, rnt::kRootAction);
  }
  std::printf("verdict: final object values %s across the three legs\n",
              same ? "IDENTICAL" : "DIFFER");
  return same && storm->complete && pstorm->complete ? 0 : 1;
}

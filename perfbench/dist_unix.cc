// dist_unix: level B spread over k = 3 rnt_node OS processes talking
// through the unix-socket hub, fault-free, delta summary propagation.
// Each round runs one seeded ProgramSpec through sim::RunMultiProcess;
// its in-process RunParallel run is the oracle (built as set-up, off
// the timed path). Transactions run inside the node processes, so the
// client-visible latency of a top-level commit is the run itself: the
// program is submitted whole and its commits are acknowledged when the
// supervisor returns.
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "dist/dist_algebra.h"
#include "dist/topology.h"
#include "sim/event_log.h"
#include "sim/parallel_runner.h"
#include "sim/program_spec.h"
#include "sim/supervisor.h"
#include "storage/retention_log.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rnt::NodeId;
using rnt::ObjectId;
using rnt::Value;

constexpr std::uint32_t kTopLevel = 2048;
constexpr std::uint32_t kObjects = 256;
constexpr std::uint32_t kNodes = 3;

rnt::sim::ProgramSpec SpecFor(std::uint64_t seed, std::uint32_t top_level) {
  rnt::sim::ProgramSpec spec;
  spec.seed = seed;
  spec.top_level = top_level;
  spec.objects = kObjects;
  spec.k = kNodes;
  return spec;
}

/// Final value of every object at its home node.
template <typename State>
std::vector<Value> HomeValues(const rnt::dist::Topology& topo,
                              const State& state) {
  std::vector<Value> values;
  for (ObjectId x = 0; x < kObjects; ++x) {
    values.push_back(
        state.nodes[topo.HomeOfObject(x)].vmap.Get(x, rnt::kRootAction));
  }
  return values;
}

/// Times RunParallel on `spec` (no event recording); fills the final
/// values when `values` is non-null. Returns a negative time on error.
double TimeInProcess(const rnt::sim::ProgramSpec& spec,
                     std::vector<Value>* values, std::string* why) {
  const rnt::action::ActionRegistry registry = spec.BuildRegistry();
  const rnt::dist::Topology topo =
      rnt::dist::Topology::RoundRobin(&registry, static_cast<NodeId>(spec.k));
  const rnt::dist::DistAlgebra alg(&topo);
  rnt::sim::ParallelOptions options;
  options.record_events = false;
  const Clock::time_point t0 = Clock::now();
  auto run = rnt::sim::RunParallel(alg, options);
  const double seconds = SecondsSince(t0);
  if (!run.ok() || !run->complete) {
    *why = "in-process oracle: " +
           (run.ok() ? std::string("incomplete") : run.status().ToString());
    return -1;
  }
  if (values != nullptr) *values = HomeValues(topo, run->final_state);
  return seconds;
}

struct SimTally {
  std::vector<double> run_s;
  std::vector<double> inprocess_s;
  std::vector<double> size_exponent;
  std::uint64_t commits = 0;  // every commit, subtransactions included
  std::uint64_t messages = 0;
  std::uint64_t frames = 0;
  std::uint64_t node_events = 0;
  std::uint64_t summary_entries = 0;
};

}  // namespace

void RunDistUnix(const Args& args, Report* report) {
  std::vector<Round> rounds;
  SimTally sim;
  double measured = 0;
  for (int i = 0; report->correct; ++i) {
    Round round;
    const rnt::sim::ProgramSpec spec =
        SpecFor(args.seed * 1000003 + static_cast<std::uint64_t>(i), kTopLevel);
    std::string why;

    const Clock::time_point setup0 = Clock::now();
    std::vector<Value> oracle;
    const double inprocess_s = TimeInProcess(spec, &oracle, &why);
    round.setup_s = SecondsSince(setup0);
    if (inprocess_s < 0) {
      report->Fail(why);
      break;
    }

    const std::string dir = args.work_dir + "/dist-" + std::to_string(i);
    RemoveTree(dir);
    std::filesystem::create_directories(dir);
    rnt::sim::SupervisorOptions options;
    options.spec = spec;
    options.node_binary = RNT_NODE_BINARY;
    options.dir = dir;
    options.backend = rnt::sim::SocketHub::Backend::kUnix;
    options.propagation = rnt::sim::Propagation::kDelta;
    const Clock::time_point run0 = Clock::now();
    const CpuTicks ticks0 = CpuTicks::Read();
    auto run = rnt::sim::RunMultiProcess(options);
    round.wall_s = SecondsSince(run0);
    round.steal_share = StealShare(ticks0, CpuTicks::Read());
    round.attempted = spec.top_level;
    if (!run.ok()) {
      report->Fail("multi-process run: " + run.status().ToString());
      break;
    }
    const rnt::action::ActionRegistry registry = spec.BuildRegistry();
    const rnt::dist::Topology topo = rnt::dist::Topology::RoundRobin(
        &registry, static_cast<NodeId>(spec.k));
    if (!run->complete) {
      report->Fail("multi-process run incomplete");
      break;
    }
    if (HomeValues(topo, run->final_state) != oracle) {
      report->Fail("final values differ from the in-process oracle");
      break;
    }
    round.commits = spec.top_level;
    round.latency_us.push_back(round.wall_s * 1e6);

    // Restart: what a reborn node process reads back from disk — its
    // retention log (the durable summary M_i) and its event log.
    const Clock::time_point restart0 = Clock::now();
    for (NodeId n = 0; n < kNodes; ++n) {
      auto retained = rnt::storage::RetentionLog::Load(dir, n);
      auto events = rnt::sim::EventLog::LoadNode(dir, n);
      if (!retained.ok() || !events.ok()) {
        report->Fail("reloading node " + std::to_string(n) + " logs");
        break;
      }
    }
    round.restart_s = SecondsSince(restart0);
    RemoveTree(dir);

    if (args.trace) {
      sim.run_s.push_back(round.wall_s);
      sim.inprocess_s.push_back(inprocess_s);
      // The same generator at half the size: log2 of the time ratio is
      // the in-process runtime's growth exponent in program size.
      const double half_s =
          TimeInProcess(SpecFor(spec.seed, kTopLevel / 2), nullptr, &why);
      if (half_s > 0) sim.size_exponent.push_back(std::log2(inprocess_s / half_s));
      sim.commits += run->stats.commits;
      sim.messages += run->stats.messages;
      sim.frames += run->hub.frames;
      sim.node_events += run->stats.node_events;
      sim.summary_entries += run->stats.summary_entries;
    }
    measured += round.wall_s;
    rounds.push_back(std::move(round));
    if (measured >= args.seconds && i >= 2 &&
        (args.trace || !NeedsCleanRounds(rounds, args.seconds))) {
      break;
    }
  }
  ReportRounds(rounds, report, /*children_rss=*/true);
  if (!args.trace) return;
  auto per = [](double num, double den) { return den > 0 ? num / den : 0; };
  const double commits = static_cast<double>(sim.commits);
  report->Set("sim.run_s", Median(sim.run_s));
  report->Set("sim.inprocess_run_s", Median(sim.inprocess_s));
  report->Set("sim.transport_overhead_s",
              Median(sim.run_s) - Median(sim.inprocess_s));
  report->Set("sim.inprocess_size_exponent", Median(sim.size_exponent));
  report->Set("sim.messages_per_commit", per(sim.messages, commits));
  report->Set("sim.hub_frames_per_commit", per(sim.frames, commits));
  report->Set("sim.node_events",
              per(sim.node_events, static_cast<double>(sim.run_s.size())));
  report->Set("dist.summary_entries_per_commit",
              per(sim.summary_entries, commits));
}

}  // namespace perfbench

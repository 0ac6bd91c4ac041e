// Experiment E16 (EXPERIMENTS.md): what the real transport costs. The
// same seeded ℬ program (ProgramSpec, k = 3 nodes) executes on all
// three interchangeable backends — in-process MailboxTransport threads,
// unix-domain-socket rnt_node processes, TCP rnt_node processes — while
// the message-fault rate sweeps {0, 0.1, 0.3} (drop probability;
// duplication at half, delay at the full rate). Non-zero rates add
// three rotating kill -9s (real SIGKILL of node processes on the socket
// backends) and one stamp-windowed partition (severed connections).
//
// Reported per cell: wall ms per run (the transport + chaos overhead),
// whether every run's final object values matched the fault-free
// in-process oracle (`values_match` — the sweep's correctness gate),
// kills delivered, rebirths, and the hub's frame-level fault counters.
// Socket cells also report frames the hub ate because their target was
// down (`unroutable`), and where a run's time went, in ms per run: the
// supervisor's phases (spawn, run, drain, load_replay, merge, and the
// `unattributed` rest of the measured RunMultiProcess wall time; plus
// `replay_in_run`, the part of `run` the supervisor spent reading and
// replaying the traces while the nodes ran, which is not added again),
// and the nodes' own counters summed over nodes (time in passes, in
// their log writes, parked on the socket; passes and persisting passes).
//
// A second, fault-free sweep grows the program instead: `top_level`
// 512..4096 transactions (dist_unix's shape — 256 objects, k = 3) on the
// in-process runner and on unix-socket rnt_node processes, reporting
// wall ms per run and the growth exponent log2(t(n) / t(n/2)) between
// consecutive sizes (1 = linear in program size, 2 = quadratic).
//
// Emits one JSON document on stdout — the committed artifact
// bench/e16_transport.json (generated with --sweep_json). --smoke runs
// one fault-free seed per backend and the smallest size-sweep point,
// which still forks real rnt_node processes over both socket families:
// the bench-smoke cell proves the whole supervisor/hub/node stack end to
// end on every tier-1 run. It also fails when a socket run's phases
// miss its measured wall time by more than 10%: a new unattributed gap
// in the process boundary fails the smoke run.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <string>
#include <unistd.h>
#include <vector>

#include "dist/dist_algebra.h"
#include "dist/topology.h"
#include "faults/faults.h"
#include "sim/parallel_runner.h"
#include "sim/program_spec.h"
#include "sim/supervisor.h"

namespace {

using rnt::NodeId;
using rnt::ObjectId;
using rnt::Value;

/// A throwaway per-run directory under /tmp (trace + retention files and
/// the unix socket live here); removed on destruction.
struct ScratchDir {
  std::string path;

  ScratchDir() {
    char tmpl[] = "/tmp/rnt_e16_XXXXXX";
    if (::mkdtemp(tmpl) != nullptr) path = tmpl;
  }
  ~ScratchDir() {
    if (path.empty()) return;
    if (DIR* d = ::opendir(path.c_str())) {
      while (dirent* e = ::readdir(d)) {
        if (std::strcmp(e->d_name, ".") == 0 ||
            std::strcmp(e->d_name, "..") == 0) {
          continue;
        }
        (void)::unlink((path + "/" + e->d_name).c_str());
      }
      (void)::closedir(d);
    }
    (void)::rmdir(path.c_str());
  }
};

enum class Backend { kInProcess, kUnix, kTcp };

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kInProcess:
      return "in-process";
    case Backend::kUnix:
      return "unix";
    default:
      return "tcp";
  }
}

rnt::sim::ProgramSpec SpecForSeed(std::uint64_t seed) {
  rnt::sim::ProgramSpec spec;
  spec.seed = seed;
  spec.top_level = 4;
  spec.max_children = 3;
  spec.max_depth = 3;
  spec.objects = 6;
  spec.k = 3;
  return spec;
}

rnt::faults::FaultPlan PlanAtRate(double rate, std::uint64_t seed) {
  rnt::faults::FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = rate;
  plan.dup_prob = rate / 2;
  plan.delay_prob = rate;
  plan.max_delay_rounds = 2;
  if (rate > 0) {
    for (int c = 0; c < 3; ++c) {
      rnt::faults::CrashSpec crash;
      crash.node = static_cast<NodeId>(c % 3);
      crash.at_stamp = 15 + 10 * c;
      crash.down_for = 4;
      plan.crashes.push_back(crash);
    }
    rnt::faults::PartitionSpec part;
    part.a = 0;
    part.b = 1;
    part.from_stamp = 20;
    part.until_stamp = 50;
    plan.partitions.push_back(part);
  }
  return plan;
}

/// The fault-free in-process run's final object values at their homes —
/// the oracle every backend × rate cell must reproduce exactly.
bool OracleValues(const rnt::sim::ProgramSpec& spec,
                  std::vector<Value>* values) {
  rnt::action::ActionRegistry reg = spec.BuildRegistry();
  rnt::dist::Topology topo =
      rnt::dist::Topology::RoundRobin(&reg, static_cast<NodeId>(spec.k));
  rnt::dist::DistAlgebra alg(&topo);
  auto run = rnt::sim::RunParallel(alg, rnt::sim::ParallelOptions{});
  if (!run.ok()) {
    std::fprintf(stderr, "oracle failed: %s\n",
                 run.status().ToString().c_str());
    return false;
  }
  values->clear();
  for (ObjectId x = 0; x < static_cast<ObjectId>(spec.objects); ++x) {
    const NodeId h = topo.HomeOfObject(x);
    values->push_back(run->final_state.nodes[h].vmap.Get(x, rnt::kRootAction));
  }
  return true;
}

/// Sum of RunMultiProcess phase breakdowns over a cell's runs, against
/// the wall time of the RunMultiProcess calls themselves.
struct PhaseSum {
  int runs = 0;
  double wall_s = 0;
  rnt::sim::RunPhases supervisor;
  rnt::sim::NodePhases nodes;  // summed over every node of every run

  /// Adds one run; false when its phases miss `run_wall_s` by more than
  /// 10% (the --smoke attribution gate).
  bool Add(const rnt::sim::RunPhases& p, double run_wall_s) {
    ++runs;
    wall_s += run_wall_s;
    supervisor.spawn_s += p.spawn_s;
    supervisor.run_s += p.run_s;
    supervisor.drain_s += p.drain_s;
    supervisor.load_replay_s += p.load_replay_s;
    supervisor.merge_s += p.merge_s;
    supervisor.replay_in_run_s += p.replay_in_run_s;
    for (const rnt::sim::NodePhases& n : p.nodes) {
      nodes.pass_s += n.pass_s;
      nodes.persist_s += n.persist_s;
      nodes.wait_s += n.wait_s;
      nodes.passes += n.passes;
      nodes.persists += n.persists;
    }
    return std::fabs(p.total_s() - run_wall_s) <= 0.1 * run_wall_s;
  }

  /// The breakdown as JSON members (leading comma), per run.
  void Print() const {
    const double per = runs > 0 ? 1.0 / runs : 0;
    const double ms = 1000.0 * per;
    const rnt::sim::RunPhases& p = supervisor;
    std::printf(
        ",\"phases_ms\":{\"spawn\":%.2f,\"run\":%.2f,\"drain\":%.2f,"
        "\"load_replay\":%.2f,\"merge\":%.2f,\"unattributed\":%.2f,"
        "\"replay_in_run\":%.2f},"
        "\"node_ms\":{\"pass\":%.2f,\"persist\":%.2f,\"wait\":%.2f},"
        "\"node_passes\":%.0f,\"node_persists\":%.0f",
        p.spawn_s * ms, p.run_s * ms, p.drain_s * ms, p.load_replay_s * ms,
        p.merge_s * ms, (wall_s - p.total_s()) * ms,
        p.replay_in_run_s * ms, nodes.pass_s * ms,
        nodes.persist_s * ms, nodes.wait_s * ms,
        static_cast<double>(nodes.passes) * per,
        static_cast<double>(nodes.persists) * per);
  }
};

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Reports a run whose phases miss its wall time; returns false.
bool Unattributed(const char* where, const rnt::sim::RunPhases& p,
                  double wall_s) {
  std::fprintf(stderr,
               "FAIL: %s: phases sum to %.2f ms but the run took %.2f ms "
               "(spawn %.2f, run %.2f, drain %.2f, load_replay %.2f, "
               "merge %.2f)\n",
               where, p.total_s() * 1e3, wall_s * 1e3, p.spawn_s * 1e3,
               p.run_s * 1e3, p.drain_s * 1e3, p.load_replay_s * 1e3,
               p.merge_s * 1e3);
  return false;
}

struct CellPoint {
  double rate = 0;
  double wall_ms_per_run = 0;
  bool values_match = true;    // every run == the fault-free oracle
  bool complete = true;        // no run gave up
  std::uint64_t kills = 0;     // real SIGKILLs (0 on in-process)
  std::uint64_t recovered = 0;  // rebirths (thread or process)
  std::uint64_t messages = 0;   // ℬ send/receive pairs
  std::uint64_t frames = 0;     // wire frames at the hub (0 on in-process)
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t unroutable = 0;  // hub: target down (0 on in-process)
  std::uint64_t retries = 0;
  PhaseSum phases;  // socket backends only
};

/// Extracts the home-node values for comparison against the oracle.
template <typename State>
std::vector<Value> HomeValues(const rnt::sim::ProgramSpec& spec,
                              const rnt::dist::Topology& topo,
                              const State& state) {
  std::vector<Value> values;
  for (ObjectId x = 0; x < static_cast<ObjectId>(spec.objects); ++x) {
    const NodeId h = topo.HomeOfObject(x);
    values.push_back(state.nodes[h].vmap.Get(x, rnt::kRootAction));
  }
  return values;
}

/// One backend × rate cell over `seeds` program seeds. Returns false on
/// a harness failure (error already on stderr).
bool RunCell(Backend backend, double rate, int seeds,
             const std::string& node_binary, bool first, bool smoke,
             CellPoint* out) {
  CellPoint pt;
  pt.rate = rate;
  double wall_ms = 0;
  for (int s = 0; s < seeds; ++s) {
    const rnt::sim::ProgramSpec spec = SpecForSeed(11 + 2 * s);
    std::vector<Value> oracle;
    if (!OracleValues(spec, &oracle)) return false;
    rnt::action::ActionRegistry reg = spec.BuildRegistry();
    rnt::dist::Topology topo =
        rnt::dist::Topology::RoundRobin(&reg, static_cast<NodeId>(spec.k));
    const rnt::faults::FaultPlan plan =
        PlanAtRate(rate, /*seed=*/1000 * s + 7);

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<Value> values;
    if (backend == Backend::kInProcess) {
      rnt::dist::DistAlgebra alg(&topo);
      rnt::sim::ParallelOptions opt;
      opt.plan = plan;
      auto run = rnt::sim::RunParallel(alg, opt);
      if (!run.ok()) {
        std::fprintf(stderr, "in-process run failed: %s\n",
                     run.status().ToString().c_str());
        return false;
      }
      values = HomeValues(spec, topo, run->final_state);
      pt.complete = pt.complete && run->complete;
      pt.recovered += run->stats.recovered_nodes;
      pt.messages += run->stats.messages;
      pt.dropped += run->stats.dropped_msgs;
      pt.duplicated += run->stats.duplicated_msgs;
      pt.delayed += run->stats.delayed_msgs;
      pt.retries += run->stats.retries;
    } else {
      ScratchDir dir;
      if (dir.path.empty()) {
        std::fprintf(stderr, "mkdtemp failed\n");
        return false;
      }
      rnt::sim::SupervisorOptions opt;
      opt.spec = spec;
      opt.node_binary = node_binary;
      opt.dir = dir.path;
      opt.backend = backend == Backend::kUnix
                        ? rnt::sim::SocketHub::Backend::kUnix
                        : rnt::sim::SocketHub::Backend::kTcp;
      opt.plan = plan;
      const auto run0 = std::chrono::steady_clock::now();
      auto run = rnt::sim::RunMultiProcess(opt);
      const double run_wall_s = MsSince(run0) / 1000.0;
      if (!run.ok()) {
        std::fprintf(stderr, "%s run failed: %s\n", BackendName(backend),
                     run.status().ToString().c_str());
        return false;
      }
      if (!pt.phases.Add(run->phases, run_wall_s) && smoke) {
        return Unattributed(BackendName(backend), run->phases, run_wall_s);
      }
      values = HomeValues(spec, topo, run->final_state);
      pt.complete = pt.complete && run->complete;
      pt.kills += static_cast<std::uint64_t>(run->kills);
      pt.recovered += run->stats.recovered_nodes;
      pt.messages += run->stats.messages;
      pt.frames += run->hub.frames;
      pt.dropped += run->hub.dropped + run->hub.partitioned;
      pt.duplicated += run->hub.duplicated;
      pt.delayed += run->hub.delayed;
      pt.reconnects += run->hub.reconnects;
      pt.unroutable += run->hub.unroutable;
      pt.retries += run->stats.retries;
    }
    wall_ms += std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    pt.values_match = pt.values_match && values == oracle;
  }
  pt.wall_ms_per_run = wall_ms / seeds;
  std::printf(
      "%s{\"rate\":%.2f,\"wall_ms_per_run\":%.2f,\"values_match\":%s,"
      "\"complete\":%s,\"kills\":%llu,\"recovered\":%llu,"
      "\"messages\":%llu,\"frames\":%llu,\"dropped\":%llu,"
      "\"duplicated\":%llu,\"delayed\":%llu,\"reconnects\":%llu,"
      "\"unroutable\":%llu,\"retries\":%llu",
      first ? "" : ",", pt.rate, pt.wall_ms_per_run,
      pt.values_match ? "true" : "false", pt.complete ? "true" : "false",
      static_cast<unsigned long long>(pt.kills),
      static_cast<unsigned long long>(pt.recovered),
      static_cast<unsigned long long>(pt.messages),
      static_cast<unsigned long long>(pt.frames),
      static_cast<unsigned long long>(pt.dropped),
      static_cast<unsigned long long>(pt.duplicated),
      static_cast<unsigned long long>(pt.delayed),
      static_cast<unsigned long long>(pt.reconnects),
      static_cast<unsigned long long>(pt.unroutable),
      static_cast<unsigned long long>(pt.retries));
  if (backend != Backend::kInProcess) pt.phases.Print();
  std::printf("}");
  *out = pt;
  return true;
}

/// The size sweep's program: dist_unix's shape at `top_level`.
rnt::sim::ProgramSpec SizedSpec(std::uint32_t top_level) {
  rnt::sim::ProgramSpec spec;
  spec.seed = 7919;
  spec.top_level = top_level;
  spec.objects = 256;
  spec.k = 3;
  return spec;
}

struct SizePoint {
  std::uint32_t top_level = 0;
  double inprocess_ms = 0;
  double unix_ms = 0;
  bool values_match = true;
  PhaseSum phases;  // the unix runs
};

/// One fault-free run per backend at `top_level`, median of `reps`
/// repetitions each. Returns false on a harness failure.
bool RunSizePoint(std::uint32_t top_level, int reps,
                  const std::string& node_binary, bool smoke,
                  SizePoint* out) {
  const rnt::sim::ProgramSpec spec = SizedSpec(top_level);
  rnt::action::ActionRegistry reg = spec.BuildRegistry();
  rnt::dist::Topology topo =
      rnt::dist::Topology::RoundRobin(&reg, static_cast<NodeId>(spec.k));
  rnt::dist::DistAlgebra alg(&topo);
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  SizePoint pt;
  pt.top_level = top_level;
  std::vector<Value> oracle;
  std::vector<double> inprocess_ms;
  std::vector<double> unix_ms;
  for (int r = 0; r < reps; ++r) {
    rnt::sim::ParallelOptions opt;
    opt.record_events = false;
    const auto t0 = std::chrono::steady_clock::now();
    auto run = rnt::sim::RunParallel(alg, opt);
    inprocess_ms.push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
    if (!run.ok() || !run->complete) {
      std::fprintf(stderr, "size sweep: in-process run failed at %u\n",
                   top_level);
      return false;
    }
    oracle = HomeValues(spec, topo, run->final_state);

    ScratchDir dir;
    if (dir.path.empty()) {
      std::fprintf(stderr, "mkdtemp failed\n");
      return false;
    }
    rnt::sim::SupervisorOptions sopt;
    sopt.spec = spec;
    sopt.node_binary = node_binary;
    sopt.dir = dir.path;
    sopt.backend = rnt::sim::SocketHub::Backend::kUnix;
    const auto t1 = std::chrono::steady_clock::now();
    auto mp = rnt::sim::RunMultiProcess(sopt);
    unix_ms.push_back(MsSince(t1));
    if (!mp.ok()) {
      std::fprintf(stderr, "size sweep: unix run failed at %u: %s\n",
                   top_level, mp.status().ToString().c_str());
      return false;
    }
    if (!pt.phases.Add(mp->phases, unix_ms.back() / 1000.0) && smoke) {
      return Unattributed("size sweep", mp->phases, unix_ms.back() / 1000.0);
    }
    pt.values_match = pt.values_match && mp->complete &&
                      HomeValues(spec, topo, mp->final_state) == oracle;
  }
  pt.inprocess_ms = median(inprocess_ms);
  pt.unix_ms = median(unix_ms);
  *out = pt;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--sweep_json") == 0) {
      // Accepted for symmetry with the other plain-main benches; the
      // full sweep is the default, so this is a no-op.
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--sweep_json]\n", argv[0]);
      return 2;
    }
  }
  const std::string node_binary = RNT_NODE_BINARY;
  const int seeds = smoke ? 1 : 3;
  std::vector<double> rates = smoke ? std::vector<double>{0.0}
                                    : std::vector<double>{0.0, 0.1, 0.3};
  const Backend kBackends[] = {Backend::kInProcess, Backend::kUnix,
                               Backend::kTcp};
  const rnt::sim::ProgramSpec shape = SpecForSeed(11);
  std::printf("{\"bench\":\"transport\",\"spec\":\"%s\",\"seeds\":%d,",
              shape.Serialize().c_str(), seeds);
  std::printf("\"backends\":[");
  bool first_backend = true;
  bool all_match = true;
  for (Backend backend : kBackends) {
    std::printf("%s{\"backend\":\"%s\",\"trajectory\":[",
                first_backend ? "" : ",", BackendName(backend));
    first_backend = false;
    bool first_rate = true;
    for (double rate : rates) {
      CellPoint pt;
      if (!RunCell(backend, rate, seeds, node_binary, first_rate, smoke,
                   &pt)) {
        return 1;
      }
      first_rate = false;
      all_match = all_match && pt.values_match && pt.complete;
    }
    std::printf("]}");
  }
  std::printf("],\"size_sweep\":[");
  const std::vector<std::uint32_t> sizes =
      smoke ? std::vector<std::uint32_t>{512}
            : std::vector<std::uint32_t>{512, 1024, 2048, 4096};
  SizePoint prev;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    SizePoint pt;
    if (!RunSizePoint(sizes[i], smoke ? 1 : 5, node_binary, smoke, &pt)) {
      return 1;
    }
    // Growth exponent against the previous (half-size) point.
    const double inprocess_exp =
        i == 0 ? 0 : std::log2(pt.inprocess_ms / prev.inprocess_ms);
    const double unix_exp = i == 0 ? 0 : std::log2(pt.unix_ms / prev.unix_ms);
    std::printf(
        "%s{\"top_level\":%u,\"inprocess_ms\":%.2f,\"unix_ms\":%.2f,"
        "\"inprocess_exponent\":%.2f,\"unix_exponent\":%.2f,"
        "\"values_match\":%s",
        i == 0 ? "" : ",", pt.top_level, pt.inprocess_ms, pt.unix_ms,
        inprocess_exp, unix_exp, pt.values_match ? "true" : "false");
    pt.phases.Print();
    std::printf("}");
    all_match = all_match && pt.values_match;
    prev = pt;
  }
  std::printf("]}\n");
  // The sweep doubles as a correctness gate: a cell whose values diverge
  // from the oracle (or that gave up) fails the bench run outright.
  if (!all_match) {
    std::fprintf(stderr, "FAIL: some cell diverged from the oracle\n");
    return 1;
  }
  return 0;
}

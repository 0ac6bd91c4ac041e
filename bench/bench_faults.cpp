// Experiment E10 (EXPERIMENTS.md): resilience of the distributed algebra
// under injected faults. Sweeps the message-fault rate over
// {0, 0.1, 0.3, 0.5} (drop probability; duplication and delay at half
// that), with two node crashes and a temporary partition at every
// non-zero rate, and reports the throughput-shaped consequences: how many
// top-level transactions still commit, and what each commit costs in
// messages once re-requests and retries are paid for.
//
// Emits a single JSON document on stdout so the trajectory can be
// plotted directly:
//   {"bench":"faults","nodes":3,"seeds":5,"trajectory":[{...},...],
//    "concurrent_trajectory":[...],"rebirth_replay":[...]}
//
// The "trajectory" runs on the in-process host's sweep scheduler
// (ChaosRunProgram), the "concurrent_trajectory" the same rate sweep on
// its thread scheduler (RunParallel), with the same options; both are
// judged by ReplayAbstract, and in both avg_rounds is the busiest
// node's loop passes. The document is the committed artifact
// bench/e10_faults.json (see EXPERIMENTS.md E10).
//
// The sweep is also a gate, on both schedulers: the binary exits 1 when
// a run fails, when a planned crash is not recovered, or when a complete
// run with no timeout-abort ends with other object values than
// RunProgram's.
//
// The document's final section, "rebirth_replay", measures the bounded-
// rebirth claim (§9.1 compaction): the time to replay a node's durable
// retention log M_i after kill -9 as the *run length* (appends) grows,
// raw vs checkpoint-compacted. Raw replay grows linearly with the run;
// the compacted log's replay tracks the distinct-entry count — flat —
// so rebirth cost is bounded by live knowledge, not by uptime.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "common/random.h"
#include "dist/summary.h"
#include "faults/faults.h"
#include "sim/parallel_runner.h"
#include "storage/retention_log.h"

namespace {

using rnt::ActionId;
using rnt::NodeId;
using rnt::ObjectId;

constexpr int kTops = 10;
constexpr int kObjects = 6;
constexpr NodeId kNodes = 3;
constexpr int kSeeds = 5;

void BuildProgram(rnt::action::ActionRegistry& reg, std::uint64_t seed) {
  rnt::Rng rng(seed);
  for (int t = 0; t < kTops; ++t) {
    ActionId top = reg.NewAction(rnt::kRootAction);
    for (int c = 0; c < 2; ++c) {
      ActionId sub = reg.NewAction(top);
      reg.NewAccess(sub, static_cast<ObjectId>(rng.Below(kObjects)),
                    rnt::action::Update::Add(1));
      reg.NewAccess(sub, static_cast<ObjectId>(rng.Below(kObjects)),
                    rnt::action::Update::Read());
    }
  }
}

rnt::faults::FaultPlan PlanAtRate(double rate, std::uint64_t seed) {
  rnt::faults::FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = rate;
  plan.dup_prob = rate / 2;
  plan.delay_prob = rate / 2;
  plan.max_delay_rounds = 3;
  if (rate > 0) {
    plan.crashes.push_back(rnt::faults::CrashSpec{0, 15, 5});
    plan.crashes.push_back(rnt::faults::CrashSpec{1, 40, 5});
    plan.partitions.push_back(rnt::faults::PartitionSpec{0, 2, 20, 35});
  }
  return plan;
}

struct RatePoint {
  double rate = 0;
  double commit_rate = 0;       // committed top-levels / top-levels
  double messages_per_commit = 0;
  double avg_rounds = 0;
  double complete_fraction = 0;  // runs that finished without abandonment
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeout_aborts = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recovered = 0;
};

/// Runs the sweep at one rate on either scheduler and prints the point.
/// Returns false on a failed run, an unrecovered planned crash, or a
/// value mismatch against RunProgram (reported on stderr).
bool SweepRate(double rate, bool concurrent, bool first_rate) {
  RatePoint pt;
  pt.rate = rate;
  std::uint64_t total_commits = 0;
  std::uint64_t top_commits = 0;
  std::uint64_t total_msgs = 0;
  int complete_runs = 0;
  long total_rounds = 0;
  for (int s = 0; s < kSeeds; ++s) {
    rnt::action::ActionRegistry reg;
    BuildProgram(reg, /*seed=*/100 + s);
    rnt::dist::Topology topo = rnt::dist::Topology::RoundRobin(&reg, kNodes);
    rnt::dist::DistAlgebra alg(&topo);
    rnt::sim::ParallelOptions opt;
    opt.plan = PlanAtRate(rate, 1000 * s + 7);
    const rnt::faults::FaultPlan& plan = opt.plan;
    auto run = concurrent ? rnt::sim::RunParallel(alg, opt)
                          : rnt::sim::ChaosRunProgram(alg, opt);
    if (!run.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   run.status().ToString().c_str());
      return false;
    }
    auto abstract = rnt::sim::ReplayAbstract(alg, run->events);
    if (!abstract.ok()) {
      std::fprintf(stderr, "replay failed: %s\n",
                   abstract.status().ToString().c_str());
      return false;
    }
    if (run->stats.recovered_nodes < plan.crashes.size()) {
      std::fprintf(stderr,
                   "rate %.2f seed %d: %zu crashes planned, %llu recovered\n",
                   rate, s, plan.crashes.size(),
                   static_cast<unsigned long long>(run->stats.recovered_nodes));
      return false;
    }
    if (run->complete && run->stats.timeout_aborts == 0) {
      auto oracle = rnt::sim::RunProgram(alg);
      if (!oracle.ok()) {
        std::fprintf(stderr, "oracle failed: %s\n",
                     oracle.status().ToString().c_str());
        return false;
      }
      for (ObjectId x = 0; x < kObjects; ++x) {
        const NodeId h = topo.HomeOfObject(x);
        if (run->final_state.nodes[h].vmap.Get(x, rnt::kRootAction) !=
            oracle->final_state.nodes[h].vmap.Get(x, rnt::kRootAction)) {
          std::fprintf(stderr,
                       "rate %.2f seed %d: object %u differs from "
                       "RunProgram\n",
                       rate, s, static_cast<unsigned>(x));
          return false;
        }
      }
    }
    total_commits += run->stats.commits;
    total_msgs += run->stats.messages;
    total_rounds += run->stats.rounds;
    if (run->complete) ++complete_runs;
    for (ActionId a = 1; a < reg.size(); ++a) {
      if (reg.Parent(a) == rnt::kRootAction &&
          abstract->tree.IsCommitted(a)) {
        ++top_commits;
      }
    }
    pt.dropped += run->stats.dropped_msgs;
    pt.duplicated += run->stats.duplicated_msgs;
    pt.delayed += run->stats.delayed_msgs;
    pt.retries += run->stats.retries;
    pt.timeout_aborts += run->stats.timeout_aborts;
    pt.crashes += run->stats.crashes;
    pt.recovered += run->stats.recovered_nodes;
  }
  pt.commit_rate = static_cast<double>(top_commits) / (kSeeds * kTops);
  pt.messages_per_commit =
      total_commits == 0 ? 0.0
                         : static_cast<double>(total_msgs) /
                               static_cast<double>(total_commits);
  pt.avg_rounds = static_cast<double>(total_rounds) / kSeeds;
  pt.complete_fraction = static_cast<double>(complete_runs) / kSeeds;
  std::printf(
      "%s{\"rate\":%.2f,\"commit_rate\":%.4f,"
      "\"messages_per_commit\":%.3f,\"avg_rounds\":%.1f,"
      "\"complete_fraction\":%.2f,\"dropped\":%llu,\"duplicated\":%llu,"
      "\"delayed\":%llu,\"retries\":%llu,\"timeout_aborts\":%llu,"
      "\"crashes\":%llu,\"recovered\":%llu}",
      first_rate ? "" : ",", pt.rate, pt.commit_rate, pt.messages_per_commit,
      pt.avg_rounds, pt.complete_fraction,
      static_cast<unsigned long long>(pt.dropped),
      static_cast<unsigned long long>(pt.duplicated),
      static_cast<unsigned long long>(pt.delayed),
      static_cast<unsigned long long>(pt.retries),
      static_cast<unsigned long long>(pt.timeout_aborts),
      static_cast<unsigned long long>(pt.crashes),
      static_cast<unsigned long long>(pt.recovered));
  return true;
}

/// A throwaway directory for the retention-log pair; removed on
/// destruction.
struct ScratchDir {
  std::string path;

  ScratchDir() {
    char tmpl[] = "/tmp/rnt_e10_XXXXXX";
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

std::uint64_t FileBytes(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0
             ? static_cast<std::uint64_t>(st.st_size)
             : 0;
}

/// Best-of-3 RetentionLog::Load time in milliseconds.
double LoadMs(const std::string& dir, rnt::NodeId node) {
  double best = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    auto loaded = rnt::storage::RetentionLog::Load(dir, node);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (!loaded.ok()) return -1;
    if (ms < best) best = ms;
  }
  return best;
}

/// One rebirth-replay point: the same churny retention history (64
/// distinct actions re-retained over and over, statuses upgrading) is
/// appended to two logs — node 0 raw, node 1 checkpointing whenever
/// SuggestCheckpoint fires — then each is replayed as a rebirth would.
bool ReplayPoint(std::uint64_t appends, bool first) {
  constexpr rnt::ActionId kDistinct = 64;
  ScratchDir dir;
  if (dir.path.empty()) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return false;
  }
  auto raw = rnt::storage::RetentionLog::Open(dir.path, 0);
  auto compacted = rnt::storage::RetentionLog::Open(dir.path, 1);
  if (!raw.ok() || !compacted.ok()) {
    std::fprintf(stderr, "retention open failed\n");
    return false;
  }
  rnt::dist::ActionSummary mirror;  // the in-memory M_i write-through
  std::uint64_t checkpoints = 0;
  for (std::uint64_t i = 0; i < appends; ++i) {
    const rnt::ActionId a = 1 + static_cast<rnt::ActionId>(i % kDistinct);
    const auto s = (i >= appends / 2 && a % 2 == 0)
                       ? rnt::action::ActionStatus::kCommitted
                       : rnt::action::ActionStatus::kActive;
    if (!(*raw)->Append(a, s).ok() || !(*compacted)->Append(a, s).ok()) {
      std::fprintf(stderr, "retention append failed\n");
      return false;
    }
    if (!mirror.Contains(a)) mirror.AddActive(a);
    if (s != rnt::action::ActionStatus::kActive) mirror.SetStatus(a, s);
    if ((*compacted)->SuggestCheckpoint(mirror.size())) {
      if (!(*compacted)->Checkpoint(mirror).ok()) {
        std::fprintf(stderr, "retention checkpoint failed\n");
        return false;
      }
      ++checkpoints;
    }
  }
  // Both replays must land on the identical summary — compaction is
  // dedupe-only — before their times mean anything.
  auto raw_load = rnt::storage::RetentionLog::Load(dir.path, 0);
  auto compact_load = rnt::storage::RetentionLog::Load(dir.path, 1);
  if (!raw_load.ok() || !compact_load.ok() || *raw_load != mirror ||
      *compact_load != mirror) {
    std::fprintf(stderr, "rebirth replay diverged at %llu appends\n",
                 static_cast<unsigned long long>(appends));
    return false;
  }
  const std::string raw_path =
      dir.path + "/" + rnt::storage::RetentionLog::FileName(0);
  const std::string compact_path =
      dir.path + "/" + rnt::storage::RetentionLog::FileName(1);
  std::printf(
      "%s{\"appends\":%llu,\"distinct\":%u,"
      "\"raw_load_ms\":%.3f,\"raw_bytes\":%llu,"
      "\"compacted_load_ms\":%.3f,\"compacted_bytes\":%llu,"
      "\"checkpoints\":%llu}",
      first ? "" : ",", static_cast<unsigned long long>(appends),
      static_cast<unsigned>(kDistinct), LoadMs(dir.path, 0),
      static_cast<unsigned long long>(FileBytes(raw_path)),
      LoadMs(dir.path, 1),
      static_cast<unsigned long long>(FileBytes(compact_path)),
      static_cast<unsigned long long>(checkpoints));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s\n", argv[0]);
    return 2;
  }
  const double kRates[] = {0.0, 0.1, 0.3, 0.5};
  std::printf("{\"bench\":\"faults\",\"nodes\":%u,\"tops\":%d,\"seeds\":%d",
              kNodes, kTops, kSeeds);
  // The sweep scheduler, then the same schedule on the thread scheduler:
  // crashes kill and rebirth real threads, partitions sever links in the
  // transport.
  for (bool concurrent : {false, true}) {
    std::printf(concurrent ? ",\"concurrent_trajectory\":["
                           : ",\"trajectory\":[");
    bool first_rate = true;
    for (double rate : kRates) {
      if (!SweepRate(rate, concurrent, first_rate)) return 1;
      first_rate = false;
    }
    std::printf("]");
  }
  // Bounded rebirth: replay time of the durable retention log, raw vs
  // compacted, as the run length grows (satellite of EXPERIMENTS.md E16).
  std::printf(",\"rebirth_replay\":[");
  const std::uint64_t kAppends[] = {2000, 8000, 32000, 128000};
  bool first_point = true;
  for (std::uint64_t appends : kAppends) {
    if (!ReplayPoint(appends, first_point)) return 1;
    first_point = false;
  }
  std::printf("]}\n");
  return 0;
}

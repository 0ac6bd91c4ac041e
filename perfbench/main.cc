// rnt_perfbench: the repository benchmark's entry point.
//
//   rnt_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints human-readable notes, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones
// (a layer a workload leaves idle reads 0). A run whose correctness
// check fails prints no metrics and exits 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"txn_per_s", "1/s"},  {"txn_p50_us", "us"},
    {"txn_p99_us", "us"},     {"restart_s", "s"},    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"storage.durable_commit_us_p50", "us"},
    {"storage.durable_commit_us_p99", "us"},
    {"storage.barrier_wait_us_p50", "us"},
    {"storage.wal_records_per_txn", "count"},
    {"storage.wal_bytes_per_txn", "B"},
    {"storage.records_per_flush", "count"},
    {"storage.flush_rounds_per_s", "1/s"},
    {"storage.max_batch", "count"},
    {"storage.recover_s", "s"},
    {"storage.recover_records_per_s", "1/s"},
    {"storage.checkpoint_s", "s"},
    {"storage.snapshot_bytes", "B"},
    {"lock.waits_per_access", "ratio"},
    {"lock.deadlock_aborts_per_1k_commits", "count"},
    {"lock.cascade_aborts_per_1k_commits", "count"},
    {"lock.timeout_aborts", "count"},
    {"lock.attempts_per_commit", "ratio"},
    {"lock.child_retries_per_commit", "ratio"},
    {"lock.records_after_quiesce", "count"},
    {"txn.begin_us_p50", "us"},
    {"txn.child_commit_us_p50", "us"},
    {"txn.abort_us_p50", "us"},
    {"txn.access_us_p50", "us"},
    {"txn.access_us_p99", "us"},
    {"txn.commit_us_p50", "us"},
    {"txn.busy_share", "ratio"},
    {"frontend.submit_us_p50", "us"},
    {"frontend.batch_rtt_us_p50", "us"},
    {"frontend.batch_rtt_us_p99", "us"},
    {"frontend.backpressure_waits_per_batch", "ratio"},
    {"frontend.ops_per_batch", "count"},
    {"sim.run_s", "s"},
    {"sim.inprocess_run_s", "s"},
    {"sim.transport_overhead_s", "s"},
    {"sim.inprocess_size_exponent", "ratio"},
    {"sim.messages_per_commit", "ratio"},
    {"sim.hub_frames_per_commit", "ratio"},
    {"sim.node_events", "count"},
    {"dist.summary_entries_per_commit", "ratio"},
    {"checker.events_per_txn", "ratio"},
    {"checker.append_us_mean", "us"},
    {"checker.peak_tracked", "count"},
    {"trace.untraced_txn_per_s", "1/s"},
    {"trace.traced_txn_per_s", "1/s"},
    {"trace.slowdown", "ratio"},
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <durable_nested|contended_resilient|"
               "batched_frontend|dist_unix> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage(argv[0]);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value, &end, 10));
      if (*end != '\0' || args.seconds < 1) return Usage(argv[0]);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage(argv[0]);
      }
      args.trace = value[0] == '1';
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0) return Usage(argv[0]);

  perfbench::Report report;
  std::filesystem::create_directories(args.work_dir);
  if (args.workload == "durable_nested") {
    perfbench::RunDurableNested(args, &report);
  } else if (args.workload == "contended_resilient") {
    perfbench::RunContendedResilient(args, &report);
  } else if (args.workload == "batched_frontend") {
    perfbench::RunBatchedFrontend(args, &report);
  } else if (args.workload == "dist_unix") {
    perfbench::RunDistUnix(args, &report);
  } else {
    return Usage(argv[0]);
  }

  if (args.trace) {
    const std::string path =
        args.work_dir + "/spans-" + args.workload + ".bin";
    if (!perfbench::Tracer::Get().WriteOut(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }
  for (const std::string& note : report.notes) {
    std::printf("%s: %s\n", args.workload.c_str(), note.c_str());
  }
  if (!report.correct) report.failed = report.attempted;

  std::string metrics;
  if (report.correct) {
    auto emit = [&](const MetricSpec& m) {
      const auto it = report.metrics.find(m.name);
      const double value = it == report.metrics.end() ? 0.0 : it->second;
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    metrics.empty() ? "" : ", ", m.name, value, m.unit);
      metrics += buf;
    };
    if (args.trace) {
      for (const MetricSpec& m : kPerLayer) emit(m);
    } else {
      for (const MetricSpec& m : kEndToEnd) emit(m);
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return report.correct ? 0 : 1;
}

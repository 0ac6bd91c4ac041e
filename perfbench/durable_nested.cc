// durable_nested: the per-transaction durable commit path.
// storage::DurableEngine (fsync off), 3 closed-loop clients, each
// transaction a top-level with 3 sequential children x 4 accesses, half
// Read and half Add, keys uniform over 131072 preloaded objects. A
// round is a fixed transaction count, so every restart replays a WAL of
// the same size; after it the engine is closed and DurableEngine::Open
// is timed on the same directory.
#include <filesystem>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "storage/durable_engine.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "txn/online_checker.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rnt::ObjectId;
using rnt::Value;
using rnt::action::Update;

constexpr ObjectId kObjects = 131072;
constexpr int kClients = 3;
constexpr int kChildren = 3;
constexpr int kAccessesPerChild = 4;
constexpr int kAccessesPerTxn = kChildren * kAccessesPerChild;
constexpr int kTxnsPerClient = 8000;
// Traced rounds run a quarter as many: the online checker slows them
// about 4x, and their WAL feeds no restart or recovery number.
constexpr int kTracedTxnsPerClient = kTxnsPerClient / 4;
constexpr int kMaxAttempts = 100;

/// One generated access: `delta` == 0 is a Read, otherwise Add(delta).
struct Access {
  ObjectId key;
  Value delta;
};

struct ClientResult {
  std::uint64_t commits = 0;
  std::uint64_t attempts = 0;
  std::uint64_t gave_up = 0;
  std::vector<double> latency_us;
  std::vector<Value> delta;  // committed Add total per object
};

void RunClient(rnt::txn::Engine* engine, const std::vector<Access>& stream,
               std::latch* start, ClientResult* out) {
  const std::size_t txns = stream.size() / kAccessesPerTxn;
  out->delta.assign(kObjects, 0);
  out->latency_us.reserve(txns);
  start->arrive_and_wait();
  for (std::size_t t = 0; t < txns; ++t) {
    const Access* ops = &stream[static_cast<std::size_t>(t) * kAccessesPerTxn];
    const Clock::time_point t0 = Clock::now();
    bool committed = false;
    for (int attempt = 0; attempt < kMaxAttempts && !committed; ++attempt) {
      ++out->attempts;
      std::unique_ptr<rnt::txn::TxnHandle> top = engine->Begin();
      bool ok = true;
      for (int c = 0; c < kChildren && ok; ++c) {
        auto child = top->BeginChild();
        if (!child.ok()) {
          ok = false;
          break;
        }
        for (int a = 0; a < kAccessesPerChild && ok; ++a) {
          const Access& acc = ops[c * kAccessesPerChild + a];
          ok = (*child)
                   ->Apply(acc.key, acc.delta == 0 ? Update::Read()
                                                   : Update::Add(acc.delta))
                   .ok();
        }
        ok = ok && (*child)->Commit().ok();
      }
      ok = ok && top->Commit().ok();
      if (!ok) {
        (void)top->Abort();
        continue;
      }
      committed = true;
      out->latency_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
      for (int i = 0; i < kAccessesPerTxn; ++i) {
        out->delta[ops[i].key] += ops[i].delta;
      }
    }
    if (committed) {
      ++out->commits;
    } else {
      ++out->gave_up;
    }
  }
}

/// Storage-layer counts, read-only recovery and checkpoint timings of the
/// untraced rounds of a traced run.
struct StorageTally {
  std::uint64_t commits = 0;
  std::uint64_t appended = 0;
  std::uint64_t batches = 0;
  std::uint64_t synced = 0;
  std::uint64_t max_batch = 0;
  std::uint64_t wal_bytes = 0;
  double wall_s = 0;
  std::vector<double> recover_s;
  std::vector<double> recover_records_per_s;
  std::vector<double> checkpoint_s;
  std::vector<double> snapshot_bytes;
};

/// `sink`, when set, receives every event the engine logs; its
/// transaction ids start at `first_txn_id`.
rnt::storage::DurableEngineOptions EngineOptions(
    rnt::txn::TraceSink* sink = nullptr, rnt::lock::TxnId first_txn_id = 1) {
  rnt::storage::DurableEngineOptions options;
  options.engine.first_txn_id = first_txn_id;
  // Page-cache durability: survives kill -9, the repository's fault
  // model. A device flush on a shared disk swings run to run by 4x.
  options.fsync = false;
  options.extra_sink = sink;
  return options;
}

Round RunRound(const Args& args, int index, bool traced, Report* report,
               LockTally* locks, StorageTally* storage,
               std::uint64_t* checker_events, std::uint64_t* checker_peak) {
  Round round;
  round.traced = traced;
  const std::string dir = args.work_dir + "/durable-" + std::to_string(index);
  RemoveTree(dir);
  std::filesystem::create_directories(dir);

  rnt::Rng rng(args.seed * 1000003 + static_cast<std::uint64_t>(index));
  rnt::storage::Snapshot preload;
  std::vector<Value> expected(kObjects);
  for (ObjectId k = 0; k < kObjects; ++k) {
    expected[k] = rng.Range(0, 1000000);
    preload.store.emplace_hint(preload.store.end(), k, expected[k]);
  }
  const int txns_per_client = traced ? kTracedTxnsPerClient : kTxnsPerClient;
  std::vector<std::vector<Access>> streams(kClients);
  for (auto& stream : streams) {
    stream.resize(static_cast<std::size_t>(txns_per_client) * kAccessesPerTxn);
    for (Access& a : stream) {
      a.key = static_cast<ObjectId>(rng.Below(kObjects));
      a.delta = rng.Chance(0.5) ? rng.Range(1, 100) : 0;
    }
  }

  // The checker learns the preloaded store first (untimed), then judges
  // the run.
  rnt::txn::OnlineChecker checker(
      rnt::txn::OnlineChecker::Options{rnt::txn::OnlineChecker::Mode::kRw});
  TimedSink timed(&checker);
  const rnt::lock::TxnId first_txn_id =
      traced ? SeedInitialState(&checker, preload.store) : 1;

  const Clock::time_point setup0 = Clock::now();
  if (auto st = rnt::storage::WriteSnapshot(dir, preload); !st.ok()) {
    report->Fail("preload snapshot: " + st.ToString());
    return round;
  }
  auto opened = rnt::storage::DurableEngine::Open(
      dir, traced ? EngineOptions(&timed, first_txn_id) : EngineOptions());
  if (!opened.ok()) {
    report->Fail("open: " + opened.status().ToString());
    return round;
  }
  std::unique_ptr<rnt::storage::DurableEngine> engine = std::move(*opened);
  round.setup_s = SecondsSince(setup0);

  TracedEngine traced_engine(engine.get(), /*durable=*/true);
  rnt::txn::Engine* target =
      traced ? static_cast<rnt::txn::Engine*>(&traced_engine) : engine.get();
  Tracer::Get().Enable(traced);
  std::vector<ClientResult> results(kClients);
  std::latch start(kClients + 1);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(RunClient, target, std::cref(streams[c]), &start,
                         &results[c]);
  }
  start.arrive_and_wait();
  const Clock::time_point run0 = Clock::now();
  const CpuTicks ticks0 = CpuTicks::Read();
  for (auto& t : clients) t.join();
  round.wall_s = SecondsSince(run0);
  round.steal_share = StealShare(ticks0, CpuTicks::Read());
  if (traced) Tracer::Get().AddWindow(run0, Clock::now());
  Tracer::Get().Enable(false);

  std::uint64_t attempts = 0;
  std::size_t samples = 0;
  for (const ClientResult& r : results) samples += r.latency_us.size();
  round.latency_us.reserve(samples);
  for (const ClientResult& r : results) {
    round.commits += r.commits;
    round.failed += r.gave_up;
    attempts += r.attempts;
    round.latency_us.insert(round.latency_us.end(), r.latency_us.begin(),
                            r.latency_us.end());
    for (ObjectId k = 0; k < kObjects; ++k) expected[k] += r.delta[k];
  }
  round.attempted = static_cast<std::uint64_t>(kClients) * txns_per_client;

  // Correctness: every acknowledged commit is in the store, and the
  // store survives close + Open unchanged.
  if (auto st = engine->wal_health(); !st.ok()) {
    report->Fail("wal: " + st.ToString());
    return round;
  }
  for (ObjectId k = 0; k < kObjects; ++k) {
    if (engine->ReadCommitted(k) != expected[k]) {
      report->Fail("store before close differs at object " +
                   std::to_string(k));
      return round;
    }
  }
  if (traced) {
    if (checker.Verdict().outcome != rnt::txn::OnlineChecker::Outcome::kOk) {
      report->Fail("online checker: " + checker.Verdict().detail);
      return round;
    }
    *checker_events += checker.stats().events;
    *checker_peak = std::max(*checker_peak, checker.stats().peak_tracked);
  }
  // Storage and lock counts, recovery and checkpoint come from the
  // untraced rounds of a traced run: full-size WALs, no checker.
  const bool layer_counts = args.trace && !traced;
  if (layer_counts) {
    const auto wal = engine->wal_stats();
    storage->commits += round.commits;
    storage->appended += wal.appended;
    storage->batches += wal.batches;
    storage->synced += wal.synced_records;
    storage->max_batch = std::max(storage->max_batch, wal.max_batch);
    storage->wal_bytes += DirBytes(dir, "snapshot");
    storage->wall_s += round.wall_s;
    locks->AddEngine(engine->engine_stats());
    locks->top_attempts += attempts;
    locks->top_commits += round.commits;
    const Clock::time_point r0 = Clock::now();
    auto recovered = rnt::storage::Recover(rnt::storage::RecoveryOptions{dir});
    const double recover_s = SecondsSince(r0);
    if (!recovered.ok()) {
      report->Fail("recover: " + recovered.status().ToString());
      return round;
    }
    storage->recover_s.push_back(recover_s);
    storage->recover_records_per_s.push_back(recovered->records_scanned /
                                             recover_s);
  }
  engine.reset();

  const Clock::time_point restart0 = Clock::now();
  auto reopened = rnt::storage::DurableEngine::Open(dir, EngineOptions());
  round.restart_s = SecondsSince(restart0);
  if (!reopened.ok()) {
    report->Fail("reopen: " + reopened.status().ToString());
    return round;
  }
  if ((*reopened)->recovery().committed_top < round.commits) {
    report->Fail("recovery lost acknowledged commits");
    return round;
  }
  for (ObjectId k = 0; k < kObjects; ++k) {
    if ((*reopened)->ReadCommitted(k) != expected[k]) {
      report->Fail("reopened store differs at object " + std::to_string(k));
      return round;
    }
  }
  if (layer_counts) {
    const Clock::time_point c0 = Clock::now();
    if (auto st = (*reopened)->Checkpoint(); !st.ok()) {
      report->Fail("checkpoint: " + st.ToString());
      return round;
    }
    storage->checkpoint_s.push_back(SecondsSince(c0));
    storage->snapshot_bytes.push_back(static_cast<double>(
        std::filesystem::file_size(dir + "/snapshot")));
  }
  reopened->reset();
  RemoveTree(dir);
  return round;
}

}  // namespace

void RunDurableNested(const Args& args, Report* report) {
  std::vector<Round> rounds;
  LockTally locks;
  StorageTally storage;
  std::uint64_t checker_events = 0, checker_peak = 0;
  double measured = 0, traced_wall = 0;
  std::uint64_t traced_commits = 0;
  // Whole rounds until the measuring time is spent; at least three
  // untraced ones (and, traced, as many traced ones between them).
  for (int i = 0; report->correct; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    rounds.push_back(RunRound(args, i, traced, report, &locks, &storage,
                              &checker_events, &checker_peak));
    measured += rounds.back().wall_s;
    if (traced) {
      traced_wall += rounds.back().wall_s;
      traced_commits += rounds.back().commits;
    }
    if (measured >= args.seconds && i >= (args.trace ? 5 : 2) &&
        (args.trace || !NeedsCleanRounds(rounds, args.seconds))) {
      break;
    }
  }
  ReportRounds(rounds, report, /*children_rss=*/false);
  if (!args.trace) return;

  const SpanSummary spans = Summarize(Tracer::Get().Collect());
  ReportTxnLayer(spans, traced_wall, kClients, traced_commits, checker_events,
                 checker_peak, report);
  ReportLockLayer(locks, report);
  auto total = [&](SpanName n) {
    auto it = spans.total_us.find(n);
    return it == spans.total_us.end() ? std::vector<double>{} : it->second;
  };
  auto per = [](double num, double den) { return den > 0 ? num / den : 0; };
  const double commits = static_cast<double>(storage.commits);
  report->Set("storage.durable_commit_us_p50",
              Percentile(total(SpanName::kStorageCommit), 0.5));
  report->Set("storage.durable_commit_us_p99",
              Percentile(total(SpanName::kStorageCommit), 0.99));
  report->Set("storage.barrier_wait_us_p50",
              Median(total(SpanName::kStorageBarrier)));
  report->Set("storage.wal_records_per_txn", per(storage.appended, commits));
  report->Set("storage.wal_bytes_per_txn", per(storage.wal_bytes, commits));
  report->Set("storage.records_per_flush",
              per(storage.synced, storage.batches));
  report->Set("storage.flush_rounds_per_s",
              per(storage.batches, storage.wall_s));
  report->Set("storage.max_batch", static_cast<double>(storage.max_batch));
  report->Set("storage.recover_s", Median(storage.recover_s));
  report->Set("storage.recover_records_per_s",
              Median(storage.recover_records_per_s));
  report->Set("storage.checkpoint_s", Median(storage.checkpoint_s));
  report->Set("storage.snapshot_bytes", Median(storage.snapshot_bytes));
}

}  // namespace perfbench

// batched_frontend: the asynchronous front end's queue hop, completion
// hand-off, session straddling and the sharded ApplyBatch path.
// frontend::AsyncFrontend with 1 worker over the in-memory sharded
// engine; 3 client sessions, one thread each, strict request-response
// in batches of 16 ops that straddle begin/commit. Each client owns its
// key range, so there is no data contention. A transaction is 64
// accesses (half Get, half Add); 20% wrap their middle third in a
// subtransaction, a quarter of which abort.
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "frontend/async_frontend.h"
#include "frontend/batch.h"
#include "txn/online_checker.h"
#include "txn/transaction_manager.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rnt::ObjectId;
using rnt::Value;
using rnt::frontend::BatchOp;
using rnt::frontend::BatchOpKind;

constexpr int kClients = 3;
constexpr ObjectId kKeysPerClient = 16384;
constexpr int kAccessesPerTxn = 64;
constexpr double kSubtxnShare = 0.2;
constexpr double kSubtxnAbortShare = 0.25;
constexpr std::size_t kBatchOps = 16;
constexpr int kPoolTxns = 2048;  // generated per client, cycled
constexpr std::size_t kLatencyCapacity = std::size_t{1} << 22;
constexpr int kRounds = 16;
constexpr double kWarmupS = 0.1;  // per round, not measured

/// A client's op stream: whole transactions, cycled from the start.
std::vector<BatchOp> MakeStream(rnt::Rng& rng, int client) {
  const ObjectId base = static_cast<ObjectId>(client) * kKeysPerClient;
  std::vector<BatchOp> ops;
  for (int t = 0; t < kPoolTxns; ++t) {
    const bool sub = rng.Chance(kSubtxnShare);
    const bool sub_aborts = rng.Chance(kSubtxnAbortShare);
    ops.push_back(BatchOp::Begin());
    for (int a = 0; a < kAccessesPerTxn; ++a) {
      if (sub && a == kAccessesPerTxn / 3) ops.push_back(BatchOp::Begin());
      if (sub && a == 2 * kAccessesPerTxn / 3) {
        ops.push_back(sub_aborts ? BatchOp::Abort() : BatchOp::Commit());
      }
      const ObjectId key = base + static_cast<ObjectId>(rng.Below(kKeysPerClient));
      ops.push_back(rng.Chance(0.5)
                        ? BatchOp::Get(key)
                        : BatchOp::Apply(key, rnt::action::Update::Add(
                                                  rng.Range(1, 100))));
    }
    ops.push_back(BatchOp::Commit());
  }
  return ops;
}

/// Batch `b` of a stream: ops [16b, 16b + 16), wrapping at the end.
void FillBatch(const std::vector<BatchOp>& stream, std::uint64_t b,
               BatchOp* out) {
  for (std::size_t i = 0; i < kBatchOps; ++i) {
    out[i] = stream[(b * kBatchOps + i) % stream.size()];
  }
}

struct ClientResult {
  std::uint64_t batches = 0;
  std::uint64_t ok_ops = 0;
  std::uint64_t commits = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_us;
};

/// Strict request-response over the client's stream until `deadline`;
/// transactions begun before `measure_from` are warm-up and not counted.
void RunClient(rnt::frontend::AsyncFrontend* frontend,
               const std::vector<BatchOp>& stream,
               Clock::time_point measure_from, Clock::time_point deadline,
               std::latch* start, ClientResult* out) {
  const auto session = frontend->OpenSession();
  BatchOp ops[kBatchOps];
  rnt::frontend::OpResult results[kBatchOps];
  rnt::frontend::Completion completion;
  std::size_t depth = 0;
  Clock::time_point txn_start;
  bool counted = false;
  // Reserved once (pages are touched only as used): growing by
  // doubling would copy, and make peak RSS depend on the sample count.
  out->latency_us.reserve(kLatencyCapacity);
  start->arrive_and_wait();
  while (Clock::now() < deadline) {
    FillBatch(stream, out->batches, ops);
    const std::uint32_t batch_id = static_cast<std::uint32_t>(out->batches);
    const Clock::time_point sent = Clock::now();
    const rnt::frontend::BatchResult* result;
    {
      Tracer::Scope rtt(SpanName::kFrontendRtt, batch_id, kBatchOps);
      {
        Tracer::Scope submit(SpanName::kFrontendSubmit, batch_id, kBatchOps);
        if (!frontend->Submit(session,
                              rnt::frontend::BatchRequest{
                                  std::span<const BatchOp>(ops, kBatchOps)},
                              results, &completion)) {
          return;
        }
      }
      result = &completion.Wait();
    }
    const Clock::time_point done = Clock::now();
    ++out->batches;
    out->ok_ops += result->ok_ops;
    for (std::size_t i = 0; i < kBatchOps; ++i) {
      switch (ops[i].kind) {
        case BatchOpKind::kBegin:
          if (depth++ == 0) {
            txn_start = sent;
            counted = sent >= measure_from;
            if (counted) ++out->attempted;
          }
          break;
        case BatchOpKind::kCommit:
        case BatchOpKind::kAbort:
          if (--depth == 0 && counted) {
            if (results[i].ok()) {
              ++out->commits;
              out->latency_us.push_back(
                  std::chrono::duration<double, std::micro>(done - txn_start)
                      .count());
            } else {
              ++out->failed;
            }
          }
          break;
        default:
          break;
      }
    }
  }
}

/// Re-executes each client's submitted batches synchronously through a
/// frontend::Session on a fresh engine; the committed store and ok-op
/// counts must match the asynchronous run.
bool MatchesReference(rnt::txn::Engine* engine,
                      const std::vector<std::vector<BatchOp>>& streams,
                      const std::vector<ClientResult>& results,
                      std::string* why) {
  rnt::txn::TransactionManager reference;
  BatchOp ops[kBatchOps];
  rnt::frontend::OpResult out[kBatchOps];
  for (int c = 0; c < kClients; ++c) {
    rnt::frontend::Session session(&reference);
    std::uint64_t ok_ops = 0;
    for (std::uint64_t b = 0; b < results[c].batches; ++b) {
      FillBatch(streams[c], b, ops);
      ok_ops += session
                    .Execute(rnt::frontend::BatchRequest{std::span<const BatchOp>(
                                 ops, kBatchOps)},
                             out)
                    .ok_ops;
    }
    if (ok_ops != results[c].ok_ops) {
      *why = "client " + std::to_string(c) + " ok ops " +
             std::to_string(results[c].ok_ops) + " vs reference " +
             std::to_string(ok_ops);
      return false;
    }
  }
  for (ObjectId k = 0; k < kClients * kKeysPerClient; ++k) {
    if (engine->ReadCommitted(k) != reference.ReadCommitted(k)) {
      *why = "committed store differs at object " + std::to_string(k);
      return false;
    }
  }
  return true;
}

}  // namespace

void RunBatchedFrontend(const Args& args, Report* report) {
  // A traced run alternates untraced and traced rounds.
  const int rounds_total = args.trace ? kRounds + 1 : kRounds;
  const double slice_s = static_cast<double>(args.seconds) / kRounds;
  std::vector<Round> rounds;
  LockTally locks;
  std::uint64_t checker_events = 0, checker_peak = 0, traced_commits = 0;
  std::uint64_t batches = 0, fe_ops = 0, backpressure = 0;
  double traced_wall = 0;

  for (int i = 0; report->correct; ++i) {
    if (i >= rounds_total &&
        (args.trace || !NeedsCleanRounds(rounds, args.seconds))) {
      break;
    }
    Round round;
    round.traced = args.trace && i % 2 == 1;
    rnt::Rng rng(args.seed * 1000003 + static_cast<std::uint64_t>(i));
    std::vector<std::vector<BatchOp>> streams;
    for (int c = 0; c < kClients; ++c) streams.push_back(MakeStream(rng, c));

    rnt::txn::OnlineChecker checker(
        rnt::txn::OnlineChecker::Options{rnt::txn::OnlineChecker::Mode::kRw});
    TimedSink timed(&checker);
    rnt::txn::TransactionManager::Options options;
    if (round.traced) options.trace_sink = &timed;

    std::unique_ptr<rnt::txn::TransactionManager> engine;
    std::unique_ptr<TracedEngine> traced_engine;
    std::unique_ptr<rnt::frontend::AsyncFrontend> frontend;
    auto drop = [&] {
      frontend.reset();
      traced_engine.reset();
      engine.reset();
    };
    round.setup_s = FastestSeconds(kStepReps, drop, [&] {
      engine = std::make_unique<rnt::txn::TransactionManager>(options);
      traced_engine = std::make_unique<TracedEngine>(engine.get(),
                                                     /*durable=*/false);
      frontend = std::make_unique<rnt::frontend::AsyncFrontend>(
          round.traced ? static_cast<rnt::txn::Engine*>(traced_engine.get())
                       : engine.get(),
          rnt::frontend::AsyncFrontend::Options{});
    });

    Tracer::Get().Enable(round.traced);
    std::vector<ClientResult> results(kClients);
    std::latch start(kClients + 1);
    const Clock::time_point run0 =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kWarmupS));
    const auto deadline =
        run0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(slice_s));
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(RunClient, frontend.get(), std::cref(streams[c]),
                           run0, deadline, &start, &results[c]);
    }
    start.arrive_and_wait();
    std::this_thread::sleep_until(run0);
    const CpuTicks ticks0 = CpuTicks::Read();
    for (auto& t : clients) t.join();
    round.wall_s = SecondsSince(run0);
    round.steal_share = StealShare(ticks0, CpuTicks::Read());
    if (round.traced) Tracer::Get().AddWindow(run0, Clock::now());
    frontend->Shutdown();
    Tracer::Get().Enable(false);

    std::size_t samples = 0;

    for (const ClientResult& r : results) samples += r.latency_us.size();

    round.latency_us.reserve(samples);

    for (const ClientResult& r : results) {
      round.commits += r.commits;
      round.attempted += r.attempted;
      round.failed += r.failed;
      round.latency_us.insert(round.latency_us.end(), r.latency_us.begin(),
                              r.latency_us.end());
    }
    const auto fe = frontend->stats();
    const auto stats = engine->stats();
    std::string why;
    if (!MatchesReference(engine.get(), streams, results, &why)) {
      report->Fail(why);
    } else if (stats.lock_records != 0) {
      report->Fail("lock records after shutdown");
    } else if (round.traced && checker.Verdict().outcome !=
                                   rnt::txn::OnlineChecker::Outcome::kOk) {
      report->Fail("online checker: " + checker.Verdict().detail);
    }
    if (round.traced) {
      traced_wall += round.wall_s;
      traced_commits += round.commits;
      checker_events += checker.stats().events;
      checker_peak = std::max(checker_peak, checker.stats().peak_tracked);
    } else if (args.trace) {
      locks.AddEngine(stats);
      locks.top_attempts += round.attempted;
      locks.top_commits += round.commits;
      batches += fe.batches;
      fe_ops += fe.ops;
      backpressure += fe.backpressure_waits;
    }

    // Restart: reload the committed store into a fresh engine and
    // front end.
    frontend.reset();
    std::unique_ptr<rnt::txn::TransactionManager> reloaded;
    std::unique_ptr<rnt::frontend::AsyncFrontend> refront;
    round.restart_s = FastestSeconds(
        kStepReps,
        [&] {
          refront.reset();
          reloaded.reset();
        },
        [&] {
          reloaded = std::make_unique<rnt::txn::TransactionManager>();
          reloaded->Preload(engine->DumpCommitted());
          refront = std::make_unique<rnt::frontend::AsyncFrontend>(
              reloaded.get(), rnt::frontend::AsyncFrontend::Options{});
        });
    refront.reset();
    if (reloaded->DumpCommitted() != engine->DumpCommitted()) {
      report->Fail("reloaded store differs");
    }
    rounds.push_back(std::move(round));
  }
  ReportRounds(rounds, report, /*children_rss=*/false);
  if (!args.trace) return;
  const SpanSummary spans = Summarize(Tracer::Get().Collect());
  ReportTxnLayer(spans, traced_wall, /*engine_threads=*/1, traced_commits,
                 checker_events, checker_peak, report);
  ReportLockLayer(locks, report);
  auto total = [&](SpanName n) {
    auto it = spans.total_us.find(n);
    return it == spans.total_us.end() ? std::vector<double>{} : it->second;
  };
  auto per = [](double num, double den) { return den > 0 ? num / den : 0; };
  report->Set("frontend.submit_us_p50", Median(total(SpanName::kFrontendSubmit)));
  report->Set("frontend.batch_rtt_us_p50",
              Percentile(total(SpanName::kFrontendRtt), 0.5));
  report->Set("frontend.batch_rtt_us_p99",
              Percentile(total(SpanName::kFrontendRtt), 0.99));
  report->Set("frontend.backpressure_waits_per_batch",
              per(backpressure, batches));
  report->Set("frontend.ops_per_batch", per(fe_ops, batches));
}

}  // namespace perfbench

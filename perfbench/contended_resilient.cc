// contended_resilient: lock waits, deadlock victims, aborts and retries.
// The in-memory sharded txn::TransactionManager, 3 closed-loop clients,
// keys Zipf-skewed over 256 objects. A transaction is 3 children; a
// transfer child adds +d and -d to two objects (so the sum over all
// objects is invariant), an audit child reads three. An injected child
// failure is retried in place as a recovery block; a transaction whose
// access or commit is refused by the lock layer (deadlock victim or
// timeout) is aborted and restarted whole.
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "txn/online_checker.h"
#include "txn/transaction_manager.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rnt::ObjectId;
using rnt::Value;
using rnt::action::Update;

constexpr ObjectId kObjects = 256;
constexpr double kZipfTheta = 0.7;
constexpr int kClients = 3;
constexpr int kChildren = 3;
constexpr int kChildOps = 3;  // transfer: 2 adds; audit: 3 reads
constexpr double kAuditShare = 0.25;
constexpr double kInjectedFailure = 0.05;
constexpr int kPoolTxns = 4096;  // generated per client, cycled
constexpr std::size_t kLatencyCapacity = std::size_t{1} << 22;
constexpr int kRounds = 16;
constexpr double kWarmupS = 0.1;  // per round, not measured
constexpr int kMaxAttempts = 1000;
constexpr Value kInitial = 1000;

struct Child {
  bool audit = false;
  bool inject_failure = false;  // abort the first attempt, then retry
  ObjectId keys[kChildOps] = {};
  Value delta = 0;
};

struct Txn {
  Child children[kChildren];
};

struct ClientResult {
  std::uint64_t commits = 0;
  std::uint64_t attempted = 0;
  std::uint64_t attempts = 0;
  std::uint64_t gave_up = 0;
  std::uint64_t child_retries = 0;
  std::vector<double> latency_us;
};

std::vector<Txn> MakePool(rnt::Rng& rng, const rnt::Zipf& zipf) {
  std::vector<Txn> pool(kPoolTxns);
  for (Txn& t : pool) {
    for (Child& c : t.children) {
      c.audit = rng.Chance(kAuditShare);
      c.inject_failure = rng.Chance(kInjectedFailure);
      for (ObjectId& k : c.keys) k = static_cast<ObjectId>(zipf.Sample(rng));
      while (!c.audit && c.keys[1] == c.keys[0]) {
        c.keys[1] = static_cast<ObjectId>(zipf.Sample(rng));
      }
      c.delta = rng.Range(1, 9);
    }
  }
  return pool;
}

/// Runs one child to completion as a recovery block. Returns false when
/// the lock layer killed it (the caller restarts the whole transaction).
bool RunChild(rnt::txn::TxnHandle* top, const Child& c,
              std::uint64_t* child_retries) {
  for (bool fail_once = c.inject_failure;; fail_once = false) {
    auto child = top->BeginChild();
    if (!child.ok()) return false;
    rnt::txn::TxnHandle* h = child->get();
    bool ok = true;
    if (c.audit) {
      for (ObjectId k : c.keys) ok = ok && h->Apply(k, Update::Read()).ok();
    } else {
      ok = h->Apply(c.keys[0], Update::Add(c.delta)).ok() &&
           h->Apply(c.keys[1], Update::Add(-c.delta)).ok();
    }
    if (!ok) return false;
    if (fail_once) {
      // The child's own failure: undo it and retry in place; the
      // parent and its siblings' work are untouched.
      (void)h->Abort();
      ++*child_retries;
      continue;
    }
    return h->Commit().ok();
  }
}

/// Closed loop over the client's pool until `deadline`; transactions
/// begun before `measure_from` are warm-up and not counted.
void RunClient(rnt::txn::Engine* engine, const std::vector<Txn>& pool,
               std::uint64_t seed, Clock::time_point measure_from,
               Clock::time_point deadline, std::latch* start,
               ClientResult* out) {
  // Reserved once (pages are touched only as used): growing by
  // doubling would copy, and make peak RSS depend on the sample count.
  out->latency_us.reserve(kLatencyCapacity);
  rnt::Rng backoff(seed);
  start->arrive_and_wait();
  for (std::size_t i = 0; Clock::now() < deadline; ++i) {
    const Txn& txn = pool[i % pool.size()];
    const Clock::time_point t0 = Clock::now();
    std::uint64_t attempts = 0, child_retries = 0;
    bool committed = false;
    for (int attempt = 0; attempt < kMaxAttempts && !committed; ++attempt) {
      ++attempts;
      std::unique_ptr<rnt::txn::TxnHandle> top = engine->Begin();
      bool ok = true;
      for (const Child& c : txn.children) {
        if (!(ok = RunChild(top.get(), c, &child_retries))) break;
      }
      ok = ok && top->Commit().ok();
      if (!ok) {
        // A lock-layer abort restarts the whole transaction after a
        // randomized exponential backoff (without it a restarted
        // transaction, always the youngest, can lose every deadlock).
        (void)top->Abort();
        top.reset();
        std::this_thread::sleep_for(std::chrono::microseconds(
            backoff.Below(std::uint64_t{1} << std::min(attempt, 10))));
        continue;
      }
      committed = true;
    }
    if (t0 < measure_from) continue;
    ++out->attempted;
    out->attempts += attempts;
    out->child_retries += child_retries;
    if (committed) {
      ++out->commits;
      out->latency_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
    } else {
      ++out->gave_up;
    }
  }
}

Value StoreSum(rnt::txn::Engine* engine) {
  Value sum = 0;
  for (ObjectId k = 0; k < kObjects; ++k) sum += engine->ReadCommitted(k);
  return sum;
}

}  // namespace

void RunContendedResilient(const Args& args, Report* report) {
  const rnt::Zipf zipf(kObjects, kZipfTheta);
  // A traced run alternates untraced and traced rounds.
  const int rounds_total = args.trace ? kRounds + 1 : kRounds;
  const double slice_s = static_cast<double>(args.seconds) / kRounds;
  std::vector<Round> rounds;
  LockTally locks;
  std::uint64_t checker_events = 0, checker_peak = 0, traced_commits = 0;
  double traced_wall = 0;
  std::map<ObjectId, Value> preload;
  for (ObjectId k = 0; k < kObjects; ++k) preload[k] = kInitial;

  for (int i = 0; report->correct; ++i) {
    if (i >= rounds_total &&
        (args.trace || !NeedsCleanRounds(rounds, args.seconds))) {
      break;
    }
    Round round;
    round.traced = args.trace && i % 2 == 1;
    rnt::Rng rng(args.seed * 1000003 + static_cast<std::uint64_t>(i));
    std::vector<std::vector<Txn>> pools;
    for (int c = 0; c < kClients; ++c) pools.push_back(MakePool(rng, zipf));

    rnt::txn::OnlineChecker checker(
        rnt::txn::OnlineChecker::Options{rnt::txn::OnlineChecker::Mode::kRw});
    TimedSink timed(&checker);
    rnt::txn::TransactionManager::Options options;
    if (round.traced) {
      options.trace_sink = &timed;
      options.first_txn_id = SeedInitialState(&checker, preload);
    }

    std::unique_ptr<rnt::txn::TransactionManager> engine;
    round.setup_s = FastestSeconds(kStepReps, [&] { engine.reset(); }, [&] {
      engine = std::make_unique<rnt::txn::TransactionManager>(options);
      engine->Preload(preload);
    });

    TracedEngine traced_engine(engine.get(), /*durable=*/false);
    rnt::txn::Engine* target =
        round.traced ? static_cast<rnt::txn::Engine*>(&traced_engine)
                     : engine.get();
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
      clients.emplace_back(RunClient, target, std::cref(pools[c]), rng.Next(),
                           run0, deadline, &start, &results[c]);
    }
    start.arrive_and_wait();
    std::this_thread::sleep_until(run0);
    const CpuTicks ticks0 = CpuTicks::Read();
    for (auto& t : clients) t.join();
    round.wall_s = SecondsSince(run0);
    round.steal_share = StealShare(ticks0, CpuTicks::Read());
    if (round.traced) Tracer::Get().AddWindow(run0, Clock::now());
    Tracer::Get().Enable(false);

    std::uint64_t attempts = 0, child_retries = 0;
    std::size_t samples = 0;
    for (const ClientResult& r : results) samples += r.latency_us.size();
    round.latency_us.reserve(samples);
    for (const ClientResult& r : results) {
      round.commits += r.commits;
      round.attempted += r.attempted;
      round.failed += r.gave_up;
      attempts += r.attempts;
      child_retries += r.child_retries;
      round.latency_us.insert(round.latency_us.end(), r.latency_us.begin(),
                              r.latency_us.end());
    }

    // Correctness: transfers conserve the sum, and no lock record
    // outlives its transaction.
    const auto stats = engine->stats();
    if (StoreSum(engine.get()) != kInitial * kObjects) {
      report->Fail("sum over all objects not conserved");
    } else if (stats.lock_records != 0) {
      report->Fail(std::to_string(stats.lock_records) +
                   " lock records after quiescence");
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
      locks.top_attempts += attempts;
      locks.top_commits += round.commits;
      locks.child_retries += child_retries;
    }

    // Restart: an in-memory engine comes back by reloading its
    // committed store into a fresh engine.
    std::unique_ptr<rnt::txn::TransactionManager> reloaded;
    round.restart_s = FastestSeconds(kStepReps, [&] { reloaded.reset(); }, [&] {
      reloaded = std::make_unique<rnt::txn::TransactionManager>();
      reloaded->Preload(engine->DumpCommitted());
    });
    engine.reset();
    if (StoreSum(reloaded.get()) != kInitial * kObjects) {
      report->Fail("reloaded store lost the conserved sum");
    }
    rounds.push_back(std::move(round));
  }
  ReportRounds(rounds, report, /*children_rss=*/false);
  if (!args.trace) return;
  ReportTxnLayer(Summarize(Tracer::Get().Collect()), traced_wall, kClients,
                 traced_commits, checker_events, checker_peak, report);
  ReportLockLayer(locks, report);
}

}  // namespace perfbench

// Shared plumbing of the repository benchmark: arguments, the per-run
// report, round bookkeeping, and the span tracer that times each call
// the benchmark makes into a library layer.
//
// Tracing is the benchmark's own: spans are recorded here, around the
// public calls (TracedEngine wraps txn::Engine, TimedSink wraps the
// checker's TraceSink), kept in memory, and written out when the run
// ends. Untraced rounds use the raw engine, so end-to-end metrics carry
// no tracing cost.
#ifndef RNT_PERFBENCH_BENCH_H_
#define RNT_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <string>
#include <vector>

#include "txn/engine.h"
#include "txn/trace.h"
#include "txn/transaction_manager.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Working directory for engine files and traces, relative to the
  /// checkout root the benchmark runs from.
  std::string work_dir = ".bench_build/run";
};

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::uint64_t ToNs(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
          .count());
}
inline std::uint64_t NowNs() { return ToNs(Clock::now()); }

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Runs `fn` `reps` times, each after an untimed `reset` (which drops
/// what the previous repetition built), and returns the fastest duration
/// in seconds. The in-memory workloads set up and restart in microseconds;
/// a slower repetition measures an interruption, not the step.
template <typename Reset, typename Fn>
double FastestSeconds(int reps, Reset&& reset, Fn&& fn) {
  double fastest = 0;
  for (int i = 0; i < reps; ++i) {
    reset();
    const Clock::time_point t0 = Clock::now();
    fn();
    const double s = SecondsSince(t0);
    if (i == 0 || s < fastest) fastest = s;
  }
  return fastest;
}
constexpr int kStepReps = 9;

/// High-water resident set size in MiB: of this process, or of the
/// largest reaped child (the dist_unix node processes).
double PeakRssMb(bool children);

/// Aggregate CPU ticks of this machine from /proc/stat: the hypervisor's
/// steal and the total. Zero when unavailable.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  static CpuTicks Read();
};
/// Share of CPU time stolen by the hypervisor between two readings.
inline double StealShare(const CpuTicks& from, const CpuTicks& to) {
  const std::uint64_t total = to.total - from.total;
  return total > 0 ? static_cast<double>(to.steal - from.steal) / total : 0;
}

/// Removes `path` recursively (no error if absent).
void RemoveTree(const std::string& path);

/// Sum of the sizes of the regular files in `dir`, optionally skipping
/// one name.
std::uint64_t DirBytes(const std::string& dir, const std::string& skip = "");

/// What one run reports. Workloads fill `metrics` by name; main prints
/// the ones BENCHMARK.json lists for the run's mode.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Human-readable lines (sample counts, tracing overhead) printed
  /// before the result line.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Note(const std::string& line) { notes.push_back(line); }
  /// Marks the run wrong: its numbers are withheld and every attempted
  /// transaction counts as failed.
  void Fail(const std::string& why);
};

/// One round of a workload: set up fresh, measure, check, restart.
struct Round {
  bool traced = false;
  double setup_s = 0;
  double wall_s = 0;
  double restart_s = 0;
  /// Hypervisor steal during the measured load; ReportRounds keeps the
  /// least-stolen rounds.
  double steal_share = 0;
  std::uint64_t commits = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_us;
};

/// Folds rounds into the end-to-end metrics every workload reports,
/// plus the tracing-overhead metrics and notes. The end-to-end numbers
/// come from the least-stolen half of the untraced rounds; in a traced
/// run, untraced rounds alternate with traced ones.
void ReportRounds(const std::vector<Round>& rounds, Report* report,
                  bool children_rss);

/// True while fewer than half of the untraced rounds so far had under 2%
/// steal and their load time is under 1.5 x `seconds`. An untraced run
/// caught in a steal burst runs extra rounds until the host calms down,
/// so the least-stolen half is clean; the cap bounds the run's length.
bool NeedsCleanRounds(const std::vector<Round>& rounds, int seconds);

/// Lock-layer counts summed over rounds: the engine's own counters plus
/// the benchmark's restart and retry counts.
struct LockTally {
  rnt::txn::TransactionManager::Stats engine;
  std::uint64_t top_attempts = 0;
  std::uint64_t top_commits = 0;
  std::uint64_t child_retries = 0;
  /// Live lock records once every client finished (must be 0).
  std::uint64_t records_after_quiesce = 0;

  void AddEngine(const rnt::txn::TransactionManager::Stats& s);
};
void ReportLockLayer(const LockTally& tally, Report* report);

// ---------------------------------------------------------------------------
// Tracing.

/// Every span the benchmark records, named by the layer the call enters.
enum class SpanName : std::uint8_t {
  kTxnBegin,          // Engine::Begin / TxnHandle::BeginChild
  kTxnAccess,         // TxnHandle::Apply
  kTxnAccessBatch,    // TxnHandle::ApplyBatch (ops = batch length)
  kTxnChildCommit,    // Commit of a subtransaction
  kTxnCommit,         // Commit of a top-level in-memory transaction
  kTxnAbort,          // TxnHandle::Abort
  kStorageCommit,     // Commit of a top-level DurableEngine transaction
  kStorageBarrier,    // child of kStorageCommit: commit logged -> acked
  kFrontendSubmit,    // AsyncFrontend::Submit (time blocked in it)
  kFrontendRtt,       // Submit -> Completion::Wait returned
  kCount,
};
const char* SpanNameString(SpanName name);

struct SpanRecord {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /// Time covered by child spans (and checker appends) inside this one.
  std::uint64_t child_ns = 0;
  /// The transaction (or batch) the span belongs to.
  std::uint32_t request = 0;
  std::uint32_t ops = 1;
  SpanName name = SpanName::kTxnBegin;
  /// Name of the enclosing span on the same thread, or kCount at root.
  SpanName parent = SpanName::kCount;
  std::uint16_t thread = 0;

  double self_us() const {
    return static_cast<double>(end_ns - start_ns - child_ns) / 1e3;
  }
  double total_us() const {
    return static_cast<double>(end_ns - start_ns) / 1e3;
  }
};

/// Process-wide span recorder. Disabled unless Enable() was called; a
/// disabled Scope costs one branch.
class Tracer {
 public:
  static Tracer& Get();

  /// Call only while no traced thread runs (between rounds).
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Marks [begin, end) as measured time of a traced round; spans that
  /// start outside every window (warm-up) are recorded but not reported.
  void AddWindow(Clock::time_point begin, Clock::time_point end);
  /// The spans that start inside a measured window. Call only after
  /// every recording thread has been joined.
  std::vector<SpanRecord> Collect() const;
  /// Checker appends timed by TimedSink: count and total nanoseconds.
  std::uint64_t checker_appends() const;
  std::uint64_t checker_ns() const;
  /// Writes every span to `path`: a text header naming the record layout
  /// and the span names, then the records in this build's SpanRecord
  /// layout.
  bool WriteOut(const std::string& path) const;

  /// RAII span around one call into a layer.
  class Scope {
   public:
    Scope(SpanName name, std::uint32_t request, std::uint32_t ops = 1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Start time, or 0 when tracing is off.
    std::uint64_t start_ns() const { return start_ns_; }

   private:
    std::uint64_t start_ns_ = 0;
  };

  /// Records a finished child span [start, end) of the innermost open
  /// span on this thread and charges it to that span's child time.
  void AddChild(SpanName name, std::uint64_t start_ns, std::uint64_t end_ns);

  /// Called by TimedSink around one checker append.
  void ChargeChecker(std::uint64_t ns, bool commit_event,
                     std::uint64_t end_ns);
  /// End time of the last commit event this thread logged (0 if none
  /// since the last reset); brackets the durable group-commit wait.
  std::uint64_t TakeCommitEventNs();

 private:
  struct ThreadBuffer;
  ThreadBuffer& Local();

  std::atomic<bool> enabled_{false};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> windows_;
  struct Registry;
  std::unique_ptr<Registry> registry_;
  Tracer();
};

/// Streams into `sink` committed top-level transactions that write
/// `store`: the state a preloaded engine starts from, so a checker that
/// assumes all-zero initial values judges the run that follows. Returns
/// the first transaction id the engine may allocate after them.
rnt::lock::TxnId SeedInitialState(rnt::txn::TraceSink* sink,
                                  const std::map<rnt::ObjectId, rnt::Value>& store);

/// Forwarding trace sink: times each append into the wrapped sink (the
/// online checker) as a child of the engine call that triggered it.
class TimedSink final : public rnt::txn::TraceSink {
 public:
  explicit TimedSink(rnt::txn::TraceSink* inner) : inner_(inner) {}
  void Append(const rnt::txn::TraceEvent& event) override;

 private:
  rnt::txn::TraceSink* inner_;
};

/// txn::Engine decorator recording one span per call. `durable` names
/// top-level commits as the storage layer's (DurableEngine acknowledges
/// them after the WAL group-commit barrier).
class TracedEngine final : public rnt::txn::Engine {
 public:
  TracedEngine(rnt::txn::Engine* inner, bool durable)
      : inner_(inner), durable_(durable) {}

  std::unique_ptr<rnt::txn::TxnHandle> Begin() override;
  rnt::Value ReadCommitted(rnt::ObjectId x) override {
    return inner_->ReadCommitted(x);
  }
  std::string name() const override { return inner_->name(); }

 private:
  rnt::txn::Engine* inner_;
  bool durable_;
  std::atomic<std::uint32_t> next_request_{0};
};

/// Per-layer numbers derived from the spans of the traced rounds.
struct SpanSummary {
  std::map<SpanName, std::vector<double>> self_us;
  std::map<SpanName, std::vector<double>> total_us;
  /// Self time per access: each Apply, and each ApplyBatch divided by
  /// its op count.
  std::vector<double> access_per_op_us;
  /// Sum of root-span durations (engine calls not nested in another
  /// engine call), per recording thread set; for busy share.
  double root_engine_s = 0;
};
SpanSummary Summarize(const std::vector<SpanRecord>& spans);

/// Fills the txn.* and checker.* per-layer metrics common to the
/// in-process workloads. `engine_threads` × `traced_wall_s` is the
/// client wall time the busy share divides by.
void ReportTxnLayer(const SpanSummary& summary, double traced_wall_s,
                    int engine_threads, std::uint64_t top_commits,
                    std::uint64_t checker_events,
                    std::uint64_t checker_peak, Report* report);

}  // namespace perfbench

#endif  // RNT_PERFBENCH_BENCH_H_

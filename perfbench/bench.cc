#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>

namespace perfbench {

using rnt::Status;
using rnt::StatusOr;
using rnt::Value;
using rnt::txn::BatchAccess;
using rnt::txn::OpOutcome;
using rnt::txn::TxnHandle;

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const std::size_t n = values.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double PeakRssMb(bool children) {
  rusage usage{};
  ::getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuTicks CpuTicks::Read() {
  CpuTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) ticks.total += x;
    ticks.steal = v[7];
  }
  std::fclose(f);
  return ticks;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::uint64_t DirBytes(const std::string& dir, const std::string& skip) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file() || entry.path().filename() == skip) continue;
    total += entry.file_size();
  }
  return total;
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "correctness check failed: %s\n", why.c_str());
  correct = false;
}

void ReportRounds(const std::vector<Round>& rounds, Report* report,
                  bool children_rss) {
  std::vector<const Round*> untraced;
  std::vector<double> rate, traced_rate;
  for (const Round& r : rounds) {
    report->attempted += r.attempted;
    report->failed += r.failed;
    const double per_s = r.wall_s > 0 ? r.commits / r.wall_s : 0;
    (r.traced ? traced_rate : rate).push_back(per_s);
    if (!r.traced) untraced.push_back(&r);
  }
  // The end-to-end numbers come from the half of the untraced rounds
  // (at least 3) during which the hypervisor stole the least CPU: on the
  // shared host, rounds with 5-10% steal ran 25% slower with a 5x p99,
  // which measures the neighbours, not the program. Within those
  // rounds, each round's percentiles and then the median over rounds.
  std::stable_sort(untraced.begin(), untraced.end(),
                   [](const Round* a, const Round* b) {
                     return a->steal_share < b->steal_share;
                   });
  untraced.resize(std::min(untraced.size(),
                           std::max<std::size_t>(3, (untraced.size() + 1) / 2)));
  std::vector<double> kept_rate, setup, restart, p50, p99;
  std::size_t samples = 0;
  for (const Round* r : untraced) {
    kept_rate.push_back(r->wall_s > 0 ? r->commits / r->wall_s : 0);
    setup.push_back(r->setup_s);
    restart.push_back(r->restart_s);
    p50.push_back(Percentile(r->latency_us, 0.5));
    p99.push_back(Percentile(r->latency_us, 0.99));
    samples += r->latency_us.size();
  }
  report->Set("setup_s", Median(setup));
  report->Set("txn_per_s", Median(kept_rate));
  report->Set("txn_p50_us", Median(p50));
  report->Set("txn_p99_us", Median(p99));
  report->Set("restart_s", Median(restart));
  report->Set("peak_rss_mb", PeakRssMb(children_rss));
  char line[160];
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    std::snprintf(line, sizeof(line),
                  "round %zu%s: %.1f txn/s, %llu commits in %.3f s, p99 "
                  "%.1f us, setup %.6f s, restart %.6f s, steal %.1f%%",
                  i, r.traced ? " (traced)" : "",
                  r.wall_s > 0 ? r.commits / r.wall_s : 0,
                  static_cast<unsigned long long>(r.commits), r.wall_s,
                  Percentile(r.latency_us, 0.99), r.setup_s, r.restart_s,
                  100 * r.steal_share);
    report->Note(line);
  }
  std::snprintf(line, sizeof(line),
                "rounds=%zu untraced=%zu reported=%zu latency_samples=%zu",
                rounds.size(), rate.size(), untraced.size(), samples);
  report->Note(line);
  if (!traced_rate.empty()) {
    const double plain = Median(rate);
    const double traced = Median(traced_rate);
    report->Set("trace.untraced_txn_per_s", plain);
    report->Set("trace.traced_txn_per_s", traced);
    report->Set("trace.slowdown", traced > 0 ? plain / traced : 0);
    std::snprintf(line, sizeof(line),
                  "tracing overhead: %.1f txn/s traced vs %.1f untraced",
                  traced, plain);
    report->Note(line);
  }
}

void LockTally::AddEngine(const rnt::txn::TransactionManager::Stats& s) {
  engine.begun += s.begun;
  engine.committed += s.committed;
  engine.aborted += s.aborted;
  engine.deadlock_aborts += s.deadlock_aborts;
  engine.timeout_aborts += s.timeout_aborts;
  engine.cascade_aborts += s.cascade_aborts;
  engine.lock_waits += s.lock_waits;
  engine.accesses += s.accesses;
  records_after_quiesce += s.lock_records;
}

void ReportLockLayer(const LockTally& t, Report* report) {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  const double commits = static_cast<double>(t.top_commits);
  report->Set("lock.waits_per_access",
              ratio(t.engine.lock_waits, t.engine.accesses));
  report->Set("lock.deadlock_aborts_per_1k_commits",
              ratio(1000.0 * t.engine.deadlock_aborts, commits));
  report->Set("lock.cascade_aborts_per_1k_commits",
              ratio(1000.0 * t.engine.cascade_aborts, commits));
  report->Set("lock.timeout_aborts",
              static_cast<double>(t.engine.timeout_aborts));
  report->Set("lock.attempts_per_commit", ratio(t.top_attempts, commits));
  report->Set("lock.child_retries_per_commit", ratio(t.child_retries, commits));
  report->Set("lock.records_after_quiesce",
              static_cast<double>(t.records_after_quiesce));
}

bool NeedsCleanRounds(const std::vector<Round>& rounds, int seconds) {
  std::size_t untraced = 0, clean = 0;
  double load_s = 0;
  for (const Round& r : rounds) {
    if (r.traced) continue;
    ++untraced;
    clean += r.steal_share < 0.02 ? 1 : 0;
    load_s += r.wall_s;
  }
  return 2 * clean < untraced && load_s < 1.5 * seconds;
}

// ---------------------------------------------------------------------------
// Tracer.

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kTxnBegin: return "txn.begin";
    case SpanName::kTxnAccess: return "txn.access";
    case SpanName::kTxnAccessBatch: return "txn.access_batch";
    case SpanName::kTxnChildCommit: return "txn.child_commit";
    case SpanName::kTxnCommit: return "txn.commit";
    case SpanName::kTxnAbort: return "txn.abort";
    case SpanName::kStorageCommit: return "storage.durable_commit";
    case SpanName::kStorageBarrier: return "storage.barrier_wait";
    case SpanName::kFrontendSubmit: return "frontend.submit";
    case SpanName::kFrontendRtt: return "frontend.batch_rtt";
    case SpanName::kCount: break;
  }
  return "root";
}

namespace {

struct OpenSpan {
  std::uint64_t start_ns;
  std::uint64_t child_ns;
  std::uint32_t request;
  std::uint32_t ops;
  SpanName name;
};

}  // namespace

struct Tracer::ThreadBuffer {
  std::uint16_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<OpenSpan> stack;
  std::uint64_t checker_appends = 0;
  std::uint64_t checker_ns = 0;
  std::uint64_t commit_event_ns = 0;
};

struct Tracer::Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

Tracer::Tracer() : registry_(std::make_unique<Registry>()) {}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer& Tracer::Local() {
  // Buffers live as long as the process, so a thread's pointer never
  // dangles; each thread registers once.
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(registry_->mu);
    auto buf = std::make_unique<ThreadBuffer>();
    buf->thread = static_cast<std::uint16_t>(registry_->buffers.size());
    buf->spans.reserve(1 << 16);
    local = buf.get();
    registry_->buffers.push_back(std::move(buf));
  }
  return *local;
}

Tracer::Scope::Scope(SpanName name, std::uint32_t request,
                     std::uint32_t ops) {
  Tracer& t = Get();
  if (!t.enabled()) return;
  start_ns_ = NowNs();
  t.Local().stack.push_back(OpenSpan{start_ns_, 0, request, ops, name});
}

Tracer::Scope::~Scope() {
  if (start_ns_ == 0) return;
  ThreadBuffer& buf = Get().Local();
  const OpenSpan open = buf.stack.back();
  buf.stack.pop_back();
  SpanRecord rec;
  rec.start_ns = open.start_ns;
  rec.end_ns = NowNs();
  rec.child_ns = open.child_ns;
  rec.request = open.request;
  rec.ops = open.ops;
  rec.name = open.name;
  rec.thread = buf.thread;
  if (!buf.stack.empty()) {
    rec.parent = buf.stack.back().name;
    buf.stack.back().child_ns += rec.end_ns - rec.start_ns;
  }
  buf.spans.push_back(rec);
}

void Tracer::AddChild(SpanName name, std::uint64_t start_ns,
                      std::uint64_t end_ns) {
  ThreadBuffer& buf = Local();
  if (buf.stack.empty()) return;
  OpenSpan& parent = buf.stack.back();
  parent.child_ns += end_ns - start_ns;
  SpanRecord rec;
  rec.start_ns = start_ns;
  rec.end_ns = end_ns;
  rec.request = parent.request;
  rec.name = name;
  rec.parent = parent.name;
  rec.thread = buf.thread;
  buf.spans.push_back(rec);
}

void Tracer::ChargeChecker(std::uint64_t ns, bool commit_event,
                           std::uint64_t end_ns) {
  ThreadBuffer& buf = Local();
  ++buf.checker_appends;
  buf.checker_ns += ns;
  if (!buf.stack.empty()) buf.stack.back().child_ns += ns;
  if (commit_event) buf.commit_event_ns = end_ns;
}

std::uint64_t Tracer::TakeCommitEventNs() {
  ThreadBuffer& buf = Local();
  const std::uint64_t ns = buf.commit_event_ns;
  buf.commit_event_ns = 0;
  return ns;
}

void Tracer::AddWindow(Clock::time_point begin, Clock::time_point end) {
  windows_.emplace_back(ToNs(begin), ToNs(end));
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(registry_->mu);
  std::vector<SpanRecord> measured;
  for (const auto& buf : registry_->buffers) {
    for (const SpanRecord& s : buf->spans) {
      for (const auto& [begin, end] : windows_) {
        if (s.start_ns >= begin && s.start_ns < end) {
          measured.push_back(s);
          break;
        }
      }
    }
  }
  return measured;
}

std::uint64_t Tracer::checker_appends() const {
  std::lock_guard<std::mutex> lock(registry_->mu);
  std::uint64_t n = 0;
  for (const auto& buf : registry_->buffers) n += buf->checker_appends;
  return n;
}

std::uint64_t Tracer::checker_ns() const {
  std::lock_guard<std::mutex> lock(registry_->mu);
  std::uint64_t n = 0;
  for (const auto& buf : registry_->buffers) n += buf->checker_ns;
  return n;
}

bool Tracer::WriteOut(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fprintf(f,
               "rnt-perfbench spans: %zu-byte records {u64 start_ns, u64 "
               "end_ns, u64 child_ns, u32 request, u32 ops, u8 name, u8 "
               "parent, u16 thread}; names:",
               sizeof(SpanRecord));
  for (int n = 0; n <= static_cast<int>(SpanName::kCount); ++n) {
    std::fprintf(f, " %d=%s", n, SpanNameString(static_cast<SpanName>(n)));
  }
  std::fputc('\n', f);
  std::lock_guard<std::mutex> lock(registry_->mu);
  bool ok = true;
  for (const auto& buf : registry_->buffers) {
    ok = ok && std::fwrite(buf->spans.data(), sizeof(SpanRecord),
                           buf->spans.size(), f) == buf->spans.size();
  }
  return std::fclose(f) == 0 && ok;
}

rnt::lock::TxnId SeedInitialState(
    rnt::txn::TraceSink* sink, const std::map<rnt::ObjectId, Value>& store) {
  using Kind = rnt::txn::TraceEvent::Kind;
  // One top-level transaction per 256 objects: the checker's cost grows
  // faster than linearly in one transaction's width (a single
  // 131072-write initializer took 20 s to ingest, 512 of 256 take 0.3 s).
  constexpr std::size_t kChunk = 256;
  rnt::lock::TxnId next = 1;
  auto it = store.begin();
  while (it != store.end()) {
    const rnt::lock::TxnId txn = next++;
    sink->Append({Kind::kBegin, txn, rnt::lock::kNoTxn, 0, {}, 0});
    for (std::size_t i = 0; i < kChunk && it != store.end(); ++i, ++it) {
      sink->Append({Kind::kPerform, next++, txn, it->first,
                    rnt::action::Update::Write(it->second), 0});
    }
    sink->Append({Kind::kCommit, txn, rnt::lock::kNoTxn, 0, {}, 0});
  }
  return next;
}

void TimedSink::Append(const rnt::txn::TraceEvent& event) {
  const std::uint64_t t0 = NowNs();
  inner_->Append(event);
  const std::uint64_t t1 = NowNs();
  Tracer::Get().ChargeChecker(
      t1 - t0, event.kind == rnt::txn::TraceEvent::Kind::kCommit, t1);
}

// ---------------------------------------------------------------------------
// TracedEngine.

namespace {

class TracedHandle final : public TxnHandle {
 public:
  TracedHandle(std::unique_ptr<TxnHandle> inner, std::uint32_t request,
               bool top, bool durable)
      : inner_(std::move(inner)),
        request_(request),
        top_(top),
        durable_(durable) {}

  StatusOr<Value> Get(rnt::ObjectId x) override {
    return Apply(x, rnt::action::Update::Read());
  }
  Status Put(rnt::ObjectId x, Value v) override {
    Tracer::Scope s(SpanName::kTxnAccess, request_);
    return inner_->Put(x, v);
  }
  StatusOr<Value> Apply(rnt::ObjectId x,
                        const rnt::action::Update& update) override {
    Tracer::Scope s(SpanName::kTxnAccess, request_);
    return inner_->Apply(x, update);
  }
  void ApplyBatch(std::span<const BatchAccess> ops,
                  OpOutcome* results) override {
    Tracer::Scope s(SpanName::kTxnAccessBatch, request_,
                    static_cast<std::uint32_t>(ops.size()));
    inner_->ApplyBatch(ops, results);
  }
  StatusOr<std::unique_ptr<TxnHandle>> BeginChild() override {
    Tracer::Scope s(SpanName::kTxnBegin, request_);
    auto child = inner_->BeginChild();
    if (!child.ok()) return child.status();
    return std::unique_ptr<TxnHandle>(std::make_unique<TracedHandle>(
        std::move(*child), request_, /*top=*/false, durable_));
  }
  Status Commit() override {
    if (!(top_ && durable_)) {
      Tracer::Scope s(top_ ? SpanName::kTxnCommit : SpanName::kTxnChildCommit,
                      request_);
      return inner_->Commit();
    }
    Tracer& tracer = Tracer::Get();
    Tracer::Scope s(SpanName::kStorageCommit, request_);
    tracer.TakeCommitEventNs();
    Status st = inner_->Commit();
    // The commit record was serialized at the checker's last commit
    // append; the rest of the call is the WAL group-commit barrier.
    const std::uint64_t logged = tracer.TakeCommitEventNs();
    if (s.start_ns() != 0 && logged > s.start_ns()) {
      tracer.AddChild(SpanName::kStorageBarrier, logged, NowNs());
    }
    return st;
  }
  Status Abort() override {
    Tracer::Scope s(SpanName::kTxnAbort, request_);
    return inner_->Abort();
  }

 private:
  std::unique_ptr<TxnHandle> inner_;
  std::uint32_t request_;
  bool top_;
  bool durable_;
};

}  // namespace

std::unique_ptr<TxnHandle> TracedEngine::Begin() {
  const std::uint32_t request =
      next_request_.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<TxnHandle> inner;
  {
    Tracer::Scope s(SpanName::kTxnBegin, request);
    inner = inner_->Begin();
  }
  return std::make_unique<TracedHandle>(std::move(inner), request,
                                        /*top=*/true, durable_);
}

SpanSummary Summarize(const std::vector<SpanRecord>& spans) {
  SpanSummary out;
  for (const SpanRecord& s : spans) {
    out.self_us[s.name].push_back(s.self_us());
    out.total_us[s.name].push_back(s.total_us());
    if (s.name == SpanName::kTxnAccess ||
        s.name == SpanName::kTxnAccessBatch) {
      out.access_per_op_us.push_back(s.self_us() / s.ops);
    }
    const bool engine_call = s.name != SpanName::kFrontendSubmit &&
                             s.name != SpanName::kFrontendRtt;
    if (engine_call && s.parent == SpanName::kCount) {
      out.root_engine_s += s.total_us() / 1e6;
    }
  }
  return out;
}

void ReportTxnLayer(const SpanSummary& summary, double traced_wall_s,
                    int engine_threads, std::uint64_t top_commits,
                    std::uint64_t checker_events, std::uint64_t checker_peak,
                    Report* report) {
  auto self = [&](SpanName n) -> std::vector<double> {
    auto it = summary.self_us.find(n);
    return it == summary.self_us.end() ? std::vector<double>{} : it->second;
  };
  report->Set("txn.begin_us_p50", Median(self(SpanName::kTxnBegin)));
  report->Set("txn.child_commit_us_p50",
              Median(self(SpanName::kTxnChildCommit)));
  report->Set("txn.abort_us_p50", Median(self(SpanName::kTxnAbort)));
  report->Set("txn.access_us_p50", Percentile(summary.access_per_op_us, 0.5));
  report->Set("txn.access_us_p99",
              Percentile(summary.access_per_op_us, 0.99));
  std::vector<double> commit = self(SpanName::kTxnCommit);
  for (double us : self(SpanName::kStorageCommit)) commit.push_back(us);
  report->Set("txn.commit_us_p50", Median(commit));
  const double client_s = engine_threads * traced_wall_s;
  report->Set("txn.busy_share",
              client_s > 0 ? summary.root_engine_s / client_s : 0);
  const Tracer& tracer = Tracer::Get();
  const std::uint64_t appends = tracer.checker_appends();
  report->Set("checker.events_per_txn",
              top_commits > 0 ? static_cast<double>(checker_events) /
                                    static_cast<double>(top_commits)
                              : 0);
  report->Set("checker.append_us_mean",
              appends > 0 ? static_cast<double>(tracer.checker_ns()) /
                                static_cast<double>(appends) / 1e3
                          : 0);
  report->Set("checker.peak_tracked", static_cast<double>(checker_peak));
}

}  // namespace perfbench

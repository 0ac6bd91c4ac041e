#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "action/action_tree.h"
#include "common/random.h"
#include "dist/dist_algebra.h"
#include "dist/summary.h"
#include "faults/link_interposer.h"
#include "sim/event_log.h"
#include "sim/message_buffer.h"
#include "sim/program_spec.h"
#include "sim/wire.h"
#include "storage/file_io.h"
#include "storage/wal_format.h"
#include "temp_dir.h"

// The transport layer's building blocks (DESIGN.md "Transport layer"):
// the wire codecs every socket frame and trace record travels through,
// the per-incarnation durable event log, the in-process Transport
// adapter, the hub-side fault interposer, and the ProgramSpec token that
// makes "same seed, different transport" a meaningful comparison.

namespace rnt::sim {
namespace {

using action::ActionStatus;

dist::ActionSummary SampleSummary() {
  dist::ActionSummary s;
  s.AddActive(3);
  s.AddActive(7);
  s.SetStatus(7, ActionStatus::kCommitted);
  s.AddActive(12);
  s.SetStatus(12, ActionStatus::kAborted);
  return s;
}

TEST(WireTest, SummaryScalarCountsEntriesPlusDone) {
  dist::ActionSummary s;
  EXPECT_EQ(SummaryScalar(s), 0u);
  s.AddActive(1);
  EXPECT_EQ(SummaryScalar(s), 1u);
  s.AddActive(2);
  EXPECT_EQ(SummaryScalar(s), 2u);
  // Upgrading a status adds exactly one: the scalar is monotone along
  // every legal retention history (entries appear, statuses upgrade).
  s.SetStatus(1, ActionStatus::kCommitted);
  EXPECT_EQ(SummaryScalar(s), 3u);
  s.SetStatus(2, ActionStatus::kAborted);
  EXPECT_EQ(SummaryScalar(s), 4u);
}

TEST(WireTest, EventCodecRoundTripsEveryVariant) {
  const dist::ActionSummary sum = SampleSummary();
  const std::vector<dist::DistEvent> events = {
      dist::DistEvent{dist::NodeCreate{1, 4}},
      dist::DistEvent{dist::NodeCommit{0, 9}},
      dist::DistEvent{dist::NodeAbort{2, 5}},
      dist::DistEvent{dist::NodePerform{1, 6, Value{-17}}},
      dist::DistEvent{dist::NodeReleaseLock{0, 3, 2}},
      dist::DistEvent{dist::NodeLoseLock{2, 8, 1}},
      dist::DistEvent{dist::Send{0, 2, sum}},
      dist::DistEvent{dist::Receive{1, sum}},
  };
  for (const dist::DistEvent& e : events) {
    std::string bytes;
    EncodeEvent(bytes, e);
    auto back = DecodeEvent(
        reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size());
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(*back, e);
  }
}

TEST(WireTest, EventCodecRejectsTruncationAndTrailingBytes) {
  std::string bytes;
  EncodeEvent(bytes, dist::DistEvent{dist::Send{0, 2, SampleSummary()}});
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeEvent(p, cut).ok()) << "prefix of " << cut;
  }
  bytes.push_back('\0');
  EXPECT_FALSE(DecodeEvent(p, bytes.size()).ok()) << "trailing byte";
}

TEST(WireTest, SummaryCodecRejectsIdsOutOfOrder) {
  // EncodeSummary writes ids in strictly increasing order, and the
  // decoder appends each entry at the end of the map on that promise: a
  // repeated or decreasing id is malformed, not silently reordered.
  for (const ActionId second : {ActionId{9}, ActionId{4}}) {
    std::string bytes;
    EncodeEvent(bytes, dist::DistEvent{dist::Receive{1, {}}});
    bytes.resize(bytes.size() - 4);  // drop the empty summary's count
    storage::PutU32(bytes, 2);
    storage::PutU32(bytes, 9);
    bytes.push_back(static_cast<char>(ActionStatus::kActive));
    storage::PutU32(bytes, second);
    bytes.push_back(static_cast<char>(ActionStatus::kCommitted));
    EXPECT_FALSE(DecodeEvent(reinterpret_cast<const unsigned char*>(
                                 bytes.data()),
                             bytes.size())
                     .ok())
        << "second id " << second;
  }
}

TEST(WireTest, FrameCodecsRoundTripThroughDrain) {
  HelloFrame hello;
  hello.node = 2;
  hello.incarnation = 3;
  hello.recovered = true;
  hello.recovered_scalar = 41;
  hello.clock = 999;
  SummaryFrame summary;
  summary.from = 1;
  summary.to = 0;
  summary.clock = 77;
  summary.delay = 2;
  summary.summary = SampleSummary();
  HeartbeatFrame hb;
  hb.node = 1;
  hb.clock = 123;
  hb.done = true;
  hb.gave_up = false;
  hb.acked_scalar = 17;
  hb.retries = 9;
  hb.timeout_aborts = 2;
  hb.phases.pass_s = 0.125;
  hb.phases.persist_s = 3.0e-7;
  hb.phases.wait_s = 12.5;
  hb.phases.passes = 40001;
  hb.phases.persists = 977;

  std::string stream = EncodeHello(hello) + EncodeSummaryFrame(summary) +
                       EncodeHeartbeat(hb) + EncodeAllDone();
  std::vector<Frame> frames;
  ASSERT_TRUE(DrainFrames(stream, frames).ok());
  EXPECT_TRUE(stream.empty());
  ASSERT_EQ(frames.size(), 4u);

  ASSERT_EQ(frames[0].type, FrameType::kHello);
  EXPECT_EQ(frames[0].hello.node, hello.node);
  EXPECT_EQ(frames[0].hello.incarnation, hello.incarnation);
  EXPECT_EQ(frames[0].hello.recovered, hello.recovered);
  EXPECT_EQ(frames[0].hello.recovered_scalar, hello.recovered_scalar);
  EXPECT_EQ(frames[0].hello.clock, hello.clock);

  ASSERT_EQ(frames[1].type, FrameType::kSummary);
  EXPECT_EQ(frames[1].summary.from, summary.from);
  EXPECT_EQ(frames[1].summary.to, summary.to);
  EXPECT_EQ(frames[1].summary.clock, summary.clock);
  EXPECT_EQ(frames[1].summary.delay, summary.delay);
  EXPECT_EQ(frames[1].summary.summary, summary.summary);

  ASSERT_EQ(frames[2].type, FrameType::kHeartbeat);
  EXPECT_EQ(frames[2].heartbeat.node, hb.node);
  EXPECT_EQ(frames[2].heartbeat.clock, hb.clock);
  EXPECT_TRUE(frames[2].heartbeat.done);
  EXPECT_FALSE(frames[2].heartbeat.gave_up);
  EXPECT_EQ(frames[2].heartbeat.acked_scalar, hb.acked_scalar);
  EXPECT_EQ(frames[2].heartbeat.retries, hb.retries);
  EXPECT_EQ(frames[2].heartbeat.timeout_aborts, hb.timeout_aborts);
  EXPECT_EQ(frames[2].heartbeat.phases, hb.phases);

  EXPECT_EQ(frames[3].type, FrameType::kAllDone);
}

TEST(WireTest, DrainFramesHandlesArbitrarySplitPoints) {
  // A stream chopped at every byte boundary must deliver the same
  // frames: the parser holds partial frames across reads.
  SummaryFrame f;
  f.from = 0;
  f.to = 2;
  f.clock = 5;
  f.summary = SampleSummary();
  HeartbeatFrame hb;
  hb.node = 2;
  hb.retries = 300;
  hb.timeout_aborts = 1;
  hb.phases.pass_s = 0.5;
  hb.phases.persists = 3;
  const std::string whole =
      EncodeSummaryFrame(f) + EncodeHeartbeat(hb) + EncodeAllDone();
  for (std::size_t split = 0; split <= whole.size(); ++split) {
    std::string buf = whole.substr(0, split);
    std::vector<Frame> frames;
    ASSERT_TRUE(DrainFrames(buf, frames).ok()) << "split " << split;
    buf.append(whole.substr(split));
    ASSERT_TRUE(DrainFrames(buf, frames).ok()) << "split " << split;
    EXPECT_TRUE(buf.empty()) << "split " << split;
    ASSERT_EQ(frames.size(), 3u) << "split " << split;
    EXPECT_EQ(frames[0].type, FrameType::kSummary);
    EXPECT_EQ(frames[0].summary.summary, f.summary);
    EXPECT_EQ(frames[1].type, FrameType::kHeartbeat);
    EXPECT_EQ(frames[1].heartbeat.retries, hb.retries);
    EXPECT_EQ(frames[1].heartbeat.timeout_aborts, hb.timeout_aborts);
    EXPECT_EQ(frames[1].heartbeat.phases, hb.phases);
    EXPECT_EQ(frames[2].type, FrameType::kAllDone);
  }
}

TEST(WireTest, DrainFramesRejectsGarbage) {
  {
    // Unknown frame type.
    std::string buf;
    buf.push_back(1);
    buf.push_back(0);
    buf.push_back(0);
    buf.push_back(0);
    buf.push_back(99);
    std::vector<Frame> frames;
    EXPECT_EQ(DrainFrames(buf, frames).code(), StatusCode::kDataLoss);
  }
  {
    // Insane length prefix.
    std::string buf(8, '\xff');
    std::vector<Frame> frames;
    EXPECT_EQ(DrainFrames(buf, frames).code(), StatusCode::kDataLoss);
  }
  {
    // Hello frame with a short body.
    std::string good = EncodeHello(HelloFrame{});
    std::string buf = good.substr(0, good.size() - 3);
    buf[0] = static_cast<char>(good.size() - 4 - 3);  // len covers the cut
    std::vector<Frame> frames;
    EXPECT_EQ(DrainFrames(buf, frames).code(), StatusCode::kDataLoss);
  }
  {
    // Heartbeat frames cut anywhere in the body (the watchdog and phase
    // counters included), with a length prefix that covers the cut.
    HeartbeatFrame hb;
    hb.retries = 4;
    hb.timeout_aborts = 1;
    hb.phases.passes = 7;
    const std::string good = EncodeHeartbeat(hb);
    for (std::size_t cut = 1; cut + 5 < good.size(); ++cut) {
      std::string buf = good.substr(0, good.size() - cut);
      buf[0] = static_cast<char>(good.size() - 4 - cut);
      std::vector<Frame> frames;
      EXPECT_EQ(DrainFrames(buf, frames).code(), StatusCode::kDataLoss)
          << "cut " << cut;
    }
    // ... and a trailing byte inside the frame is refused too.
    std::string buf = good + '\0';
    buf[0] = static_cast<char>(good.size() - 4 + 1);
    std::vector<Frame> frames;
    EXPECT_EQ(DrainFrames(buf, frames).code(), StatusCode::kDataLoss);
  }
}

/// Appends one record the way a node pass writes its batch.
Status AppendEvent(EventLog& log, std::uint64_t stamp,
                   const dist::DistEvent& e) {
  std::string record;
  EventLog::EncodeRecord(record, stamp, e);
  return log.AppendRecords(record);
}

TEST(EventLogTest, AppendLoadRoundTrip) {
  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  auto log = EventLog::Open(dir.path(), 1, 0);
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_TRUE(
      AppendEvent(**log, 1, dist::DistEvent{dist::NodeCreate{1, 2}}).ok());
  ASSERT_TRUE(AppendEvent(**log, 2,
                          dist::DistEvent{dist::NodePerform{1, 3, Value{4}}})
                  .ok());
  ASSERT_TRUE(AppendEvent(**log, 5,
                          dist::DistEvent{dist::Receive{1, SampleSummary()}})
                  .ok());
  auto events = EventLog::Load(dir.path(), 1, 0);
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_EQ(events->size(), 3u);
  EXPECT_EQ((*events)[0].stamp, 1u);
  EXPECT_EQ((*events)[1].stamp, 2u);
  EXPECT_EQ((*events)[2].stamp, 5u);
  EXPECT_EQ((*events)[2].event,
            (dist::DistEvent{dist::Receive{1, SampleSummary()}}));
}

TEST(EventLogTest, TornTailIsDiscardedNotFatal) {
  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  {
    auto log = EventLog::Open(dir.path(), 0, 0);
    ASSERT_TRUE(log.ok()) << log.status();
    ASSERT_TRUE(
        AppendEvent(**log, 1, dist::DistEvent{dist::NodeCreate{0, 1}}).ok());
    ASSERT_TRUE(
        AppendEvent(**log, 2, dist::DistEvent{dist::NodeCommit{0, 1}}).ok());
  }
  const std::string path = dir.path() + "/" + EventLog::FileName(0, 0);
  auto bytes = storage::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  // Tear the final record mid-payload, as kill -9 during a write would.
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(bytes->size() - 5)),
            0);
  auto events = EventLog::Load(dir.path(), 0, 0);
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ((*events)[0].event, (dist::DistEvent{dist::NodeCreate{0, 1}}));
}

TEST(EventLogTest, TornBatchKeepsItsIntactRecordPrefix) {
  // One write per node pass: a kill mid-batch must leave exactly the
  // records before the tear, and the next incarnation's batches load.
  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  std::vector<std::size_t> ends;  // byte offset after each record
  {
    auto log = EventLog::Open(dir.path(), 1, 0);
    ASSERT_TRUE(log.ok()) << log.status();
    std::string batch;
    for (std::uint64_t stamp = 1; stamp <= 6; ++stamp) {
      const auto a = static_cast<ActionId>(stamp);
      EventLog::EncodeRecord(
          batch, stamp,
          stamp % 2 == 0 ? dist::DistEvent{dist::Receive{1, SampleSummary()}}
                         : dist::DistEvent{dist::NodeCreate{1, a}});
      ends.push_back(batch.size());
    }
    ASSERT_TRUE((*log)->AppendRecords(batch).ok());
  }
  const std::string path = dir.path() + "/" + EventLog::FileName(1, 0);
  auto bytes = storage::ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  const std::size_t magic = bytes->size() - ends.back();
  // Cut inside record 5 (index 4): header and payload alike.
  // Shorter cuts last: truncate never grows the file back.
  for (const std::size_t into : {ends[4] - ends[3] - 2, std::size_t{3}}) {
    ASSERT_EQ(::truncate(path.c_str(),
                         static_cast<off_t>(magic + ends[3] + into)),
              0);
    auto events = EventLog::Load(dir.path(), 1, 0);
    ASSERT_TRUE(events.ok()) << events.status();
    ASSERT_EQ(events->size(), 4u) << "cut " << into << " bytes into";
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ((*events)[i].stamp, i + 1);
  }
  {
    auto next = EventLog::Open(dir.path(), 1, 1);
    ASSERT_TRUE(next.ok());
    std::string batch;
    EventLog::EncodeRecord(batch, 9, dist::DistEvent{dist::NodeCommit{1, 1}});
    EventLog::EncodeRecord(batch, 10, dist::DistEvent{dist::NodeCommit{1, 3}});
    ASSERT_TRUE((*next)->AppendRecords(batch).ok());
  }
  auto all = EventLog::LoadNode(dir.path(), 1);
  ASSERT_TRUE(all.ok()) << all.status();
  ASSERT_EQ(all->size(), 6u);
  EXPECT_EQ((*all)[4].stamp, 9u);
  EXPECT_EQ((*all)[5].event, (dist::DistEvent{dist::NodeCommit{1, 3}}));
}

TEST(EventLogTest, LoadNodeConcatenatesIncarnationsAcrossGaps) {
  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  {
    auto g0 = EventLog::Open(dir.path(), 2, 0);
    ASSERT_TRUE(g0.ok());
    ASSERT_TRUE(
        AppendEvent(**g0, 1, dist::DistEvent{dist::NodeCreate{2, 1}}).ok());
  }
  // Incarnation 1 died between exec and Open: no file at all — the gap
  // a mid-spawn kill -9 leaves. Incarnation 2 traced again.
  {
    auto g2 = EventLog::Open(dir.path(), 2, 2);
    ASSERT_TRUE(g2.ok());
    ASSERT_TRUE(
        AppendEvent(**g2, 7, dist::DistEvent{dist::NodeCommit{2, 1}}).ok());
  }
  auto events = EventLog::LoadNode(dir.path(), 2);
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ((*events)[0].stamp, 1u);
  EXPECT_EQ((*events)[1].stamp, 7u);
  // A node that never traced loads empty, not an error.
  auto none = EventLog::LoadNode(dir.path(), 7);
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_TRUE(none->empty());
}

/// A trace of mixed events, one of them a Receive whose record is larger
/// than a TraceReader's read chunk. Returns the file's bytes; `ends`
/// gets the file offset just past each record.
std::string WriteMixedTrace(const std::string& dir, NodeId node,
                            std::vector<std::size_t>* ends) {
  dist::ActionSummary big;
  for (ActionId a = 1; a <= 20000; ++a) big.AddActive(a);
  std::string batch;
  std::vector<std::size_t> rel;
  for (std::uint64_t stamp = 1; stamp <= 40; ++stamp) {
    const auto a = static_cast<ActionId>(stamp);
    dist::DistEvent e =
        stamp == 17   ? dist::DistEvent{dist::Receive{node, big}}
        : stamp % 3 == 0 ? dist::DistEvent{dist::Receive{node, SampleSummary()}}
        : stamp % 3 == 1 ? dist::DistEvent{dist::NodeCreate{node, a}}
                         : dist::DistEvent{dist::NodePerform{node, a, Value{7}}};
    EventLog::EncodeRecord(batch, stamp, e);
    rel.push_back(batch.size());
  }
  {
    auto log = EventLog::Open(dir, node, 0);
    EXPECT_TRUE(log.ok()) << log.status();
    if (!log.ok()) return "";
    EXPECT_TRUE((*log)->AppendRecords(batch).ok());
  }
  auto bytes =
      storage::ReadFileBytes(dir + "/" + EventLog::FileName(node, 0));
  EXPECT_TRUE(bytes.ok());
  const std::size_t magic = bytes->size() - batch.size();
  for (const std::size_t end : rel) ends->push_back(magic + end);
  return *bytes;
}

void ExpectSameRecords(const std::vector<StampedEvent>& got,
                       const std::vector<StampedEvent>& want,
                       std::size_t count) {
  ASSERT_EQ(got.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(got[i].stamp, want[i].stamp) << "record " << i;
    EXPECT_EQ(got[i].event, want[i].event) << "record " << i;
  }
}

TEST(TraceReaderTest, RandomByteSplitsGiveLoadsRecords) {
  // A live trace grows by arbitrary byte counts (mid-magic, mid-header,
  // mid-payload); after each growth the reader must have handed out
  // exactly the records complete so far, and in the end what Load reads.
  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  std::vector<std::size_t> ends;
  const std::string bytes = WriteMixedTrace(dir.path(), 1, &ends);
  ASSERT_FALSE(bytes.empty());
  auto loaded = EventLog::Load(dir.path(), 1, 0);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), ends.size());

  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const std::string path =
        dir.path() + "/live-" + std::to_string(seed) + ".log";
    TraceReader reader(path);
    std::vector<StampedEvent> got;
    auto before = reader.Poll(got);  // the file does not exist yet
    ASSERT_TRUE(before.ok()) << before.status();
    EXPECT_EQ(*before, 0u);
    auto fd = storage::OpenForAppend(path, /*truncate=*/true);
    ASSERT_TRUE(fd.ok()) << fd.status();
    std::size_t written = 0;
    while (written < bytes.size()) {
      const std::size_t piece = std::min<std::size_t>(
          bytes.size() - written,
          static_cast<std::size_t>(rng.Range(1, seed % 2 == 0 ? 40 : 9000)));
      ASSERT_TRUE(
          storage::WriteAll(*fd, bytes.data() + written, piece, path).ok());
      written += piece;
      for (;;) {
        auto n = reader.Poll(got);
        ASSERT_TRUE(n.ok()) << n.status();
        if (*n == 0) break;
      }
      const auto complete = static_cast<std::size_t>(
          std::upper_bound(ends.begin(), ends.end(), written) - ends.begin());
      ExpectSameRecords(got, *loaded, complete);
    }
    ASSERT_EQ(::close(*fd), 0);
    ASSERT_TRUE(reader.Finish(got).ok());
    ExpectSameRecords(got, *loaded, loaded->size());
  }
  // A file that never existed is kNotFound at Finish, as for Load.
  TraceReader absent(dir.path() + "/absent.log");
  std::vector<StampedEvent> none;
  EXPECT_EQ(absent.Finish(none).code(), StatusCode::kNotFound);
}

TEST(TraceReaderTest, TornTailOfADeadIncarnationIsDiscarded) {
  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  std::vector<std::size_t> ends;
  const std::string bytes = WriteMixedTrace(dir.path(), 0, &ends);
  ASSERT_FALSE(bytes.empty());
  auto loaded = EventLog::Load(dir.path(), 0, 0);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const std::string path = dir.path() + "/torn.log";
  // Torn inside record 5's header, inside its payload, and a final
  // record whose CRC fails (a whole-size write whose bytes did not all
  // land): a live reader holds each, Finish drops it.
  std::string bad_crc = bytes.substr(0, ends[4]);
  bad_crc[ends[4] - 1] ^= 0x5a;
  for (const std::string& file :
       {bytes.substr(0, ends[3] + 3), bytes.substr(0, ends[4] - 2), bad_crc}) {
    auto fd = storage::OpenForAppend(path, /*truncate=*/true);
    ASSERT_TRUE(fd.ok()) << fd.status();
    ASSERT_TRUE(storage::WriteAll(*fd, file.data(), file.size(), path).ok());
    ASSERT_EQ(::close(*fd), 0);
    TraceReader reader(path);
    std::vector<StampedEvent> got;
    auto n = reader.Poll(got);
    ASSERT_TRUE(n.ok()) << n.status();
    ExpectSameRecords(got, *loaded, 4);
    ASSERT_TRUE(reader.Finish(got).ok());
    ExpectSameRecords(got, *loaded, 4);
  }
}

TEST(TraceReaderTest, MidFileCrcErrorIsDataLoss) {
  testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  std::vector<std::size_t> ends;
  const std::string bytes = WriteMixedTrace(dir.path(), 2, &ends);
  ASSERT_FALSE(bytes.empty());
  const std::string path = dir.path() + "/" + EventLog::FileName(2, 0);
  std::string corrupt = bytes;
  corrupt[ends[4] - 1] ^= 0x5a;  // record 5 of 40
  // A live reader holds the bad record while it ends the file, and
  // refuses it once more bytes follow it.
  auto fd = storage::OpenForAppend(path, /*truncate=*/true);
  ASSERT_TRUE(fd.ok()) << fd.status();
  ASSERT_TRUE(storage::WriteAll(*fd, corrupt.data(), ends[4], path).ok());
  TraceReader reader(path);
  std::vector<StampedEvent> got;
  auto held = reader.Poll(got);
  ASSERT_TRUE(held.ok()) << held.status();
  EXPECT_EQ(got.size(), 4u);
  ASSERT_TRUE(storage::WriteAll(*fd, corrupt.data() + ends[4],
                                corrupt.size() - ends[4], path)
                  .ok());
  ASSERT_EQ(::close(*fd), 0);
  EXPECT_EQ(reader.Poll(got).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(EventLog::Load(dir.path(), 2, 0).status().code(),
            StatusCode::kDataLoss);
}

TEST(TransportTest, MailboxBackendDeliversFifoPerDestination) {
  ConcurrentMailbox mailbox(3);
  MailboxTransport transport(&mailbox, 3);
  EXPECT_TRUE(transport.Poll(1).empty());
  dist::ActionSummary a;
  a.AddActive(1);
  dist::ActionSummary b;
  b.AddActive(2);
  EXPECT_TRUE(transport.Send(1, TransportMessage{0, a, 0, 0}));
  EXPECT_TRUE(transport.Send(1, TransportMessage{2, b, 3, 0}));
  EXPECT_FALSE(mailbox.Empty(1));
  EXPECT_TRUE(mailbox.Empty(2));
  std::vector<TransportMessage> got = transport.Poll(1);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].from, 0u);
  EXPECT_EQ(got[0].summary, a);
  EXPECT_EQ(got[0].delay, 0);
  EXPECT_EQ(got[1].from, 2u);
  EXPECT_EQ(got[1].summary, b);
  EXPECT_EQ(got[1].delay, 3);
  EXPECT_TRUE(mailbox.Empty(1));
  EXPECT_TRUE(transport.Poll(1).empty());
}

TEST(MailboxTransportTest, PerSenderVerdictsMatchLinkInterposer) {
  // The in-process fault surface is the hub's: one LinkInterposer per
  // sender, seeded as the per-node injectors always were, so a sender's
  // draw stream depends only on its own transmissions.
  faults::FaultPlan plan;
  plan.seed = 77;
  plan.drop_prob = 0.25;
  plan.dup_prob = 0.2;
  plan.delay_prob = 0.3;
  plan.max_delay_rounds = 4;
  constexpr NodeId kNodes = 3;
  ConcurrentMailbox mailbox(kNodes);
  std::atomic<std::uint64_t> clock{0};
  MailboxTransport transport(&mailbox, kNodes, plan, &clock);
  std::vector<faults::LinkInterposer> reference;
  for (NodeId i = 0; i < kNodes; ++i) {
    faults::FaultPlan own = plan;
    own.seed = plan.seed * 1000003u + 17u * i + 1u;
    reference.emplace_back(own);
  }
  std::uint64_t dropped[kNodes] = {};
  std::uint64_t duplicated[kNodes] = {};
  for (int n = 0; n < 600; ++n) {
    const NodeId from = static_cast<NodeId>((n * 7 / 5) % kNodes);
    const NodeId to = static_cast<NodeId>((from + 1 + n % 2) % kNodes);
    dist::ActionSummary s;
    s.AddActive(static_cast<ActionId>(n + 1));
    const auto v = reference[from].OnFrame(from, to, 0);
    EXPECT_EQ(transport.Send(to, TransportMessage{from, s, 0, 0}), !v.drop)
        << n;
    std::vector<TransportMessage> got = transport.Poll(to);
    if (v.drop) {
      ++dropped[from];
      EXPECT_TRUE(got.empty()) << n;
      continue;
    }
    ASSERT_EQ(got.size(), v.duplicate_delay >= 0 ? 2u : 1u) << n;
    if (v.duplicate_delay >= 0) {
      ++duplicated[from];
      EXPECT_EQ(got[0].delay, std::max(1, v.duplicate_delay)) << n;
      EXPECT_EQ(got[0].summary, s) << n;
    }
    EXPECT_EQ(got.back().delay, v.delay) << n;
    EXPECT_EQ(got.back().summary, s) << n;
    EXPECT_EQ(got.back().from, from) << n;
  }
  for (NodeId i = 0; i < kNodes; ++i) {
    EXPECT_GT(dropped[i], 0u) << i;
    EXPECT_GT(duplicated[i], 0u) << i;
    EXPECT_EQ(transport.stats(i).dropped, dropped[i]) << i;
    EXPECT_EQ(transport.stats(i).duplicated, duplicated[i]) << i;
  }
}

TEST(MailboxTransportTest, StampWindowedPartitionDropsOnlyInsideWindow) {
  faults::FaultPlan plan;
  faults::PartitionSpec part;
  part.a = 0;
  part.b = 1;
  part.from_stamp = 10;
  part.until_stamp = 20;
  plan.partitions.push_back(part);
  ConcurrentMailbox mailbox(3);
  std::atomic<std::uint64_t> clock{0};
  MailboxTransport transport(&mailbox, 3, plan, &clock);
  dist::ActionSummary s;
  s.AddActive(1);
  auto send = [&](std::uint64_t stamp, NodeId from, NodeId to) {
    clock.store(stamp);
    const bool sent = transport.Send(to, TransportMessage{from, s, 0, 0});
    EXPECT_EQ(transport.Poll(to).size(), sent ? 1u : 0u);
    return sent;
  };
  EXPECT_TRUE(send(9, 0, 1));    // before the window
  EXPECT_FALSE(send(10, 0, 1));  // window opens
  EXPECT_FALSE(send(15, 1, 0));  // both directions
  EXPECT_TRUE(send(15, 0, 2));   // other links untouched
  EXPECT_TRUE(send(15, 2, 1));
  EXPECT_FALSE(send(19, 0, 1));
  EXPECT_TRUE(send(20, 0, 1));   // healed
  EXPECT_TRUE(send(25, 1, 0));
  EXPECT_EQ(transport.stats(0).dropped, 2u);
  EXPECT_EQ(transport.stats(1).dropped, 1u);
  EXPECT_EQ(transport.stats(2).dropped, 0u);
}

TEST(LinkInterposerTest, DeterministicAcrossInstances) {
  faults::FaultPlan plan;
  plan.seed = 99;
  plan.drop_prob = 0.3;
  plan.dup_prob = 0.2;
  plan.delay_prob = 0.3;
  plan.max_delay_rounds = 4;
  faults::LinkInterposer a(plan);
  faults::LinkInterposer b(plan);
  for (int i = 0; i < 200; ++i) {
    const NodeId from = static_cast<NodeId>(i % 3);
    const NodeId to = static_cast<NodeId>((i + 1) % 3);
    const auto va = a.OnFrame(from, to, i);
    const auto vb = b.OnFrame(from, to, i);
    EXPECT_EQ(va.drop, vb.drop) << i;
    EXPECT_EQ(va.partitioned, vb.partitioned) << i;
    EXPECT_EQ(va.reset, vb.reset) << i;
    EXPECT_EQ(va.delay, vb.delay) << i;
    EXPECT_EQ(va.duplicate_delay, vb.duplicate_delay) << i;
  }
}

TEST(LinkInterposerTest, PartitionWindowDropsAndResetsOnce) {
  faults::FaultPlan plan;
  faults::PartitionSpec part;
  part.a = 0;
  part.b = 1;
  part.from_stamp = 10;
  part.until_stamp = 20;
  plan.partitions.push_back(part);
  faults::LinkInterposer li(plan);

  // Before the window: the link is clean.
  auto v = li.OnFrame(0, 1, 5);
  EXPECT_FALSE(v.drop);
  EXPECT_FALSE(v.reset);
  // First frame in the window: dropped AND reset (connection teardown).
  v = li.OnFrame(1, 0, 12);
  EXPECT_TRUE(v.drop);
  EXPECT_TRUE(v.partitioned);
  EXPECT_TRUE(v.reset);
  // Subsequent frames in the window: dropped, no further reset.
  v = li.OnFrame(0, 1, 15);
  EXPECT_TRUE(v.drop);
  EXPECT_TRUE(v.partitioned);
  EXPECT_FALSE(v.reset);
  // Other links are untouched.
  v = li.OnFrame(0, 2, 15);
  EXPECT_FALSE(v.drop);
  // Window closed: healed.
  v = li.OnFrame(0, 1, 20);
  EXPECT_FALSE(v.drop);
  EXPECT_FALSE(v.partitioned);
}

TEST(ProgramSpecTest, SerializeParseRoundTrip) {
  ProgramSpec spec;
  spec.seed = 424242;
  spec.top_level = 4;
  spec.max_children = 2;
  spec.max_depth = 5;
  spec.objects = 7;
  spec.access_ppm = 123456;
  spec.read_ppm = 654321;
  spec.k = 5;
  auto back = ProgramSpec::Parse(spec.Serialize());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, spec);
}

TEST(ProgramSpecTest, ParseRejectsMalformedTokens) {
  EXPECT_FALSE(ProgramSpec::Parse("").ok());
  EXPECT_FALSE(ProgramSpec::Parse("seed=banana").ok());
  EXPECT_FALSE(ProgramSpec::Parse("unknown=1").ok());
  EXPECT_FALSE(ProgramSpec::Parse("seed=1,seed=").ok());
}

TEST(ProgramSpecTest, BuildRegistryIsDeterministicAndSeedSensitive) {
  ProgramSpec spec;
  spec.seed = 7;
  action::ActionRegistry a = spec.BuildRegistry();
  action::ActionRegistry b = spec.BuildRegistry();
  ASSERT_EQ(a.size(), b.size());
  for (ActionId id = 1; id < a.size(); ++id) {
    EXPECT_EQ(a.Parent(id), b.Parent(id)) << id;
    EXPECT_EQ(a.IsAccess(id), b.IsAccess(id)) << id;
    if (a.IsAccess(id)) {
      EXPECT_EQ(a.Object(id), b.Object(id)) << id;
    }
  }
  spec.seed = 8;
  action::ActionRegistry c = spec.BuildRegistry();
  bool differs = a.size() != c.size();
  for (ActionId id = 1; !differs && id < a.size(); ++id) {
    differs = a.Parent(id) != c.Parent(id) || a.IsAccess(id) != c.IsAccess(id);
  }
  EXPECT_TRUE(differs) << "seed must matter";
}

}  // namespace
}  // namespace rnt::sim

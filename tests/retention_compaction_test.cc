#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <string>
#include <sys/stat.h>
#include <unistd.h>

#include "action/action_tree.h"
#include "dist/summary.h"
#include "sim/process_chaos.h"
#include "sim/wire.h"
#include "storage/file_io.h"
#include "storage/retention_log.h"
#include "storage/wal_format.h"
#include "temp_dir.h"

// RetentionLog compaction (§9.1's bounded-rebirth hint) and torn-tail
// tolerance at WAL parity: Checkpoint rewrites the log to one record per
// distinct entry without changing what Load returns, Open repairs a kill
// -9 tear before appending, and the recovered >= acked scalar survives
// both. Labeled `durability` (the ASan sweep runs the suite).

namespace rnt::sim {
namespace {

using action::ActionStatus;
using storage::RetentionLog;

std::uint64_t FileSize(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0
             ? static_cast<std::uint64_t>(st.st_size)
             : 0;
}

TEST(RetentionCompactionTest, CheckpointDedupesWithoutChangingLoad) {
  rnt::testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  auto log = RetentionLog::Open(dir.path(), 0);
  ASSERT_TRUE(log.ok()) << log.status();

  // A long churny history: the same few actions re-retained over and
  // over, statuses upgrading along the way — exactly what a node's
  // delivery path produces across many anti-entropy rebroadcasts.
  dist::ActionSummary retained;
  for (int round = 0; round < 200; ++round) {
    for (ActionId a = 1; a <= 5; ++a) {
      const ActionStatus s = (round > 100 && a <= 3)
                                 ? ActionStatus::kCommitted
                                 : ActionStatus::kActive;
      ASSERT_TRUE((*log)->Append(a, s).ok());
      if (!retained.Contains(a)) retained.AddActive(a);
      if (s != ActionStatus::kActive) retained.SetStatus(a, s);
    }
  }
  EXPECT_EQ((*log)->AppendsSinceCheckpoint(), 1000u);
  EXPECT_TRUE((*log)->SuggestCheckpoint(retained.size()));

  auto before = RetentionLog::Load(dir.path(), 0);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(*before, retained);
  const std::string path =
      dir.path() + "/" + RetentionLog::FileName(0);
  const std::uint64_t bloated = FileSize(path);

  ASSERT_TRUE((*log)->Checkpoint(retained).ok());
  EXPECT_EQ((*log)->AppendsSinceCheckpoint(), 0u);
  EXPECT_FALSE((*log)->SuggestCheckpoint(retained.size()));

  // Dedupe-only: Load is invariant, the scalar is preserved exactly, the
  // file shrank to one record per distinct entry.
  auto after = RetentionLog::Load(dir.path(), 0);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*after, retained);
  EXPECT_EQ(SummaryScalar(*after), SummaryScalar(*before));
  EXPECT_LT(FileSize(path), bloated / 100);

  // The reopened fd appends correctly after the rename switcheroo.
  ASSERT_TRUE((*log)->Append(9, ActionStatus::kAborted).ok());
  auto appended = RetentionLog::Load(dir.path(), 0);
  ASSERT_TRUE(appended.ok()) << appended.status();
  EXPECT_TRUE(appended->IsAborted(9));
  EXPECT_EQ(appended->size(), retained.size() + 1);
}

TEST(RetentionCompactionTest, SuggestCheckpointNeedsBothSlackAndRatio) {
  rnt::testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  auto log = RetentionLog::Open(dir.path(), 1);
  ASSERT_TRUE(log.ok()) << log.status();
  // Small logs never churn, however redundant.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*log)->Append(1, ActionStatus::kActive).ok());
  }
  EXPECT_FALSE((*log)->SuggestCheckpoint(1));
  for (int i = 0; i < 156; ++i) {
    ASSERT_TRUE((*log)->Append(1, ActionStatus::kActive).ok());
  }
  // 256 appends over 1 distinct entry: both thresholds met.
  EXPECT_TRUE((*log)->SuggestCheckpoint(1));
  // ... but a genuinely diverse log of the same length is left alone.
  EXPECT_FALSE((*log)->SuggestCheckpoint(100));
}

TEST(RetentionCompactionTest, OpenRepairsTornTailThenAppends) {
  rnt::testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  {
    auto log = RetentionLog::Open(dir.path(), 2);
    ASSERT_TRUE(log.ok()) << log.status();
    ASSERT_TRUE((*log)->Append(1, ActionStatus::kActive).ok());
    ASSERT_TRUE((*log)->Append(2, ActionStatus::kCommitted).ok());
  }
  const std::string path = dir.path() + "/" + RetentionLog::FileName(2);
  // Tear the final record mid-payload (a kill -9 landed mid-write).
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(FileSize(path) - 3)),
            0);
  {
    // Open must cut the tail back to the record boundary...
    auto log = RetentionLog::Open(dir.path(), 2);
    ASSERT_TRUE(log.ok()) << log.status();
    // ...so this append lands on a clean boundary, not inside the tear.
    ASSERT_TRUE((*log)->Append(3, ActionStatus::kAborted).ok());
  }
  auto loaded = RetentionLog::Load(dir.path(), 2);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->IsActive(1));
  EXPECT_FALSE(loaded->Contains(2)) << "the torn record is gone";
  EXPECT_TRUE(loaded->IsAborted(3));
}

TEST(RetentionCompactionTest, TornBatchLoadsPrefixAndOpenRepairs) {
  // One write per batch: a kill mid-batch leaves the earlier batches
  // and an intact record prefix of the torn one; Open cuts the tear so
  // later batches load.
  rnt::testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  const std::string path = dir.path() + "/" + RetentionLog::FileName(4);
  dist::ActionSummary first;
  for (ActionId a = 1; a <= 4; ++a) first.AddActive(a);
  dist::ActionSummary second;
  for (ActionId a = 10; a <= 15; ++a) {
    second.AddActive(a);
    second.SetStatus(a, ActionStatus::kCommitted);
  }
  std::uint64_t before_second = 0;
  {
    auto log = RetentionLog::Open(dir.path(), 4);
    ASSERT_TRUE(log.ok()) << log.status();
    ASSERT_TRUE((*log)->Append(first).ok());
    before_second = FileSize(path);
    ASSERT_TRUE((*log)->Append(second).ok());
    EXPECT_EQ((*log)->AppendsSinceCheckpoint(), 10u);
  }
  const std::uint64_t record = (FileSize(path) - before_second) / 6;
  ASSERT_EQ(record, storage::kWalHeaderSize + 5);
  // Cut 3 whole records plus part of the 4th into the second batch.
  ASSERT_EQ(::truncate(path.c_str(),
                       static_cast<off_t>(before_second + 3 * record + 7)),
            0);
  auto torn = RetentionLog::Load(dir.path(), 4);
  ASSERT_TRUE(torn.ok()) << torn.status();
  EXPECT_EQ(torn->size(), 4u + 3u);
  for (ActionId a = 10; a <= 12; ++a) EXPECT_TRUE(torn->IsCommitted(a)) << a;
  EXPECT_FALSE(torn->Contains(13)) << "the torn record is gone";

  dist::ActionSummary third;
  third.AddActive(20);
  third.SetStatus(20, ActionStatus::kAborted);
  {
    auto log = RetentionLog::Open(dir.path(), 4);
    ASSERT_TRUE(log.ok()) << log.status();
    EXPECT_EQ(FileSize(path), before_second + 3 * record) << "tear cut";
    ASSERT_TRUE((*log)->Append(third).ok());
  }
  auto loaded = RetentionLog::Load(dir.path(), 4);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  dist::ActionSummary expected = *torn;
  expected.MergeFrom(third);
  EXPECT_EQ(*loaded, expected);
}

TEST(RetentionCompactionTest, KillMidAppendRecoversDurablePrefix) {
  rnt::testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  const std::string path = dir.path() + "/" + RetentionLog::FileName(3);
  // The child appends a known prefix, then dies by SIGKILL mid-stream —
  // real process death, no destructors, no flush.
  auto sig = RunInChild([&dir] {
    auto log = RetentionLog::Open(dir.path(), 3);
    if (!log.ok()) return;
    for (ActionId a = 1; a <= 50; ++a) {
      if (!(*log)->Append(a, a % 2 == 0 ? ActionStatus::kCommitted
                                        : ActionStatus::kActive)
               .ok()) {
        return;
      }
    }
    (void)::raise(SIGKILL);
  });
  ASSERT_TRUE(sig.ok()) << sig.status();
  ASSERT_EQ(*sig, SIGKILL);

  // O_APPEND whole-record writes: everything before the kill is intact.
  auto loaded = RetentionLog::Load(dir.path(), 3);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), 50u);
  for (ActionId a = 1; a <= 50; ++a) {
    EXPECT_EQ(loaded->IsCommitted(a), a % 2 == 0) << a;
  }

  // Compound a *tear* on top (kill mid-write of record 51), then run the
  // full recovery sequence: Open repairs, append, checkpoint, reload.
  {
    std::string torn;
    storage::PutU32(torn, 0xdeadbeef);  // wrong CRC, half a header
    auto fd = storage::OpenForAppend(path, /*truncate=*/false);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(storage::WriteAll(*fd, torn.data(), torn.size(), path).ok());
    (void)::close(*fd);
  }
  auto log = RetentionLog::Open(dir.path(), 3);
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_TRUE((*log)->Append(51, ActionStatus::kCommitted).ok());
  dist::ActionSummary mirror = *loaded;  // the in-memory M_i write-through
  mirror.AddActive(51);
  mirror.SetStatus(51, ActionStatus::kCommitted);
  ASSERT_TRUE((*log)->Checkpoint(mirror).ok());
  auto final_load = RetentionLog::Load(dir.path(), 3);
  ASSERT_TRUE(final_load.ok()) << final_load.status();
  EXPECT_EQ(*final_load, mirror);
  EXPECT_EQ(SummaryScalar(*final_load), SummaryScalar(*loaded) + 2);
}

}  // namespace
}  // namespace rnt::sim

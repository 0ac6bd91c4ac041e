// Unit tests for the per-worker WAL: the record checksum, record
// round-trips, the group commit barrier, the durable horizon under
// concurrent appenders, checkpoint reset, and the snapshot read/write
// protocol.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/crc32.h"
#include "storage/log_reader.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "temp_dir.h"

namespace rnt::storage {
namespace {

txn::TraceEvent PerformEvent(std::uint64_t id, lock::TxnId owner,
                             ObjectId x, Value written, Value seen) {
  return {txn::TraceEvent::Kind::kPerform, id, owner, x,
          action::Update::Write(written), seen};
}

/// The byte-at-a-time definition the sliced Crc32 must agree with.
std::uint32_t BytewiseCrc32(const unsigned char* p, std::size_t size,
                            std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesTheBytewiseDefinition) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);  // the IEEE check value
  EXPECT_EQ(Crc32("", 0), 0u);
  Rng rng(42);
  std::vector<unsigned char> bytes(300);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.Next());
  // Every length and start offset around the 8-byte step, chained too.
  for (std::size_t start = 0; start < 9; ++start) {
    for (std::size_t len = 0; start + len <= bytes.size(); len += 1 + len / 8) {
      const unsigned char* p = bytes.data() + start;
      ASSERT_EQ(Crc32(p, len), BytewiseCrc32(p, len, 0))
          << "start " << start << " len " << len;
      const std::uint32_t half = Crc32(p, len / 2);
      EXPECT_EQ(Crc32(p + len / 2, len - len / 2, half), Crc32(p, len))
          << "start " << start << " len " << len;
    }
  }
}

TEST(WalTest, RoundTripsRecordsThroughReader) {
  rnt::testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  WalOptions opts;
  opts.dir = dir.path();
  opts.workers = 1;  // single file => file order is LSN order
  auto wal = Wal::Open(opts);
  ASSERT_TRUE(wal.ok()) << wal.status();

  (*wal)->Append({txn::TraceEvent::Kind::kBegin, 7, lock::kNoTxn, 0, {}, 0});
  (*wal)->Append(PerformEvent(8, 7, 3, 42, 0));
  (*wal)->Append({txn::TraceEvent::Kind::kCommit, 7, lock::kNoTxn, 0, {}, 0});
  ASSERT_TRUE((*wal)->BarrierAll().ok());
  wal->reset();  // close files

  auto contents = ReadWalFile(dir.path() + "/" + WalFileName(0));
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_FALSE(contents->torn_tail);
  ASSERT_EQ(contents->records.size(), 3u);
  EXPECT_EQ(contents->records[0].lsn, 1u);
  EXPECT_EQ(contents->records[0].event.kind, txn::TraceEvent::Kind::kBegin);
  EXPECT_EQ(contents->records[0].event.id, 7u);
  EXPECT_EQ(contents->records[1].lsn, 2u);
  EXPECT_EQ(contents->records[1].event.kind,
            txn::TraceEvent::Kind::kPerform);
  EXPECT_EQ(contents->records[1].event.object, 3u);
  EXPECT_EQ(contents->records[1].event.update,
            action::Update::Write(42));
  EXPECT_EQ(contents->records[2].event.kind, txn::TraceEvent::Kind::kCommit);
}

TEST(WalTest, BarrierWaitsForDurableHorizon) {
  rnt::testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  WalOptions opts;
  opts.dir = dir.path();
  opts.workers = 2;
  auto wal = Wal::Open(opts);
  ASSERT_TRUE(wal.ok()) << wal.status();
  for (int i = 0; i < 100; ++i) {
    (*wal)->Append(PerformEvent(100 + i, 1, 0, i, 0));
  }
  ASSERT_TRUE((*wal)->BarrierAll().ok());
  EXPECT_GE((*wal)->durable_lsn(), 100u);
  EXPECT_EQ((*wal)->next_lsn(), 101u);
  const Wal::Stats stats = (*wal)->stats();
  EXPECT_EQ(stats.appended, 100u);
  EXPECT_EQ(stats.synced_records, 100u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GE(stats.max_batch, 1u);
}

TEST(WalTest, ConcurrentAppendersProduceDenseLsns) {
  rnt::testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  WalOptions opts;
  opts.dir = dir.path();
  opts.workers = 4;
  opts.batch_records = 16;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  {
    auto wal = Wal::Open(opts);
    ASSERT_TRUE(wal.ok()) << wal.status();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&wal, t] {
        for (int i = 0; i < kPerThread; ++i) {
          (*wal)->Append(PerformEvent(
              static_cast<std::uint64_t>(t) * kPerThread + i, 1, 0, i, 0));
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_TRUE((*wal)->BarrierAll().ok());
    EXPECT_EQ((*wal)->durable_lsn(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
  }
  // Union of all files must be exactly LSNs 1..N, no gaps, no dupes.
  std::vector<bool> present(kThreads * kPerThread + 1, false);
  std::size_t total = 0;
  for (const std::string& path : ListWalFiles(dir.path())) {
    auto contents = ReadWalFile(path);
    ASSERT_TRUE(contents.ok()) << contents.status();
    EXPECT_FALSE(contents->torn_tail);
    for (const WalRecord& rec : contents->records) {
      ASSERT_GE(rec.lsn, 1u);
      ASSERT_LE(rec.lsn, present.size() - 1);
      EXPECT_FALSE(present[rec.lsn]) << "duplicate lsn " << rec.lsn;
      present[rec.lsn] = true;
      ++total;
    }
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(WalTest, ResetTruncatesAndLsnsContinue) {
  rnt::testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  WalOptions opts;
  opts.dir = dir.path();
  opts.workers = 1;
  auto wal = Wal::Open(opts);
  ASSERT_TRUE(wal.ok()) << wal.status();
  (*wal)->Append(PerformEvent(1, 1, 0, 5, 0));
  ASSERT_TRUE((*wal)->BarrierAll().ok());
  ASSERT_TRUE((*wal)->Reset().ok());
  (*wal)->Append(PerformEvent(2, 1, 0, 6, 0));
  ASSERT_TRUE((*wal)->BarrierAll().ok());
  wal->reset();

  auto contents = ReadWalFile(dir.path() + "/" + WalFileName(0));
  ASSERT_TRUE(contents.ok()) << contents.status();
  ASSERT_EQ(contents->records.size(), 1u);
  // LSNs are monotone across the reset: the surviving record is #2.
  EXPECT_EQ(contents->records[0].lsn, 2u);
}

TEST(WalTest, RejectsBadOptions) {
  EXPECT_FALSE(Wal::Open(WalOptions{"/nonexistent-dir-xyz", 0}).ok());
  WalOptions zero_lsn;
  zero_lsn.dir = "/tmp";
  zero_lsn.first_lsn = 0;
  EXPECT_FALSE(Wal::Open(zero_lsn).ok());
}

TEST(SnapshotTest, RoundTripsStoreAndHorizon) {
  rnt::testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  Snapshot snap;
  snap.last_lsn = 77;
  snap.store[3] = -9;
  snap.store[12] = 1'000'000'000'000LL;
  ASSERT_TRUE(WriteSnapshot(dir.path(), snap).ok());
  auto loaded = ReadSnapshot(dir.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->last_lsn, 77u);
  EXPECT_EQ(loaded->store, snap.store);

  // Overwrite atomically with a newer snapshot.
  snap.last_lsn = 99;
  snap.store[3] = 8;
  ASSERT_TRUE(WriteSnapshot(dir.path(), snap).ok());
  loaded = ReadSnapshot(dir.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->last_lsn, 99u);
  EXPECT_EQ(loaded->store.at(3), 8);
}

TEST(SnapshotTest, MissingSnapshotIsNotFound) {
  rnt::testing::TempDir dir;
  ASSERT_TRUE(dir.ok());
  auto loaded = ReadSnapshot(dir.path());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace rnt::storage

#ifndef RNT_SIM_EVENT_LOG_H_
#define RNT_SIM_EVENT_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "dist/dist_algebra.h"

namespace rnt::sim {

/// One Lamport-stamped ℬ event, as recorded by a node process.
struct StampedEvent {
  std::uint64_t stamp = 0;
  dist::DistEvent event;
};

/// The per-node durable trace of a multi-process run: every ℬ event a
/// node applies is appended here *before* its retention append and
/// before any transmission that could leak the fact to a peer — so
/// after kill -9 the traced prefix is the authoritative record of what
/// the node did, and a mechanical replay of it rebuilds the node's
/// component (summary, lock table, buffer mirror) exactly. The node
/// process encodes a whole pass's records into one buffer and appends
/// it with one write (per pass: trace write → retention write →
/// transmit); a kill mid-write leaves an intact record prefix and at
/// most one torn record, which Load discards like any torn tail.
///
/// One file per incarnation (`trace-NNN-GGG.log`): a kill may tear the
/// final record, and appending a fresh incarnation after torn bytes
/// would corrupt the stream — a new file keeps every tear at a tail.
/// `LoadNode` concatenates the incarnations in order, tolerating a torn
/// tail per file (the same WAL-parity policy as storage::RetentionLog).
/// Every read of a trace goes through TraceReader, the one record
/// parser: Load drives it to the end of a finished file, and the
/// supervisor tails each live file with it while the node runs.
///
/// Record: crc32 (u32, over payload) · size (u32) · payload
/// Payload: stamp u64 · event (wire.h codec).
class EventLog {
 public:
  static StatusOr<std::unique_ptr<EventLog>> Open(const std::string& dir,
                                                  NodeId node,
                                                  std::uint32_t incarnation);
  ~EventLog();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Appends records EncodeRecord built, with a single write (O_APPEND).
  Status AppendRecords(const std::string& records);
  /// Appends one whole record (header + payload) to `out`.
  static void EncodeRecord(std::string& out, std::uint64_t stamp,
                           const dist::DistEvent& e);

  /// Every record of one incarnation's file, in append order. A torn
  /// tail is discarded; mid-file corruption is kDataLoss. kNotFound when
  /// the incarnation never traced anything.
  static StatusOr<std::vector<StampedEvent>> Load(const std::string& dir,
                                                  NodeId node,
                                                  std::uint32_t incarnation);

  /// All of a node's incarnation files concatenated in incarnation
  /// order — the node's full program-order history across kills.
  static StatusOr<std::vector<StampedEvent>> LoadNode(const std::string& dir,
                                                      NodeId node);

  static std::string FileName(NodeId node, std::uint32_t incarnation);

 private:
  EventLog(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  const std::string path_;
  int fd_ = -1;
};

/// Incremental reader of one incarnation's trace file. It consumes whole
/// records only, each checked as the log's format demands (magic, header
/// sanity, CRC, a decodable event); the bytes of a partial record wait
/// in a buffer bounded by the larger of one read chunk and one record.
/// Reads go through storage::ReadAt at the reader's own offset, so a
/// file that is still growing is read exactly once, front to back.
class TraceReader {
 public:
  explicit TraceReader(std::string path) : path_(std::move(path)) {}
  ~TraceReader();

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  /// Reads at most one chunk of what the file gained since the last
  /// call and appends every record it completes to `out`. Returns the
  /// bytes read: 0 when nothing is new, including while the file does
  /// not exist yet. A complete record that fails its CRC is held, not
  /// consumed: bytes after it make it mid-file corruption (kDataLoss),
  /// and at Finish it is the torn final write of a kill.
  StatusOr<std::size_t> Poll(std::vector<StampedEvent>& out);

  /// The writer is gone for good: reads the rest of the file and drops
  /// its torn tail (a partial final record, or a final record that fails
  /// its CRC). kNotFound when the file never existed.
  Status Finish(std::vector<StampedEvent>& out);

 private:
  /// Consumes the whole records at the front of buf_.
  Status Parse(std::vector<StampedEvent>& out);

  const std::string path_;
  int fd_ = -1;
  /// File offset of the first byte not yet read into buf_.
  std::uint64_t offset_ = 0;
  /// Read but unconsumed bytes: the magic (until checked), then at most
  /// one partial or held record.
  std::string buf_;
  /// Bytes the record at the front of buf_ needs in total (0: unknown).
  std::size_t need_ = 0;
  bool magic_ok_ = false;
};

}  // namespace rnt::sim

#endif  // RNT_SIM_EVENT_LOG_H_

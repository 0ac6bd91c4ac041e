#include "sim/event_log.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "sim/wire.h"
#include "storage/crc32.h"
#include "storage/file_io.h"
#include "storage/wal_format.h"

namespace rnt::sim {

namespace {

constexpr char kTraceMagic[8] = {'R', 'N', 'T', 'T', 'R', 'C', '0', '1'};
constexpr std::size_t kTraceMagicSize = 8;
/// Bytes a TraceReader asks for per read (more only for a larger record).
constexpr std::size_t kReadChunk = 1 << 16;

}  // namespace

std::string EventLog::FileName(NodeId node, std::uint32_t incarnation) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "trace-%03u-%03u.log", node, incarnation);
  return buf;
}

StatusOr<std::unique_ptr<EventLog>> EventLog::Open(
    const std::string& dir, NodeId node, std::uint32_t incarnation) {
  const std::string path = dir + "/" + FileName(node, incarnation);
  const bool fresh = !storage::FileExists(path);
  RNT_ASSIGN_OR_RETURN(int fd,
                       storage::OpenForAppend(path, /*truncate=*/false));
  if (fresh) {
    const Status s = storage::WriteAll(fd, kTraceMagic, kTraceMagicSize, path);
    if (!s.ok()) {
      (void)::close(fd);
      return s;
    }
  }
  return std::unique_ptr<EventLog>(new EventLog(path, fd));
}

EventLog::~EventLog() {
  if (fd_ >= 0) (void)::close(fd_);
}

void EventLog::EncodeRecord(std::string& out, std::uint64_t stamp,
                            const dist::DistEvent& e) {
  // The payload is encoded in place behind a header placeholder, then
  // the header is filled in: no per-record temporary.
  const std::size_t head = out.size();
  out.append(storage::kWalHeaderSize, '\0');
  storage::PutU64(out, stamp);
  EncodeEvent(out, e);
  const std::size_t size = out.size() - head - storage::kWalHeaderSize;
  std::string header;
  storage::PutU32(header, storage::Crc32(out.data() + head +
                                             storage::kWalHeaderSize,
                                         size));
  storage::PutU32(header, static_cast<std::uint32_t>(size));
  out.replace(head, storage::kWalHeaderSize, header);
}

Status EventLog::AppendRecords(const std::string& records) {
  return storage::WriteAll(fd_, records.data(), records.size(), path_);
}

StatusOr<std::vector<StampedEvent>> EventLog::Load(
    const std::string& dir, NodeId node, std::uint32_t incarnation) {
  TraceReader reader(dir + "/" + FileName(node, incarnation));
  std::vector<StampedEvent> out;
  RNT_RETURN_IF_ERROR(reader.Finish(out));
  return out;
}

TraceReader::~TraceReader() {
  if (fd_ >= 0) (void)::close(fd_);
}

StatusOr<std::size_t> TraceReader::Poll(std::vector<StampedEvent>& out) {
  if (fd_ < 0) {
    auto fd = storage::OpenForRead(path_);
    if (fd.status().code() == StatusCode::kNotFound) return 0;
    RNT_RETURN_IF_ERROR(fd.status());
    fd_ = *fd;
  }
  const std::size_t have = buf_.size();
  const std::size_t want = std::max(kReadChunk, need_);
  buf_.resize(have + want);
  auto n = storage::ReadAt(fd_, buf_.data() + have, want, offset_, path_);
  buf_.resize(have + (n.ok() ? *n : 0));
  RNT_RETURN_IF_ERROR(n.status());
  if (*n == 0) return 0;
  offset_ += *n;
  RNT_RETURN_IF_ERROR(Parse(out));
  return *n;
}

Status TraceReader::Finish(std::vector<StampedEvent>& out) {
  for (;;) {
    RNT_ASSIGN_OR_RETURN(const std::size_t n, Poll(out));
    if (n == 0) break;
  }
  if (fd_ < 0) return Status::NotFound("no such file: " + path_);
  buf_.clear();  // torn tail (or a file torn before its magic)
  need_ = 0;
  return Status::Ok();
}

Status TraceReader::Parse(std::vector<StampedEvent>& out) {
  std::size_t off = 0;
  if (!magic_ok_) {
    if (buf_.size() < kTraceMagicSize) return Status::Ok();
    if (std::memcmp(buf_.data(), kTraceMagic, kTraceMagicSize) != 0) {
      return Status::DataLoss("trace '" + path_ + "': bad magic");
    }
    magic_ok_ = true;
    off = kTraceMagicSize;
  }
  const auto* base = reinterpret_cast<const unsigned char*>(buf_.data());
  // File offset of buf_[0], for error messages.
  const std::uint64_t at = offset_ - buf_.size();
  need_ = 0;
  while (off < buf_.size()) {
    const std::size_t remaining = buf_.size() - off;
    if (remaining < storage::kWalHeaderSize) break;  // partial header
    const std::uint32_t crc = storage::GetU32(base + off);
    const std::uint32_t payload_size = storage::GetU32(base + off + 4);
    if (payload_size < 9 || payload_size > (64u << 20)) {
      return Status::DataLoss("trace '" + path_ +
                              "': corrupt record header at offset " +
                              std::to_string(at + off));
    }
    const std::size_t record = storage::kWalHeaderSize + payload_size;
    if (remaining < record) {  // partial payload
      need_ = record;
      break;
    }
    const unsigned char* payload = base + off + storage::kWalHeaderSize;
    if (storage::Crc32(payload, payload_size) != crc) {
      // A mid-file CRC failure is corruption; at the very end it may be
      // the torn final record of a kill, which Finish discards.
      if (remaining == record) break;
      return Status::DataLoss("trace '" + path_ +
                              "': CRC mismatch at offset " +
                              std::to_string(at + off));
    }
    StampedEvent ev;
    ev.stamp = storage::GetU64(payload);
    RNT_ASSIGN_OR_RETURN(ev.event, DecodeEvent(payload + 8, payload_size - 8));
    out.push_back(std::move(ev));
    off += record;
  }
  buf_.erase(0, off);
  return Status::Ok();
}

StatusOr<std::vector<StampedEvent>> EventLog::LoadNode(const std::string& dir,
                                                       NodeId node) {
  std::vector<StampedEvent> out;
  // A kill -9 between exec and EventLog::Open leaves a *gap*: that
  // incarnation traced nothing at all, while later incarnations exist.
  // Tolerate bounded gaps rather than stopping at the first hole.
  std::uint32_t misses = 0;
  for (std::uint32_t g = 0; misses < 32; ++g) {
    if (!storage::FileExists(dir + "/" + FileName(node, g))) {
      ++misses;
      continue;
    }
    misses = 0;
    auto part = Load(dir, node, g);
    RNT_RETURN_IF_ERROR(part.status());
    out.insert(out.end(), std::make_move_iterator(part->begin()),
               std::make_move_iterator(part->end()));
  }
  return out;
}

}  // namespace rnt::sim

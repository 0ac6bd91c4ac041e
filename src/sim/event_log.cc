#include "sim/event_log.h"

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
  const std::string path = dir + "/" + FileName(node, incarnation);
  RNT_ASSIGN_OR_RETURN(std::string bytes, storage::ReadFileBytes(path));
  std::vector<StampedEvent> out;
  if (bytes.size() < kTraceMagicSize) return out;  // torn at birth
  if (std::memcmp(bytes.data(), kTraceMagic, kTraceMagicSize) != 0) {
    return Status::DataLoss("trace '" + path + "': bad magic");
  }
  const auto* base = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t off = kTraceMagicSize;
  while (off < bytes.size()) {
    const std::size_t remaining = bytes.size() - off;
    if (remaining < storage::kWalHeaderSize) break;  // torn tail
    const std::uint32_t crc = storage::GetU32(base + off);
    const std::uint32_t payload_size = storage::GetU32(base + off + 4);
    if (payload_size < 9 || payload_size > (64u << 20)) {
      return Status::DataLoss("trace '" + path +
                              "': corrupt record header at offset " +
                              std::to_string(off));
    }
    if (remaining < storage::kWalHeaderSize + payload_size) break;  // torn
    const unsigned char* payload = base + off + storage::kWalHeaderSize;
    if (storage::Crc32(payload, payload_size) != crc) {
      // A mid-file CRC failure is corruption; at the very end it is the
      // torn final record of a kill — recoverable by discarding it.
      if (remaining == storage::kWalHeaderSize + payload_size) break;
      return Status::DataLoss("trace '" + path + "': CRC mismatch at offset " +
                              std::to_string(off));
    }
    StampedEvent ev;
    ev.stamp = storage::GetU64(payload);
    auto decoded = DecodeEvent(payload + 8, payload_size - 8);
    RNT_RETURN_IF_ERROR(decoded.status());
    ev.event = std::move(*decoded);
    out.push_back(std::move(ev));
    off += storage::kWalHeaderSize + payload_size;
  }
  return out;
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

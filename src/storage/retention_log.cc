#include "storage/retention_log.h"

#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "storage/crc32.h"
#include "storage/file_io.h"
#include "storage/wal_format.h"

namespace rnt::storage {

namespace {

constexpr char kRetMagic[8] = {'R', 'N', 'T', 'R', 'E', 'T', '0', '1'};
constexpr std::size_t kRetMagicSize = 8;
constexpr std::size_t kRetPayloadSize = 5;  // action u32 + status u8

/// Parses `bytes` (a whole retention file) into `summary`, stopping at a
/// torn tail. On success *valid_prefix is the byte length of the intact
/// prefix (magic + whole records); the caller may truncate to it.
Status Parse(const std::string& bytes, const std::string& path,
             dist::ActionSummary& summary, std::size_t* valid_prefix) {
  *valid_prefix = bytes.size() < kRetMagicSize ? bytes.size() : kRetMagicSize;
  if (bytes.size() < kRetMagicSize) return Status::Ok();  // torn at birth
  if (std::memcmp(bytes.data(), kRetMagic, kRetMagicSize) != 0) {
    return Status::DataLoss("retention log '" + path + "': bad magic");
  }
  const auto* base = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t off = kRetMagicSize;
  while (off < bytes.size()) {
    const std::size_t remaining = bytes.size() - off;
    if (remaining < kWalHeaderSize) break;  // torn tail
    const std::uint32_t crc = GetU32(base + off);
    const std::uint32_t payload_size = GetU32(base + off + 4);
    if (payload_size != kRetPayloadSize) {
      if (remaining < kWalHeaderSize + kRetPayloadSize) break;  // torn
      return Status::DataLoss("retention log '" + path +
                              "': corrupt record header at offset " +
                              std::to_string(off));
    }
    if (remaining < kWalHeaderSize + payload_size) break;  // torn tail
    const unsigned char* payload = base + off + kWalHeaderSize;
    if (Crc32(payload, payload_size) != crc) {
      // A CRC failure on the very last record is the torn write of a
      // kill mid-append (WAL parity); anywhere else it is corruption.
      if (remaining == kWalHeaderSize + payload_size) break;
      return Status::DataLoss("retention log '" + path +
                              "': CRC mismatch at offset " +
                              std::to_string(off));
    }
    const ActionId action = GetU32(payload);
    const auto status = static_cast<action::ActionStatus>(payload[4]);
    // Monotone merge: knowledge only ever upgrades (M_i monotonicity).
    if (!summary.Contains(action)) {
      summary.AddActive(action);
    }
    if (status != action::ActionStatus::kActive) {
      summary.SetStatus(action, status);
    }
    off += kWalHeaderSize + payload_size;
  }
  *valid_prefix = off;
  return Status::Ok();
}

void EncodeRecord(std::string& out, ActionId action,
                  action::ActionStatus status) {
  std::string payload;
  payload.reserve(kRetPayloadSize);
  PutU32(payload, action);
  payload.push_back(static_cast<char>(status));
  PutU32(out, Crc32(payload.data(), payload.size()));
  PutU32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
}

}  // namespace

std::string RetentionLog::FileName(NodeId node) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "retained-%03u.log", node);
  return buf;
}

StatusOr<std::unique_ptr<RetentionLog>> RetentionLog::Open(
    const std::string& dir, NodeId node) {
  return Open(dir, node, Options());
}

StatusOr<std::unique_ptr<RetentionLog>> RetentionLog::Open(
    const std::string& dir, NodeId node, Options options) {
  const std::string path = dir + "/" + FileName(node);
  const bool fresh = !FileExists(path);
  if (!fresh) {
    // WAL-parity tear repair: a kill mid-append may leave a torn final
    // record; appending after it would corrupt every later Load, so the
    // tail is cut back to the last intact record boundary first.
    RNT_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
    dist::ActionSummary ignored;
    std::size_t valid_prefix = 0;
    RNT_RETURN_IF_ERROR(Parse(bytes, path, ignored, &valid_prefix));
    if (valid_prefix < bytes.size()) {
      if (::truncate(path.c_str(), static_cast<off_t>(valid_prefix)) != 0) {
        return Status::Internal("retention log '" + path +
                                "': cannot truncate torn tail");
      }
    }
  }
  RNT_ASSIGN_OR_RETURN(int fd, OpenForAppend(path, /*truncate=*/false));
  if (fresh) {
    Status s = WriteAll(fd, kRetMagic, kRetMagicSize, path);
    if (s.ok() && options.fsync) s = SyncData(fd, path);
    if (!s.ok()) {
      (void)::close(fd);
      return s;
    }
  }
  return std::unique_ptr<RetentionLog>(
      new RetentionLog(path, fd, options));
}

RetentionLog::~RetentionLog() {
  MutexLock lk(retention_mu_);
  if (fd_ >= 0) (void)::close(fd_);
}

Status RetentionLog::Append(ActionId action, action::ActionStatus status) {
  std::string rec;
  EncodeRecord(rec, action, status);
  return Write(rec, 1);
}

Status RetentionLog::Append(const dist::ActionSummary& entries) {
  if (entries.empty()) return Status::Ok();
  std::string recs;
  recs.reserve(entries.size() * (kWalHeaderSize + kRetPayloadSize));
  for (const auto& [a, s] : entries.entries()) EncodeRecord(recs, a, s);
  return Write(recs, entries.size());
}

Status RetentionLog::Write(const std::string& records, std::uint64_t count) {
  MutexLock lk(retention_mu_);
  RNT_RETURN_IF_ERROR(WriteAll(fd_, records.data(), records.size(), path_));
  if (options_.fsync) RNT_RETURN_IF_ERROR(SyncData(fd_, path_));
  appends_ += count;
  return Status::Ok();
}

Status RetentionLog::Checkpoint(const dist::ActionSummary& retained) {
  std::string bytes(kRetMagic, kRetMagicSize);
  for (const auto& [a, s] : retained.entries()) {
    EncodeRecord(bytes, a, s);
  }
  const std::string tmp = path_ + ".ckpt";
  MutexLock lk(retention_mu_);
  RNT_ASSIGN_OR_RETURN(int tmp_fd, OpenForAppend(tmp, /*truncate=*/true));
  Status s = WriteAll(tmp_fd, bytes.data(), bytes.size(), tmp);
  if (s.ok() && options_.fsync) s = SyncData(tmp_fd, tmp);
  (void)::close(tmp_fd);
  RNT_RETURN_IF_ERROR(s);
  // Atomic switch: a kill during checkpoint leaves either the old log or
  // the complete new one — never a mix.
  RNT_RETURN_IF_ERROR(RenameFile(tmp, path_));
  if (fd_ >= 0) (void)::close(fd_);
  fd_ = -1;
  RNT_ASSIGN_OR_RETURN(fd_, OpenForAppend(path_, /*truncate=*/false));
  appends_ = 0;
  return Status::Ok();
}

std::uint64_t RetentionLog::AppendsSinceCheckpoint() const {
  MutexLock lk(retention_mu_);
  return appends_;
}

bool RetentionLog::SuggestCheckpoint(std::size_t distinct_entries) const {
  MutexLock lk(retention_mu_);
  return appends_ >= 256 &&
         appends_ >= 4 * static_cast<std::uint64_t>(distinct_entries);
}

StatusOr<dist::ActionSummary> RetentionLog::Load(const std::string& dir,
                                                 NodeId node) {
  const std::string path = dir + "/" + FileName(node);
  RNT_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  dist::ActionSummary summary;
  std::size_t valid_prefix = 0;
  RNT_RETURN_IF_ERROR(Parse(bytes, path, summary, &valid_prefix));
  return summary;
}

}  // namespace rnt::storage

#include "storage/log_reader.h"

#include <cstring>

#include "storage/crc32.h"
#include "storage/file_io.h"

namespace rnt::storage {

StatusOr<WalFileContents> ReadWalFile(const std::string& path) {
  // Read in place rather than moved out of the StatusOr: GCC 12 at -O2
  // misreads the moved-to string as maybe-uninitialized.
  const StatusOr<std::string> read = ReadFileBytes(path);
  if (!read.ok()) return read.status();
  const std::string& bytes = *read;
  WalFileContents out;
  if (bytes.empty()) {
    // Crash after open/truncate but before the magic write: an empty
    // file is an empty (torn) log, not corruption.
    out.torn_tail = true;
    return out;
  }
  if (bytes.size() < kWalMagicSize) {
    out.torn_tail = true;
    out.torn_bytes = bytes.size();
    return out;
  }
  if (std::memcmp(bytes.data(), kWalMagic, kWalMagicSize) != 0) {
    return Status::DataLoss("WAL file '" + path + "': bad magic");
  }
  const auto* base = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t off = kWalMagicSize;
  const std::size_t size = bytes.size();
  while (off < size) {
    const std::size_t remaining = size - off;
    if (remaining < kWalHeaderSize) {
      out.torn_tail = true;
      out.torn_bytes = remaining;
      break;
    }
    const std::uint32_t crc = GetU32(base + off);
    const std::uint32_t payload_size = GetU32(base + off + 4);
    if (payload_size != kWalPayloadSize) {
      // A wrong size field inside fully present bytes is corruption; at
      // the tail it is indistinguishable from a torn header.
      if (remaining < kWalHeaderSize + kWalPayloadSize) {
        out.torn_tail = true;
        out.torn_bytes = remaining;
        break;
      }
      return Status::DataLoss(
          "WAL file '" + path + "': corrupt record header at offset " +
          std::to_string(off) + " (size field " +
          std::to_string(payload_size) + ", expected " +
          std::to_string(kWalPayloadSize) + ")");
    }
    if (remaining < kWalHeaderSize + payload_size) {
      out.torn_tail = true;
      out.torn_bytes = remaining;
      break;
    }
    const unsigned char* payload = base + off + kWalHeaderSize;
    const std::uint32_t actual = Crc32(payload, payload_size);
    if (actual != crc) {
      // The record is fully present, so this cannot be a torn append:
      // hard-fail with a precise location instead of replaying damaged
      // data that once acknowledged durability.
      return Status::DataLoss(
          "WAL file '" + path + "': CRC mismatch at offset " +
          std::to_string(off) + " (record " +
          std::to_string(out.records.size()) + ", stored crc " +
          std::to_string(crc) + ", computed " + std::to_string(actual) +
          ")");
    }
    out.records.push_back(DecodeWalPayload(payload));
    off += kWalHeaderSize + payload_size;
  }
  return out;
}

std::vector<std::string> ListWalFiles(const std::string& dir) {
  std::vector<std::string> out;
  for (std::uint32_t w = 0; w < kMaxWalWorkers; ++w) {
    std::string path = dir + "/" + WalFileName(w);
    if (FileExists(path)) out.push_back(std::move(path));
  }
  return out;
}

}  // namespace rnt::storage

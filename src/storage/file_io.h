#ifndef RNT_STORAGE_FILE_IO_H_
#define RNT_STORAGE_FILE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace rnt::storage {

/// Thin checked wrappers over POSIX file I/O. Every syscall return value
/// is inspected and turned into a Status — the storage layer's durability
/// claims are only as good as its error handling, and tools/lint enforces
/// (rule `unchecked-io`) that src/storage never drops a `read`/`pread`/
/// `write`/`fsync`/`fdatasync` result.

/// Opens `path` for appending, creating it if needed; truncates first
/// when `truncate` is set. Returns the raw fd (caller closes).
StatusOr<int> OpenForAppend(const std::string& path, bool truncate);

/// Writes all `size` bytes, looping over partial writes and EINTR.
Status WriteAll(int fd, const void* data, std::size_t size,
                const std::string& path);

/// fdatasync(fd): flushes file data (not directory metadata) to stable
/// storage — the group-commit syscall.
Status SyncData(int fd, const std::string& path);

/// fsync on the directory itself, making renames/creates within it
/// durable (the second half of the atomic-rename snapshot protocol).
Status SyncDir(const std::string& dir);

/// Opens `path` read-only. kNotFound when absent. Returns the raw fd
/// (caller closes).
StatusOr<int> OpenForRead(const std::string& path);

/// One pread of up to `size` bytes at `offset`, retrying EINTR. Returns
/// the count read: fewer than `size` only at the end of the file, 0 at
/// it. Every log read (ReadFileBytes, sim::TraceReader) funnels through
/// here.
StatusOr<std::size_t> ReadAt(int fd, void* data, std::size_t size,
                             std::uint64_t offset, const std::string& path);

/// Reads the whole file into a byte string. kNotFound when absent.
StatusOr<std::string> ReadFileBytes(const std::string& path);

/// Unlinks `path`; absence is not an error.
Status RemoveFile(const std::string& path);

/// Renames `from` to `to` (same filesystem, atomic).
Status RenameFile(const std::string& from, const std::string& to);

bool FileExists(const std::string& path);

}  // namespace rnt::storage

#endif  // RNT_STORAGE_FILE_IO_H_

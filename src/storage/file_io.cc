#include "storage/file_io.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace rnt::storage {

namespace {

std::string Errno(const std::string& op, const std::string& path) {
  return op + " failed for '" + path + "': " + std::strerror(errno);
}

}  // namespace

StatusOr<int> OpenForAppend(const std::string& path, bool truncate) {
  int flags = O_CREAT | O_WRONLY | O_APPEND;
  if (truncate) flags |= O_TRUNC;
  int fd;
  do {
    fd = ::open(path.c_str(), flags, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Status::Internal(Errno("open", path));
  return fd;
}

Status WriteAll(int fd, const void* data, std::size_t size,
                const std::string& path) {
  const char* p = static_cast<const char*>(data);
  std::size_t left = size;
  while (left > 0) {
    ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("write", path));
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status SyncData(int fd, const std::string& path) {
  int rc;
  do {
    rc = ::fdatasync(fd);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) return Status::Internal(Errno("fdatasync", path));
  return Status::Ok();
}

Status SyncDir(const std::string& dir) {
  int fd;
  do {
    fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Status::Internal(Errno("open(dir)", dir));
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  const int saved_errno = errno;
  if (::close(fd) != 0 && rc == 0) {
    return Status::Internal(Errno("close(dir)", dir));
  }
  if (rc != 0) {
    errno = saved_errno;
    return Status::Internal(Errno("fsync(dir)", dir));
  }
  return Status::Ok();
}

StatusOr<int> OpenForRead(const std::string& path) {
  int fd;
  do {
    fd = ::open(path.c_str(), O_RDONLY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such file: " + path);
    }
    return Status::Internal(Errno("open", path));
  }
  return fd;
}

StatusOr<std::size_t> ReadAt(int fd, void* data, std::size_t size,
                             std::uint64_t offset, const std::string& path) {
  for (;;) {
    const ssize_t n = ::pread(fd, data, size, static_cast<off_t>(offset));
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno != EINTR) return Status::Internal(Errno("pread", path));
  }
}

StatusOr<std::string> ReadFileBytes(const std::string& path) {
  RNT_ASSIGN_OR_RETURN(const int fd, OpenForRead(path));
  std::string out;
  char buf[1 << 16];
  for (;;) {
    auto n = ReadAt(fd, buf, sizeof(buf), out.size(), path);
    if (!n.ok()) {
      (void)::close(fd);
      return n.status();
    }
    if (*n == 0) break;
    out.append(buf, *n);
  }
  if (::close(fd) != 0) return Status::Internal(Errno("close", path));
  return out;
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::Internal(Errno("unlink", path));
  }
  return Status::Ok();
}

Status RenameFile(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return Status::Internal(Errno("rename", from + " -> " + to));
  }
  return Status::Ok();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace rnt::storage

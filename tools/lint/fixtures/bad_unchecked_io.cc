// lint-as: src/storage/fixture_io.cc
// Fixture: fire-and-forget POSIX I/O in the durable layer must trip
// [unchecked-io] — an ignored short write or failed fsync silently
// downgrades "durable" to "probably durable": the WAL reports commit
// while the bytes may be gone, and an ignored read result makes a log
// seem to end early. A (void) cast is still a discard.
#include <unistd.h>

namespace rnt::storage {

inline void BadAppend(int fd, const void* p, unsigned long n) {
  ::write(fd, p, n);  // lint-expect: unchecked-io
}

inline void BadBarrier(int fd) {
  (void)::fsync(fd);  // lint-expect: unchecked-io
  fdatasync(fd);  // lint-expect: unchecked-io
}

inline void BadTail(int fd, void* p, unsigned long n, long at) {
  ::pread(fd, p, n, at);  // lint-expect: unchecked-io
  (void)::read(fd, p, n);  // lint-expect: unchecked-io
}

}  // namespace rnt::storage

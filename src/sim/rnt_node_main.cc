// rnt_node: one node of the distributed algebra ℬ as an OS process.
//
// Spawned (and re-spawned after kill -9) by sim::RunMultiProcess; argv
// carries the entire configuration so a reborn process reconstructs the
// exact same seeded program. Exit 0 = clean finish (hub broadcast
// kAllDone, or terminal give-up); exit 1 = bad argv (rejected before
// connecting) or a local invariant violation, diagnosed on stderr.

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/status.h"
#include "sim/node_runtime.h"

namespace {

constexpr const char* kUsage =
    "usage: rnt_node --spec=<token> --node=N --dir=DIR "
    "--endpoint=unix:PATH|tcp:HOST:PORT [--incarnation=G] "
    "[--recover] [--propagation=delta|eager]\n";

bool TakeFlag(const char* arg, const char* name, std::string* value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

/// Strict decimal parse: digits only (no sign, no blanks), at most `max`.
bool ParseCount(const std::string& text, unsigned long long max,
                unsigned long long* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text.c_str(), &end, 10);
  return std::isdigit(static_cast<unsigned char>(text.c_str()[0])) != 0 &&
         *end == '\0' && errno == 0 && *out <= max;
}

int BadFlag(const char* flag, const std::string& value) {
  std::fprintf(stderr, "rnt_node: invalid value '%s' for %s\n%s",
               value.c_str(), flag, kUsage);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  rnt::sim::NodeRuntimeOptions options;
  bool have_spec = false;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    unsigned long long n = 0;
    if (TakeFlag(argv[i], "--spec", &value)) {
      auto spec = rnt::sim::ProgramSpec::Parse(value);
      if (!spec.ok()) {
        std::fprintf(stderr, "rnt_node: %s\n",
                     spec.status().ToString().c_str());
        return 1;
      }
      options.spec = *spec;
      have_spec = true;
    } else if (TakeFlag(argv[i], "--node", &value)) {
      if (!ParseCount(value, 0xffffffffu, &n)) return BadFlag("--node", value);
      options.node = static_cast<rnt::NodeId>(n);
    } else if (TakeFlag(argv[i], "--dir", &value)) {
      options.dir = value;
    } else if (TakeFlag(argv[i], "--endpoint", &value)) {
      options.endpoint = value;
    } else if (TakeFlag(argv[i], "--incarnation", &value)) {
      if (!ParseCount(value, 0xffffffffu, &n)) {
        return BadFlag("--incarnation", value);
      }
      options.incarnation = static_cast<std::uint32_t>(n);
    } else if (TakeFlag(argv[i], "--propagation", &value)) {
      if (value == "eager") {
        options.propagation = rnt::sim::Propagation::kEager;
      } else if (value == "delta") {
        options.propagation = rnt::sim::Propagation::kDelta;
      } else {
        return BadFlag("--propagation", value);
      }
    } else if (std::strcmp(argv[i], "--recover") == 0) {
      options.recover = true;
    } else {
      std::fprintf(stderr, "rnt_node: unknown argument '%s'\n%s", argv[i],
                   kUsage);
      return 1;
    }
  }
  if (!have_spec || options.dir.empty() || options.endpoint.empty()) {
    std::fputs(kUsage, stderr);
    return 1;
  }
  const rnt::Status s = rnt::sim::RunNodeProcess(options);
  if (!s.ok()) {
    std::fprintf(stderr, "rnt_node[%u]: %s\n", options.node,
                 s.ToString().c_str());
    return 1;
  }
  return 0;
}

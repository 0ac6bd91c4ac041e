#ifndef RNT_SIM_PHASES_H_
#define RNT_SIM_PHASES_H_

#include <cstdint>
#include <ctime>

namespace rnt::sim {

/// Where one node process's time went, cumulative over its incarnation.
/// pass_s is the time inside NodeCore::Pass and includes persist_s, the
/// time inside the host's Persist (the pass's trace and retention
/// writes); wait_s is the time parked on the socket between passes.
/// `persists` counts the Persist calls that wrote something — each is at
/// most one trace write and one retention write.
struct NodePhases {
  double pass_s = 0;
  double persist_s = 0;
  double wait_s = 0;
  std::uint64_t passes = 0;
  std::uint64_t persists = 0;

  friend bool operator==(const NodePhases&, const NodePhases&) = default;
};

/// Monotonic seconds for the phase timers. Observability only: no
/// outcome, retry or schedule ever reads it.
inline double MonotonicSeconds() {
  timespec ts{};
  (void)::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace rnt::sim

#endif  // RNT_SIM_PHASES_H_

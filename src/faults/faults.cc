#include "faults/faults.h"

#include <algorithm>
#include <sstream>

namespace rnt::faults {

std::string FaultPlan::ToString() const {
  std::ostringstream os;
  os << "FaultPlan{seed=" << seed << ", drop=" << drop_prob
     << ", dup=" << dup_prob << ", delay=" << delay_prob << "(max "
     << max_delay_rounds << ")";
  for (const CrashSpec& c : crashes) {
    os << ", crash(n" << c.node << "@s" << c.at_stamp << " for "
       << c.down_for << " stamps)";
  }
  for (const PartitionSpec& p : partitions) {
    os << ", partition(n" << p.a << "|n" << p.b << " s[" << p.from_stamp
       << "," << p.until_stamp << "))";
  }
  os << "}";
  return os.str();
}

FaultInjector::Verdict FaultInjector::OnMessage() {
  // Fixed draw count per call: fate decisions at different probabilities
  // consume the PRNG identically.
  const double drop_u = rng_.NextDouble();
  const double delay_u = rng_.NextDouble();
  const double dup_u = rng_.NextDouble();
  const int span = std::max(1, plan_.max_delay_rounds);
  const int delay_len = 1 + static_cast<int>(rng_.Below(span));
  const int dup_len = 1 + static_cast<int>(rng_.Below(span));

  Verdict v;
  if (drop_u < plan_.drop_prob) {
    v.drop = true;
    return v;
  }
  if (delay_u < plan_.delay_prob) v.delay = delay_len;
  if (dup_u < plan_.dup_prob) v.duplicate_delay = v.delay + dup_len;
  return v;
}

std::vector<CrashSpec> CrashesOf(const FaultPlan& plan, NodeId node) {
  std::vector<CrashSpec> out;
  for (const CrashSpec& c : plan.crashes) {
    if (c.node == node) out.push_back(c);
  }
  std::sort(out.begin(), out.end(), [](const CrashSpec& a, const CrashSpec& b) {
    return a.at_stamp < b.at_stamp;
  });
  return out;
}

Status ValidatePlan(const FaultPlan& plan, NodeId num_nodes) {
  auto in_unit = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!in_unit(plan.drop_prob) || !in_unit(plan.dup_prob) ||
      !in_unit(plan.delay_prob)) {
    return Status::InvalidArgument("fault probabilities must lie in [0, 1]");
  }
  if (plan.max_delay_rounds < 0) {
    return Status::InvalidArgument("max_delay_rounds must be non-negative");
  }
  for (const CrashSpec& c : plan.crashes) {
    if (c.node >= num_nodes) {
      return Status::InvalidArgument("crash names a node outside [k]");
    }
    if (c.at_stamp < 0 || c.down_for < 1) {
      return Status::InvalidArgument(
          "crash at_stamp must be >= 0 and down_for >= 1");
    }
  }
  // Overlapping crash windows on one node are ambiguous (which rebirth
  // wins?).
  for (std::size_t i = 0; i < plan.crashes.size(); ++i) {
    for (std::size_t j = i + 1; j < plan.crashes.size(); ++j) {
      const CrashSpec& c = plan.crashes[i];
      const CrashSpec& d = plan.crashes[j];
      // Differences of non-negative stamps: no overflow at kNeverReborn.
      if (c.node == d.node && c.at_stamp - d.at_stamp < d.down_for &&
          d.at_stamp - c.at_stamp < c.down_for) {
        return Status::InvalidArgument(
            "overlapping crash intervals for one node");
      }
    }
  }
  for (const PartitionSpec& p : plan.partitions) {
    if (p.a >= num_nodes || p.b >= num_nodes) {
      return Status::InvalidArgument("partition names a node outside [k]");
    }
    if (p.a == p.b) {
      return Status::InvalidArgument(
          "partition of a node from itself (a == b)");
    }
    if (p.from_stamp < 0 || p.from_stamp > p.until_stamp) {
      return Status::InvalidArgument(
          "partition window must be an ordered pair of non-negative "
          "stamps");
    }
  }
  return Status::Ok();
}

}  // namespace rnt::faults

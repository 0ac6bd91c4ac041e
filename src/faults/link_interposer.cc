#include "faults/link_interposer.h"

namespace rnt::faults {

LinkInterposer::Verdict LinkInterposer::OnFrame(NodeId from, NodeId to,
                                                std::int64_t stamp) {
  Verdict v;
  // Fixed-draw random faults first (drop/dup/delay), so the PRNG stream
  // is independent of the partition schedule — rate sweeps on one seed
  // see the same underlying sequence, exactly like the in-process path.
  const FaultInjector::Verdict base = injector_.OnMessage();
  v.drop = base.drop;
  v.delay = base.delay;
  v.duplicate_delay = base.duplicate_delay;
  const FaultPlan& plan = injector_.plan();
  for (std::size_t p = 0; p < plan.partitions.size(); ++p) {
    const PartitionSpec& spec = plan.partitions[p];
    const bool covers = (spec.a == from && spec.b == to) ||
                        (spec.a == to && spec.b == from);
    if (!covers) continue;
    if (stamp < spec.from_stamp || stamp >= spec.until_stamp) continue;
    v.drop = true;
    v.partitioned = true;
    if (!reset_fired_[p]) {
      reset_fired_[p] = 1;
      v.reset = true;
    }
  }
  return v;
}

}  // namespace rnt::faults

// The four workloads. Each runs whole rounds (fresh set-up, measured
// load, correctness check, restart) until the run's measuring time is
// spent, and fills the report with the metrics of its mode.
#ifndef RNT_PERFBENCH_WORKLOADS_H_
#define RNT_PERFBENCH_WORKLOADS_H_

#include "bench.h"

namespace perfbench {

void RunDurableNested(const Args& args, Report* report);
void RunContendedResilient(const Args& args, Report* report);
void RunBatchedFrontend(const Args& args, Report* report);
void RunDistUnix(const Args& args, Report* report);

}  // namespace perfbench

#endif  // RNT_PERFBENCH_WORKLOADS_H_

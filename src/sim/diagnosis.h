#ifndef RNT_SIM_DIAGNOSIS_H_
#define RNT_SIM_DIAGNOSIS_H_

#include <string>
#include <vector>

#include "dist/dist_algebra.h"

namespace rnt::sim {

/// One live action that a stalled run is still waiting on: where its next
/// event must run and what stands in the way. Produced when a driver
/// gives up (RunProgram cannot progress, or a node loop degrades under a
/// partition) so the failure mode is inspectable instead of a bare
/// status code.
struct StalledAction {
  ActionId action = kInvalidAction;
  bool is_access = false;
  /// The node where the action's next event (perform/commit) must run.
  NodeId home = 0;
  /// Accesses only: the object whose lock chain blocks the perform.
  ObjectId object = 0;
  /// The lock holder (accesses) or active child (inner actions) being
  /// waited on; kInvalidAction when the action is ready but its event
  /// never ran (lost knowledge, down node).
  ActionId waiting_on = kInvalidAction;
  std::string detail;
};

struct StallDiagnosis {
  std::vector<StalledAction> stalled;

  bool empty() const { return stalled.empty(); }
  std::string ToString() const;
};

/// Surveys a ℬ state for live actions (created somewhere, not known done
/// anywhere) and reports what each is waiting on: accesses name the lock
/// holder blocking them at their object's home; inner actions name their
/// first unfinished child, or report themselves ready to commit. Used by
/// sim::RunProgram to annotate a stuck schedule and by every NodeCore
/// host for partial-run diagnoses.
StallDiagnosis DiagnoseStalls(const dist::DistAlgebra& alg,
                              const dist::DistState& s);

}  // namespace rnt::sim

#endif  // RNT_SIM_DIAGNOSIS_H_

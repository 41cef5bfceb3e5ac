/// \file bounds.h
/// \brief Oblivious upper and lower bounds from query plans (Theorem 6.1).
///
/// Every plan's value upper-bounds p_D(Q); running a plan on the dissociated
/// database — each tuple probability replaced by 1 - (1-p)^{1/k}, k the
/// tuple's occurrence count in the lineage DNF — lower-bounds it:
///
///     Plan_{D1} <= p_D(Q) <= Plan_D.
///
/// `ComputePlanBounds` evaluates all elimination-order plans and returns the
/// tightest pair (min of uppers, max of lowers), plus the safe-plan value
/// when the query is hierarchical. Plans only read the rows that occur in
/// some match of the query, so the work follows the lineage, not the size
/// of the database.

#ifndef PDB_PLANS_BOUNDS_H_
#define PDB_PLANS_BOUNDS_H_

#include <optional>

#include "boolean/lineage.h"
#include "plans/enumerate.h"
#include "plans/plan.h"

namespace pdb {

/// Result of the bound computation.
struct PlanBounds {
  double lower = 0.0;
  double upper = 1.0;
  size_t num_plans = 0;
  /// Value of the safe plan when one exists (then lower == upper == exact).
  std::optional<double> safe_value;
};

/// Evaluates all plans (bounded enumeration) to produce the tightest
/// oblivious bounds for a self-join-free Boolean CQ. `grounding` drives the
/// match enumeration (its context's index cache, when it has one).
Result<PlanBounds> ComputePlanBounds(const ConjunctiveQuery& cq,
                                     const Database& db, size_t max_vars = 7,
                                     const GroundingOptions& grounding = {});

}  // namespace pdb

#endif  // PDB_PLANS_BOUNDS_H_

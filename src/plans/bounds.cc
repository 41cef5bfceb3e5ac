#include "plans/bounds.h"

#include <cmath>
#include <map>
#include <set>

#include "boolean/lineage.h"
#include "logic/analysis.h"

namespace pdb {

namespace {

// The relations `cq` reads, cut down to the rows that occur in at least one
// match, in their original row order: `original` keeps the probabilities,
// `dissociated` is D1 — a row occurring in k > 1 lineage terms gets
// 1 - (1-p)^{1/k}.
//
// Evaluating a plan over these rows gives bit-identical values to
// evaluating it over the whole database. Every plan here projects a
// variable away only once nothing outside the subplan mentions it, so an
// intermediate row whose binding extends to a full match is built from
// matched rows only, and a row whose binding does not extend only ever
// feeds rows that do not extend either, which a later join drops. The rows
// that survive meet in the same relative order, so every ⊕ and product
// sees the same operands in the same sequence.
struct MatchedRows {
  Database original;
  Database dissociated;
};

Result<MatchedRows> CollectMatchedRows(const ConjunctiveQuery& cq,
                                       const Database& db,
                                       const GroundingOptions& grounding) {
  // Occurrence counts k per (relation, row) across the lineage DNF, rows
  // ascending within each relation.
  std::map<std::string, std::map<size_t, size_t>> counts;
  for (const Atom& atom : cq.atoms()) counts[atom.predicate];
  PDB_RETURN_NOT_OK(EnumerateCqMatches(
      cq, db,
      [&](const CqMatch& match) {
        // A tuple matched by several atoms of one term still occurs once
        // in that term; deduplicate within the match.
        std::set<std::pair<std::string, size_t>> seen;
        for (const LineageVar& lv : match.atom_rows) {
          seen.emplace(lv.relation, lv.row);
        }
        for (const auto& [relation, row] : seen) ++counts[relation][row];
      },
      grounding));
  MatchedRows out;
  for (const auto& [name, rows] : counts) {
    PDB_ASSIGN_OR_RETURN(const Relation* rel, db.Get(name));
    Relation original(rel->name(), rel->schema());
    Relation dissociated(rel->name(), rel->schema());
    for (const auto& [row, k] : rows) {
      double p = rel->prob(row);
      PDB_RETURN_NOT_OK(original.AddTuple(rel->tuple(row), p));
      if (k > 1) p = 1.0 - std::pow(1.0 - p, 1.0 / static_cast<double>(k));
      PDB_RETURN_NOT_OK(dissociated.AddTuple(rel->tuple(row), p));
    }
    PDB_RETURN_NOT_OK(out.original.AddRelation(std::move(original)));
    PDB_RETURN_NOT_OK(out.dissociated.AddRelation(std::move(dissociated)));
  }
  return out;
}

}  // namespace

Result<PlanBounds> ComputePlanBounds(const ConjunctiveQuery& cq,
                                     const Database& db, size_t max_vars,
                                     const GroundingOptions& grounding) {
  PDB_ASSIGN_OR_RETURN(std::vector<PlanPtr> plans,
                       EnumerateAllPlans(cq, max_vars));
  PDB_ASSIGN_OR_RETURN(MatchedRows matched,
                       CollectMatchedRows(cq, db, grounding));
  PlanBounds bounds;
  bounds.num_plans = plans.size();
  bounds.lower = 0.0;
  bounds.upper = 1.0;
  for (const PlanPtr& plan : plans) {
    PDB_ASSIGN_OR_RETURN(double upper,
                         ExecuteBooleanPlan(plan, matched.original));
    PDB_ASSIGN_OR_RETURN(double lower,
                         ExecuteBooleanPlan(plan, matched.dissociated));
    bounds.upper = std::min(bounds.upper, upper);
    bounds.lower = std::max(bounds.lower, lower);
  }
  if (IsHierarchical(cq)) {
    PDB_ASSIGN_OR_RETURN(PlanPtr safe, BuildSafePlan(cq));
    PDB_ASSIGN_OR_RETURN(double value,
                         ExecuteBooleanPlan(safe, matched.original));
    bounds.safe_value = value;
  }
  return bounds;
}

}  // namespace pdb

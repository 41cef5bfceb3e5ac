/// \file safety.h
/// \brief Deciding the complexity of PQE(Q) (paper §4, Question 4.2).
///
/// For self-join-free CQs the decision is purely syntactic: hierarchical
/// <=> polynomial time (Theorem 4.3), and the check itself is cheap (the
/// paper places it in AC0). For UCQs the classifier runs the lifted rules
/// on a canonical two-constant instance — rule applicability is
/// data-independent, so success/failure there reflects the query, not the
/// data — and failure is reported as #P-hard per the dichotomy of
/// Theorem 4.1 (with this engine's documented rule-set caveat).

#ifndef PDB_LIFTED_SAFETY_H_
#define PDB_LIFTED_SAFETY_H_

#include "lifted/lifted.h"
#include "logic/cq.h"
#include "util/status.h"

namespace pdb {

/// Complexity side of the dichotomy.
enum class QueryComplexity {
  kPolynomialTime,
  kSharpPHard,
};

const char* QueryComplexityToString(QueryComplexity c);

/// Theorem 4.3: hierarchical <=> PTIME for self-join-free CQs.
/// InvalidArgument if the CQ has self-joins.
Result<QueryComplexity> ClassifySelfJoinFreeCq(const ConjunctiveQuery& cq);

/// The engine's routing gate, shared by query execution and EXPLAIN through
/// LiftedProbabilityFo. Returns Unsupported, with the reason, when
/// `sentence` is a self-join-free CQ that Theorem 4.3 calls #P-hard *and*
/// the lifted rules fail on it whatever `db` holds: one variable-connected
/// component with no root variable, no ground atom, and every relation
/// present, of the right arity and non-empty. The rules then fail at their
/// first step, so the answer is known from the syntax alone, without the
/// rewrite's database copy. Returns OK otherwise — UCQs, self-joins,
/// negation, universals, and CQs whose data could still decide the answer
/// (an empty relation, a ground atom, a separator whose support is empty)
/// — and the lifted attempt itself is the safety check.
Status SyntacticSafetyGate(const FoPtr& sentence, const Database& db);

/// True iff the lifted rules compute this UCQ (=> PQE in PTIME).
bool IsSafeUcq(const Ucq& ucq, LiftedOptions options = {});

/// Dichotomy classification of a UCQ by safety of the rule set.
QueryComplexity ClassifyUcq(const Ucq& ucq, LiftedOptions options = {});

/// Builds a canonical database for the query's signature: every predicate
/// gets all tuples over a domain of `domain_size` integer constants, each
/// with probability 1/2. Used by the classifier and handy in tests.
Result<Database> CanonicalDatabase(const Ucq& ucq, size_t domain_size = 2);

}  // namespace pdb

#endif  // PDB_LIFTED_SAFETY_H_

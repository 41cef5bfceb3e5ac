#include "lifted/safety.h"

#include <map>

#include "logic/analysis.h"
#include "util/string_util.h"

namespace pdb {

const char* QueryComplexityToString(QueryComplexity c) {
  switch (c) {
    case QueryComplexity::kPolynomialTime:
      return "PTIME";
    case QueryComplexity::kSharpPHard:
      return "#P-hard";
  }
  return "?";
}

Result<QueryComplexity> ClassifySelfJoinFreeCq(const ConjunctiveQuery& cq) {
  if (!cq.IsSelfJoinFree()) {
    return Status::InvalidArgument(
        "query has self-joins; Theorem 4.3 does not apply");
  }
  return IsHierarchical(cq) ? QueryComplexity::kPolynomialTime
                            : QueryComplexity::kSharpPHard;
}

Status SyntacticSafetyGate(const FoPtr& sentence, const Database& db) {
  if (!sentence->FreeVariables().empty()) return Status::OK();
  auto ucq = FoToUcq(sentence);
  if (!ucq.ok() || ucq->size() != 1) return Status::OK();
  const ConjunctiveQuery& cq = ucq->disjuncts()[0];
  auto complexity = ClassifySelfJoinFreeCq(cq);
  if (!complexity.ok() || *complexity != QueryComplexity::kSharpPHard) {
    return Status::OK();
  }
  // With a root variable the rules ground it and recurse, and the data
  // decides what the recursion meets; several components (a ground atom is
  // one of its own) are evaluated one by one, so an earlier component's
  // outcome comes first.
  if (VariableConnectedComponents(cq).size() != 1 ||
      !RootVariables(cq).empty()) {
    return Status::OK();
  }
  for (const Atom& atom : cq.atoms()) {
    auto rel = db.Get(atom.predicate);
    if (!rel.ok() || (*rel)->arity() != atom.arity() || (*rel)->empty()) {
      return Status::OK();
    }
  }
  return Status::Unsupported(
      StrFormat("%s is not hierarchical: #P-hard self-join-free CQ "
                "(Theorem 4.3)",
                cq.ToString().c_str()));
}

Result<Database> CanonicalDatabase(const Ucq& ucq, size_t domain_size) {
  // Collect predicate arities, checking consistency.
  std::map<std::string, size_t> arity;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    for (const Atom& atom : cq.atoms()) {
      auto [it, inserted] = arity.emplace(atom.predicate, atom.arity());
      if (!inserted && it->second != atom.arity()) {
        return Status::InvalidArgument(
            StrFormat("predicate '%s' used with arities %zu and %zu",
                      atom.predicate.c_str(), it->second, atom.arity()));
      }
      // Constants in the query must be integers to fit the canonical
      // all-integer schema; remap is unnecessary because classifier inputs
      // are constant-free in practice.
      for (const Term& t : atom.args) {
        if (t.is_constant() && !t.constant().is_int()) {
          return Status::Unsupported(
              "canonical database supports integer constants only");
        }
      }
    }
  }
  // Domain: 1..domain_size plus any constants appearing in the query (so
  // ground atoms stay satisfiable and the classification reflects rule
  // structure, not accidental emptiness).
  std::set<int64_t> domain;
  for (size_t i = 1; i <= domain_size; ++i) {
    domain.insert(static_cast<int64_t>(i));
  }
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    for (const Atom& atom : cq.atoms()) {
      for (const Term& t : atom.args) {
        if (t.is_constant()) domain.insert(t.constant().AsInt());
      }
    }
  }
  std::vector<int64_t> values(domain.begin(), domain.end());
  Database db;
  // GCC 12 issues a spurious -Wmaybe-uninitialized for the dead
  // string-alternative of Value's variant when the int path below is
  // inlined; the constructor always initializes exactly one alternative.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
  for (const auto& [pred, k] : arity) {
    Relation rel(pred, Schema::Anonymous(k, ValueType::kInt));
    size_t total = 1;
    for (size_t i = 0; i < k; ++i) total *= values.size();
    for (size_t combo = 0; combo < total; ++combo) {
      Tuple tuple;
      size_t rest = combo;
      for (size_t i = 0; i < k; ++i) {
        tuple.push_back(Value(values[rest % values.size()]));
        rest /= values.size();
      }
      PDB_RETURN_NOT_OK(rel.AddTuple(std::move(tuple), 0.5));
    }
    PDB_RETURN_NOT_OK(db.AddRelation(std::move(rel)));
  }
#pragma GCC diagnostic pop
  return db;
}

bool IsSafeUcq(const Ucq& ucq, LiftedOptions options) {
  auto db = CanonicalDatabase(ucq);
  if (!db.ok()) return false;
  options.trace = nullptr;
  LiftedEngine engine(*db, options);
  return engine.Compute(ucq).ok();
}

QueryComplexity ClassifyUcq(const Ucq& ucq, LiftedOptions options) {
  return IsSafeUcq(ucq, options) ? QueryComplexity::kPolynomialTime
                                 : QueryComplexity::kSharpPHard;
}

}  // namespace pdb

/// \file test_common.h
/// \brief Shared fixtures: the paper's Figure 1 database, random TIDs,
/// cross-implementation probability helpers, and the reference CQ matcher
/// the compiled grounding engine is checked against.

#ifndef PDB_TESTS_TEST_COMMON_H_
#define PDB_TESTS_TEST_COMMON_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "boolean/lineage.h"
#include "logic/cq.h"
#include "storage/database.h"
#include "util/check.h"
#include "util/random.h"

namespace pdb::testing {

/// Probabilities used for Figure 1 (concrete values for p1..p3, q1..q6).
struct Figure1Probs {
  double p1 = 0.3, p2 = 0.5, p3 = 0.9;
  double q1 = 0.1, q2 = 0.2, q3 = 0.4, q4 = 0.6, q5 = 0.7, q6 = 0.8;
};

/// Builds the TID of Figure 1(a): R(x) with a1..a3, S(x,y) with the six
/// rows, string-typed constants 'a1'..'a4', 'b1'..'b6'.
inline Database BuildFigure1Database(const Figure1Probs& p = {}) {
  Database db;
  Relation r("R", Schema({{"x", ValueType::kString}}));
  PDB_CHECK(r.AddTuple({Value("a1")}, p.p1).ok());
  PDB_CHECK(r.AddTuple({Value("a2")}, p.p2).ok());
  PDB_CHECK(r.AddTuple({Value("a3")}, p.p3).ok());
  PDB_CHECK(db.AddRelation(std::move(r)).ok());
  Relation s("S", Schema({{"x", ValueType::kString},
                          {"y", ValueType::kString}}));
  PDB_CHECK(s.AddTuple({Value("a1"), Value("b1")}, p.q1).ok());
  PDB_CHECK(s.AddTuple({Value("a1"), Value("b2")}, p.q2).ok());
  PDB_CHECK(s.AddTuple({Value("a2"), Value("b3")}, p.q3).ok());
  PDB_CHECK(s.AddTuple({Value("a2"), Value("b4")}, p.q4).ok());
  PDB_CHECK(s.AddTuple({Value("a2"), Value("b5")}, p.q5).ok());
  PDB_CHECK(s.AddTuple({Value("a4"), Value("b6")}, p.q6).ok());
  PDB_CHECK(db.AddRelation(std::move(s)).ok());
  return db;
}

/// The closed form for Example 2.1 on Figure 1:
/// (p1 + (1-p1)(1-q1)(1-q2)) (p2 + (1-p2)(1-q3)(1-q4)(1-q5)) (1-q6).
inline double Example21ClosedForm(const Figure1Probs& p = {}) {
  return (p.p1 + (1 - p.p1) * (1 - p.q1) * (1 - p.q2)) *
         (p.p2 + (1 - p.p2) * (1 - p.q3) * (1 - p.q4) * (1 - p.q5)) *
         (1 - p.q6);
}

/// Options for random TID generation.
struct RandomTidOptions {
  size_t domain_size = 4;
  /// Chance that each possible tuple is stored at all.
  double presence = 0.7;
  /// Probabilities are sampled uniformly from (0,1); with this chance a
  /// stored tuple instead gets an extreme probability (0 or 1).
  double extreme_chance = 0.1;
};

/// Adds a relation of the given arity filled with random integer tuples.
inline void AddRandomRelation(Database* db, const std::string& name,
                              size_t arity, Rng* rng,
                              const RandomTidOptions& options = {}) {
  Relation rel(name, Schema::Anonymous(arity, ValueType::kInt));
  size_t total = 1;
  for (size_t i = 0; i < arity; ++i) total *= options.domain_size;
  for (size_t combo = 0; combo < total; ++combo) {
    if (!rng->Bernoulli(options.presence)) continue;
    Tuple tuple;
    size_t rest = combo;
    for (size_t i = 0; i < arity; ++i) {
      tuple.push_back(
          Value(static_cast<int64_t>(rest % options.domain_size + 1)));
      rest /= options.domain_size;
    }
    double p = rng->NextDouble();
    if (rng->Bernoulli(options.extreme_chance)) {
      p = rng->Bernoulli(0.5) ? 0.0 : 1.0;
    }
    PDB_CHECK(rel.AddTuple(std::move(tuple), p).ok());
  }
  PDB_CHECK(db->AddRelation(std::move(rel)).ok());
}

/// Generates a random Boolean CQ over the vocabulary R/1, S/2, T/1, U/2
/// with variables drawn from a small pool (so joins actually happen) and
/// occasional constants.
inline ConjunctiveQuery RandomCq(Rng* rng) {
  const char* unary[] = {"R", "T"};
  const char* binary[] = {"S", "U"};
  const char* vars[] = {"x", "y", "z"};
  size_t num_atoms = 1 + rng->Uniform(3);
  ConjunctiveQuery cq;
  for (size_t i = 0; i < num_atoms; ++i) {
    auto term = [&]() {
      if (rng->Bernoulli(0.15)) {
        return Term::Const(Value(static_cast<int64_t>(1 + rng->Uniform(3))));
      }
      return Term::Var(vars[rng->Uniform(3)]);
    };
    if (rng->Bernoulli(0.5)) {
      cq.AddAtom(Atom(unary[rng->Uniform(2)], {term()}));
    } else {
      cq.AddAtom(Atom(binary[rng->Uniform(2)], {term(), term()}));
    }
  }
  return cq;
}

/// A random union of 1-3 RandomCq disjuncts (safe and unsafe alike).
inline Ucq RandomUcq(Rng* rng) {
  size_t disjuncts = 1 + rng->Uniform(3);
  Ucq ucq;
  for (size_t i = 0; i < disjuncts; ++i) ucq.AddDisjunct(RandomCq(rng));
  return ucq;
}

/// A random TID over the RandomCq vocabulary (domain {1,2,3}).
inline Database RandomVocabularyDb(Rng* rng) {
  Database db;
  RandomTidOptions options;
  options.domain_size = 3;
  options.presence = 0.75;
  AddRandomRelation(&db, "R", 1, rng, options);
  AddRandomRelation(&db, "S", 2, rng, options);
  AddRandomRelation(&db, "T", 1, rng, options);
  AddRandomRelation(&db, "U", 2, rng, options);
  return db;
}

/// Generates a random self-join-free Boolean CQ: 1-4 atoms over distinct
/// predicates of A/1, B/1, C/2, D/2, E/3 and, rarely, Z/2 (empty in
/// RandomSelfJoinFreeDb), with variables from a pool of four and constants
/// with chance `constant_chance`, so ground atoms, root variables, several
/// components and non-hierarchical shapes all occur.
inline ConjunctiveQuery RandomSelfJoinFreeCq(Rng* rng,
                                             double constant_chance = 0.15) {
  struct Symbol {
    const char* name;
    size_t arity;
  };
  std::vector<Symbol> symbols = {{"A", 1}, {"B", 1}, {"C", 2}, {"D", 2},
                                 {"E", 3}};
  if (rng->Bernoulli(0.1)) symbols.push_back({"Z", 2});
  for (size_t i = symbols.size(); i-- > 1;) {
    std::swap(symbols[i], symbols[rng->Uniform(i + 1)]);
  }
  const char* vars[] = {"x", "y", "z", "w"};
  size_t num_atoms = 1 + rng->Uniform(4);
  ConjunctiveQuery cq;
  for (size_t i = 0; i < num_atoms; ++i) {
    std::vector<Term> args;
    for (size_t j = 0; j < symbols[i].arity; ++j) {
      if (rng->Bernoulli(constant_chance)) {
        args.push_back(
            Term::Const(Value(static_cast<int64_t>(1 + rng->Uniform(3)))));
      } else {
        args.push_back(Term::Var(vars[rng->Uniform(4)]));
      }
    }
    cq.AddAtom(Atom(symbols[i].name, std::move(args)));
  }
  return cq;
}

/// A random TID over RandomSelfJoinFreeCq's vocabulary (domain {1,2,3},
/// some tuples with probability 0 or 1), plus the empty relation Z and a
/// relation W that no generated query reads.
inline Database RandomSelfJoinFreeDb(Rng* rng) {
  Database db;
  RandomTidOptions options;
  options.domain_size = 3;
  options.presence = 0.6;
  AddRandomRelation(&db, "A", 1, rng, options);
  AddRandomRelation(&db, "B", 1, rng, options);
  AddRandomRelation(&db, "C", 2, rng, options);
  AddRandomRelation(&db, "D", 2, rng, options);
  AddRandomRelation(&db, "E", 3, rng, options);
  AddRandomRelation(&db, "W", 2, rng, options);
  PDB_CHECK(db.CreateRelation("Z", Schema::Anonymous(2, ValueType::kInt)).ok());
  return db;
}

/// The naive backtracking CQ matcher, the oracle for the compiled join
/// engine: joins atoms in syntactic order, binds variables through a
/// name-keyed map, and scans every row of each atom's relation, keeping the
/// rows that agree with the constants and the bindings so far. It emits
/// matches in the lexicographic order of the per-atom row vector, which is
/// the order `EnumerateCqMatches` promises.
class ReferenceCqMatcher {
 public:
  ReferenceCqMatcher(const ConjunctiveQuery& cq, const Database& db)
      : cq_(cq), db_(db) {}

  Status Run(const std::function<void(const CqMatch&)>& callback) {
    const auto& atoms = cq_.atoms();
    relations_.resize(atoms.size());
    for (size_t i = 0; i < atoms.size(); ++i) {
      PDB_ASSIGN_OR_RETURN(relations_[i], db_.Get(atoms[i].predicate));
      if (relations_[i]->arity() != atoms[i].arity()) {
        return Status::InvalidArgument("arity mismatch");
      }
    }
    match_.atom_rows.resize(atoms.size());
    Recurse(0, callback);
    return Status::OK();
  }

 private:
  void Recurse(size_t atom_idx,
               const std::function<void(const CqMatch&)>& callback) {
    if (atom_idx == cq_.atoms().size()) {
      callback(match_);
      return;
    }
    const Atom& atom = cq_.atoms()[atom_idx];
    const Relation& rel = *relations_[atom_idx];
    for (size_t row = 0; row < rel.size(); ++row) {
      const Tuple& tuple = rel.tuple(row);
      // Check constants and bound variables; bind the free ones (a
      // variable repeated within the atom is bound by its first column).
      std::vector<std::string> newly_bound;
      bool ok = true;
      for (size_t j = 0; j < atom.args.size() && ok; ++j) {
        const Term& t = atom.args[j];
        if (t.is_constant()) {
          ok = t.constant() == tuple[j];
          continue;
        }
        auto it = env_.find(t.var());
        if (it == env_.end()) {
          env_.emplace(t.var(), tuple[j]);
          newly_bound.push_back(t.var());
        } else {
          ok = it->second == tuple[j];
        }
      }
      if (ok) {
        match_.atom_rows[atom_idx] = {atom.predicate, row};
        Recurse(atom_idx + 1, callback);
      }
      for (const std::string& v : newly_bound) env_.erase(v);
    }
  }

  const ConjunctiveQuery& cq_;
  const Database& db_;
  std::vector<const Relation*> relations_;
  std::map<std::string, Value> env_;
  CqMatch match_;
};

inline Status EnumerateCqMatchesReference(
    const ConjunctiveQuery& cq, const Database& db,
    const std::function<void(const CqMatch&)>& callback) {
  ReferenceCqMatcher matcher(cq, db);
  return matcher.Run(callback);
}

}  // namespace pdb::testing

#endif  // PDB_TESTS_TEST_COMMON_H_

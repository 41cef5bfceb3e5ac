#include "boolean/lineage.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "exec/context.h"
#include "exec/join_profile.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "storage/columnar.h"
#include "storage/index_cache.h"
#include "util/check.h"
#include "util/string_util.h"

namespace pdb {

namespace {

// Assigns one Boolean variable per (relation, row), lazily. Used by the FO
// grounder, which addresses tuples by value rather than by row id.
class VarTable {
 public:
  VarId VarFor(const std::string& relation, size_t row, double prob) {
    auto key = std::make_pair(relation, row);
    auto it = ids_.find(key);
    if (it != ids_.end()) return it->second;
    VarId id = static_cast<VarId>(vars_.size());
    ids_.emplace(std::move(key), id);
    vars_.push_back({relation, row});
    probs_.push_back(prob);
    return id;
  }

  std::vector<LineageVar> TakeVars() { return std::move(vars_); }
  std::vector<double> TakeProbs() { return std::move(probs_); }

 private:
  std::map<std::pair<std::string, size_t>, VarId> ids_;
  std::vector<LineageVar> vars_;
  std::vector<double> probs_;
};

// The UCQ grounder's variable table: per-relation dense row -> VarId
// arrays instead of an ordered map of (name, row) pairs, so the per-match
// hot path is one vector index instead of a string-keyed tree walk.
// Assignment order (and hence VarId numbering) is identical to VarTable's
// first-use order as long as rows are visited in the same sequence.
class DenseVarTable {
 public:
  VarId VarFor(const Relation* rel, size_t row) {
    std::vector<int64_t>& ids = tables_[rel];
    if (ids.empty()) ids.assign(rel->size(), -1);
    int64_t& id = ids[row];
    if (id < 0) {
      id = static_cast<int64_t>(vars_.size());
      vars_.push_back({rel->name(), row});
      probs_.push_back(rel->prob(row));
    }
    return static_cast<VarId>(id);
  }

  /// Lookup of an already-assigned id (safe to call concurrently with other
  /// readers; the row must have been assigned by a prior VarFor).
  VarId IdOf(const Relation* rel, size_t row) const {
    return static_cast<VarId>(tables_.at(rel)[row]);
  }

  size_t size() const { return vars_.size(); }
  std::vector<LineageVar> TakeVars() { return std::move(vars_); }
  std::vector<double> TakeProbs() { return std::move(probs_); }

 private:
  std::unordered_map<const Relation*, std::vector<int64_t>> tables_;
  std::vector<LineageVar> vars_;
  std::vector<double> probs_;
};

// Recursive grounding of an FO formula with an environment binding
// variables to values.
class FoGrounder {
 public:
  FoGrounder(const Database& db, const std::vector<Value>& domain,
             FormulaManager* mgr, VarTable* vars)
      : db_(db), domain_(domain), mgr_(mgr), vars_(vars) {}

  Result<NodeId> Ground(const FoPtr& f,
                        std::map<std::string, Value>* env) {
    switch (f->kind()) {
      case FoKind::kTrue:
        return mgr_->True();
      case FoKind::kFalse:
        return mgr_->False();
      case FoKind::kAtom:
        return GroundAtom(f->atom(), *env);
      case FoKind::kNot: {
        PDB_ASSIGN_OR_RETURN(NodeId c, Ground(f->children()[0], env));
        return mgr_->Not(c);
      }
      case FoKind::kAnd:
      case FoKind::kOr: {
        std::vector<NodeId> kids;
        kids.reserve(f->children().size());
        for (const FoPtr& c : f->children()) {
          PDB_ASSIGN_OR_RETURN(NodeId g, Ground(c, env));
          kids.push_back(g);
        }
        return f->kind() == FoKind::kAnd ? mgr_->And(std::move(kids))
                                         : mgr_->Or(std::move(kids));
      }
      case FoKind::kExists:
      case FoKind::kForall: {
        std::vector<NodeId> kids;
        kids.reserve(domain_.size());
        const std::string& var = f->quantified_var();
        // Shadowing: remember any outer binding and restore it.
        auto outer = env->find(var);
        std::optional<Value> saved;
        if (outer != env->end()) saved = outer->second;
        for (const Value& v : domain_) {
          (*env)[var] = v;
          PDB_ASSIGN_OR_RETURN(NodeId g, Ground(f->children()[0], env));
          kids.push_back(g);
        }
        if (saved.has_value()) {
          (*env)[var] = *saved;
        } else {
          env->erase(var);
        }
        return f->kind() == FoKind::kExists ? mgr_->Or(std::move(kids))
                                            : mgr_->And(std::move(kids));
      }
    }
    return Status::Internal("unreachable FO kind");
  }

 private:
  Result<NodeId> GroundAtom(const Atom& atom,
                            const std::map<std::string, Value>& env) {
    PDB_ASSIGN_OR_RETURN(const Relation* rel, db_.Get(atom.predicate));
    if (rel->arity() != atom.arity()) {
      return Status::InvalidArgument(
          StrFormat("atom %s has arity %zu but relation has arity %zu",
                    atom.ToString().c_str(), atom.arity(), rel->arity()));
    }
    Tuple tuple;
    tuple.reserve(atom.arity());
    for (const Term& t : atom.args) {
      if (t.is_constant()) {
        tuple.push_back(t.constant());
      } else {
        auto it = env.find(t.var());
        if (it == env.end()) {
          return Status::InvalidArgument(
              StrFormat("unbound variable '%s' in atom %s", t.var().c_str(),
                        atom.ToString().c_str()));
        }
        tuple.push_back(it->second);
      }
    }
    auto row = rel->Find(tuple);
    if (!row.ok()) return mgr_->False();  // missing tuple: probability 0
    double p = rel->prob(*row);
    if (p == 1.0) return mgr_->True();
    if (p == 0.0) return mgr_->False();
    return mgr_->Var(vars_->VarFor(atom.predicate, *row, p));
  }

  const Database& db_;
  const std::vector<Value>& domain_;
  FormulaManager* mgr_;
  VarTable* vars_;
};

// The naive backtracking CQ matcher: joins atoms in syntactic order,
// re-derives bound positions per visit, binds variables through a
// name-keyed map. Kept verbatim (minus the old per-visit identity-vector
// allocation for unbound atoms) as the reference the compiled engine is
// differentially tested against: it emits matches in lexicographic order
// of the per-atom row vector, because hash-index buckets list rows in
// ascending order and full scans do too.
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
        return Status::InvalidArgument(
            StrFormat("atom %s arity mismatch with relation (%zu vs %zu)",
                      atoms[i].ToString().c_str(), atoms[i].arity(),
                      relations_[i]->arity()));
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
    // Determine bound positions and their required values; also detect
    // repeated variables within the atom.
    std::vector<size_t> bound_pos;
    Tuple bound_vals;
    for (size_t j = 0; j < atom.args.size(); ++j) {
      const Term& t = atom.args[j];
      if (t.is_constant()) {
        bound_pos.push_back(j);
        bound_vals.push_back(t.constant());
      } else {
        auto it = env_.find(t.var());
        if (it != env_.end()) {
          bound_pos.push_back(j);
          bound_vals.push_back(it->second);
        }
      }
    }
    auto process_row = [&](size_t row) {
      const Tuple& tuple = rel.tuple(row);
      // Bind the free variables of this atom; verify repeated variables.
      std::vector<std::string> newly_bound;
      bool ok = true;
      for (size_t j = 0; j < atom.args.size() && ok; ++j) {
        const Term& t = atom.args[j];
        if (t.is_constant()) continue;
        auto it = env_.find(t.var());
        if (it == env_.end()) {
          env_.emplace(t.var(), tuple[j]);
          newly_bound.push_back(t.var());
        } else {
          ok = (it->second == tuple[j]);
        }
      }
      if (ok) {
        match_.atom_rows[atom_idx] = {atom.predicate, row};
        Recurse(atom_idx + 1, callback);
      }
      for (const std::string& v : newly_bound) env_.erase(v);
    };
    if (!bound_pos.empty()) {
      const HashIndex& index = IndexFor(atom_idx, rel, bound_pos);
      for (size_t row : index.Lookup(bound_vals)) process_row(row);
    } else {
      // Iterate rows directly instead of materialising an identity vector.
      for (size_t row = 0; row < rel.size(); ++row) process_row(row);
    }
  }

  const HashIndex& IndexFor(size_t atom_idx, const Relation& rel,
                            const std::vector<size_t>& bound_pos) {
    auto key = std::make_pair(atom_idx, bound_pos);
    auto it = indexes_.find(key);
    if (it == indexes_.end()) {
      it = indexes_.emplace(key, HashIndex(rel, bound_pos)).first;
    }
    return it->second;
  }

  const ConjunctiveQuery& cq_;
  const Database& db_;
  std::vector<const Relation*> relations_;
  std::map<std::string, Value> env_;
  CqMatch match_;
  std::map<std::pair<size_t, std::vector<size_t>>, HashIndex> indexes_;
};

// ---------------------------------------------------------------------------
// Compiled join programs
// ---------------------------------------------------------------------------

// One column of a join step's index key: either a constant from the query
// or a slot bound by an earlier step.
struct JoinKeyPart {
  uint32_t col = 0;
  int32_t slot = -1;  // >= 0: runtime slot; < 0: use `constant`
  Value constant;
};

// One atom of the compiled program, in execution order. All column
// classification (key / first-binding / repeated-variable check) happens
// once at compile time; the runtime touches dense slot arrays only.
struct JoinStep {
  const Relation* rel = nullptr;
  uint32_t atom_index = 0;  // position in cq.atoms()
  std::vector<size_t> key_cols;
  std::vector<JoinKeyPart> key_parts;  // aligned with key_cols
  /// (column, slot): first occurrence of a variable — bind the slot.
  std::vector<std::pair<uint32_t, uint32_t>> binds;
  /// (column, first column): variable repeated within this atom — verify
  /// equality between the two columns of the candidate tuple itself (the
  /// slot is only bound later in the same visit, so it cannot be used).
  std::vector<std::pair<uint32_t, uint32_t>> checks;
};

// Where a slot's value comes from: the execution step and column that
// first bound it. The columnar executor uses this to pick the dictionary
// whose code space the slot carries.
struct SlotSource {
  uint32_t step = 0;
  uint32_t col = 0;
};

// A CQ lowered to a slot-based join program.
struct CompiledJoin {
  std::vector<JoinStep> steps;           // in execution order
  std::vector<const Relation*> by_atom;  // indexed by original atom index
  std::vector<SlotSource> slot_sources;  // indexed by slot id
  size_t num_slots = 0;
  size_t num_atoms = 0;
  /// Chosen executor path (see ColumnarMode); the executor may still fall
  /// back to rows if a composite key space overflows 64 bits.
  bool use_columnar = false;
  /// Per execution-order step: the cost model's estimated rows per
  /// upstream partial match at ordering time (-1 when no statistics were
  /// consulted). Feeds EXPLAIN's estimate-vs-actual comparison.
  std::vector<double> step_estimates;
};

// Greedy cost-based ordering: at each step pick the atom with the
// smallest estimated result cardinality — relation size divided by the
// distinct-value count of the bound columns (constants plus variables
// bound by already-ordered atoms). With two or more bound columns the
// divisor is the *composite* distinct count (CompositeDistinct on the
// columnar image — the same statistic ColumnarIndex's buckets expose), so
// correlated key pairs are not overestimated the way the classic
// independence product would; a composite that overflows 64 bits falls
// back to the per-column product. Distinct counts come from the columnar
// dictionaries (`stats`, aligned with `atoms`). Ties break towards more
// bound positions (a tighter probe), then the smaller relation, then
// syntactic position — all deterministic. When `stats` is empty (callers
// that skipped the dictionaries) the estimate degrades to the old
// bound-count greedy.
std::vector<size_t> OrderAtoms(
    const std::vector<Atom>& atoms, const std::vector<const Relation*>& rels,
    const std::vector<std::shared_ptr<const ColumnarRelation>>& stats,
    AtomOrderPolicy policy, std::vector<double>* estimates) {
  std::vector<size_t> order(atoms.size());
  estimates->assign(atoms.size(), -1.0);
  if (policy == AtomOrderPolicy::kSyntactic) {
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    return order;
  }
  const bool have_stats = stats.size() == atoms.size();
  std::vector<bool> chosen(atoms.size(), false);
  std::map<std::string, bool> bound_vars;
  for (size_t step = 0; step < atoms.size(); ++step) {
    size_t best = atoms.size();
    double best_est = 0.0;
    size_t best_bound = 0;
    size_t best_size = 0;
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (chosen[i]) continue;
      size_t bound = 0;
      std::vector<size_t> bound_cols;
      for (size_t j = 0; j < atoms[i].args.size(); ++j) {
        const Term& t = atoms[i].args[j];
        if (!t.is_constant() && !bound_vars.count(t.var())) continue;
        ++bound;
        bound_cols.push_back(j);
      }
      double est = static_cast<double>(rels[i]->size());
      if (have_stats && !bound_cols.empty()) {
        // Composite counts are O(rows) scans, memoized on the image.
        size_t composite = bound_cols.size() >= 2
                               ? stats[i]->CompositeDistinct(bound_cols)
                               : 0;
        if (composite > 0) {
          est /= static_cast<double>(composite);
        } else {
          // Single bound column, or composite overflow: independence.
          for (size_t j : bound_cols) {
            size_t distinct = stats[i]->distinct(j);
            est = distinct > 0 ? est / static_cast<double>(distinct) : 0.0;
          }
        }
      }
      bool better;
      if (best == atoms.size()) {
        better = true;
      } else if (have_stats && est != best_est) {
        better = est < best_est;
      } else if (bound != best_bound) {
        better = bound > best_bound;
      } else {
        better = rels[i]->size() < best_size;
      }
      if (better) {
        best = i;
        best_est = est;
        best_bound = bound;
        best_size = rels[i]->size();
      }
    }
    chosen[best] = true;
    order[step] = best;
    if (have_stats) (*estimates)[step] = best_est;
    for (const Term& t : atoms[best].args) {
      if (t.is_variable()) bound_vars[t.var()] = true;
    }
  }
  return order;
}

Result<CompiledJoin> CompileJoin(const ConjunctiveQuery& cq,
                                 const Database& db,
                                 const GroundingOptions& options) {
  const std::vector<Atom>& atoms = cq.atoms();
  CompiledJoin plan;
  plan.num_atoms = atoms.size();
  plan.by_atom.resize(atoms.size());
  size_t max_rows = 0;
  for (size_t i = 0; i < atoms.size(); ++i) {
    PDB_ASSIGN_OR_RETURN(plan.by_atom[i], db.Get(atoms[i].predicate));
    if (plan.by_atom[i]->arity() != atoms[i].arity()) {
      return Status::InvalidArgument(
          StrFormat("atom %s arity mismatch with relation (%zu vs %zu)",
                    atoms[i].ToString().c_str(), atoms[i].arity(),
                    plan.by_atom[i]->arity()));
    }
    max_rows = std::max(max_rows, plan.by_atom[i]->size());
  }
  plan.use_columnar =
      options.columnar == ColumnarMode::kAlways ||
      (options.columnar == ColumnarMode::kAuto &&
       max_rows >= options.columnar_min_rows);
  // Selectivity statistics for the cost model: the per-relation columnar
  // dictionaries, cached on the relations themselves, so the O(n log n)
  // encode is paid once per relation — not per query.
  std::vector<std::shared_ptr<const ColumnarRelation>> stats;
  if (options.order == AtomOrderPolicy::kCostBased) {
    stats.reserve(atoms.size());
    for (const Relation* rel : plan.by_atom) stats.push_back(rel->columnar());
  }
  std::vector<size_t> order = OrderAtoms(atoms, plan.by_atom, stats,
                                         options.order, &plan.step_estimates);
  std::unordered_map<std::string, uint32_t> slot_of_var;
  plan.steps.reserve(atoms.size());
  for (size_t s = 0; s < order.size(); ++s) {
    const size_t i = order[s];
    const Atom& atom = atoms[i];
    JoinStep step;
    step.rel = plan.by_atom[i];
    step.atom_index = static_cast<uint32_t>(i);
    // First column of each variable within this atom, for repeat checks.
    std::unordered_map<std::string, uint32_t> first_col;
    for (size_t j = 0; j < atom.args.size(); ++j) {
      const Term& t = atom.args[j];
      if (t.is_constant()) {
        step.key_cols.push_back(j);
        JoinKeyPart part;
        part.col = static_cast<uint32_t>(j);
        part.constant = t.constant();
        step.key_parts.push_back(std::move(part));
        continue;
      }
      auto in_atom = first_col.find(t.var());
      if (in_atom != first_col.end()) {
        // Repeated variable within this atom: compare the two columns of
        // the candidate tuple directly.
        step.checks.emplace_back(static_cast<uint32_t>(j),
                                 in_atom->second);
        continue;
      }
      first_col.emplace(t.var(), static_cast<uint32_t>(j));
      auto it = slot_of_var.find(t.var());
      if (it == slot_of_var.end()) {
        uint32_t slot = static_cast<uint32_t>(plan.num_slots++);
        slot_of_var.emplace(t.var(), slot);
        step.binds.emplace_back(static_cast<uint32_t>(j), slot);
        plan.slot_sources.push_back(
            {static_cast<uint32_t>(s), static_cast<uint32_t>(j)});
      } else {
        // Bound by an earlier step: part of the index key.
        step.key_cols.push_back(j);
        JoinKeyPart part;
        part.col = static_cast<uint32_t>(j);
        part.slot = static_cast<int32_t>(it->second);
        step.key_parts.push_back(std::move(part));
      }
    }
    plan.steps.push_back(std::move(step));
  }
  return plan;
}

// Runs a compiled join program and materialises the match set in the
// canonical order: lexicographically ascending per-atom row vectors
// (indexed by *original* atom position), which is exactly the order the
// reference matcher streams. Canonicalisation makes downstream VarId
// numbering — and therefore formula structure and DPLL probabilities —
// invariant under join order, executor path, thread count, and cache
// state.
//
// Two execution paths share the control flow. The row path walks stored
// `Tuple` objects and probes `HashIndex` buckets. The vectorized columnar
// path (plan.use_columnar) runs entirely over dictionary codes: slots
// carry `uint32_t` codes, key probes translate codes between column
// dictionaries through precomputed xlat arrays and hit a `ColumnarIndex`
// (CSR for single-column keys — no hashing at all), and repeated-variable
// checks are evaluated once per relation as a batch filter over the code
// arrays instead of per visit. Both paths emit candidate rows in
// ascending row order, so they enumerate the identical match stream.
class JoinExecutor {
 public:
  JoinExecutor(const CompiledJoin& plan, const GroundingOptions& options)
      : plan_(plan),
        exec_(options.exec),
        k_(plan.num_atoms) {}

  // Resolves one hash index per keyed step, through the session cache when
  // the context carries one (misses build under the shard lock; hits are
  // free), otherwise locally for this execution only.
  void PrepareIndexes() {
    IndexCache* cache = exec_ != nullptr ? exec_->index_cache() : nullptr;
    indexes_.resize(plan_.steps.size());
    uint64_t builds = 0;
    uint64_t hits = 0;
    for (size_t s = 0; s < plan_.steps.size(); ++s) {
      const JoinStep& step = plan_.steps[s];
      if (step.key_cols.empty()) continue;
      if (cache != nullptr) {
        bool built = false;
        indexes_[s] = cache->GetOrBuild(*step.rel, step.key_cols, &built);
        built ? ++builds : ++hits;
      } else {
        indexes_[s] =
            std::make_shared<const HashIndex>(*step.rel, step.key_cols);
        ++builds;
      }
    }
    if (exec_ != nullptr) {
      if (builds > 0) exec_->AddIndexBuilds(builds);
      if (hits > 0) exec_->AddIndexCacheHits(hits);
    }
  }

  void Run(const GroundingOptions& options) {
    if (k_ == 0) {
      // An empty conjunction is `true`: exactly one empty match.
      empty_cq_ = true;
      if (exec_ != nullptr) exec_->AddLineageMatches(1);
      RecordProfile(options);
      return;
    }
    step_rows_.assign(plan_.steps.size(), 0);
    // PrepareColumnar declines when a composite key space overflows 64
    // bits; the row path handles those (astronomically wide) keys.
    columnar_ = plan_.use_columnar && PrepareColumnar();
    if (impossible_) {
      // A query constant is absent from its column's dictionary: no row
      // of that step can ever match, so the whole CQ has zero matches.
      if (exec_ != nullptr) exec_->AddLineageMatches(0);
      RecordProfile(options);
      return;
    }
    if (!columnar_) PrepareIndexes();
    // Candidate rows of the first step: an index bucket when the step has
    // a (necessarily all-constant) key, the whole relation otherwise —
    // pre-filtered by the batch check mask on the columnar path.
    const JoinStep& first = plan_.steps[0];
    const std::vector<size_t>* bucket = nullptr;  // row path
    const uint32_t* cbase = nullptr;              // columnar path
    size_t candidates = first.rel->size();
    Tuple const_key;
    if (columnar_) {
      const ColumnarStep& cs = csteps_[0];
      if (!first.key_cols.empty()) {
        uint64_t code = 0;
        for (const ColumnarPart& part : cs.parts) {
          code += part.radix * part.const_code;
        }
        size_t count = 0;
        cs.index->Lookup(code, &cbase, &count);
        candidates = count;
      } else if (cs.use_filtered) {
        cbase = cs.filtered.data();
        candidates = cs.filtered.size();
      }
    } else if (!first.key_cols.empty()) {
      for (const JoinKeyPart& part : first.key_parts) {
        const_key.push_back(part.constant);
      }
      bucket = &indexes_[0]->Lookup(const_key);
      candidates = bucket->size();
    }
    size_t chunks = 1;
    // A one-worker pool cannot overlap anything with the caller, so the
    // fan-out would be pure chunking overhead.
    if (exec_ != nullptr && exec_->pool() != nullptr &&
        exec_->pool()->num_threads() >= 2 &&
        candidates >= options.parallel_min_rows) {
      size_t width = exec_->pool()->num_threads() + 1;  // caller joins in
      chunks = std::min(candidates, 4 * width);
    }
    if (chunks <= 1) {
      WorkerState ws = MakeWorkerState();
      ws.out = &buf_;
      if (columnar_) {
        RunRangeColumnar(ws, cbase, 0, candidates);
      } else {
        RunRange(ws, bucket, 0, candidates);
      }
      step_rows_ = std::move(ws.step_rows);
    } else {
      // Each chunk grounds a contiguous range of first-step candidates
      // into a private buffer; buffers concatenate in chunk order and the
      // per-step match counts sum.
      struct ChunkRun {
        std::vector<uint32_t> out;
        std::vector<uint64_t> step_rows;
      };
      std::vector<ChunkRun> parts =
          ParallelMap<ChunkRun>(exec_, chunks, [&](size_t c) {
            size_t begin = candidates * c / chunks;
            size_t end = candidates * (c + 1) / chunks;
            ChunkRun r;
            WorkerState ws = MakeWorkerState();
            ws.out = &r.out;
            if (columnar_) {
              RunRangeColumnar(ws, cbase, begin, end);
            } else {
              RunRange(ws, bucket, begin, end);
            }
            r.step_rows = std::move(ws.step_rows);
            return r;
          });
      size_t total = 0;
      for (const auto& part : parts) total += part.out.size();
      buf_.reserve(total);
      for (auto& part : parts) {
        buf_.insert(buf_.end(), part.out.begin(), part.out.end());
        for (size_t s = 0; s < part.step_rows.size(); ++s) {
          step_rows_[s] += part.step_rows[s];
        }
      }
    }
    Canonicalize();
    if (exec_ != nullptr) exec_->AddLineageMatches(num_matches());
    RecordProfile(options);
  }

  size_t num_matches() const {
    return empty_cq_ ? 1 : (k_ == 0 ? 0 : buf_.size() / k_);
  }

  /// Rows of canonical match `m`, indexed by original atom position.
  const uint32_t* MatchAt(size_t m) const {
    size_t physical = perm_.empty() ? m : perm_[m];
    return buf_.data() + physical * k_;
  }

  /// Visits matches in canonical order on the calling thread.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (empty_cq_) {
      fn(static_cast<const uint32_t*>(nullptr));
      return;
    }
    const size_t n = num_matches();
    for (size_t m = 0; m < n; ++m) fn(MatchAt(m));
  }

 private:
  struct WorkerState {
    std::vector<const Value*> slots;   // row path: pointers into tuples
    std::vector<uint32_t> cslots;      // columnar path: dictionary codes
    std::vector<Tuple> keys;     // per step, pre-sized key buffers
    std::vector<uint32_t> rows;  // per original atom index
    /// Per execution-order step: rows entered (partial matches that
    /// survived the step). Feeds EXPLAIN ANALYZE's actual cardinalities.
    std::vector<uint64_t> step_rows;
    std::vector<uint32_t>* out = nullptr;
  };

  // One key part on the columnar path: a pre-coded constant, or a slot
  // whose source-dictionary codes translate into this key column's
  // dictionary through `xlat`.
  struct ColumnarPart {
    int32_t slot = -1;        // < 0: use const_code
    uint32_t const_code = 0;  // code of the constant in the key column
    uint64_t radix = 1;       // mixed-radix multiplier of this part
    std::vector<uint32_t> xlat;
  };

  // One bind on the columnar path: write the column's code array entry
  // into the slot.
  struct ColumnarBind {
    const uint32_t* codes = nullptr;
    uint32_t slot = 0;
  };

  // Per-step columnar execution state.
  struct ColumnarStep {
    std::shared_ptr<const ColumnarRelation> cols;
    std::shared_ptr<const ColumnarIndex> index;  // keyed steps only
    std::vector<ColumnarPart> parts;             // aligned with key_parts
    std::vector<ColumnarBind> binds;
    // Repeated-variable checks, evaluated once per execution as a batch
    // filter over the code arrays: keyed steps keep a row mask consulted
    // on each bucket visit; keyless steps shrink to the passing row list
    // outright (so per-visit scans skip failing rows entirely).
    std::vector<uint8_t> pass;       // keyed steps with checks
    std::vector<uint32_t> filtered;  // keyless steps with checks
    bool use_filtered = false;
  };

  WorkerState MakeWorkerState() const {
    WorkerState ws;
    if (columnar_) {
      ws.cslots.resize(plan_.num_slots, 0);
    } else {
      ws.slots.resize(plan_.num_slots, nullptr);
      ws.keys.resize(plan_.steps.size());
      for (size_t s = 0; s < plan_.steps.size(); ++s) {
        ws.keys[s].resize(plan_.steps[s].key_cols.size());
      }
    }
    ws.rows.resize(k_);
    ws.step_rows.assign(plan_.steps.size(), 0);
    return ws;
  }

  // Resolves the columnar image, code index, translation tables, and batch
  // check filters of every step. Returns false to fall back to the row
  // path (composite key code would overflow 64 bits). Sets `impossible_`
  // when a query constant is absent from its column's dictionary.
  bool PrepareColumnar() {
    IndexCache* cache = exec_ != nullptr ? exec_->index_cache() : nullptr;
    uint64_t builds = 0;
    uint64_t hits = 0;
    csteps_.assign(plan_.steps.size(), ColumnarStep{});
    // Pass 1: columnar images — key-part translation tables of later
    // steps need the source step's dictionaries.
    for (size_t s = 0; s < plan_.steps.size(); ++s) {
      const JoinStep& step = plan_.steps[s];
      if (cache != nullptr) {
        bool built = false;
        csteps_[s].cols = cache->GetOrBuildColumnar(*step.rel, &built);
        built ? ++builds : ++hits;
      } else {
        csteps_[s].cols = step.rel->columnar();
      }
    }
    bool ok = true;
    for (size_t s = 0; s < plan_.steps.size() && ok; ++s) {
      const JoinStep& step = plan_.steps[s];
      ColumnarStep& cs = csteps_[s];
      const ColumnarRelation& cols = *cs.cols;
      if (!step.key_cols.empty()) {
        if (cache != nullptr) {
          bool built = false;
          cs.index =
              cache->GetOrBuildColumnarIndex(*step.rel, step.key_cols,
                                             &built);
          built ? ++builds : ++hits;
        } else {
          cs.index =
              std::make_shared<const ColumnarIndex>(cs.cols, step.key_cols);
        }
        if (cs.index->composite_overflow()) {
          ok = false;
          break;
        }
        cs.parts.resize(step.key_parts.size());
        for (size_t p = 0; p < step.key_parts.size(); ++p) {
          const JoinKeyPart& part = step.key_parts[p];
          ColumnarPart& cp = cs.parts[p];
          cp.radix = cs.index->radix(p);
          cp.slot = part.slot;
          if (part.slot < 0) {
            cp.const_code = cols.CodeOf(step.key_cols[p], part.constant);
            if (cp.const_code == ColumnarRelation::kNoCode) {
              impossible_ = true;
            }
          } else {
            const SlotSource& src = plan_.slot_sources[part.slot];
            cp.xlat = BuildCodeTranslation(
                csteps_[src.step].cols->dict(src.col),
                cols.dict(step.key_cols[p]));
          }
        }
      }
      cs.binds.reserve(step.binds.size());
      for (const auto& [col, slot] : step.binds) {
        cs.binds.push_back({cols.codes(col).data(), slot});
      }
      if (!step.checks.empty()) {
        const size_t n = cols.num_rows();
        std::vector<uint8_t> pass(n, 1);
        for (const auto& [col, first] : step.checks) {
          std::vector<uint32_t> xlat =
              BuildCodeTranslation(cols.dict(first), cols.dict(col));
          const uint32_t* f = cols.codes(first).data();
          const uint32_t* c = cols.codes(col).data();
          // kNoCode never equals a valid code, so "first's value absent
          // from col's dictionary" fails the row without a branch.
          for (size_t row = 0; row < n; ++row) {
            if (xlat[f[row]] != c[row]) pass[row] = 0;
          }
        }
        if (step.key_cols.empty()) {
          for (size_t row = 0; row < n; ++row) {
            if (pass[row]) cs.filtered.push_back(static_cast<uint32_t>(row));
          }
          cs.use_filtered = true;
        } else {
          cs.pass = std::move(pass);
        }
      }
    }
    if (exec_ != nullptr) {
      if (builds > 0) exec_->AddIndexBuilds(builds);
      if (hits > 0) exec_->AddIndexCacheHits(hits);
    }
    return ok;
  }

  // Equality checks for repeated variables, then slot binding. Slots are
  // pointers into stored tuples, so a bind is one pointer store and there
  // is nothing to undo on backtrack (re-entry overwrites).
  bool EnterRow(const JoinStep& step, size_t row, WorkerState& ws) const {
    const Tuple& tuple = step.rel->tuple(row);
    for (const auto& [col, first] : step.checks) {
      if (!(tuple[col] == tuple[first])) return false;
    }
    for (const auto& [col, slot] : step.binds) {
      ws.slots[slot] = &tuple[col];
    }
    ws.rows[step.atom_index] = static_cast<uint32_t>(row);
    return true;
  }

  void RunRange(WorkerState& ws, const std::vector<size_t>* bucket,
                size_t begin, size_t end) const {
    const JoinStep& first = plan_.steps[0];
    for (size_t i = begin; i < end; ++i) {
      size_t row = bucket != nullptr ? (*bucket)[i] : i;
      if (EnterRow(first, row, ws)) {
        ++ws.step_rows[0];
        RunFrom(1, ws);
      }
    }
  }

  void RunFrom(size_t s, WorkerState& ws) const {
    if (s == plan_.steps.size()) {
      ws.out->insert(ws.out->end(), ws.rows.begin(), ws.rows.end());
      return;
    }
    const JoinStep& step = plan_.steps[s];
    if (step.key_cols.empty()) {
      const size_t n = step.rel->size();
      for (size_t row = 0; row < n; ++row) {
        if (EnterRow(step, row, ws)) {
          ++ws.step_rows[s];
          RunFrom(s + 1, ws);
        }
      }
      return;
    }
    Tuple& key = ws.keys[s];
    for (size_t p = 0; p < step.key_parts.size(); ++p) {
      const JoinKeyPart& part = step.key_parts[p];
      key[p] = part.slot < 0 ? part.constant : *ws.slots[part.slot];
    }
    for (size_t row : indexes_[s]->Lookup(key)) {
      if (EnterRow(step, row, ws)) {
        ++ws.step_rows[s];
        RunFrom(s + 1, ws);
      }
    }
  }

  // --- Vectorized path: the loops below touch only uint32 code arrays. ---

  // Batch-filter mask (keyed steps), then binds. Keyless steps with checks
  // never reach the mask test: their candidate list is pre-filtered.
  bool EnterRowColumnar(const ColumnarStep& cs, const JoinStep& step,
                        size_t row, WorkerState& ws) const {
    if (!cs.pass.empty() && cs.pass[row] == 0) return false;
    for (const ColumnarBind& bind : cs.binds) {
      ws.cslots[bind.slot] = bind.codes[row];
    }
    ws.rows[step.atom_index] = static_cast<uint32_t>(row);
    return true;
  }

  // First-step candidates: `base[i]` rows when base is non-null (an index
  // bucket or a pre-filtered row list), row `i` itself otherwise.
  void RunRangeColumnar(WorkerState& ws, const uint32_t* base, size_t begin,
                        size_t end) const {
    const JoinStep& first = plan_.steps[0];
    const ColumnarStep& cs = csteps_[0];
    if (plan_.steps.size() == 1) {
      uint32_t* slot_row = &ws.rows[first.atom_index];
      for (size_t i = begin; i < end; ++i) {
        uint32_t row = base != nullptr ? base[i] : static_cast<uint32_t>(i);
        if (!cs.pass.empty() && cs.pass[row] == 0) continue;
        *slot_row = row;
        ++ws.step_rows[0];
        ws.out->insert(ws.out->end(), ws.rows.begin(), ws.rows.end());
      }
      return;
    }
    for (size_t i = begin; i < end; ++i) {
      uint32_t row = base != nullptr ? base[i] : static_cast<uint32_t>(i);
      if (EnterRowColumnar(cs, first, row, ws)) {
        ++ws.step_rows[0];
        RunFromColumnar(1, ws);
      }
    }
  }

  void RunFromColumnar(size_t s, WorkerState& ws) const {
    const JoinStep& step = plan_.steps[s];
    const ColumnarStep& cs = csteps_[s];
    // Candidate rows of this step, as a dense uint32 span: an index bucket
    // (CSR slice or hash bucket) when keyed, the pre-filtered row list or
    // the whole relation otherwise. null base = identity rows [0, count).
    const uint32_t* base = nullptr;
    size_t count = 0;
    if (!step.key_cols.empty()) {
      uint64_t code = 0;
      for (const ColumnarPart& part : cs.parts) {
        uint32_t c = part.slot < 0 ? part.const_code
                                   : part.xlat[ws.cslots[part.slot]];
        // The slot's value is absent from this key column's dictionary:
        // no row of this relation can match the current binding.
        if (c == ColumnarRelation::kNoCode) return;
        code += part.radix * c;
      }
      cs.index->Lookup(code, &base, &count);
    } else if (cs.use_filtered) {
      base = cs.filtered.data();
      count = cs.filtered.size();
    } else {
      count = cs.cols->num_rows();
    }
    if (s + 1 == plan_.steps.size()) {
      // Final step: its binds feed no later probe, so a match is pure
      // row-id bookkeeping — a tight loop with no tuple materialisation.
      uint32_t* slot_row = &ws.rows[step.atom_index];
      for (size_t i = 0; i < count; ++i) {
        uint32_t row = base != nullptr ? base[i] : static_cast<uint32_t>(i);
        if (!cs.pass.empty() && cs.pass[row] == 0) continue;
        *slot_row = row;
        ++ws.step_rows[s];
        ws.out->insert(ws.out->end(), ws.rows.begin(), ws.rows.end());
      }
      return;
    }
    for (size_t i = 0; i < count; ++i) {
      uint32_t row = base != nullptr ? base[i] : static_cast<uint32_t>(i);
      if (EnterRowColumnar(cs, step, row, ws)) {
        ++ws.step_rows[s];
        RunFromColumnar(s + 1, ws);
      }
    }
  }

  // Sorts the match set into canonical (lexicographic) order when the
  // enumeration order deviated from it. With the syntactic join order the
  // stream is already canonical — chunk ranges ascend on the first atom's
  // row and each chunk streams in order — so the common case is a linear
  // is_sorted scan and no permutation.
  void Canonicalize() {
    const size_t n = k_ == 0 ? 0 : buf_.size() / k_;
    if (n <= 1) return;
    auto less = [&](size_t a, size_t b) {
      const uint32_t* pa = buf_.data() + a * k_;
      const uint32_t* pb = buf_.data() + b * k_;
      for (size_t i = 0; i < k_; ++i) {
        if (pa[i] != pb[i]) return pa[i] < pb[i];
      }
      return false;
    };
    bool sorted = true;
    for (size_t m = 1; m < n && sorted; ++m) {
      if (less(m, m - 1)) sorted = false;
    }
    if (sorted) return;
    perm_.resize(n);
    for (size_t m = 0; m < n; ++m) perm_[m] = m;
    std::sort(perm_.begin(), perm_.end(), less);
  }

  // Reports the executed plan — estimates next to actuals, executor-path
  // attribution — into the context's JoinProfile when one is attached.
  void RecordProfile(const GroundingOptions& options) const {
    if (exec_ == nullptr || exec_->join_profile() == nullptr) return;
    JoinPlanProfile profile;
    profile.executed = true;
    profile.use_columnar = plan_.use_columnar;
    profile.columnar_engaged = columnar_;
    profile.matches = num_matches();
    if (impossible_) {
      profile.fallback_reason =
          "query constant absent from dictionary: zero matches";
    } else if (!columnar_ && k_ > 0) {
      if (plan_.use_columnar) {
        profile.fallback_reason =
            "composite key space overflows 64 bits; row path";
      } else if (options.columnar == ColumnarMode::kNever) {
        profile.fallback_reason = "columnar disabled";
      } else {
        profile.fallback_reason =
            "largest relation below columnar_min_rows threshold";
      }
    }
    profile.steps.reserve(plan_.steps.size());
    for (size_t s = 0; s < plan_.steps.size(); ++s) {
      JoinStepProfile sp;
      sp.atom_index = plan_.steps[s].atom_index;
      sp.predicate = plan_.steps[s].rel->name();
      sp.relation_rows = plan_.steps[s].rel->size();
      sp.estimated_rows =
          s < plan_.step_estimates.size() ? plan_.step_estimates[s] : -1.0;
      sp.actual_rows = s < step_rows_.size() ? step_rows_[s] : 0;
      profile.steps.push_back(std::move(sp));
    }
    exec_->join_profile()->AddPlan(std::move(profile));
  }

  const CompiledJoin& plan_;
  ExecContext* exec_;
  const size_t k_;
  bool empty_cq_ = false;
  bool columnar_ = false;    // vectorized path engaged for this run
  bool impossible_ = false;  // a constant missed its dictionary: 0 matches
  std::vector<std::shared_ptr<const HashIndex>> indexes_;
  std::vector<ColumnarStep> csteps_;
  std::vector<uint64_t> step_rows_;  // per-step entered rows, summed
  std::vector<uint32_t> buf_;  // k_ row ids per match, enumeration order
  std::vector<size_t> perm_;   // canonical -> physical; empty = identity
};

}  // namespace

Result<Lineage> BuildLineage(const FoPtr& sentence, const Database& db,
                             FormulaManager* mgr,
                             const std::vector<Value>* domain) {
  if (!sentence->FreeVariables().empty()) {
    return Status::InvalidArgument(
        "lineage requires a sentence without free variables");
  }
  std::vector<Value> active;
  if (domain == nullptr) {
    active = db.ActiveDomain();
    domain = &active;
  }
  VarTable vars;
  FoGrounder grounder(db, *domain, mgr, &vars);
  std::map<std::string, Value> env;
  PDB_ASSIGN_OR_RETURN(NodeId root, grounder.Ground(sentence, &env));
  Lineage lineage;
  lineage.root = root;
  lineage.vars = vars.TakeVars();
  lineage.probs = vars.TakeProbs();
  return lineage;
}

Status EnumerateCqMatchesReference(
    const ConjunctiveQuery& cq, const Database& db,
    const std::function<void(const CqMatch&)>& callback) {
  ReferenceCqMatcher matcher(cq, db);
  return matcher.Run(callback);
}

Status EnumerateCqMatches(const ConjunctiveQuery& cq, const Database& db,
                          const std::function<void(const CqMatch&)>& callback,
                          const GroundingOptions& options) {
  PDB_ASSIGN_OR_RETURN(CompiledJoin plan,
                       CompileJoin(cq, db, options));
  JoinExecutor ex(plan, options);
  ex.Run(options);
  CqMatch match;
  match.atom_rows.resize(plan.num_atoms);
  for (size_t i = 0; i < plan.num_atoms; ++i) {
    match.atom_rows[i].relation = cq.atoms()[i].predicate;
  }
  ex.ForEach([&](const uint32_t* rows) {
    for (size_t i = 0; i < plan.num_atoms; ++i) {
      match.atom_rows[i].row = rows[i];
    }
    callback(match);
  });
  return Status::OK();
}

Result<JoinPlanProfile> PlanCqJoin(const ConjunctiveQuery& cq,
                                   const Database& db,
                                   const GroundingOptions& options) {
  PDB_ASSIGN_OR_RETURN(CompiledJoin plan, CompileJoin(cq, db, options));
  JoinPlanProfile profile;
  profile.executed = false;
  profile.use_columnar = plan.use_columnar;
  if (!plan.use_columnar && plan.num_atoms > 0) {
    profile.fallback_reason =
        options.columnar == ColumnarMode::kNever
            ? "columnar disabled"
            : "largest relation below columnar_min_rows threshold";
  }
  profile.steps.reserve(plan.steps.size());
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    JoinStepProfile sp;
    sp.atom_index = plan.steps[s].atom_index;
    sp.predicate = plan.steps[s].rel->name();
    sp.relation_rows = plan.steps[s].rel->size();
    sp.estimated_rows =
        s < plan.step_estimates.size() ? plan.step_estimates[s] : -1.0;
    profile.steps.push_back(std::move(sp));
  }
  return profile;
}

Result<Lineage> BuildUcqLineage(const Ucq& ucq, const Database& db,
                                FormulaManager* mgr,
                                const GroundingOptions& options) {
  ExecContext* exec = options.exec;
  const size_t nodes_before = mgr->NumNodes();
  DenseVarTable vars;
  std::vector<NodeId> disjunct_nodes;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    PDB_ASSIGN_OR_RETURN(CompiledJoin plan,
                         CompileJoin(cq, db, options));
    JoinExecutor ex(plan, options);
    ex.Run(options);
    const size_t k = plan.num_atoms;
    const size_t num_matches = ex.num_matches();
    std::vector<NodeId> term_nodes;
    term_nodes.reserve(num_matches);
    const bool parallel_build =
        exec != nullptr && exec->pool() != nullptr &&
        exec->pool()->num_threads() >= 2 && k > 0 &&
        num_matches >= options.parallel_min_matches;
    if (!parallel_build) {
      std::vector<NodeId> lits;
      ex.ForEach([&](const uint32_t* rows) {
        lits.clear();
        for (size_t i = 0; i < k; ++i) {
          const Relation* rel = plan.by_atom[i];
          double p = rel->prob(rows[i]);
          if (p == 1.0) continue;  // certain tuple contributes no literal
          lits.push_back(mgr->Var(vars.VarFor(rel, rows[i])));
        }
        term_nodes.push_back(mgr->And(lits));
      });
    } else {
      // Two-phase parallel construction. Phase 1 (sequential, cheap):
      // assign VarIds in canonical first-use order, so every worker shares
      // one global numbering. Phase 2: workers build their chunk's term
      // nodes in private managers; the owner absorbs the chunks in order.
      // AbsorbFrom replays nodes through the simplifying constructors, so
      // the merged manager state — ids included — is exactly what the
      // sequential loop above would have produced.
      ex.ForEach([&](const uint32_t* rows) {
        for (size_t i = 0; i < k; ++i) {
          const Relation* rel = plan.by_atom[i];
          if (rel->prob(rows[i]) == 1.0) continue;
          vars.VarFor(rel, rows[i]);
        }
      });
      struct ChunkBuild {
        std::unique_ptr<FormulaManager> mgr;
        std::vector<NodeId> roots;  // one per match of the chunk
      };
      const size_t width = exec->pool()->num_threads() + 1;
      const size_t chunks = std::min(num_matches, 2 * width);
      std::vector<ChunkBuild> built =
          ParallelMap<ChunkBuild>(exec, chunks, [&](size_t c) {
            ChunkBuild out;
            out.mgr = std::make_unique<FormulaManager>();
            size_t begin = num_matches * c / chunks;
            size_t end = num_matches * (c + 1) / chunks;
            out.roots.reserve(end - begin);
            std::vector<NodeId> lits;
            for (size_t m = begin; m < end; ++m) {
              const uint32_t* rows = ex.MatchAt(m);
              lits.clear();
              for (size_t i = 0; i < k; ++i) {
                const Relation* rel = plan.by_atom[i];
                if (rel->prob(rows[i]) == 1.0) continue;
                lits.push_back(out.mgr->Var(vars.IdOf(rel, rows[i])));
              }
              out.roots.push_back(out.mgr->And(lits));
            }
            return out;
          });
      for (const ChunkBuild& chunk : built) {
        std::vector<NodeId> mapped = mgr->AbsorbFrom(*chunk.mgr,
                                                     chunk.roots);
        term_nodes.insert(term_nodes.end(), mapped.begin(), mapped.end());
      }
    }
    disjunct_nodes.push_back(mgr->Or(std::move(term_nodes)));
  }
  Lineage lineage;
  lineage.root = mgr->Or(std::move(disjunct_nodes));
  lineage.vars = vars.TakeVars();
  lineage.probs = vars.TakeProbs();
  if (exec != nullptr) {
    exec->AddLineageNodes(mgr->NumNodes() - nodes_before);
  }
  return lineage;
}

Result<DnfLineage> BuildUcqDnf(const Ucq& ucq, const Database& db,
                               const GroundingOptions& options) {
  DenseVarTable vars;
  DnfLineage out;
  for (const ConjunctiveQuery& cq : ucq.disjuncts()) {
    PDB_ASSIGN_OR_RETURN(CompiledJoin plan,
                         CompileJoin(cq, db, options));
    JoinExecutor ex(plan, options);
    ex.Run(options);
    const size_t k = plan.num_atoms;
    ex.ForEach([&](const uint32_t* rows) {
      std::vector<VarId> term;
      term.reserve(k);
      for (size_t i = 0; i < k; ++i) {
        term.push_back(vars.VarFor(plan.by_atom[i], rows[i]));
      }
      std::sort(term.begin(), term.end());
      term.erase(std::unique(term.begin(), term.end()), term.end());
      out.terms.push_back(std::move(term));
    });
  }
  out.vars = vars.TakeVars();
  out.probs = vars.TakeProbs();
  if (options.exec != nullptr) {
    options.exec->AddLineageNodes(out.terms.size() + out.vars.size());
  }
  return out;
}

}  // namespace pdb

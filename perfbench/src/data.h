// The benchmark's seeded tuple-independent database and the closed-form
// probabilities its answer checks compare against.
//
// Schema: R(g,x), S(g,x,y), T(g,y), split into independent groups g. A
// group of width k holds k R tuples, k*k S tuples and k T tuples; most
// groups are small (k = 4) and a seeded subset is hard (k = 7). Every
// tuple probability is uniform in [0.1, 0.9]. A constant g in a query
// selects one group, so the benchmark can send many distinct queries of
// the same shape. The closed forms below are computed from the generated
// probabilities alone, never from the engine.

#ifndef PERFBENCH_DATA_H_
#define PERFBENCH_DATA_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/pdb.h"
#include "storage/relation.h"

namespace perfbench {

inline constexpr int kGroups = 2000;
inline constexpr int kHardGroups = 256;
inline constexpr int kSmallWidth = 4;
inline constexpr int kHardWidth = 7;

/// SplitMix64: a small, platform-independent seeded generator, so the same
/// seed gives the same inputs on every machine.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1p-53; }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from a base seed and a tag.
uint64_t MixSeed(uint64_t seed, uint64_t tag);

struct Group {
  int id = 0;
  int k = 0;
  std::vector<double> r;  // r[x]
  std::vector<double> t;  // t[y]
  std::vector<double> s;  // s[x * k + y]
  double S(int x, int y) const { return s[static_cast<size_t>(x * k + y)]; }
};

struct Dataset {
  std::vector<Group> groups;  // index == group id
  std::vector<int> small;     // ids of k = 4 groups, ascending
  std::vector<int> hard;      // ids of k = 7 groups, ascending
  size_t TupleCount() const;
};

Dataset MakeDataset(uint64_t seed);

/// R, S and T over the given groups, rows in group order (all groups when
/// `only` is empty).
std::vector<pdb::Relation> BuildRelations(const Dataset& data,
                                          const std::vector<int>& only = {});

/// A database holding one group only: the reference for exact answers. Row
/// order within the group matches the full database, so the grounded
/// lineage (and therefore the DPLL result) is the same.
std::unique_ptr<pdb::ProbDatabase> GroupDatabase(const Dataset& data,
                                                 int group);

// Closed forms over one group's probabilities.
double ProbR(const Group& g);                  // R(c,x)
double ProbT(const Group& g);                  // T(c,y)
double ProbRS(const Group& g);                 // R(c,x), S(c,x,y)
double ProbST(const Group& g);                 // S(c,x,y), T(c,y)
double ProbAnswerX(const Group& g, int x);     // exists y: R(c,x), S(c,x,y)
/// H0 R(c,x), S(c,x,y), T(c,y) by summing over every R and T world
/// (2^(2k) terms; 16384 for a hard group).
double ProbH0(const Group& g);

}  // namespace perfbench

#endif  // PERFBENCH_DATA_H_

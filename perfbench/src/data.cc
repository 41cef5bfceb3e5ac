#include "data.h"

#include <algorithm>
#include <cstdlib>
#include <cstdio>

namespace perfbench {

namespace {

void CheckOk(const pdb::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

pdb::Value Int(int v) { return pdb::Value(static_cast<int64_t>(v)); }

/// 1 - prod(1 - p_i): the probability that at least one independent event
/// of the list happens.
double AnyOf(const std::vector<double>& ps) {
  double none = 1.0;
  for (double p : ps) none *= 1.0 - p;
  return 1.0 - none;
}

}  // namespace

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t MixSeed(uint64_t seed, uint64_t tag) {
  SplitMix mix(seed * 0x100000001b3ULL ^ (tag + 0x51ed270b27f1ULL));
  return mix.Next();
}

size_t Dataset::TupleCount() const {
  size_t n = 0;
  for (const Group& g : groups) n += static_cast<size_t>(2 * g.k + g.k * g.k);
  return n;
}

Dataset MakeDataset(uint64_t seed) {
  Dataset data;
  // Seeded choice of the hard groups: a partial Fisher-Yates shuffle.
  std::vector<int> ids(kGroups);
  for (int i = 0; i < kGroups; ++i) ids[i] = i;
  SplitMix pick(MixSeed(seed, 1));
  for (int i = 0; i < kHardGroups; ++i) {
    int j = i + static_cast<int>(pick.Below(kGroups - i));
    std::swap(ids[i], ids[j]);
  }
  std::vector<bool> is_hard(kGroups, false);
  for (int i = 0; i < kHardGroups; ++i) is_hard[ids[i]] = true;

  SplitMix prob(MixSeed(seed, 2));
  auto p = [&] { return 0.1 + 0.8 * prob.NextDouble(); };
  data.groups.resize(kGroups);
  for (int id = 0; id < kGroups; ++id) {
    Group& g = data.groups[id];
    g.id = id;
    g.k = is_hard[id] ? kHardWidth : kSmallWidth;
    for (int x = 0; x < g.k; ++x) g.r.push_back(p());
    for (int y = 0; y < g.k; ++y) g.t.push_back(p());
    for (int i = 0; i < g.k * g.k; ++i) g.s.push_back(p());
    (is_hard[id] ? data.hard : data.small).push_back(id);
  }
  return data;
}

std::vector<pdb::Relation> BuildRelations(const Dataset& data,
                                          const std::vector<int>& only) {
  pdb::Relation r("R", pdb::Schema::Anonymous(2));
  pdb::Relation s("S", pdb::Schema::Anonymous(3));
  pdb::Relation t("T", pdb::Schema::Anonymous(2));
  auto add = [&](const Group& g) {
    for (int x = 0; x < g.k; ++x) {
      CheckOk(r.AddTuple({Int(g.id), Int(x)}, g.r[x]), "R tuple");
    }
    for (int x = 0; x < g.k; ++x) {
      for (int y = 0; y < g.k; ++y) {
        CheckOk(s.AddTuple({Int(g.id), Int(x), Int(y)}, g.S(x, y)),
                "S tuple");
      }
    }
    for (int y = 0; y < g.k; ++y) {
      CheckOk(t.AddTuple({Int(g.id), Int(y)}, g.t[y]), "T tuple");
    }
  };
  if (only.empty()) {
    for (const Group& g : data.groups) add(g);
  } else {
    for (int id : only) add(data.groups[id]);
  }
  std::vector<pdb::Relation> out;
  out.push_back(std::move(r));
  out.push_back(std::move(s));
  out.push_back(std::move(t));
  return out;
}

std::unique_ptr<pdb::ProbDatabase> GroupDatabase(const Dataset& data,
                                                 int group) {
  auto db = std::make_unique<pdb::ProbDatabase>();
  for (pdb::Relation& rel : BuildRelations(data, {group})) {
    CheckOk(db->AddRelation(std::move(rel)), "group relation");
  }
  return db;
}

double ProbR(const Group& g) { return AnyOf(g.r); }

double ProbT(const Group& g) { return AnyOf(g.t); }

double ProbAnswerX(const Group& g, int x) {
  std::vector<double> row;
  for (int y = 0; y < g.k; ++y) row.push_back(g.S(x, y));
  return g.r[x] * AnyOf(row);
}

double ProbRS(const Group& g) {
  std::vector<double> per_x;
  for (int x = 0; x < g.k; ++x) per_x.push_back(ProbAnswerX(g, x));
  return AnyOf(per_x);
}

double ProbST(const Group& g) {
  std::vector<double> per_y;
  for (int y = 0; y < g.k; ++y) {
    std::vector<double> column;
    for (int x = 0; x < g.k; ++x) column.push_back(g.S(x, y));
    per_y.push_back(g.t[y] * AnyOf(column));
  }
  return AnyOf(per_y);
}

double ProbH0(const Group& g) {
  const int k = g.k;
  const uint32_t worlds = 1u << k;
  // Probability of each R world (bit x set = R(c,x) present), same for T.
  auto world_probs = [&](const std::vector<double>& ps) {
    std::vector<double> out(worlds);
    for (uint32_t w = 0; w < worlds; ++w) {
      double p = 1.0;
      for (int i = 0; i < k; ++i) p *= (w >> i & 1) ? ps[i] : 1.0 - ps[i];
      out[w] = p;
    }
    return out;
  };
  std::vector<double> pr = world_probs(g.r);
  std::vector<double> pt = world_probs(g.t);
  double total = 0.0;
  for (uint32_t a = 0; a < worlds; ++a) {
    for (uint32_t b = 0; b < worlds; ++b) {
      // Given the R world a and T world b, H0 fails iff no S(c,x,y) with
      // x in a and y in b is present.
      double none = 1.0;
      for (int x = 0; x < k; ++x) {
        if (!(a >> x & 1)) continue;
        for (int y = 0; y < k; ++y) {
          if (b >> y & 1) none *= 1.0 - g.S(x, y);
        }
      }
      total += pr[a] * pt[b] * (1.0 - none);
    }
  }
  return total;
}

}  // namespace perfbench

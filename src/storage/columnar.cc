#include "storage/columnar.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "storage/relation.h"
#include "util/check.h"

namespace pdb {

std::shared_ptr<const ColumnarRelation> ColumnarRelation::Build(
    const Relation& rel) {
  auto image = std::make_shared<ColumnarRelation>();
  image->num_rows_ = rel.size();
  image->columns_.resize(rel.arity());
  for (size_t col = 0; col < rel.arity(); ++col) {
    Column& column = image->columns_[col];
    // An ordered map assigns each distinct value its rank in the Value
    // total order, so the dictionary comes out sorted and `code` equality
    // is value equality.
    std::map<Value, uint32_t> ranks;
    for (const Tuple& t : rel.tuples()) ranks.emplace(t[col], 0);
    PDB_CHECK(ranks.size() < kNoCode);
    column.dict.reserve(ranks.size());
    uint32_t next = 0;
    for (auto& [value, rank] : ranks) {
      rank = next++;
      column.dict.push_back(value);
    }
    column.codes.reserve(rel.size());
    for (const Tuple& t : rel.tuples()) {
      column.codes.push_back(ranks.find(t[col])->second);
    }
  }
  return image;
}

uint32_t ColumnarRelation::CodeOf(size_t col, const Value& value) const {
  const std::vector<Value>& dict = columns_[col].dict;
  auto it = std::lower_bound(dict.begin(), dict.end(), value);
  if (it == dict.end() || !(*it == value)) return kNoCode;
  return static_cast<uint32_t>(it - dict.begin());
}

size_t ColumnarRelation::CompositeDistinct(
    const std::vector<size_t>& key_cols) const {
  std::lock_guard<std::mutex> lock(composite_mu_);
  auto [it, inserted] = composite_memo_.try_emplace(key_cols, 0);
  if (inserted) it->second = DistinctComposite(*this, key_cols);
  return it->second;
}

std::vector<uint32_t> BuildCodeTranslation(const std::vector<Value>& src,
                                           const std::vector<Value>& dst) {
  std::vector<uint32_t> xlat(src.size(), ColumnarRelation::kNoCode);
  size_t i = 0;
  size_t j = 0;
  while (i < src.size() && j < dst.size()) {
    if (src[i] < dst[j]) {
      ++i;
    } else if (dst[j] < src[i]) {
      ++j;
    } else {
      xlat[i] = static_cast<uint32_t>(j);
      ++i;
      ++j;
    }
  }
  return xlat;
}

size_t DistinctComposite(const ColumnarRelation& cols,
                         const std::vector<size_t>& key_cols) {
  if (key_cols.empty()) return 0;
  // Mixed-radix multipliers, same construction as ColumnarIndex; the
  // composite code of a row is unique per distinct key combination.
  std::vector<uint64_t> radix(key_cols.size(), 1);
  for (size_t p = key_cols.size(); p-- > 1;) {
    uint64_t dict_size = cols.distinct(key_cols[p]);
    if (dict_size == 0) dict_size = 1;
    if (radix[p] > UINT64_MAX / dict_size) return 0;
    radix[p - 1] = radix[p] * dict_size;
  }
  uint64_t lead = cols.distinct(key_cols[0]);
  if (lead > 0 && radix[0] > UINT64_MAX / lead) return 0;
  std::unordered_set<uint64_t> seen;
  seen.reserve(cols.num_rows());
  for (size_t row = 0; row < cols.num_rows(); ++row) {
    uint64_t code = 0;
    for (size_t p = 0; p < key_cols.size(); ++p) {
      code += radix[p] * cols.codes(key_cols[p])[row];
    }
    seen.insert(code);
  }
  return seen.size();
}

ColumnarIndex::ColumnarIndex(std::shared_ptr<const ColumnarRelation> cols,
                             std::vector<size_t> key_cols)
    : cols_(std::move(cols)), key_cols_(std::move(key_cols)) {
  PDB_CHECK(!key_cols_.empty());
  // Mixed-radix multipliers: the last key part varies fastest. Composite
  // codes preserve the lexicographic order of the part codes, though only
  // equality is used here.
  radix_.assign(key_cols_.size(), 1);
  for (size_t p = key_cols_.size(); p-- > 1;) {
    uint64_t dict_size = cols_->distinct(key_cols_[p]);
    if (dict_size == 0) dict_size = 1;  // empty relation: any radix works
    if (radix_[p] > UINT64_MAX / dict_size) {
      overflow_ = true;
      return;
    }
    radix_[p - 1] = radix_[p] * dict_size;
  }
  // One more width check for the leading part (the composite must fit).
  uint64_t lead = cols_->distinct(key_cols_[0]);
  if (lead > 0 && radix_[0] > UINT64_MAX / lead) {
    overflow_ = true;
    return;
  }
  const size_t n = cols_->num_rows();
  if (key_cols_.size() == 1) {
    // CSR: two passes (count, then fill) keep each bucket's rows ascending.
    const std::vector<uint32_t>& codes = cols_->codes(key_cols_[0]);
    offsets_.assign(cols_->distinct(key_cols_[0]) + 1, 0);
    for (uint32_t code : codes) ++offsets_[code + 1];
    for (size_t c = 1; c < offsets_.size(); ++c) {
      offsets_[c] += offsets_[c - 1];
    }
    rows_.resize(n);
    std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (size_t row = 0; row < n; ++row) {
      rows_[cursor[codes[row]]++] = static_cast<uint32_t>(row);
    }
    return;
  }
  for (size_t row = 0; row < n; ++row) {
    uint64_t code = 0;
    for (size_t p = 0; p < key_cols_.size(); ++p) {
      code += radix_[p] * cols_->codes(key_cols_[p])[row];
    }
    buckets_[code].push_back(static_cast<uint32_t>(row));
  }
}

size_t ColumnarIndex::num_buckets() const {
  if (overflow_) return 0;
  // Single-column CSR buckets are never empty: every dictionary entry came
  // from at least one row, so the bucket count is the dictionary size.
  if (key_cols_.size() == 1) return offsets_.empty() ? 0 : offsets_.size() - 1;
  return buckets_.size();
}

void ColumnarIndex::Lookup(uint64_t code, const uint32_t** rows,
                           size_t* count) const {
  if (key_cols_.size() == 1) {
    *rows = rows_.data() + offsets_[code];
    *count = offsets_[code + 1] - offsets_[code];
    return;
  }
  auto it = buckets_.find(code);
  if (it == buckets_.end()) {
    *rows = nullptr;
    *count = 0;
    return;
  }
  *rows = it->second.data();
  *count = it->second.size();
}

}  // namespace pdb

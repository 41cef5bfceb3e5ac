#include "storage/columnar.h"

#include <algorithm>
#include <map>
#include <numeric>

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

namespace {

// Row ids of `cols` sorted by their code tuple over `key_cols`: an LSD
// radix sort, one stable counting sort per key column, last column first.
// Stability keeps the rows of equal tuples ascending. O(k * (rows +
// distinct)) for k key columns, whatever the width of the key space.
// `lead_offsets`, when given, receives the CSR offsets of the leading
// column's codes: with a single key column, the buckets themselves.
std::vector<uint32_t> SortRowsByKey(const ColumnarRelation& cols,
                                    const std::vector<size_t>& key_cols,
                                    std::vector<uint32_t>* lead_offsets) {
  const uint32_t n = static_cast<uint32_t>(cols.num_rows());
  std::vector<uint32_t> rows(n);
  std::vector<uint32_t> sorted(n);
  std::vector<uint32_t> start;
  for (size_t p = key_cols.size(); p-- > 0;) {
    const std::vector<uint32_t>& codes = cols.codes(key_cols[p]);
    start.assign(cols.distinct(key_cols[p]) + 1, 0);
    for (uint32_t code : codes) ++start[code + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    if (p == 0 && lead_offsets != nullptr) *lead_offsets = start;
    if (p + 1 == key_cols.size()) {
      for (uint32_t row = 0; row < n; ++row) sorted[start[codes[row]]++] = row;
    } else {
      for (uint32_t row : rows) sorted[start[codes[row]]++] = row;
    }
    rows.swap(sorted);
  }
  return rows;
}

bool SameKey(const ColumnarRelation& cols, const std::vector<size_t>& key_cols,
             uint32_t a, uint32_t b) {
  for (size_t col : key_cols) {
    if (cols.codes(col)[a] != cols.codes(col)[b]) return false;
  }
  return true;
}

constexpr uint32_t kEmptySlot = UINT32_MAX;

}  // namespace

size_t DistinctComposite(const ColumnarRelation& cols,
                         const std::vector<size_t>& key_cols) {
  if (key_cols.empty()) return 0;
  std::vector<uint32_t> rows = SortRowsByKey(cols, key_cols, nullptr);
  size_t distinct = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i == 0 || !SameKey(cols, key_cols, rows[i - 1], rows[i])) ++distinct;
  }
  return distinct;
}

ColumnarIndex::ColumnarIndex(std::shared_ptr<const ColumnarRelation> cols,
                             std::vector<size_t> key_cols)
    : cols_(std::move(cols)), key_cols_(std::move(key_cols)) {
  PDB_CHECK(!key_cols_.empty());
  const size_t k = key_cols_.size();
  if (k == 1) {
    // Every dictionary code occurs in some row: one bucket per code.
    rows_ = SortRowsByKey(*cols_, key_cols_, &offsets_);
    return;
  }
  // Each run of equal tuples in key order becomes one CSR bucket.
  rows_ = SortRowsByKey(*cols_, key_cols_, nullptr);
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (i > 0 && SameKey(*cols_, key_cols_, rows_[i - 1], rows_[i])) continue;
    offsets_.push_back(static_cast<uint32_t>(i));
    for (size_t col : key_cols_) {
      tuples_.push_back(cols_->codes(col)[rows_[i]]);
    }
  }
  offsets_.push_back(static_cast<uint32_t>(rows_.size()));
  // Open addressing with linear probing, load factor at most 1/2.
  for (size_t col : key_cols_) bases_.push_back(cols_->distinct(col) | 1);
  slot_shift_ = 63;
  while ((size_t{1} << (64 - slot_shift_)) < 2 * num_buckets()) --slot_shift_;
  slots_.assign(size_t{1} << (64 - slot_shift_), kEmptySlot);
  const size_t mask = slots_.size() - 1;
  for (uint32_t b = 0; b < num_buckets(); ++b) {
    size_t i = SlotOf(tuples_.data() + size_t{b} * k);
    while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = b;
  }
}

size_t ColumnarIndex::SlotOf(const uint32_t* key) const {
  uint64_t h = key[0];
  for (size_t p = 1; p < bases_.size(); ++p) h = h * bases_[p] + key[p];
  return static_cast<size_t>((h * 0x9E3779B97F4A7C15ULL) >> slot_shift_);
}

void ColumnarIndex::Lookup(const uint32_t* key, const uint32_t** rows,
                           size_t* count) const {
  // Single-column keys: bucket b holds code b.
  size_t bucket = key[0];
  const size_t k = key_cols_.size();
  if (k > 1) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = SlotOf(key);; i = (i + 1) & mask) {
      bucket = slots_[i];
      if (bucket == kEmptySlot) {
        *rows = nullptr;
        *count = 0;
        return;
      }
      if (std::equal(key, key + k, tuples_.data() + bucket * k)) break;
    }
  }
  *rows = rows_.data() + offsets_[bucket];
  *count = offsets_[bucket + 1] - offsets_[bucket];
}

}  // namespace pdb

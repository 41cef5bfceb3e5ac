/// \file columnar.h
/// \brief Dictionary-encoded columnar images of relations.
///
/// A `ColumnarRelation` is a read-only sidecar of a `Relation`: per column a
/// *sorted* dictionary of the distinct values and one contiguous
/// `uint32_t` code vector with the dictionary rank of every row. The join
/// executor (boolean/lineage.cc) runs over these dense code arrays instead
/// of `Tuple` objects — bind slots become integer codes, equality checks
/// become array compares, and hash-index probes become array lookups —
/// which is where the vectorized grounding path gets its speed.
///
/// Because the dictionary is sorted by the `Value` total order, rank
/// equality is value equality *within one column's code space*, the
/// dictionary doubles as the sorted distinct-value list
/// (`Relation::DistinctValues` returns it directly), and code spaces of two
/// different columns can be aligned with a linear two-pointer merge
/// (`BuildCodeTranslation`), which is how cross-column joins compare codes
/// without ever touching a `Value` on the hot path.
///
/// `ColumnarIndex` groups rows by the code tuple of a key-column list in
/// one CSR layout: row ids sorted by tuple (an LSD radix sort over the key
/// columns), one bucket per distinct tuple, so bucket row ids ascend and
/// the join executor enumerates candidates in row order. A single-column
/// key probes by code (bucket b holds code b: an O(1) probe, no hashing).
/// A multi-column key hashes its code tuple into an open-addressing table
/// of bucket ids and checks equality against the bucket's stored tuple, so
/// keys of any width work the same way.

#ifndef PDB_STORAGE_COLUMNAR_H_
#define PDB_STORAGE_COLUMNAR_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/value.h"

namespace pdb {

class Relation;

/// Dictionary-encoded, column-major image of one relation. Immutable once
/// built (apart from the internally locked statistics memo); safe to share
/// across threads.
class ColumnarRelation {
 public:
  /// Sentinel for "value not in this column's dictionary". Never a valid
  /// code: dictionaries are capped below 2^32 - 1 entries.
  static constexpr uint32_t kNoCode = UINT32_MAX;

  /// Builds the columnar image of `rel` (O(rows * arity * log distinct)).
  static std::shared_ptr<const ColumnarRelation> Build(const Relation& rel);

  size_t num_rows() const { return num_rows_; }
  size_t num_cols() const { return columns_.size(); }

  /// Sorted distinct values of `col`; code `c` decodes to `dict(col)[c]`.
  const std::vector<Value>& dict(size_t col) const {
    return columns_[col].dict;
  }

  /// Per-row dictionary codes of `col` (size = num_rows()).
  const std::vector<uint32_t>& codes(size_t col) const {
    return columns_[col].codes;
  }

  /// Number of distinct values in `col` — the selectivity statistic the
  /// cost-based join order consumes.
  size_t distinct(size_t col) const { return columns_[col].dict.size(); }

  /// Code of `value` in `col`'s dictionary, or kNoCode when absent.
  uint32_t CodeOf(size_t col, const Value& value) const;

  /// DistinctComposite(*this, key_cols), memoized per key-column list. The
  /// cost-based join order asks for the same counts on every query; the
  /// scan runs once per image, and `Relation::AddTuple` drops the image
  /// together with its memo. Thread-safe.
  size_t CompositeDistinct(const std::vector<size_t>& key_cols) const;

 private:
  struct Column {
    std::vector<Value> dict;      // sorted ascending
    std::vector<uint32_t> codes;  // one per row
  };

  std::vector<Column> columns_;
  size_t num_rows_ = 0;
  mutable std::mutex composite_mu_;
  mutable std::map<std::vector<size_t>, size_t> composite_memo_;
};

/// Translation table from `src` dictionary codes to `dst` dictionary codes:
/// `result[c]` is the code of `src[c]` in `dst`, or
/// `ColumnarRelation::kNoCode` when `dst` does not contain the value.
/// Linear two-pointer merge over the two sorted dictionaries.
std::vector<uint32_t> BuildCodeTranslation(const std::vector<Value>& src,
                                           const std::vector<Value>& dst);

/// Number of distinct composite keys over `key_cols` of `cols` — the
/// multi-column selectivity statistic. Unlike the per-column independence
/// product, this counts the key combinations that actually occur, so a
/// correlated pair (say y == x) reports n instead of n². Returns 0 when
/// `key_cols` is empty or the relation has no rows.
size_t DistinctComposite(const ColumnarRelation& cols,
                         const std::vector<size_t>& key_cols);

/// Equality index over a relation's code columns: rows grouped by the
/// code tuple of `key_cols`. Bucket rows ascend.
class ColumnarIndex {
 public:
  /// Builds the index; keeps `cols` alive for its own lifetime.
  ColumnarIndex(std::shared_ptr<const ColumnarRelation> cols,
                std::vector<size_t> key_cols);

  const std::vector<size_t>& key_cols() const { return key_cols_; }

  /// Rows whose key columns carry the codes `key[0..key_cols().size())`
  /// (each a valid code of its column's dictionary), as a pointer + count
  /// span (empty when no row has that key).
  void Lookup(const uint32_t* key, const uint32_t** rows,
              size_t* count) const;

  /// Number of buckets — the distinct key count this index observed.
  /// Single-column keys have one bucket per dictionary entry.
  size_t num_buckets() const { return offsets_.size() - 1; }

 private:
  std::shared_ptr<const ColumnarRelation> cols_;
  std::vector<size_t> key_cols_;
  // Table slot of a multi-column key. The tuple is read as a mixed-radix
  // number with odd bases (dictionary size | 1): an exact, nearly dense
  // code while it fits in 64 bits, and past that a wrapping hash under
  // which tuples that differ in one column never share a code (odd bases
  // are invertible mod 2^64). Fibonacci hashing then maps
  // near-consecutive codes to distinct slots.
  size_t SlotOf(const uint32_t* key) const;

  // CSR: bucket b's rows are rows_[offsets_[b]..offsets_[b+1]), buckets
  // in ascending tuple order.
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> rows_;
  // Multi-column keys only: the distinct code tuples, flattened, one per
  // bucket (key_cols_.size() codes each), the hash bases, and the table
  // of bucket ids (2^(64 - slot_shift_) slots, UINT32_MAX when empty).
  std::vector<uint32_t> tuples_;
  std::vector<uint64_t> bases_;
  int slot_shift_ = 0;
  std::vector<uint32_t> slots_;
};

}  // namespace pdb

#endif  // PDB_STORAGE_COLUMNAR_H_

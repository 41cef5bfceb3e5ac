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
/// `ColumnarIndex` is the columnar analogue of `HashIndex`: rows grouped by
/// the (composite) code of a key-column list. Single-column keys use a CSR
/// layout (offset array indexed by code — an O(1) probe with no hashing);
/// multi-column keys use a hash map over the mixed-radix composite code.
/// Bucket row ids are ascending, matching `HashIndex`, so the two
/// executors enumerate matches in the same order.

#ifndef PDB_STORAGE_COLUMNAR_H_
#define PDB_STORAGE_COLUMNAR_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
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
/// the mixed-radix composite code would overflow 64 bits (callers fall
/// back to the independence product) or when `key_cols` is empty.
size_t DistinctComposite(const ColumnarRelation& cols,
                         const std::vector<size_t>& key_cols);

/// Equality index over a relation's code columns: rows grouped by the
/// composite code of `key_cols`. Bucket rows ascend, matching `HashIndex`.
class ColumnarIndex {
 public:
  /// Builds the index; keeps `cols` alive for its own lifetime.
  ColumnarIndex(std::shared_ptr<const ColumnarRelation> cols,
                std::vector<size_t> key_cols);

  const std::vector<size_t>& key_cols() const { return key_cols_; }

  /// True when the mixed-radix composite code would not fit in 64 bits
  /// (astronomically wide keys); callers fall back to the row-path
  /// `HashIndex` executor in that case.
  bool composite_overflow() const { return overflow_; }

  /// Mixed-radix multiplier of key part `p`: a composite code is
  /// sum over p of part_code[p] * radix(p).
  uint64_t radix(size_t p) const { return radix_[p]; }

  /// Rows whose composite key code equals `code`, as a pointer + count
  /// span (empty when the code has no rows).
  void Lookup(uint64_t code, const uint32_t** rows, size_t* count) const;

  /// Number of non-empty buckets — the distinct composite key count this
  /// index observed (0 when the composite overflowed). Single-column keys
  /// have one bucket per dictionary entry by construction.
  size_t num_buckets() const;

 private:
  std::shared_ptr<const ColumnarRelation> cols_;
  std::vector<size_t> key_cols_;
  std::vector<uint64_t> radix_;
  bool overflow_ = false;
  // Single-column key: CSR over the column's code space.
  std::vector<uint32_t> offsets_;  // size = dict size + 1
  std::vector<uint32_t> rows_;     // row ids grouped by code, ascending
  // Multi-column key: buckets over the (sparse) composite code space.
  std::unordered_map<uint64_t, std::vector<uint32_t>> buckets_;
};

}  // namespace pdb

#endif  // PDB_STORAGE_COLUMNAR_H_

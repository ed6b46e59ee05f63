#ifndef FORESIGHT_DATA_COLUMN_H_
#define FORESIGHT_DATA_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "data/schema.h"
#include "util/logging.h"

namespace foresight {

class NumericColumn;
class CategoricalColumn;

/// Abstract base for a single attribute column of the input matrix A (n×d).
///
/// Columns are append-only during construction and immutable afterwards from
/// the engine's point of view. Missing values are first-class: every column
/// carries a validity mask.
class Column {
 public:
  virtual ~Column() = default;

  Column(const Column&) = delete;
  Column& operator=(const Column&) = delete;

  virtual ColumnType type() const = 0;

  /// Total number of rows, including nulls.
  size_t size() const { return valid_.size(); }

  /// True when row `i` holds a value (not missing).
  bool is_valid(size_t i) const {
    FORESIGHT_DCHECK(i < valid_.size());
    return valid_[i];
  }

  /// Number of non-null rows.
  size_t valid_count() const { return valid_count_; }

  /// Number of null rows.
  size_t null_count() const { return size() - valid_count_; }

  /// Deep copy.
  virtual std::unique_ptr<Column> Clone() const = 0;

  /// Downcasts; the caller must have checked `type()`.
  const NumericColumn& AsNumeric() const;
  const CategoricalColumn& AsCategorical() const;

 protected:
  Column() = default;
  // Subclasses are movable (e.g. when bulk-building tables); Column itself is
  // only ever held by pointer, so slicing is not a concern here.
  Column(Column&&) = default;
  Column& operator=(Column&&) = default;

  void PushValid(bool valid) {
    valid_.push_back(valid);
    if (valid) ++valid_count_;
  }

  std::vector<bool> valid_;
  size_t valid_count_ = 0;
};

/// Column of real-valued attributes (the set `B` in the paper).
class NumericColumn final : public Column {
 public:
  NumericColumn() = default;

  /// Builds a fully valid column from raw values.
  explicit NumericColumn(std::vector<double> values);

  ColumnType type() const override { return ColumnType::kNumeric; }

  void Append(double value) {
    values_.push_back(value);
    PushValid(true);
  }

  void AppendNull() {
    values_.push_back(0.0);
    PushValid(false);
  }

  /// Value at row `i`; meaningful only when `is_valid(i)`.
  double value(size_t i) const {
    FORESIGHT_DCHECK(i < values_.size());
    return values_[i];
  }

  /// Raw value buffer (positions of nulls hold 0.0).
  const std::vector<double>& values() const { return values_; }

  /// Copies the non-null values, in row order.
  std::vector<double> ValidValues() const;

  /// Appends every row of `other` (values and validity), in order.
  void AppendColumn(const NumericColumn& other);

  std::unique_ptr<Column> Clone() const override;

 private:
  std::vector<double> values_;
};

/// Dictionary-encoded column of categorical attributes (the set `C`).
///
/// Each distinct string is assigned a dense non-negative code; per-row codes
/// are stored as int32. This makes frequency computations O(n) over small
/// integer arrays and keeps memory proportional to the dictionary size.
class CategoricalColumn final : public Column {
 public:
  CategoricalColumn() = default;

  /// Builds a fully valid column from string values.
  explicit CategoricalColumn(const std::vector<std::string>& values);

  ColumnType type() const override { return ColumnType::kCategorical; }

  void Append(std::string_view value);
  void AppendNull() {
    codes_.push_back(kNullCode);
    PushValid(false);
  }

  /// Appends every row of `other`, in order. The result is identical to
  /// appending its rows one by one by string (the dictionary keeps
  /// first-occurrence order), but each distinct value is looked up once.
  void AppendColumn(const CategoricalColumn& other);

  /// Dictionary code at row `i`; `kNullCode` when null.
  int32_t code(size_t i) const {
    FORESIGHT_DCHECK(i < codes_.size());
    return codes_[i];
  }

  /// String value at row `i`; meaningful only when `is_valid(i)`.
  const std::string& value(size_t i) const {
    FORESIGHT_DCHECK(is_valid(i));
    return dictionary_[static_cast<size_t>(codes_[i])];
  }

  /// Number of distinct non-null values seen.
  size_t cardinality() const { return dictionary_.size(); }

  /// Dictionary entry for a code.
  const std::string& dictionary_value(int32_t code) const {
    FORESIGHT_DCHECK(code >= 0 &&
                     static_cast<size_t>(code) < dictionary_.size());
    return dictionary_[static_cast<size_t>(code)];
  }

  const std::vector<int32_t>& codes() const { return codes_; }
  const std::vector<std::string>& dictionary() const { return dictionary_; }

  std::unique_ptr<Column> Clone() const override;

  static constexpr int32_t kNullCode = -1;

 private:
  std::vector<int32_t> codes_;
  std::vector<std::string> dictionary_;
  std::unordered_map<std::string, int32_t> dictionary_index_;
};

}  // namespace foresight

#endif  // FORESIGHT_DATA_COLUMN_H_

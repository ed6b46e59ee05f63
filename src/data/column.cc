#include "data/column.h"

namespace foresight {

const NumericColumn& Column::AsNumeric() const {
  FORESIGHT_CHECK(type() == ColumnType::kNumeric);
  return static_cast<const NumericColumn&>(*this);
}

const CategoricalColumn& Column::AsCategorical() const {
  FORESIGHT_CHECK(type() == ColumnType::kCategorical);
  return static_cast<const CategoricalColumn&>(*this);
}

NumericColumn::NumericColumn(std::vector<double> values)
    : values_(std::move(values)) {
  valid_.assign(values_.size(), true);
  valid_count_ = values_.size();
}

std::vector<double> NumericColumn::ValidValues() const {
  std::vector<double> out;
  out.reserve(valid_count());
  for (size_t i = 0; i < size(); ++i) {
    if (is_valid(i)) out.push_back(values_[i]);
  }
  return out;
}

void NumericColumn::AppendColumn(const NumericColumn& other) {
  // Null slots hold 0.0 on both sides, so the raw buffers concatenate.
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  valid_.insert(valid_.end(), other.valid_.begin(), other.valid_.end());
  valid_count_ += other.valid_count_;
}

std::unique_ptr<Column> NumericColumn::Clone() const {
  auto copy = std::make_unique<NumericColumn>();
  copy->values_ = values_;
  copy->valid_ = valid_;
  copy->valid_count_ = valid_count_;
  return copy;
}

CategoricalColumn::CategoricalColumn(const std::vector<std::string>& values) {
  for (const std::string& v : values) Append(v);
}

void CategoricalColumn::Append(std::string_view value) {
  auto it = dictionary_index_.find(std::string(value));
  int32_t code;
  if (it == dictionary_index_.end()) {
    code = static_cast<int32_t>(dictionary_.size());
    dictionary_.emplace_back(value);
    dictionary_index_.emplace(dictionary_.back(), code);
  } else {
    code = it->second;
  }
  codes_.push_back(code);
  PushValid(true);
}

void CategoricalColumn::AppendColumn(const CategoricalColumn& other) {
  // Codes of `other` are interned on first use in row order, which is the
  // order a row-by-row Append would have met them.
  constexpr int32_t kUnmapped = -2;
  std::vector<int32_t> remap(other.dictionary_.size(), kUnmapped);
  codes_.reserve(codes_.size() + other.codes_.size());
  for (int32_t code : other.codes_) {
    if (code == kNullCode) {
      codes_.push_back(kNullCode);
      continue;
    }
    int32_t& mapped = remap[static_cast<size_t>(code)];
    if (mapped == kUnmapped) {
      const std::string& value = other.dictionary_[static_cast<size_t>(code)];
      auto it = dictionary_index_.find(value);
      if (it == dictionary_index_.end()) {
        mapped = static_cast<int32_t>(dictionary_.size());
        dictionary_.push_back(value);
        dictionary_index_.emplace(value, mapped);
      } else {
        mapped = it->second;
      }
    }
    codes_.push_back(mapped);
  }
  valid_.insert(valid_.end(), other.valid_.begin(), other.valid_.end());
  valid_count_ += other.valid_count_;
}

std::unique_ptr<Column> CategoricalColumn::Clone() const {
  auto copy = std::make_unique<CategoricalColumn>();
  copy->codes_ = codes_;
  copy->dictionary_ = dictionary_;
  copy->dictionary_index_ = dictionary_index_;
  copy->valid_ = valid_;
  copy->valid_count_ = valid_count_;
  return copy;
}

}  // namespace foresight

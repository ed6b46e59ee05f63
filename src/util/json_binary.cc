#include "util/json_binary.h"

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace foresight {

namespace {

enum : uint8_t {
  kTagNull = 0x00,
  kTagFalse = 0x01,
  kTagTrue = 0x02,
  kTagNumber = 0x03,
  kTagString = 0x04,
  kTagArray = 0x05,
  kTagObject = 0x06,
  kTagPackedNumbers = 0x07,
};

void AppendVarint(std::string& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

void AppendF64(std::string& out, double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
  }
}

bool AllNumbers(const JsonValue& array) {
  for (size_t i = 0; i < array.size(); ++i) {
    if (!array.at(i).is_number()) return false;
  }
  return true;
}

void EncodeTo(const JsonValue& value, std::string& out) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      out.push_back(static_cast<char>(kTagNull));
      return;
    case JsonValue::Type::kBool:
      out.push_back(static_cast<char>(value.as_bool() ? kTagTrue : kTagFalse));
      return;
    case JsonValue::Type::kNumber:
      out.push_back(static_cast<char>(kTagNumber));
      AppendF64(out, value.as_number());
      return;
    case JsonValue::Type::kString: {
      out.push_back(static_cast<char>(kTagString));
      const std::string& s = value.as_string();
      AppendVarint(out, s.size());
      out.append(s);
      return;
    }
    case JsonValue::Type::kArray: {
      // Packed storage short-circuits the per-element walk; the bytes are
      // identical to encoding the same numbers element-wise below.
      if (const std::vector<double>* packed = value.packed_numbers()) {
        out.push_back(static_cast<char>(kTagPackedNumbers));
        AppendVarint(out, packed->size());
        out.reserve(out.size() + packed->size() * 8);
        for (double v : *packed) AppendF64(out, v);
        return;
      }
      const size_t n = value.size();
      if (n > 0 && AllNumbers(value)) {
        out.push_back(static_cast<char>(kTagPackedNumbers));
        AppendVarint(out, n);
        for (size_t i = 0; i < n; ++i) AppendF64(out, value.at(i).as_number());
        return;
      }
      out.push_back(static_cast<char>(kTagArray));
      AppendVarint(out, n);
      for (size_t i = 0; i < n; ++i) EncodeTo(value.at(i), out);
      return;
    }
    case JsonValue::Type::kObject: {
      out.push_back(static_cast<char>(kTagObject));
      const auto& items = value.items();
      AppendVarint(out, items.size());
      for (const auto& [key, member] : items) {
        AppendVarint(out, key.size());
        out.append(key);
        EncodeTo(member, out);
      }
      return;
    }
  }
}

class Decoder {
 public:
  explicit Decoder(std::string_view bytes) : data_(bytes) {}

  StatusOr<JsonValue> DecodeDocument() {
    FORESIGHT_ASSIGN_OR_RETURN(JsonValue value, DecodeValue(0));
    if (pos_ != data_.size()) {
      return Status::InvalidArgument(
          "binary json: trailing bytes after document");
    }
    return value;
  }

 private:
  size_t Remaining() const { return data_.size() - pos_; }

  StatusOr<uint8_t> ReadByte() {
    if (Remaining() < 1) {
      return Status::InvalidArgument("binary json: truncated input");
    }
    return static_cast<uint8_t>(data_[pos_++]);
  }

  StatusOr<uint64_t> ReadVarint() {
    uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      FORESIGHT_ASSIGN_OR_RETURN(uint8_t byte, ReadByte());
      value |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        if (shift > 0 && byte == 0) {
          return Status::InvalidArgument(
              "binary json: non-canonical varint padding");
        }
        return value;
      }
    }
    return Status::InvalidArgument("binary json: varint exceeds 64 bits");
  }

  StatusOr<double> ReadF64() {
    if (Remaining() < 8) {
      return Status::InvalidArgument("binary json: truncated number");
    }
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
              << (8 * i);
    }
    pos_ += 8;
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

  StatusOr<std::string> ReadString() {
    FORESIGHT_ASSIGN_OR_RETURN(uint64_t length, ReadVarint());
    if (length > Remaining()) {
      return Status::InvalidArgument(
          "binary json: string length exceeds remaining bytes");
    }
    std::string value(data_.substr(pos_, length));
    pos_ += length;
    return value;
  }

  StatusOr<JsonValue> DecodeValue(int depth) {
    if (depth > kJsonBinaryMaxDepth) {
      return Status::InvalidArgument("binary json: nesting too deep");
    }
    FORESIGHT_ASSIGN_OR_RETURN(uint8_t tag, ReadByte());
    switch (tag) {
      case kTagNull:
        return JsonValue();
      case kTagFalse:
        return JsonValue(false);
      case kTagTrue:
        return JsonValue(true);
      case kTagNumber: {
        FORESIGHT_ASSIGN_OR_RETURN(double number, ReadF64());
        return JsonValue(number);
      }
      case kTagString: {
        FORESIGHT_ASSIGN_OR_RETURN(std::string text, ReadString());
        return JsonValue(std::move(text));
      }
      case kTagPackedNumbers: {
        FORESIGHT_ASSIGN_OR_RETURN(uint64_t count, ReadVarint());
        // Each element takes exactly 8 payload bytes; reject before
        // allocating anything a hostile count could inflate.
        if (count > Remaining() / 8) {
          return Status::InvalidArgument(
              "binary json: packed array count exceeds remaining bytes");
        }
        std::vector<double> values;
        values.reserve(count);
        for (uint64_t i = 0; i < count; ++i) {
          FORESIGHT_ASSIGN_OR_RETURN(double number, ReadF64());
          values.push_back(number);
        }
        return JsonValue::PackedNumberArray(std::move(values));
      }
      case kTagArray: {
        FORESIGHT_ASSIGN_OR_RETURN(uint64_t count, ReadVarint());
        // Every element costs at least its 1-byte tag.
        if (count > Remaining()) {
          return Status::InvalidArgument(
              "binary json: array count exceeds remaining bytes");
        }
        JsonValue array = JsonValue::Array();
        for (uint64_t i = 0; i < count; ++i) {
          FORESIGHT_ASSIGN_OR_RETURN(JsonValue element, DecodeValue(depth + 1));
          array.Append(std::move(element));
        }
        return array;
      }
      case kTagObject: {
        FORESIGHT_ASSIGN_OR_RETURN(uint64_t count, ReadVarint());
        // Every member costs at least a key-length varint byte plus a tag.
        if (count > Remaining() / 2) {
          return Status::InvalidArgument(
              "binary json: object count exceeds remaining bytes");
        }
        std::vector<std::pair<std::string, JsonValue>> members;
        for (uint64_t i = 0; i < count; ++i) {
          FORESIGHT_ASSIGN_OR_RETURN(std::string key, ReadString());
          FORESIGHT_ASSIGN_OR_RETURN(JsonValue member, DecodeValue(depth + 1));
          members.emplace_back(std::move(key), std::move(member));
        }
        return JsonValue::ObjectFromMembers(std::move(members));
      }
      default:
        return Status::InvalidArgument("binary json: unknown tag " +
                                       std::to_string(tag));
    }
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace

std::string JsonBinaryEncode(const JsonValue& value) {
  std::string out;
  EncodeTo(value, out);
  return out;
}

StatusOr<JsonValue> JsonBinaryDecode(std::string_view bytes) {
  Decoder decoder(bytes);
  return decoder.DecodeDocument();
}

}  // namespace foresight

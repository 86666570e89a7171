#include "common/bytes.hpp"

#include <cassert>

namespace excovery {

void ByteWriter::u64_at(std::size_t offset, std::uint64_t v) {
  if (counting_) return;
  assert(offset + sizeof v <= buffer_.size());
  store_le(buffer_.data() + offset, v);
}

void ByteWriter::u32s(std::span<const std::uint32_t> values) {
  if (counting_) {
    counted_ += values.size_bytes();
    return;
  }
  if constexpr (std::endian::native == std::endian::little) {
    raw(reinterpret_cast<const std::uint8_t*>(values.data()),
        values.size_bytes());
  } else {
    for (std::uint32_t v : values) u32(v);
  }
}

void ByteWriter::string(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  raw(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

void ByteWriter::blob(const Bytes& b) {
  u32(static_cast<std::uint32_t>(b.size()));
  raw(b.data(), b.size());
}

void ByteWriter::raw(const std::uint8_t* data, std::size_t size) {
  if (counting_) {
    counted_ += size;
    return;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

void ByteWriter::value(const Value& v) {
  u8(static_cast<std::uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      u8(v.as_bool() ? 1 : 0);
      break;
    case ValueType::kInt:
      i64(v.as_int());
      break;
    case ValueType::kDouble:
      f64(v.as_double());
      break;
    case ValueType::kString:
      string(v.as_string());
      break;
    case ValueType::kBytes:
      blob(v.as_bytes());
      break;
    case ValueType::kArray: {
      const ValueArray& arr = v.as_array();
      u32(static_cast<std::uint32_t>(arr.size()));
      for (const Value& item : arr) value(item);
      break;
    }
    case ValueType::kMap: {
      const ValueMap& map = v.as_map();
      u32(static_cast<std::uint32_t>(map.size()));
      for (const auto& [k, item] : map) {
        string(k);
        value(item);
      }
      break;
    }
  }
}

Status ByteReader::need(std::size_t n) const {
  if (pos_ + n > size_) {
    return err_io("byte stream truncated: need " + std::to_string(n) +
                  " bytes at offset " + std::to_string(pos_) + " of " +
                  std::to_string(size_));
  }
  return {};
}

Result<std::uint8_t> ByteReader::u8() {
  EXC_TRY(need(1));
  return data_[pos_++];
}

Result<std::uint16_t> ByteReader::u16() {
  EXC_TRY(need(2));
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<std::uint32_t> ByteReader::u32() {
  EXC_TRY(need(4));
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
  pos_ += 4;
  return v;
}

Result<std::uint64_t> ByteReader::u64() {
  EXC_TRY(need(8));
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
  pos_ += 8;
  return v;
}

Result<std::int64_t> ByteReader::i64() {
  EXC_ASSIGN_OR_RETURN(std::uint64_t v, u64());
  return static_cast<std::int64_t>(v);
}

Result<double> ByteReader::f64() {
  EXC_ASSIGN_OR_RETURN(std::uint64_t bits, u64());
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

Result<std::string> ByteReader::string() {
  EXC_ASSIGN_OR_RETURN(std::uint32_t len, u32());
  EXC_TRY(need(len));
  std::string out(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return out;
}

Result<Bytes> ByteReader::blob() {
  EXC_ASSIGN_OR_RETURN(std::uint32_t len, u32());
  return raw(len);
}

Result<Bytes> ByteReader::raw(std::size_t size) {
  EXC_TRY(need(size));
  Bytes out(data_ + pos_, data_ + pos_ + size);
  pos_ += size;
  return out;
}

Result<Value> ByteReader::value() { return value_at(0); }

Result<Value> ByteReader::value_at(int depth) {
  if (depth > kMaxValueDepth) {
    return err_io("value nested deeper than " +
                  std::to_string(kMaxValueDepth) + " levels");
  }
  EXC_ASSIGN_OR_RETURN(std::uint8_t tag, u8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value{};
    case ValueType::kBool: {
      EXC_ASSIGN_OR_RETURN(std::uint8_t b, u8());
      return Value{b != 0};
    }
    case ValueType::kInt: {
      EXC_ASSIGN_OR_RETURN(std::int64_t v, i64());
      return Value{v};
    }
    case ValueType::kDouble: {
      EXC_ASSIGN_OR_RETURN(double v, f64());
      return Value{v};
    }
    case ValueType::kString: {
      EXC_ASSIGN_OR_RETURN(std::string v, string());
      return Value{std::move(v)};
    }
    case ValueType::kBytes: {
      EXC_ASSIGN_OR_RETURN(Bytes v, blob());
      return Value{std::move(v)};
    }
    case ValueType::kArray: {
      EXC_ASSIGN_OR_RETURN(std::uint32_t count, u32());
      // Every element takes at least its tag byte; check before reserving.
      if (count > remaining()) return err_io("array count exceeds the input");
      ValueArray arr;
      arr.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        EXC_ASSIGN_OR_RETURN(Value item, value_at(depth + 1));
        arr.push_back(std::move(item));
      }
      return Value{std::move(arr)};
    }
    case ValueType::kMap: {
      EXC_ASSIGN_OR_RETURN(std::uint32_t count, u32());
      ValueMap map;
      for (std::uint32_t i = 0; i < count; ++i) {
        EXC_ASSIGN_OR_RETURN(std::string key, string());
        EXC_ASSIGN_OR_RETURN(Value item, value_at(depth + 1));
        map.emplace(std::move(key), std::move(item));
      }
      return Value{std::move(map)};
    }
  }
  return err_io("unknown value tag " + std::to_string(tag));
}

}  // namespace excovery

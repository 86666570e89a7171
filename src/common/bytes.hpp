// Endian-stable binary encoding used by packet payloads and the level-3
// storage package file format.  Everything is little-endian on the wire.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/value.hpp"

namespace excovery {

/// Append-only binary writer.
class ByteWriter {
 public:
  /// A writer that keeps no bytes and only advances size(): running write
  /// code through it first gives the exact size to reserve for the real run.
  static ByteWriter counting() noexcept {
    ByteWriter w;
    w.counting_ = true;
    return w;
  }

  const Bytes& bytes() const noexcept { return buffer_; }
  Bytes take() noexcept { return std::move(buffer_); }
  std::size_t size() const noexcept {
    return counting_ ? counted_ : buffer_.size();
  }
  void reserve(std::size_t capacity) { buffer_.reserve(capacity); }

  // u8 shares put_le with the wider appends: a push_back here, inlined next
  // to put_le's resize, trips a GCC 12 -O3 -Wstringop-overflow false positive.
  void u8(std::uint8_t v) { put_le(v); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }
  /// Consecutive u32s, as one append on a little-endian host.
  void u32s(std::span<const std::uint32_t> values);
  /// Overwrite the 8 bytes at `offset` (already written) with `v`: the
  /// back-patch for a length prefix written before the data it counts.
  void u64_at(std::size_t offset, std::uint64_t v);
  /// Length-prefixed (u32) string.
  void string(std::string_view s);
  /// Length-prefixed (u32) raw bytes.
  void blob(const Bytes& b);
  /// Raw bytes, no length prefix.
  void raw(const std::uint8_t* data, std::size_t size);
  /// Tagged Value (recursive over arrays/maps).
  void value(const Value& v);

 private:
  /// One append of the little-endian image of `v`.
  template <typename T>
  void put_le(T v) {
    if (counting_) {
      counted_ += sizeof v;
      return;
    }
    const std::size_t at = buffer_.size();
    buffer_.resize(at + sizeof v);
    store_le(buffer_.data() + at, v);
  }
  template <typename T>
  static void store_le(std::uint8_t* out, T v) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, &v, sizeof v);
    } else {
      for (std::size_t i = 0; i < sizeof v; ++i) {
        out[i] = static_cast<std::uint8_t>(v >> (8 * i));
      }
    }
  }

  Bytes buffer_;
  bool counting_ = false;
  std::size_t counted_ = 0;
};

/// Sequential binary reader with bounds checking.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& bytes) noexcept
      : data_(bytes.data()), size_(bytes.size()) {}
  ByteReader(const std::uint8_t* data, std::size_t size) noexcept
      : data_(data), size_(size) {}

  std::size_t remaining() const noexcept { return size_ - pos_; }
  std::size_t position() const noexcept { return pos_; }
  bool exhausted() const noexcept { return pos_ >= size_; }

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16();
  Result<std::uint32_t> u32();
  Result<std::uint64_t> u64();
  Result<std::int64_t> i64();
  Result<double> f64();
  Result<std::string> string();
  Result<Bytes> blob();
  /// A value written by ByteWriter::value.  Nesting deeper than
  /// kMaxValueDepth array/map levels is a kIo error, so corrupt input
  /// cannot exhaust the stack.
  Result<Value> value();
  /// Copy out `size` raw bytes.
  Result<Bytes> raw(std::size_t size);

  static constexpr int kMaxValueDepth = 1024;

 private:
  Status need(std::size_t n) const;
  Result<Value> value_at(int depth);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace excovery

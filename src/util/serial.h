// Byte-level serialization primitives for the durability subsystem: a
// growable little-endian `ByteSink` and a bounds-checked `ByteSource`.
//
// Design rules (shared by every snapshot/event-log consumer):
//   * explicit little-endian byte order, so snapshot files are portable
//     across hosts (matching the nn::checkpoint flat-weight format);
//   * every read validates against the remaining byte count *before*
//     allocating or advancing — a corrupted length prefix yields a clean
//     std::runtime_error, never a multi-GB allocation or an overrun;
//   * doubles and floats round-trip bit-exactly via their IEEE-754 bit
//     patterns, which is what makes restored RNG streams, virtual clocks
//     and EMA state byte-identical to the uninterrupted run.
//
// Both classes also spell each field as one overloaded `io(field)`: the
// sink writes the field, the source reads into it.  A layout written as
// one function template over the archive is then stated once for both
// directions, and its reader cannot drift from its writer.  `reading`
// tells such a template which way it runs.
//
// Header-only: the encode/decode loops are tiny and sit on the
// checkpoint path, where call overhead would dominate.
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tifl::util {

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte range.
// Guards every snapshot payload and event-log record frame.
inline std::uint32_t crc32(const void* data, std::size_t size,
                           std::uint32_t seed = 0) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

inline std::uint32_t crc32(std::string_view bytes, std::uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

// Any 8-byte unsigned field (std::uint64_t, std::size_t), stored as u64.
template <class T>
concept U64Field = std::unsigned_integral<T> && sizeof(T) == 8;

// Append-only little-endian encoder over a std::string buffer.
class ByteSink {
 public:
  static constexpr bool reading = false;

  const std::string& bytes() const noexcept { return buffer_; }
  std::string take() { return std::move(buffer_); }
  std::size_t size() const noexcept { return buffer_.size(); }

  void put_u8(std::uint8_t v) {
    buffer_.push_back(static_cast<char>(v));
  }
  void put_u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
    }
  }
  void put_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
    }
  }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  void put_f32(float v) { put_u32(std::bit_cast<std::uint32_t>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  void put_bytes(const void* data, std::size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }

  void put_string(std::string_view s) {
    put_u64(s.size());
    buffer_.append(s.data(), s.size());
  }

  // Length-prefixed element vectors; floats/doubles as raw LE words.
  void put_f32_vec(const std::vector<float>& v) {
    put_u64(v.size());
    for (float x : v) put_f32(x);
  }
  void put_f64_vec(const std::vector<double>& v) {
    put_u64(v.size());
    for (double x : v) put_f64(x);
  }
  void put_u64_vec(const std::vector<std::uint64_t>& v) {
    put_u64(v.size());
    for (std::uint64_t x : v) put_u64(x);
  }
  void put_size_vec(const std::vector<std::size_t>& v) {
    put_u64(v.size());
    for (std::size_t x : v) put_u64(static_cast<std::uint64_t>(x));
  }

  void io(U64Field auto v) { put_u64(v); }
  void io(std::int64_t v) { put_i64(v); }
  void io(double v) { put_f64(v); }
  void io(bool v) { put_bool(v); }
  void io(const std::string& s) { put_string(s); }
  void io(const std::vector<float>& v) { put_f32_vec(v); }
  void io(const std::vector<double>& v) { put_f64_vec(v); }
  void io(const std::vector<std::size_t>& v) { put_size_vec(v); }
  // A length prefix; ByteSource::io_count checks it on the way back.
  void io_count(std::size_t count, std::size_t /*min_bytes*/) {
    put_u64(count);
  }
  // A container's length prefix (ByteSource::io_size resizes it).
  void io_size(const auto& container, std::size_t min_bytes) {
    io_count(container.size(), min_bytes);
  }

 private:
  std::string buffer_;
};

// Bounds-checked little-endian decoder over a borrowed byte range.  All
// reads throw std::runtime_error on truncation; length prefixes are
// validated against the remaining bytes before any allocation.
class ByteSource {
 public:
  static constexpr bool reading = true;

  explicit ByteSource(std::string_view bytes) : bytes_(bytes) {}

  std::size_t remaining() const noexcept { return bytes_.size() - offset_; }
  bool exhausted() const noexcept { return offset_ == bytes_.size(); }
  std::size_t offset() const noexcept { return offset_; }

  std::uint8_t get_u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[offset_++]);
  }
  std::uint32_t get_u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes_[offset_ + i]))
           << (8 * i);
    }
    offset_ += 4;
    return v;
  }
  std::uint64_t get_u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[offset_ + i]))
           << (8 * i);
    }
    offset_ += 8;
    return v;
  }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64() { return std::bit_cast<double>(get_u64()); }
  float get_f32() { return std::bit_cast<float>(get_u32()); }
  bool get_bool() { return get_u8() != 0; }

  std::string_view get_bytes(std::size_t size) {
    need(size);
    std::string_view out = bytes_.substr(offset_, size);
    offset_ += size;
    return out;
  }

  std::string get_string() {
    const std::size_t n = checked_count(get_u64(), 1);
    std::string_view raw = get_bytes(n);
    return std::string(raw);
  }

  std::vector<float> get_f32_vec() {
    const std::size_t n = checked_count(get_u64(), 4);
    std::vector<float> v(n);
    for (float& x : v) x = get_f32();
    return v;
  }
  std::vector<double> get_f64_vec() {
    const std::size_t n = checked_count(get_u64(), 8);
    std::vector<double> v(n);
    for (double& x : v) x = get_f64();
    return v;
  }
  std::vector<std::uint64_t> get_u64_vec() {
    const std::size_t n = checked_count(get_u64(), 8);
    std::vector<std::uint64_t> v(n);
    for (std::uint64_t& x : v) x = get_u64();
    return v;
  }
  std::vector<std::size_t> get_size_vec() {
    const std::size_t n = checked_count(get_u64(), 8);
    std::vector<std::size_t> v(n);
    for (std::size_t& x : v) x = static_cast<std::size_t>(get_u64());
    return v;
  }

  // Validates a decoded element count against the bytes actually left,
  // *before* the caller allocates (the nn::checkpoint corrupted-count
  // lesson: a flipped length byte must not drive a multi-GB resize).
  std::size_t checked_count(std::uint64_t count, std::size_t elem_size) {
    if (elem_size > 0 && count > remaining() / elem_size) {
      throw std::runtime_error(
          "serial: element count exceeds remaining bytes (corrupt data)");
    }
    return static_cast<std::size_t>(count);
  }

  void io(U64Field auto& v) { v = get_u64(); }
  void io(std::int64_t& v) { v = get_i64(); }
  void io(double& v) { v = get_f64(); }
  void io(bool& v) { v = get_bool(); }
  void io(std::string& s) { s = get_string(); }
  void io(std::vector<float>& v) { v = get_f32_vec(); }
  void io(std::vector<double>& v) { v = get_f64_vec(); }
  void io(std::vector<std::size_t>& v) { v = get_size_vec(); }
  // A length prefix of elements at least `min_bytes` long each, checked
  // against the bytes left before the caller allocates.
  void io_count(std::size_t& count, std::size_t min_bytes) {
    count = checked_count(get_u64(), min_bytes);
  }
  void io_size(auto& container, std::size_t min_bytes) {
    std::size_t count = 0;
    io_count(count, min_bytes);
    container.resize(count);
  }

 private:
  void need(std::size_t n) const {
    if (n > remaining()) {
      throw std::runtime_error("serial: truncated input");
    }
  }

  std::string_view bytes_;
  std::size_t offset_ = 0;
};

}  // namespace tifl::util

// The byte codec every binary format in the repo is written and read with:
// the HSRV wire frames (serve/protocol), the HSJL journal (scan/journal)
// and the HSPT archive (nn/serialize). Each format owns its field order; this
// header owns, once, how a field sits in bytes and how a decoder checks it:
//
//   * Integers and floats are fixed-width little-endian. The formats also
//     store raw float and int arrays, so the host must be little-endian
//     too; the static_assert below states that.
//   * A length prefix is an unsigned integer of the width the format picks.
//     ByteWriter treats a length that does not fit its prefix as a
//     programming error: callers that take a length from a user validate it
//     against the format's cap before encoding.
//   * A {0,1} raster is bit-packed LSB-first: value i is bit i % 8 of byte
//     i / 8, packed_bytes(count) bytes with zero pad bits. Each caller keeps
//     its own rule for which values count as set.
//
// ByteReader is a cursor over a byte span. Every read checks the bytes that
// remain, and fits() is the check a decoder makes before it sizes a
// container from a count, so a lying length or count fails the decode
// instead of reading past the end or driving an allocation.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/check.h"

namespace hotspot::util {

static_assert(std::endian::native == std::endian::little,
              "the binary formats store raw little-endian arrays");

// A fixed-width field: any integer or floating-point type but bool, whose
// width is not fixed by the standard.
template <typename T>
concept ByteScalar = std::is_arithmetic_v<T> && !std::is_same_v<T, bool>;

// The T stored little-endian at `src`, which need not be aligned.
template <ByteScalar T>
T load_le(const void* src) {
  T value;
  std::memcpy(&value, src, sizeof(T));
  return value;
}

// Bytes holding `count` bit-packed values.
constexpr std::size_t packed_bytes(std::size_t count) {
  return count / 8 + (count % 8 != 0 ? 1 : 0);
}

// Packs values[0, count) into out[0, packed_bytes(count)), writing every
// byte; `is_set(value)` decides each bit.
template <typename T, typename IsSet>
void pack_bits(const T* values, std::size_t count, IsSet is_set,
               std::uint8_t* out) {
  for (std::size_t base = 0; base < count; base += 8) {
    const std::size_t bits = std::min<std::size_t>(8, count - base);
    unsigned byte = 0;
    for (std::size_t bit = 0; bit < bits; ++bit) {
      byte |= (is_set(values[base + bit]) ? 1u : 0u) << bit;
    }
    out[base / 8] = static_cast<std::uint8_t>(byte);
  }
}

// Expands `count` packed values into out[0, count) as `zero` or `one`.
template <typename T>
void unpack_bits(const std::uint8_t* packed, std::size_t count, T zero, T one,
                 T* out) {
  for (std::size_t base = 0; base < count; base += 8) {
    const std::size_t bits = std::min<std::size_t>(8, count - base);
    const unsigned byte = packed[base / 8];
    for (std::size_t bit = 0; bit < bits; ++bit) {
      out[base + bit] = ((byte >> bit) & 1u) != 0 ? one : zero;
    }
  }
}

// Appends encoded fields to a growing buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { bytes_.reserve(reserve); }

  template <ByteScalar T>
  ByteWriter& put(T value) {
    return bytes(&value, sizeof(T));
  }

  ByteWriter& bytes(const void* data, std::size_t size);

  ByteWriter& bytes(const std::vector<std::uint8_t>& data) {
    return bytes(data.data(), data.size());
  }

  // values[0, count) as one raw little-endian array.
  template <ByteScalar T>
  ByteWriter& array(const T* values, std::size_t count) {
    return bytes(values, count * sizeof(T));
  }

  // A length prefix `Len` wide. A length that does not fit is a bug in the
  // caller, not a property of the data.
  template <std::unsigned_integral Len>
  ByteWriter& length(std::size_t size) {
    HOTSPOT_CHECK(size <= std::numeric_limits<Len>::max())
        << "length " << size << " does not fit a " << sizeof(Len)
        << "-byte prefix";
    return put(static_cast<Len>(size));
  }

  // A `Len`-wide length prefix, then the text's bytes.
  template <std::unsigned_integral Len>
  ByteWriter& string(std::string_view text) {
    return length<Len>(text.size()).bytes(text.data(), text.size());
  }

  const std::uint8_t* data() const { return bytes_.data(); }
  std::size_t size() const { return bytes_.size(); }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

// Decodes fields from a byte span it does not own. Every read returns false,
// without moving the cursor, when fewer bytes remain than it needs.
class ByteReader {
 public:
  // An empty span may come with a null pointer; the cursor then points at
  // a static byte, so a zero-length read still returns non-null.
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data != nullptr ? data : &kNoBytes), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  std::size_t remaining() const { return size_ - offset_; }

  // Strict decoders end here: bytes left over mean a version skew or a
  // corruption the checksum happened to miss.
  bool exhausted() const { return offset_ == size_; }

  // True when `count` items of `bytes_per_item` bytes each fit in what
  // remains. Division keeps a hostile count from overflowing the product.
  bool fits(std::uint64_t count, std::size_t bytes_per_item) const {
    HOTSPOT_CHECK_GT(bytes_per_item, 0u);
    return count <= remaining() / bytes_per_item;
  }

  template <ByteScalar T>
  bool read(T* out) {
    const std::uint8_t* field = bytes(sizeof(T));
    if (field == nullptr) {
      return false;
    }
    *out = load_le<T>(field);
    return true;
  }

  // The next `size` bytes, in place; nullptr when fewer remain.
  const std::uint8_t* bytes(std::size_t size) {
    if (size > remaining()) {
      return nullptr;
    }
    const std::uint8_t* at = data_ + offset_;
    offset_ += size;
    return at;
  }

  bool bytes(std::size_t size, std::vector<std::uint8_t>* out) {
    const std::uint8_t* at = bytes(size);
    if (at == nullptr) {
      return false;
    }
    out->assign(at, at + size);
    return true;
  }

  // `count` values of one raw little-endian array; false (and `out`
  // untouched) when they do not fit.
  template <ByteScalar T>
  bool array(std::uint64_t count, std::vector<T>* out) {
    if (!fits(count, sizeof(T))) {
      return false;
    }
    out->resize(static_cast<std::size_t>(count));
    const std::size_t size = out->size() * sizeof(T);
    const std::uint8_t* at = bytes(size);
    if (size > 0) {
      std::memcpy(out->data(), at, size);
    }
    return true;
  }

  // A `size`-byte string whose length prefix was already read; false when
  // it exceeds `cap` or the bytes that remain.
  bool string(std::size_t size, std::size_t cap, std::string* out) {
    if (size > cap) {
      return false;
    }
    const std::uint8_t* at = bytes(size);
    if (at == nullptr) {
      return false;
    }
    out->assign(reinterpret_cast<const char*>(at), size);
    return true;
  }

 private:
  static constexpr std::uint8_t kNoBytes = 0;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

}  // namespace hotspot::util

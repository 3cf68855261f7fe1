// lateral::wire — the one codec for integers and length-prefixed blobs.
//
// The wires between lateral components are an untrusted network (paper
// §II-D), so every decoder parses attacker bytes and is part of its
// component's TCB. Every format in the tree lays out its fields through
// this header, big-endian; docs/wire.md tables them all.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

#include "util/result.h"
#include "util/types.h"

namespace lateral::wire {

namespace detail {

template <typename T>
constexpr void store_be(std::uint8_t* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    p[i] = static_cast<std::uint8_t>(v >> (8 * (sizeof(T) - 1 - i)));
}

template <typename T>
constexpr T load_be(const std::uint8_t* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    v = static_cast<T>((v << 8) | p[i]);
  return v;
}

}  // namespace detail

/// Raw-pointer forms, for a caller that has already checked the size.
inline void store_be64(std::uint8_t* p, std::uint64_t v) {
  detail::store_be(p, v);
}
inline std::uint64_t load_be64(const std::uint8_t* p) {
  return detail::load_be<std::uint64_t>(p);
}
inline std::uint32_t load_be32(const std::uint8_t* p) {
  return detail::load_be<std::uint32_t>(p);
}

/// Text as bytes and bytes as text, without a copy.
inline BytesView as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}
inline std::string_view as_text(BytesView b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

/// Appends fields to a caller-owned buffer, so the caller keeps its
/// reserve(). blobN = a uN length prefix, then the bytes.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void bytes(BytesView b) { out_.insert(out_.end(), b.begin(), b.end()); }

  /// A blob too long for its prefix throws lateral::Error: a length is
  /// never silently wrapped.
  void blob16(BytesView b) { blob<std::uint16_t>(b); }
  void blob32(BytesView b) { blob<std::uint32_t>(b); }
  void blob64(BytesView b) { blob<std::uint64_t>(b); }

 private:
  template <typename T>
  void put(T v) {
    const std::size_t at = out_.size();
    out_.resize(at + sizeof(T));
    detail::store_be(out_.data() + at, v);
  }

  template <typename T>
  void blob(BytesView b) {
    if (b.size() > std::numeric_limits<T>::max())
      throw Error("wire: blob longer than its length prefix can say");
    put(static_cast<T>(b.size()));
    bytes(b);
  }

  Bytes& out_;
};

/// Reads fields off a view, front to back. Every read is bounds-checked
/// (Errc::invalid_argument when the input runs out) and a failed read
/// consumes nothing; byte and blob reads return views into the input.
class ByteReader {
 public:
  explicit ByteReader(BytesView in) : in_(in) {}

  Result<std::uint8_t> u8() { return get<std::uint8_t>(); }
  Result<std::uint32_t> u32() { return get<std::uint32_t>(); }
  Result<std::uint64_t> u64() { return get<std::uint64_t>(); }

  Result<BytesView> bytes(std::uint64_t n) {
    if (n > remaining()) return Errc::invalid_argument;
    const BytesView out = in_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += out.size();
    return out;
  }

  Result<BytesView> blob16() { return blob<std::uint16_t>(); }
  Result<BytesView> blob32() { return blob<std::uint32_t>(); }
  Result<BytesView> blob64() { return blob<std::uint64_t>(); }

  /// Everything not yet read (possibly empty); the reader is then done.
  BytesView rest() {
    const BytesView out = in_.subspan(pos_);
    pos_ = in_.size();
    return out;
  }

  std::size_t remaining() const { return in_.size() - pos_; }
  std::size_t offset() const { return pos_; }

  /// Errc::invalid_argument when bytes are left over.
  Status finish() const {
    return remaining() == 0 ? Status::success()
                            : Status(Errc::invalid_argument);
  }

 private:
  template <typename T>
  Result<T> get() {
    if (remaining() < sizeof(T)) return Errc::invalid_argument;
    const T v = detail::load_be<T>(in_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  template <typename T>
  Result<BytesView> blob() {
    if (remaining() < sizeof(T)) return Errc::invalid_argument;
    const T len = detail::load_be<T>(in_.data() + pos_);
    if (len > remaining() - sizeof(T)) return Errc::invalid_argument;
    pos_ += sizeof(T);
    return bytes(len);
  }

  BytesView in_;
  std::size_t pos_ = 0;
};

/// A one-byte enumerator from the wire, with E's enumerators dense from 0
/// to `last`: nullopt for a byte past `last`.
template <typename E>
constexpr std::optional<E> enum8(std::uint8_t byte, E last) {
  if (byte > static_cast<std::uint8_t>(last)) return std::nullopt;
  return static_cast<E>(byte);
}

/// The last Errc enumerator: a byte past it names no Errc.
inline constexpr Errc kLastErrc = Errc::rollback_refused;
static_assert(errc_name(static_cast<Errc>(static_cast<int>(kLastErrc) + 1)) ==
                  "unknown",
              "Errc grew: move kLastErrc to its new last enumerator");

/// The Errc a peer's byte names. A byte past the last enumerator reads as
/// Errc::invalid_argument on every path, never as a value no switch knows.
constexpr Errc errc8(std::uint8_t byte) {
  return enum8(byte, kLastErrc).value_or(Errc::invalid_argument);
}

}  // namespace lateral::wire

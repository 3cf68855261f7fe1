// SHA-256 (FIPS 180-4), implemented from scratch.
//
// The compression function runs on SHA-NI when the CPU has it, else on the
// portable reference (crypto/kernels.h); the digest is the same either way.
//
// Used throughout lateral for measurements (MRENCLAVE-style code hashes),
// TPM PCR extension, Merkle trees, HMAC and signature padding.
#pragma once

#include <array>
#include <cstdint>

#include "util/types.h"

namespace lateral::crypto {

/// A 256-bit digest.
using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256();

  /// Absorb more input. May be called any number of times.
  void update(BytesView data);

  /// Finalize and return the digest. The context must not be reused after.
  Digest finish();

  /// One-shot convenience.
  static Digest hash(BytesView data);

  /// Hash the concatenation of two buffers (common for `H(a || b)` patterns).
  static Digest hash2(BytesView a, BytesView b);

 private:
  void compress(const std::uint8_t* blocks, std::size_t count);

  // Hmac::mac reads its keyed midstates without copying the contexts.
  friend class Hmac;

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::uint64_t total_len_ = 0;
  std::size_t buffer_len_ = 0;
  bool finished_ = false;
};

/// Digest as an owning byte vector (wire-format friendly).
Bytes digest_bytes(const Digest& d);

/// View over a digest.
inline BytesView digest_view(const Digest& d) { return BytesView(d.data(), d.size()); }

}  // namespace lateral::crypto

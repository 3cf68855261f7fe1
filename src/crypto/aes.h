// AES-128 (FIPS 197) block cipher with CTR mode and an encrypt-then-MAC
// authenticated encryption construction (AES-128-CTR + HMAC-SHA256).
//
// This is the memory-encryption engine of the simulated SGX/SEP substrates
// and the record protection of net::SecureChannel and vpfs. Blocks and CTR
// streams are encrypted with AES-NI when the CPU has it, else with the
// portable reference (crypto/kernels.h); the ciphertext is the same either
// way.
#pragma once

#include <array>

#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "util/result.h"
#include "util/types.h"

namespace lateral::crypto {

using Aes128Key = std::array<std::uint8_t, 16>;
using AesBlock = std::array<std::uint8_t, 16>;

/// AES-128 block cipher (encryption direction only; CTR never decrypts).
class Aes128 {
 public:
  explicit Aes128(const Aes128Key& key);

  /// Encrypt a single 16-byte block in place.
  void encrypt_block(AesBlock& block) const;

 private:
  friend void aes128_ctr(const Aes128& cipher, std::uint64_t nonce,
                         BytesView in, std::uint8_t* out);

  /// The expanded key in FIPS 197 byte order, read by both kernels.
  alignas(16) std::array<std::uint8_t, 176> round_keys_;
};

/// AES-128-CTR keystream transform. Encryption and decryption are identical.
/// `nonce` occupies the first 8 bytes of the counter block; the remaining
/// 8 bytes are a big-endian block counter starting at 0. Writes in.size()
/// bytes to `out`, which may be in.data() (in-place).
void aes128_ctr(const Aes128& cipher, std::uint64_t nonce, BytesView in,
                std::uint8_t* out);

/// As above, into a new buffer.
Bytes aes128_ctr(const Aes128& cipher, std::uint64_t nonce, BytesView data);

/// As above, expanding `key` for this one call.
Bytes aes128_ctr(const Aes128Key& key, std::uint64_t nonce, BytesView data);

/// A fixed encrypt-then-MAC key pair, keyed once: the AES-128 schedule of
/// the first 16 bytes of `keys` and an HMAC-SHA256 keyed with the other 32.
/// Holders authenticate each message with `mac.mac(parts)`, never
/// re-keying.
struct EncMacKeys {
  /// `keys` must be 48 bytes (the usual `hkdf(..., "enc+mac", 48)`).
  explicit EncMacKeys(BytesView keys);

  Aes128 cipher;
  Hmac mac;
};

/// HMAC-SHA256 truncated to 16 bytes.
using AeadTag = std::array<std::uint8_t, 16>;

/// Authenticated encryption: AES-128-CTR under enc_key, then HMAC-SHA256 of
/// (nonce || aad || ciphertext) under mac_key, truncated to 16 bytes.
struct SealedBox {
  std::uint64_t nonce = 0;
  Bytes ciphertext;
  AeadTag tag{};
};

/// The wire form of a SealedBox, the one layout every sealed blob in the
/// tree uses (substrate and TPM sealing, tickets, TrustedStore values; the
/// secure channel's record header is the same bytes, written in place):
/// [u64 nonce | 16 B tag | ciphertext].
constexpr std::size_t kSealedBoxHeaderBytes = 8 + 16;
void append_sealed_box(Bytes& out, const SealedBox& box);
/// Errc::invalid_argument when `wire` is shorter than the header.
Result<SealedBox> parse_sealed_box(BytesView wire);

class Aead {
 public:
  /// Derives independent encryption and MAC keys from `key_material`
  /// (any length) via HKDF.
  explicit Aead(BytesView key_material);

  /// The seal/open core, on caller-owned memory (a record layer seals
  /// straight into its wire buffer and opens straight out of a received
  /// datagram). Encrypts `plaintext` into `ciphertext` (plaintext.size()
  /// bytes; may be plaintext.data()) and returns the tag.
  AeadTag seal(std::uint64_t nonce, BytesView aad, BytesView plaintext,
               std::uint8_t* ciphertext) const;

  /// Checks `tag` over `ciphertext`, then decrypts into `plaintext`
  /// (ciphertext.size() bytes; may be ciphertext.data()).
  /// Errc::verification_failed, with nothing written, when the tag does not
  /// match.
  Status open(std::uint64_t nonce, BytesView aad, BytesView ciphertext,
              BytesView tag, std::uint8_t* plaintext) const;

  /// The core, into a SealedBox.
  SealedBox seal(std::uint64_t nonce, BytesView aad, BytesView plaintext) const;

  /// The core, out of a SealedBox. Errc::verification_failed when the tag
  /// does not match.
  Result<Bytes> open(const SealedBox& box, BytesView aad) const;

 private:
  AeadTag compute_tag(std::uint64_t nonce, BytesView aad,
                      BytesView ciphertext) const;
  EncMacKeys keys_;
};

/// Helper: build an Aes128Key from the first 16 bytes of a buffer.
Result<Aes128Key> key_from_bytes(BytesView material);

}  // namespace lateral::crypto

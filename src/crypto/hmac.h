// HMAC-SHA256 (RFC 2104), HKDF (RFC 5869) and HMAC-DRBG (SP 800-90A).
//
// HMAC authenticates channel records and VPFS blocks; HKDF derives session
// and sealing keys; HMAC-DRBG is the deterministic cryptographic randomness
// source used inside protocols (seedable, so tests are reproducible).
#pragma once

#include <initializer_list>

#include "crypto/sha256.h"
#include "util/types.h"

namespace lateral::crypto {

/// One-shot HMAC-SHA256.
Digest hmac_sha256(BytesView key, BytesView message);

/// Incremental HMAC context. A keyed context holds both midstates (the
/// ipad and opad blocks already absorbed). `mac` authenticates a whole
/// message from them in one pass, leaving the context as it was; a
/// streaming caller copies the keyed context and uses `update`/`finish`.
class Hmac {
 public:
  explicit Hmac(BytesView key);

  /// HMAC of the concatenated `parts`, without copying the context. Throws
  /// Error on a context that `update` or `finish` has already fed.
  Digest mac(std::initializer_list<BytesView> parts) const;

  void update(BytesView data);
  Digest finish();

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// HKDF-Extract: PRK = HMAC(salt, ikm).
Digest hkdf_extract(BytesView salt, BytesView ikm);

/// HKDF-Expand: derive `length` bytes from a PRK and context info.
Bytes hkdf_expand(const Digest& prk, BytesView info, std::size_t length);

/// Convenience: extract-then-expand.
Bytes hkdf(BytesView salt, BytesView ikm, BytesView info, std::size_t length);

/// Deterministic random bit generator per SP 800-90A (HMAC_DRBG, SHA-256).
/// The state is K, held as one keyed Hmac (keyed once per new K), and V. It
/// is a plain value: a copy is a snapshot, and assigning the copy back
/// rewinds the generator to it (key generation draws ahead this way).
class HmacDrbg {
 public:
  explicit HmacDrbg(BytesView seed);

  /// Generate n pseudo-random bytes.
  Bytes generate(std::size_t n);

  /// Mix additional entropy into the state.
  void reseed(BytesView entropy);

 private:
  void update_state(BytesView provided);

  Hmac k_;    // HMAC keyed with K
  Digest v_;  // V
};

}  // namespace lateral::crypto

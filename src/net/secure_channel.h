// SecureChannel: the "TLS component" of the paper's email-client example and
// the meter<->utility link of Fig. 3.
//
// A three-message handshake over an untrusted network (net::SimNetwork):
//
//   msg1  I -> R : dh_pub_i || nonce_i
//   msg2  R -> I : dh_pub_r || nonce_r || quote_R            (optional)
//   msg3  I -> R : quote_I                                    (optional)
//
// Each quote is produced by the sender's isolation substrate and binds
// H(peer_nonce || dh_pub_i || dh_pub_r) — so verifying a quote proves the
// *attested code identity* is the one holding the DH key for THIS session.
// A man in the middle cannot splice: substituting either DH half breaks the
// binding, and it cannot forge quotes without fused device keys.
//
// Either side may require attestation of its peer (mutual in the smart
// meter scenario: the meter verifies the SGX anonymizer, the utility
// verifies the TrustZone metering component).
//
// Records are AES-128-CTR + HMAC (encrypt-then-MAC) with per-direction
// monotonic sequence numbers: tampering, reordering and replay all surface
// as Errc::verification_failed. Each record costs at most one buffer per
// side: seal_record encrypts straight into the wire buffer (behind an
// optional unauthenticated routing prefix), open_record decrypts straight
// out of the received bytes. A message path that builds its plaintext
// from a small head and a payload seals both parts into that one buffer
// (seal_record_parts) and opens the record inside the buffer it arrived
// in (open_record_in_place), so it allocates nothing for the plaintext.
// Once established, an endpoint keeps only its record keys and sequence
// numbers; the DH pair and transcript are dropped.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "core/attestation.h"
#include "crypto/aes.h"
#include "crypto/dh.h"
#include "crypto/hmac.h"
#include "substrate/substrate.h"
#include "util/result.h"
#include "util/types.h"

namespace lateral::net {

/// This endpoint's ability to attest itself.
struct ProverConfig {
  substrate::IsolationSubstrate* substrate = nullptr;
  substrate::DomainId domain = substrate::kInvalidDomain;
};

/// This endpoint's requirements on the peer.
struct VerifierConfig {
  core::AttestationVerifier* verifier = nullptr;
  std::string expected_peer;  // logical name registered with the verifier
};

enum class Role : std::uint8_t { initiator, responder };

class SecureChannelEndpoint {
 public:
  SecureChannelEndpoint(Role role, BytesView drbg_seed,
                        std::optional<ProverConfig> prover,
                        std::optional<VerifierConfig> verifier);

  /// Resume a previously attested session from out-of-band key material
  /// (lateral::fleet resumption tickets): the endpoint comes up established
  /// immediately over the same record layer — no DH generation, no quotes.
  /// Both sides must derive identical key_material or every record fails
  /// authentication; the trust in the peer's code identity carries over
  /// from the full handshake that minted the material.
  static std::unique_ptr<SecureChannelEndpoint> resume(Role role,
                                                       BytesView key_material);

  // --- Handshake (drive according to role) --------------------------------
  /// Initiator: produce msg1.
  Result<Bytes> start();
  /// Responder: consume msg1, produce msg2.
  Result<Bytes> handle_msg1(BytesView msg1);
  /// Initiator: consume msg2 (verifies the responder's quote when a
  /// verifier is configured), produce msg3.
  Result<Bytes> handle_msg2(BytesView msg2);
  /// Responder: consume msg3 (verifies the initiator's quote when
  /// required). Channel is established afterwards.
  Status handle_msg3(BytesView msg3);

  bool established() const { return established_; }

  /// Tear the session down for re-establishment: fresh DH pair, cleared
  /// nonces/keys/sequence numbers. After a supervised restart of the domain
  /// behind this endpoint, the old session keys belong to the dead
  /// incarnation — both sides reset() and run the handshake again (the
  /// restarted side re-attests with its re-measured identity).
  void reset();

  // --- Record layer ---------------------------------------------------------
  // A record is [u64 nonce | 16-byte tag | ciphertext], the nonce
  // big-endian. Both calls cost one buffer: seal encrypts straight into the
  // wire buffer, open decrypts straight out of the received bytes.

  /// Seal the next record. `prefix` is copied in front of it, outside the
  /// authenticated bytes: routing the receiver strips before open_record
  /// (a fleet frame kind), so a framed record needs no second buffer.
  Result<Bytes> seal_record(BytesView plaintext, BytesView prefix = {});
  /// Seal the record whose plaintext is `head` followed by `body`, behind
  /// `prefix`, in one buffer: the same bytes as seal_record(head ‖ body,
  /// prefix), without building head ‖ body first.
  Result<Bytes> seal_record_parts(BytesView prefix, BytesView head,
                                  BytesView body);
  /// Open the peer's next record: wrong sequence number or tag is
  /// Errc::verification_failed and leaves the receive sequence where it
  /// was; fewer bytes than a record header is Errc::invalid_argument.
  Result<Bytes> open_record(BytesView wire);
  /// open_record inside `record`'s own bytes: the plaintext is decrypted
  /// over the ciphertext and returned as the view of it, which starts
  /// kRecordHeaderBytes into `record`. The same checks and errors as
  /// open_record; a refused record is left unchanged.
  Result<std::span<std::uint8_t>> open_record_in_place(
      std::span<std::uint8_t> record);

  /// Bytes in front of a record's ciphertext: [u64 nonce | 16 B tag].
  static constexpr std::size_t kRecordHeaderBytes =
      crypto::kSealedBoxHeaderBytes;

 private:
  struct ResumeTag {};
  SecureChannelEndpoint(ResumeTag, Role role, BytesView key_material);

  Status derive_keys();
  /// Check a record's header against the expected sequence number and
  /// return its nonce.
  Result<std::uint64_t> check_record(BytesView record) const;
  /// Authenticate a checked record and decrypt its ciphertext into
  /// `plaintext` (which may be the ciphertext itself); advances the
  /// receive sequence only on success.
  Status open_checked(std::uint64_t nonce, BytesView record,
                      std::uint8_t* plaintext);
  /// Mark the channel established and drop the handshake-only state.
  void establish();

  Role role_;
  crypto::HmacDrbg drbg_;
  std::optional<ProverConfig> prover_;
  std::optional<VerifierConfig> verifier_;

  crypto::DhKeyPair dh_{};
  crypto::Bignum peer_dh_;
  Bytes nonce_local_;   // challenge we issued to the peer
  Bytes nonce_peer_;    // challenge the peer issued to us
  Bytes dh_i_wire_;     // initiator public value, wire form
  Bytes dh_r_wire_;

  std::optional<crypto::Aead> aead_;
  std::uint64_t send_seq_ = 0;
  std::uint64_t recv_seq_ = 0;
  bool established_ = false;
};

/// The attestation context string both sides bind quotes to.
Bytes handshake_context(BytesView dh_i_wire, BytesView dh_r_wire);

}  // namespace lateral::net

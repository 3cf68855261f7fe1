// Crypto compute kernels, internal to src/crypto and its tests.
//
// Each symmetric kernel has a portable reference and, on x86-64, a hardware
// version (SHA-NI, AES-NI):
//  * SHA-256 block compression (Sha256);
//  * HMAC-SHA256 finish: the padded inner tail, then the outer block built
//    from the inner digest (Hmac::mac; the SHA-NI kernel hands the digest
//    from its state registers straight to the outer message words);
//  * one AES-128 block (Aes128::encrypt_block);
//  * the AES-128-CTR stream (aes128_ctr; the AES-NI kernel keeps the round
//    keys in registers and several counter blocks in flight).
// Each family is picked on first use, once per process, from the CPU's
// feature flags; the picked kernel never changes an output byte, only how
// fast it is produced.
//
// The Montgomery kernels behind Bignum's odd-modulus arithmetic are
// portable C++ only; a context picks them by the modulus's word count. One
// body serves one lane and two: the two-lane entry runs two independent
// products of one width (different moduli allowed), in one column loop at
// 4 words, which Bignum's paired exponentiation uses for Miller-Rabin and
// CRT signing.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/types.h"

#if defined(__x86_64__)
#define LATERAL_X86_CRYPTO_KERNELS 1
#endif

namespace lateral::crypto::kernels {

/// Compress `count` consecutive 64-byte blocks into a SHA-256 state.
using Sha256Kernel = void (*)(std::uint32_t state[8],
                              const std::uint8_t* blocks, std::size_t count);

/// Encrypt one 16-byte block in place under an AES-128 key schedule of
/// 176 bytes in FIPS 197 byte order (round r's key is bytes 16r..16r+15).
using Aes128Kernel = void (*)(const std::uint8_t round_keys[176],
                              std::uint8_t block[16]);

/// Finish an HMAC-SHA256: compress the `count` padded inner-tail blocks
/// into a copy of `inner`, then the outer block (that inner digest, padded
/// as the last 32 of 96 bytes) into a copy of `outer`, and write the
/// digest in byte order.
using HmacFinishKernel = void (*)(const std::uint32_t inner[8],
                                  const std::uint8_t* tail, std::size_t count,
                                  const std::uint32_t outer[8],
                                  std::uint8_t digest[32]);

/// XOR `len` bytes of `in` with the AES-128-CTR keystream into `out` (which
/// may be `in`). Counter block i is the big-endian `nonce` followed by the
/// big-endian block index i, from 0.
using Aes128CtrKernel = void (*)(const std::uint8_t round_keys[176],
                                 std::uint64_t nonce, const std::uint8_t* in,
                                 std::uint8_t* out, std::size_t len);

/// FIPS 197 key expansion into the schedule both AES kernels read.
void aes128_expand_key(const std::uint8_t key[16],
                       std::uint8_t round_keys[176]);

void sha256_portable(std::uint32_t state[8], const std::uint8_t* blocks,
                     std::size_t count);
void hmac_finish_portable(const std::uint32_t inner[8],
                          const std::uint8_t* tail, std::size_t count,
                          const std::uint32_t outer[8],
                          std::uint8_t digest[32]);
void aes128_portable(const std::uint8_t round_keys[176],
                     std::uint8_t block[16]);
void aes128_ctr_portable(const std::uint8_t round_keys[176],
                         std::uint64_t nonce, const std::uint8_t* in,
                         std::uint8_t* out, std::size_t len);

#ifdef LATERAL_X86_CRYPTO_KERNELS
/// True when this CPU runs the SHA-NI / AES-NI kernels below.
bool cpu_has_sha_ni();
bool cpu_has_aes_ni();

void sha256_shani(std::uint32_t state[8], const std::uint8_t* blocks,
                  std::size_t count);
void hmac_finish_shani(const std::uint32_t inner[8], const std::uint8_t* tail,
                       std::size_t count, const std::uint32_t outer[8],
                       std::uint8_t digest[32]);
void aes128_aesni(const std::uint8_t round_keys[176], std::uint8_t block[16]);
void aes128_ctr_aesni(const std::uint8_t round_keys[176], std::uint64_t nonce,
                      const std::uint8_t* in, std::uint8_t* out,
                      std::size_t len);
#endif

/// The SHA-256 kernels this process runs (Sha256 and Hmac), each picked
/// once.
Sha256Kernel sha256_kernel();
HmacFinishKernel hmac_finish_kernel();

/// HMAC-SHA256 of the concatenated `parts` from keyed midstates (the SHA-256
/// state after the ipad block and after the opad block): whole blocks go
/// through `compress`, the tail is padded on the stack and `finish` closes
/// both hashes. Hmac::mac is this on the process's kernels.
void hmac_parts(const std::uint32_t inner[8], const std::uint32_t outer[8],
                std::span<const BytesView> parts, Sha256Kernel compress,
                HmacFinishKernel finish, std::uint8_t digest[32]);

/// out = a*b*2^(-64n) mod m, for an odd n-word m, a, b < m and m_inv =
/// -m^-1 mod 2^64; `scratch` holds 2n words. out may alias a or b.
using MontgomeryKernel = void (*)(std::uint64_t* out, const std::uint64_t* a,
                                  const std::uint64_t* b,
                                  const std::uint64_t* m, std::uint64_t m_inv,
                                  std::size_t n, std::uint64_t* scratch);

/// The operands of L independent Montgomery products of one width n: lane i
/// computes out[i] = a[i]*b[i]*2^(-64n) mod m[i] under m_inv[i], with the
/// one-lane kernel's conditions on each lane. out[i] may alias a[i] or b[i].
template <std::size_t L>
struct MontgomeryLanes {
  std::uint64_t* out[L];
  const std::uint64_t* a[L];
  const std::uint64_t* b[L];
  const std::uint64_t* m[L];
  std::uint64_t m_inv[L];
};

/// Two lanes; `scratch` holds 4n words. At 4 words they share one column
/// loop (one chain of column additions is latency-bound there, and a
/// second independent chain fills the gaps); at other widths they run the
/// one-lane body in turn.
using MontgomeryPairKernel = void (*)(const MontgomeryLanes<2>& lanes,
                                      std::size_t n, std::uint64_t* scratch);

/// One product-scanning body (bignum.cpp) with a lane count, as a multiply
/// and as a squaring (`sqr` reads only a and returns mul(a, a) with fewer
/// products), for one lane and for two.
struct MontgomeryKernels {
  MontgomeryKernel mul;
  MontgomeryKernel sqr;
  MontgomeryPairKernel mul2;
  MontgomeryPairKernel sqr2;
};

/// The kernels for an n-word modulus: the body instantiated at n for
/// n = 4, 8, 12 and 16, at runtime width for every other n.
MontgomeryKernels montgomery_kernels(std::size_t n);

}  // namespace lateral::crypto::kernels

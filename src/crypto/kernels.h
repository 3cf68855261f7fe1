// Crypto compute kernels, internal to src/crypto and its tests.
//
// Each symmetric kernel has a portable reference and, on x86-64, a hardware
// version (SHA-NI, AES-NI). Sha256 and Aes128 pick one on first use, once
// per process, from the CPU's feature flags; the picked kernel never changes
// an output byte, only how fast it is produced.
//
// The Montgomery kernels behind Bignum's odd-modulus arithmetic are
// portable C++ only; a context picks them by the modulus's word count.
#pragma once

#include <cstddef>
#include <cstdint>

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

/// FIPS 197 key expansion into the schedule both AES kernels read.
void aes128_expand_key(const std::uint8_t key[16],
                       std::uint8_t round_keys[176]);

void sha256_portable(std::uint32_t state[8], const std::uint8_t* blocks,
                     std::size_t count);
void aes128_portable(const std::uint8_t round_keys[176],
                     std::uint8_t block[16]);

#ifdef LATERAL_X86_CRYPTO_KERNELS
/// True when this CPU runs sha256_shani / aes128_aesni.
bool cpu_has_sha_ni();
bool cpu_has_aes_ni();

void sha256_shani(std::uint32_t state[8], const std::uint8_t* blocks,
                  std::size_t count);
void aes128_aesni(const std::uint8_t round_keys[176], std::uint8_t block[16]);
#endif

/// out = a*b*2^(-64n) mod m, for an odd n-word m, a, b < m and m_inv =
/// -m^-1 mod 2^64; `scratch` holds 2n words. out may alias a or b.
using MontgomeryKernel = void (*)(std::uint64_t* out, const std::uint64_t* a,
                                  const std::uint64_t* b,
                                  const std::uint64_t* m, std::uint64_t m_inv,
                                  std::size_t n, std::uint64_t* scratch);

/// One product-scanning body (bignum.cpp), as a multiply and as a squaring
/// (`sqr` reads only a and returns mul(a, a) with fewer products).
struct MontgomeryKernels {
  MontgomeryKernel mul;
  MontgomeryKernel sqr;
};

/// The kernels for an n-word modulus: the body instantiated at n for
/// n = 4, 8, 12 and 16, at runtime width for every other n.
MontgomeryKernels montgomery_kernels(std::size_t n);

}  // namespace lateral::crypto::kernels

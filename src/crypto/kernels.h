// Symmetric-crypto compute kernels, internal to src/crypto and its tests.
//
// Each kernel has a portable reference and, on x86-64, a hardware version
// (SHA-NI, AES-NI). Sha256 and Aes128 pick one on first use, once per
// process, from the CPU's feature flags; the picked kernel never changes an
// output byte, only how fast it is produced.
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

}  // namespace lateral::crypto::kernels

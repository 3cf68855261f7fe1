#include "crypto/aes.h"

#include <algorithm>
#include <cstring>

#include "crypto/kernels.h"
#include "util/wire.h"

#ifdef LATERAL_X86_CRYPTO_KERNELS
#include <immintrin.h>
#endif

namespace lateral::crypto {
namespace {

// Forward S-box, generated from the AES polynomial; standard constants.
constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0x00));
}

std::uint32_t sub_word(std::uint32_t w) {
  return (std::uint32_t(kSbox[(w >> 24) & 0xFF]) << 24) |
         (std::uint32_t(kSbox[(w >> 16) & 0xFF]) << 16) |
         (std::uint32_t(kSbox[(w >> 8) & 0xFF]) << 8) |
         std::uint32_t(kSbox[w & 0xFF]);
}

std::uint32_t rot_word(std::uint32_t w) { return (w << 8) | (w >> 24); }

BytesView enc_mac_material(BytesView keys) {
  if (keys.size() != 48) throw Error("EncMacKeys: keys must be 48 bytes");
  return keys;
}

}  // namespace

namespace kernels {

void aes128_expand_key(const std::uint8_t key[16],
                       std::uint8_t round_keys[176]) {
  std::uint32_t w[44];
  for (int i = 0; i < 4; ++i) {
    w[i] = (std::uint32_t(key[4 * i]) << 24) |
           (std::uint32_t(key[4 * i + 1]) << 16) |
           (std::uint32_t(key[4 * i + 2]) << 8) | std::uint32_t(key[4 * i + 3]);
  }
  for (int i = 4; i < 44; ++i) {
    std::uint32_t temp = w[i - 1];
    if (i % 4 == 0)
      temp = sub_word(rot_word(temp)) ^ (std::uint32_t(kRcon[i / 4 - 1]) << 24);
    w[i] = w[i - 4] ^ temp;
  }
  for (int i = 0; i < 44; ++i)
    for (int j = 0; j < 4; ++j)
      round_keys[4 * i + j] = static_cast<std::uint8_t>(w[i] >> (24 - 8 * j));
}

void aes128_portable(const std::uint8_t round_keys[176],
                     std::uint8_t block[16]) {
  std::uint8_t s[16];
  std::memcpy(s, block, 16);

  auto add_round_key = [&](int round) {
    for (int i = 0; i < 16; ++i) s[i] ^= round_keys[16 * round + i];
  };
  auto sub_bytes = [&] {
    for (auto& b : s) b = kSbox[b];
  };
  auto shift_rows = [&] {
    std::uint8_t t[16];
    std::memcpy(t, s, 16);
    for (int r = 1; r < 4; ++r)
      for (int c = 0; c < 4; ++c) s[4 * c + r] = t[4 * ((c + r) % 4) + r];
  };
  auto mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      std::uint8_t* col = &s[4 * c];
      const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      col[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
      col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
      col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
      col[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
    }
  };

  add_round_key(0);
  for (int round = 1; round < 10; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(10);

  std::memcpy(block, s, 16);
}

void aes128_ctr_portable(const std::uint8_t round_keys[176],
                         std::uint64_t nonce, const std::uint8_t* in,
                         std::uint8_t* out, std::size_t len) {
  for (std::uint64_t counter = 0; len > 0; ++counter) {
    std::uint8_t keystream[16];
    wire::store_be64(keystream, nonce);
    wire::store_be64(keystream + 8, counter);
    aes128_portable(round_keys, keystream);
    const std::size_t n = std::min<std::size_t>(16, len);
    for (std::size_t i = 0; i < n; ++i) out[i] = in[i] ^ keystream[i];
    in += n;
    out += n;
    len -= n;
  }
}

#ifdef LATERAL_X86_CRYPTO_KERNELS

bool cpu_has_aes_ni() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("aes");
}

// AES-NI: aesenc is one full round (SubBytes, ShiftRows, MixColumns,
// AddRoundKey) on the FIPS 197 state layout, so the byte-order schedule
// loads as-is.
__attribute__((target("aes"))) void aes128_aesni(
    const std::uint8_t round_keys[176], std::uint8_t block[16]) {
  auto key = [&](int round) {
    return _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(round_keys + 16 * round));
  };
  __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(block));
  s = _mm_xor_si128(s, key(0));
  for (int round = 1; round < 10; ++round) s = _mm_aesenc_si128(s, key(round));
  s = _mm_aesenclast_si128(s, key(10));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(block), s);
}

namespace {

/// `N` keystream blocks for counters first..first+N-1: every block goes
/// through each round before the next round starts, so N aesenc are in
/// flight at once.
template <int N>
__attribute__((target("aes"), always_inline)) inline void ctr_keystream(
    const __m128i key[11], std::uint64_t nonce_be, std::uint64_t first,
    __m128i ks[N]) {
#pragma GCC unroll 8
  for (int i = 0; i < N; ++i)
    ks[i] = _mm_xor_si128(
        _mm_set_epi64x(static_cast<long long>(__builtin_bswap64(first + i)),
                       static_cast<long long>(nonce_be)),
        key[0]);
#pragma GCC unroll 9
  for (int round = 1; round < 10; ++round)
#pragma GCC unroll 8
    for (int i = 0; i < N; ++i) ks[i] = _mm_aesenc_si128(ks[i], key[round]);
#pragma GCC unroll 8
  for (int i = 0; i < N; ++i) ks[i] = _mm_aesenclast_si128(ks[i], key[10]);
}

__attribute__((target("aes"), always_inline)) inline void xor_block(
    const std::uint8_t* in, std::uint8_t* out, __m128i ks) {
  _mm_storeu_si128(
      reinterpret_cast<__m128i*>(out),
      _mm_xor_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(in)),
                    ks));
}

/// The keystream of counters first..first+N-1 over the next `len` bytes,
/// len <= 16N; a last partial block goes through a stack copy.
template <int N>
__attribute__((target("aes"), always_inline)) inline void ctr_blocks(
    const __m128i key[11], std::uint64_t nonce_be, std::uint64_t first,
    const std::uint8_t* in, std::uint8_t* out, std::size_t len) {
  __m128i ks[N];
  ctr_keystream<N>(key, nonce_be, first, ks);
#pragma GCC unroll 8
  for (int i = 0; i < N && len > 0; ++i, in += 16, out += 16) {
    if (len < 16) {
      alignas(16) std::uint8_t last[16];
      std::memcpy(last, in, len);
      xor_block(last, last, ks[i]);
      std::memcpy(out, last, len);
      return;
    }
    xor_block(in, out, ks[i]);
    len -= 16;
  }
}

}  // namespace

// The schedule is loaded once into registers. Whole 128-byte runs take
// eight counter blocks at a time; the rest, at most 127 bytes, one group of
// the smallest width that covers it (so a 24-byte record computes two
// blocks, not eight).
__attribute__((target("aes"))) void aes128_ctr_aesni(
    const std::uint8_t round_keys[176], std::uint64_t nonce,
    const std::uint8_t* in, std::uint8_t* out, std::size_t len) {
  __m128i key[11];
#pragma GCC unroll 11
  for (int round = 0; round < 11; ++round)
    key[round] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(round_keys + 16 * round));
  // The counter block's first 8 bytes, big-endian, as its low lane.
  const std::uint64_t nonce_be = __builtin_bswap64(nonce);
  std::uint64_t counter = 0;
  for (; len >= 128; len -= 128, in += 128, out += 128, counter += 8)
    ctr_blocks<8>(key, nonce_be, counter, in, out, 128);
  if (len > 64)
    ctr_blocks<8>(key, nonce_be, counter, in, out, len);
  else if (len > 32)
    ctr_blocks<4>(key, nonce_be, counter, in, out, len);
  else if (len > 16)
    ctr_blocks<2>(key, nonce_be, counter, in, out, len);
  else if (len > 0)
    ctr_blocks<1>(key, nonce_be, counter, in, out, len);
}

#endif  // LATERAL_X86_CRYPTO_KERNELS

}  // namespace kernels

namespace {

kernels::Aes128CtrKernel aes128_ctr_kernel() {
#ifdef LATERAL_X86_CRYPTO_KERNELS
  static const kernels::Aes128CtrKernel kernel =
      kernels::cpu_has_aes_ni() ? kernels::aes128_ctr_aesni
                                : kernels::aes128_ctr_portable;
  return kernel;
#else
  return kernels::aes128_ctr_portable;
#endif
}

kernels::Aes128Kernel aes128_kernel() {
#ifdef LATERAL_X86_CRYPTO_KERNELS
  static const kernels::Aes128Kernel kernel = kernels::cpu_has_aes_ni()
                                                  ? kernels::aes128_aesni
                                                  : kernels::aes128_portable;
  return kernel;
#else
  return kernels::aes128_portable;
#endif
}

}  // namespace

Aes128::Aes128(const Aes128Key& key) {
  kernels::aes128_expand_key(key.data(), round_keys_.data());
}

void Aes128::encrypt_block(AesBlock& block) const {
  aes128_kernel()(round_keys_.data(), block.data());
}

void aes128_ctr(const Aes128& cipher, std::uint64_t nonce, BytesView in,
                std::uint8_t* out) {
  aes128_ctr_kernel()(cipher.round_keys_.data(), nonce, in.data(), out,
                      in.size());
}

Bytes aes128_ctr(const Aes128& cipher, std::uint64_t nonce, BytesView data) {
  Bytes out(data.size());
  aes128_ctr(cipher, nonce, data, out.data());
  return out;
}

Bytes aes128_ctr(const Aes128Key& key, std::uint64_t nonce, BytesView data) {
  return aes128_ctr(Aes128(key), nonce, data);
}

EncMacKeys::EncMacKeys(BytesView keys)
    : cipher(*key_from_bytes(enc_mac_material(keys))), mac(keys.subspan(16)) {}

Aead::Aead(BytesView key_material)
    : keys_(hkdf(to_bytes("lateral.aead.v1"), key_material,
                 to_bytes("enc+mac"), 48)) {}

AeadTag Aead::compute_tag(std::uint64_t nonce, BytesView aad,
                          BytesView ciphertext) const {
  // nonce || len(aad), both 64-bit big-endian: the length prefix makes the
  // (aad, ct) boundary unambiguous.
  std::uint8_t header[16];
  wire::store_be64(header, nonce);
  wire::store_be64(header + 8, aad.size());
  const Digest full =
      keys_.mac.mac({BytesView(header, sizeof header), aad, ciphertext});
  AeadTag tag;
  std::memcpy(tag.data(), full.data(), tag.size());
  return tag;
}

AeadTag Aead::seal(std::uint64_t nonce, BytesView aad, BytesView plaintext,
                   std::uint8_t* ciphertext) const {
  aes128_ctr(keys_.cipher, nonce, plaintext, ciphertext);
  return compute_tag(nonce, aad, BytesView(ciphertext, plaintext.size()));
}

Status Aead::open(std::uint64_t nonce, BytesView aad, BytesView ciphertext,
                  BytesView tag, std::uint8_t* plaintext) const {
  const AeadTag expected = compute_tag(nonce, aad, ciphertext);
  if (!ct_equal(BytesView(expected.data(), expected.size()), tag))
    return Errc::verification_failed;
  aes128_ctr(keys_.cipher, nonce, ciphertext, plaintext);
  return Status::success();
}

SealedBox Aead::seal(std::uint64_t nonce, BytesView aad,
                     BytesView plaintext) const {
  SealedBox box;
  box.nonce = nonce;
  box.ciphertext.resize(plaintext.size());
  box.tag = seal(nonce, aad, plaintext, box.ciphertext.data());
  return box;
}

Result<Bytes> Aead::open(const SealedBox& box, BytesView aad) const {
  Bytes plain(box.ciphertext.size());
  if (const Status s = open(box.nonce, aad, box.ciphertext,
                            BytesView(box.tag.data(), box.tag.size()),
                            plain.data());
      !s.ok())
    return s.error();
  return plain;
}

void append_sealed_box(Bytes& out, const SealedBox& box) {
  wire::ByteWriter w(out);
  w.u64(box.nonce);
  w.bytes(box.tag);
  w.bytes(box.ciphertext);
}

Result<SealedBox> parse_sealed_box(BytesView in) {
  if (in.size() < kSealedBoxHeaderBytes) return Errc::invalid_argument;
  SealedBox box;
  box.nonce = wire::load_be64(in.data());
  std::copy_n(in.begin() + 8, box.tag.size(), box.tag.begin());
  box.ciphertext.assign(in.begin() + kSealedBoxHeaderBytes, in.end());
  return box;
}

Result<Aes128Key> key_from_bytes(BytesView material) {
  if (material.size() < 16) return Errc::crypto_failure;
  Aes128Key key;
  std::memcpy(key.data(), material.data(), 16);
  return key;
}

}  // namespace lateral::crypto

#include "crypto/sha256.h"

#include <bit>
#include <cstring>

#include "crypto/kernels.h"
#include "util/result.h"

#ifdef LATERAL_X86_CRYPTO_KERNELS
#include <immintrin.h>
#endif

namespace lateral::crypto {
namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

/// `v` in big-endian byte order (a byte swap on little-endian hosts).
std::uint32_t big_endian(std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little)
    return __builtin_bswap32(v);
  return v;
}
std::uint64_t big_endian(std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little)
    return __builtin_bswap64(v);
  return v;
}

/// The eight state words in byte order: a digest, or the first half of an
/// HMAC outer block.
void store_words(std::uint8_t out[32], const std::uint32_t state[8]) {
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t word = big_endian(state[i]);
    std::memcpy(out + 4 * i, &word, 4);
  }
}

}  // namespace

namespace kernels {

void sha256_portable(std::uint32_t state[8], const std::uint8_t* blocks,
                     std::size_t count) {
  for (; count > 0; --count, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t(blocks[4 * i]) << 24) |
             (std::uint32_t(blocks[4 * i + 1]) << 16) |
             (std::uint32_t(blocks[4 * i + 2]) << 8) |
             std::uint32_t(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

void hmac_finish_portable(const std::uint32_t inner[8],
                          const std::uint8_t* tail, std::size_t count,
                          const std::uint32_t outer[8],
                          std::uint8_t digest[32]) {
  std::uint32_t state[8];
  std::memcpy(state, inner, sizeof state);
  sha256_portable(state, tail, count);
  // The outer message is opad ‖ inner digest: 96 bytes, so its one block
  // after the opad is the digest, 0x80, zeros and the bit length 768.
  std::uint8_t block[64] = {};
  store_words(block, state);
  block[32] = 0x80;
  block[62] = 0x03;
  std::memcpy(state, outer, sizeof state);
  sha256_portable(state, block, 1);
  store_words(digest, state);
}

#ifdef LATERAL_X86_CRYPTO_KERNELS

bool cpu_has_sha_ni() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

// Intel SHA extensions. The state lives in two registers as ABEF and CDGH;
// each group of four rounds adds K to four message words, runs two
// sha256rnds2, and advances the message schedule four words with
// sha256msg1/sha256msg2 (FIPS 180-4 §6.2.2 step 1, four words at a time).
namespace {

#define LATERAL_SHA_NI __attribute__((target("sha,sse4.1"), always_inline))

struct ShaNiState {
  __m128i abef, cdgh;
};

/// Swaps the bytes of each 32-bit lane: big-endian words to lanes and back.
LATERAL_SHA_NI inline __m128i byteswap32(__m128i v) {
  return _mm_shuffle_epi8(
      v, _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL));
}

LATERAL_SHA_NI inline ShaNiState load_state(const std::uint32_t state[8]) {
  const __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i hgfe = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  return {_mm_alignr_epi8(dcba, hgfe, 8), _mm_blend_epi16(hgfe, dcba, 0xF0)};
}

/// The state words a..d and e..h, each in lane order.
LATERAL_SHA_NI inline void state_words(const ShaNiState& s, __m128i& abcd,
                                       __m128i& efgh) {
  const __m128i feba = _mm_shuffle_epi32(s.abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(s.cdgh, 0xB1);
  abcd = _mm_blend_epi16(feba, dchg, 0xF0);
  efgh = _mm_alignr_epi8(dchg, feba, 8);
}

/// One block's 64 rounds; message words 4i..4i+3 are lanes 0..3 of w[i].
LATERAL_SHA_NI inline void rounds(ShaNiState& s, __m128i w[4]) {
  __m128i abef = s.abef, cdgh = s.cdgh;
#pragma GCC unroll 16
  for (int i = 0; i < 16; ++i) {
    __m128i msg = _mm_add_epi32(
        w[i % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * i)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
    if (i >= 3 && i <= 14) {
      __m128i& next = w[(i + 1) % 4];
      next = _mm_add_epi32(next, _mm_alignr_epi8(w[i % 4], w[(i + 3) % 4], 4));
      next = _mm_sha256msg2_epu32(next, w[i % 4]);
    }
    msg = _mm_shuffle_epi32(msg, 0x0E);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
    if (i >= 1 && i <= 12)
      w[(i + 3) % 4] = _mm_sha256msg1_epu32(w[(i + 3) % 4], w[i % 4]);
  }
  s.abef = _mm_add_epi32(s.abef, abef);
  s.cdgh = _mm_add_epi32(s.cdgh, cdgh);
}

LATERAL_SHA_NI inline void compress_blocks(ShaNiState& s,
                                           const std::uint8_t* blocks,
                                           std::size_t count) {
  for (; count > 0; --count, blocks += 64) {
    __m128i w[4];
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i)
      w[i] = byteswap32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)));
    rounds(s, w);
  }
}

#undef LATERAL_SHA_NI

}  // namespace

__attribute__((target("sha,sse4.1"))) void sha256_shani(
    std::uint32_t state[8], const std::uint8_t* blocks, std::size_t count) {
  ShaNiState s = load_state(state);
  compress_blocks(s, blocks, count);
  __m128i abcd, efgh;
  state_words(s, abcd, efgh);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abcd);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), efgh);
}

// The inner digest's words are the outer block's message words 0..7, so
// they go from the state registers to the message registers as they are;
// words 8..15 are the fixed padding of a 96-byte message.
__attribute__((target("sha,sse4.1"))) void hmac_finish_shani(
    const std::uint32_t inner[8], const std::uint8_t* tail, std::size_t count,
    const std::uint32_t outer[8], std::uint8_t digest[32]) {
  ShaNiState s = load_state(inner);
  compress_blocks(s, tail, count);
  __m128i w[4];
  state_words(s, w[0], w[1]);
  w[2] = _mm_set_epi32(0, 0, 0, static_cast<int>(0x80000000u));
  w[3] = _mm_set_epi32(768, 0, 0, 0);
  s = load_state(outer);
  rounds(s, w);
  __m128i abcd, efgh;
  state_words(s, abcd, efgh);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(digest), byteswap32(abcd));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(digest + 16), byteswap32(efgh));
}

#endif  // LATERAL_X86_CRYPTO_KERNELS

Sha256Kernel sha256_kernel() {
#ifdef LATERAL_X86_CRYPTO_KERNELS
  static const Sha256Kernel kernel =
      cpu_has_sha_ni() ? sha256_shani : sha256_portable;
  return kernel;
#else
  return sha256_portable;
#endif
}

HmacFinishKernel hmac_finish_kernel() {
#ifdef LATERAL_X86_CRYPTO_KERNELS
  static const HmacFinishKernel kernel =
      cpu_has_sha_ni() ? hmac_finish_shani : hmac_finish_portable;
  return kernel;
#else
  return hmac_finish_portable;
#endif
}

}  // namespace kernels

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      buffer_{} {}

void Sha256::compress(const std::uint8_t* blocks, std::size_t count) {
  kernels::sha256_kernel()(state_.data(), blocks, count);
}

void Sha256::update(BytesView data) {
  if (finished_) throw Error("Sha256::update after finish");
  if (data.empty()) return;  // an empty view may hold a null pointer
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ < 64) return;
    compress(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  const std::size_t full = (data.size() - offset) / 64;
  if (full > 0) compress(data.data() + offset, full);
  offset += 64 * full;
  buffer_len_ = data.size() - offset;
  std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
}

Digest Sha256::finish() {
  if (finished_) throw Error("Sha256::finish called twice");
  finished_ = true;

  // Pad in place: the buffered tail, 0x80, zeros to 56 mod 64, then the
  // 64-bit big-endian bit length. A tail of 56 bytes or more leaves no room
  // for the length, so its block is closed with zeros first.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    compress(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  const std::uint64_t bit_len = big_endian(total_len_ * 8);
  std::memcpy(buffer_.data() + 56, &bit_len, 8);
  compress(buffer_.data(), 1);

  Digest out;
  store_words(out.data(), state_.data());
  return out;
}

Digest Sha256::hash(BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Digest Sha256::hash2(BytesView a, BytesView b) {
  Sha256 ctx;
  ctx.update(a);
  ctx.update(b);
  return ctx.finish();
}

Bytes digest_bytes(const Digest& d) { return Bytes(d.begin(), d.end()); }

}  // namespace lateral::crypto

// The symmetric-crypto kernels (crypto/kernels.h) and the keyed state built
// on them:
//  * each hardware kernel against the portable reference on seeded inputs,
//    and both against FIPS vectors — reached directly, without a switch;
//  * Sha256's buffering and padding at every block boundary;
//  * the CTR stream kernels at every length up to 300 bytes, in place and
//    out of place;
//  * Hmac::mac from parts against a Sha256-built HMAC at every split, on
//    both SHA-256 kernel families, and against RFC 4231;
//  * copies of a keyed Hmac against fresh keying;
//  * golden vectors that pin the exact bytes of Aead, HKDF, HMAC-DRBG and
//    HMAC, so a faster path can never change an output.
// On a CPU without SHA-NI or AES-NI the hardware halves skip with a reason.
#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "crypto/kernels.h"
#include "util/hex.h"
#include "util/rng.h"

namespace lateral::crypto {
namespace {

Bytes unhex(const std::string& hex) {
  auto r = util::from_hex(hex);
  EXPECT_TRUE(r.ok());
  return *r;
}

Bytes pattern(std::size_t n, unsigned mul, unsigned add) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::uint8_t>(i * mul + add);
  return b;
}

// Short outputs are pinned in full, long ones by their SHA-256.
std::string pin(BytesView b) {
  if (b.size() <= 64) return util::to_hex(b);
  return "sha256:" + util::to_hex(digest_view(Sha256::hash(b)));
}

// ---------------------------------------------------------------------------
// SHA-256

// SHA-256 of `msg` with the FIPS 180-4 padding done here and the padded
// blocks fed to `kernel` in seeded runs of 1..4 blocks per call.
Digest hash_with(kernels::Sha256Kernel kernel, BytesView msg,
                 util::Xoshiro& rng) {
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = msg.size() * 8;
  for (int i = 7; i >= 0; --i)
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));

  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  for (std::size_t offset = 0; offset < padded.size();) {
    const std::size_t left = (padded.size() - offset) / 64;
    const std::size_t n = std::min<std::size_t>(left, 1 + rng.below(4));
    kernel(state, padded.data() + offset, n);
    offset += 64 * n;
  }
  Digest out;
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 4; ++j)
      out[4 * i + j] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * j));
  return out;
}

struct ShaVector {
  Bytes message;
  std::string digest;
};

std::vector<ShaVector> fips_sha_vectors() {
  return {
      {{}, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {to_bytes("abc"),
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {Bytes(55, 0),
       "02779466cdec163811d078815c633f21901413081449002f24aa3e80f0b88ef7"},
      {Bytes(56, 0),
       "d4817aa5497628e7c77e6b606107042bbba3130888c5f47a375e6179be789fbb"},
      {Bytes(64, 0x61),
       "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
  };
}

// Seeded lengths over 0..4096 plus every padding boundary around one and
// two blocks: 55 is the longest one-block message, 56 the shortest that
// spills the length into a second block.
std::vector<std::size_t> sha_lengths(util::Xoshiro& rng) {
  std::vector<std::size_t> lengths = {0,   1,   55,  56,  63,  64,   65,
                                      119, 120, 127, 128, 129, 4095, 4096};
  for (int i = 0; i < 150; ++i) lengths.push_back(rng.below(4097));
  return lengths;
}

TEST(Sha256Kernels, PortableMatchesFipsVectors) {
  util::Xoshiro rng(1);
  for (const ShaVector& v : fips_sha_vectors())
    EXPECT_EQ(util::to_hex(digest_view(
                  hash_with(kernels::sha256_portable, v.message, rng))),
              v.digest)
        << "len=" << v.message.size();
}

TEST(Sha256Kernels, StreamingMatchesPortableAtEveryBoundary) {
  // Sha256 buffers seeded update splits and pads in finish(); whatever
  // kernel it dispatched to, it must agree with the portable reference.
  util::Xoshiro rng(2);
  for (const std::size_t len : sha_lengths(rng)) {
    const Bytes msg = rng.bytes(len);
    Sha256 ctx;
    for (std::size_t offset = 0; offset < len;) {
      const std::size_t take =
          std::min<std::size_t>(len - offset, rng.below(200));
      ctx.update(BytesView(msg.data() + offset, take));
      offset += take;
    }
    EXPECT_EQ(ctx.finish(), hash_with(kernels::sha256_portable, msg, rng))
        << "len=" << len;
  }
}

TEST(Sha256Kernels, ShaNiMatchesPortable) {
#ifndef LATERAL_X86_CRYPTO_KERNELS
  GTEST_SKIP() << "not an x86-64 build: there is no SHA-NI kernel";
#else
  if (!kernels::cpu_has_sha_ni())
    GTEST_SKIP() << "this CPU lacks SHA-NI (sha_ni); hardware kernel untested";
  util::Xoshiro rng(3);
  for (const ShaVector& v : fips_sha_vectors())
    EXPECT_EQ(util::to_hex(digest_view(
                  hash_with(kernels::sha256_shani, v.message, rng))),
              v.digest)
        << "len=" << v.message.size();
  for (const std::size_t len : sha_lengths(rng)) {
    const Bytes msg = rng.bytes(len);
    EXPECT_EQ(hash_with(kernels::sha256_shani, msg, rng),
              hash_with(kernels::sha256_portable, msg, rng))
        << "len=" << len;
  }
  // Raw compression from arbitrary (non-IV) states, up to 8 blocks a call.
  for (int trial = 0; trial < 200; ++trial) {
    std::uint32_t a[8], b[8];
    for (int i = 0; i < 8; ++i)
      a[i] = b[i] = static_cast<std::uint32_t>(rng.next());
    const std::size_t blocks = 1 + rng.below(8);
    const Bytes data = rng.bytes(64 * blocks);
    kernels::sha256_shani(a, data.data(), blocks);
    kernels::sha256_portable(b, data.data(), blocks);
    EXPECT_TRUE(std::equal(a, a + 8, b)) << "trial " << trial;
  }
#endif
}

// ---------------------------------------------------------------------------
// AES-128

struct AesVector {
  std::string key, plaintext, ciphertext;
};

const AesVector kFips197[] = {
    // Appendix C.1 and Appendix B.
    {"000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff",
     "69c4e0d86a7b0430d8cdb78070b4c55a"},
    {"2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734",
     "3925841d02dc09fbdc118597196a0b32"},
};

std::string encrypt_with(kernels::Aes128Kernel kernel, const AesVector& v) {
  std::uint8_t schedule[176];
  kernels::aes128_expand_key(unhex(v.key).data(), schedule);
  Bytes block = unhex(v.plaintext);
  kernel(schedule, block.data());
  return util::to_hex(block);
}

TEST(Aes128Kernels, PortableMatchesFips197) {
  for (const AesVector& v : kFips197)
    EXPECT_EQ(encrypt_with(kernels::aes128_portable, v), v.ciphertext);
  // Appendix A.1: the last round key, in the byte order both kernels read.
  std::uint8_t schedule[176];
  kernels::aes128_expand_key(unhex(kFips197[1].key).data(), schedule);
  EXPECT_EQ(util::to_hex(BytesView(schedule + 160, 16)),
            "d014f9a8c9ee2589e13f0cc8b6630ca6");
}

TEST(Aes128Kernels, AesNiMatchesPortable) {
#ifndef LATERAL_X86_CRYPTO_KERNELS
  GTEST_SKIP() << "not an x86-64 build: there is no AES-NI kernel";
#else
  if (!kernels::cpu_has_aes_ni())
    GTEST_SKIP() << "this CPU lacks AES-NI (aes); hardware kernel untested";
  for (const AesVector& v : kFips197)
    EXPECT_EQ(encrypt_with(kernels::aes128_aesni, v), v.ciphertext);
  util::Xoshiro rng(4);
  for (int trial = 0; trial < 500; ++trial) {
    const Bytes key = rng.bytes(16);
    std::uint8_t schedule[176];
    kernels::aes128_expand_key(key.data(), schedule);
    Bytes hw = rng.bytes(16), sw = hw;
    kernels::aes128_aesni(schedule, hw.data());
    kernels::aes128_portable(schedule, sw.data());
    EXPECT_EQ(hw, sw) << "trial " << trial;
  }
#endif
}

// ---------------------------------------------------------------------------
// AES-128-CTR stream

// The counter-mode definition, block by block on the portable cipher.
Bytes ctr_reference(const std::uint8_t schedule[176], std::uint64_t nonce,
                    BytesView in) {
  Bytes out(in.begin(), in.end());
  for (std::size_t offset = 0; offset < in.size(); offset += 16) {
    std::uint8_t block[16];
    const std::uint64_t counter = offset / 16;
    for (int i = 0; i < 8; ++i) {
      block[i] = static_cast<std::uint8_t>(nonce >> (56 - 8 * i));
      block[8 + i] = static_cast<std::uint8_t>(counter >> (56 - 8 * i));
    }
    kernels::aes128_portable(schedule, block);
    for (std::size_t i = offset; i < std::min(offset + 16, in.size()); ++i)
      out[i] ^= block[i - offset];
  }
  return out;
}

std::vector<std::size_t> ctr_lengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  lengths.push_back(4096);
  return lengths;
}

const std::uint64_t kCtrNonces[] = {0, 1, 0x0123456789abcdefULL,
                                    ~std::uint64_t{0}};

// `kernel` over every length and nonce, out of place (into a buffer with a
// guard tail that must stay untouched) and in place, against the portable
// kernel.
void expect_ctr_matches_portable(kernels::Aes128CtrKernel kernel) {
  util::Xoshiro rng(5);
  const Bytes key = rng.bytes(16);
  std::uint8_t schedule[176];
  kernels::aes128_expand_key(key.data(), schedule);
  for (const std::uint64_t nonce : kCtrNonces) {
    for (const std::size_t len : ctr_lengths()) {
      const Bytes in = rng.bytes(len);
      Bytes want(len);
      kernels::aes128_ctr_portable(schedule, nonce, in.data(), want.data(),
                                   len);
      Bytes out(len + 16, 0xA5);
      kernel(schedule, nonce, in.data(), out.data(), len);
      EXPECT_TRUE(std::equal(want.begin(), want.end(), out.begin()))
          << "out of place, len=" << len << " nonce=" << nonce;
      EXPECT_TRUE(std::all_of(out.begin() + static_cast<long>(len), out.end(),
                              [](std::uint8_t b) { return b == 0xA5; }))
          << "wrote past len=" << len;
      Bytes inplace = in;
      kernel(schedule, nonce, inplace.data(), inplace.data(), len);
      EXPECT_EQ(inplace, want) << "in place, len=" << len
                               << " nonce=" << nonce;
    }
  }
}

TEST(AesCtrKernels, PortableMatchesCounterMode) {
  util::Xoshiro rng(6);
  const Bytes key = rng.bytes(16);
  std::uint8_t schedule[176];
  kernels::aes128_expand_key(key.data(), schedule);
  for (const std::uint64_t nonce : kCtrNonces) {
    for (const std::size_t len : ctr_lengths()) {
      const Bytes in = rng.bytes(len);
      Bytes out(len);
      kernels::aes128_ctr_portable(schedule, nonce, in.data(), out.data(),
                                   len);
      EXPECT_EQ(out, ctr_reference(schedule, nonce, in)) << "len=" << len;
    }
  }
}

TEST(AesCtrKernels, AesNiMatchesPortable) {
#ifndef LATERAL_X86_CRYPTO_KERNELS
  GTEST_SKIP() << "not an x86-64 build: there is no AES-NI kernel";
#else
  if (!kernels::cpu_has_aes_ni())
    GTEST_SKIP() << "this CPU lacks AES-NI (aes); hardware kernel untested";
  expect_ctr_matches_portable(kernels::aes128_ctr_aesni);
#endif
}

TEST(EncMacKeys, MatchesTheRawKeys) {
  const Bytes keys = pattern(48, 13, 5);
  const EncMacKeys keyed(keys);
  Aes128Key enc{};
  std::copy(keys.begin(), keys.begin() + 16, enc.begin());
  const Bytes plain = pattern(100, 3, 1);
  EXPECT_EQ(aes128_ctr(keyed.cipher, 9, plain), aes128_ctr(enc, 9, plain));
  Hmac mac = keyed.mac;
  mac.update(plain);
  EXPECT_EQ(mac.finish(),
            hmac_sha256(BytesView(keys.data() + 16, 32), plain));
  EXPECT_THROW(EncMacKeys(BytesView(keys.data(), 47)), Error);
}

// ---------------------------------------------------------------------------
// Keyed HMAC state

TEST(HmacKeyed, CopiesEqualFreshKeying) {
  // Keys below, at and above the 64-byte block (hashed first), and empty.
  const std::pair<std::size_t, std::string> golden[] = {
      {0, "d62dbccae339dcf048b93fc28969e0f380904313964259db8f57e0f6cd3a0284"},
      {64, "2be563407c67c8b62a2b11be3fd3989ff99e5071a3b3c832ec136787cc2b36c8"},
      {65, "16056a16e72460dc600f7cc85f3e1fdf33c35c0d2d3fd38ed8c29fc20ff4481c"},
      {200,
       "bd25888b6637b80dd7de7b96169a3839c33f86f55350fef4f98ba6d559fa1927"},
  };
  const Bytes m1 = to_bytes("lateral.golden.hmac");
  const Bytes m2 = pattern(150, 11, 2);
  for (const auto& [key_len, digest] : golden) {
    const Bytes key = pattern(key_len, 7, 3);
    const Hmac keyed(key);
    // Two copies fed in interleaved order must not see each other.
    Hmac a = keyed, b = keyed;
    a.update(BytesView(m1.data(), 7));
    b.update(BytesView(m2.data(), 100));
    a.update(BytesView(m1.data() + 7, m1.size() - 7));
    b.update(BytesView(m2.data() + 100, m2.size() - 100));
    const Digest db = b.finish();
    const Digest da = a.finish();
    EXPECT_EQ(util::to_hex(digest_view(da)), digest) << "key " << key_len;
    EXPECT_EQ(da, hmac_sha256(key, m1)) << "key " << key_len;
    EXPECT_EQ(db, hmac_sha256(key, m2)) << "key " << key_len;
    // The keyed original is untouched by its copies.
    Hmac c = keyed;
    c.update(m1);
    EXPECT_EQ(c.finish(), da) << "key " << key_len;
  }
}

// ---------------------------------------------------------------------------
// HMAC from parts

// HMAC-SHA256 by its definition, on the streaming Sha256 alone.
Digest hmac_reference(BytesView key, BytesView message) {
  std::uint8_t block[64] = {};
  if (key.size() > 64) {
    const Digest d = Sha256::hash(key);
    std::copy(d.begin(), d.end(), block);
  } else {
    std::copy(key.begin(), key.end(), block);
  }
  std::uint8_t ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = block[i] ^ 0x36;
    opad[i] = block[i] ^ 0x5c;
  }
  const Digest inner = Sha256::hash2(BytesView(ipad, 64), message);
  return Sha256::hash2(BytesView(opad, 64), digest_view(inner));
}

// The keyed midstates kernels::hmac_parts starts from, made here with the
// portable kernel.
struct Midstates {
  std::uint32_t inner[8], outer[8];
};

Midstates midstates(BytesView key) {
  std::uint8_t pads[2][64] = {};
  std::copy(key.begin(), key.end(), pads[0]);  // keys of at most 64 bytes
  std::copy(key.begin(), key.end(), pads[1]);
  for (int i = 0; i < 64; ++i) {
    pads[0][i] ^= 0x36;
    pads[1][i] ^= 0x5c;
  }
  Midstates m;
  for (int i = 0; i < 2; ++i) {
    std::uint32_t* state = i == 0 ? m.inner : m.outer;
    const std::uint32_t iv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                 0xa54ff53a, 0x510e527f, 0x9b05688c,
                                 0x1f83d9ab, 0x5be0cd19};
    std::copy(iv, iv + 8, state);
    kernels::sha256_portable(state, pads[i], 1);
  }
  return m;
}

// Every split of every message of 0..200 bytes into one, two and three
// parts, through `mac`, against the reference. Lengths 55/56, 64 and
// 119/120 are where the padding spills into a second tail block.
template <typename Mac>
void expect_every_split(const Mac& mac, BytesView key, const char* path) {
  util::Xoshiro rng(7);
  const Bytes message = rng.bytes(200);
  for (std::size_t len = 0; len <= message.size(); ++len) {
    const BytesView m(message.data(), len);
    const Digest want = hmac_reference(key, m);
    for (std::size_t i = 0; i <= len; ++i)
      for (std::size_t j = i; j <= len; ++j)
        ASSERT_EQ(mac(m.first(i), m.subspan(i, j - i), m.subspan(j)), want)
            << path << " len=" << len << " split " << i << "," << j;
  }
}

TEST(HmacParts, MacMatchesReferenceAtEverySplit) {
  const Bytes key = pattern(32, 5, 9);
  const Hmac keyed(key);
  expect_every_split(
      [&](BytesView a, BytesView b, BytesView c) {
        return keyed.mac({a, b, c});
      },
      key, "Hmac::mac");
  // Fewer parts than three, and the one-shot wrapper.
  const Bytes m = pattern(130, 3, 4);
  EXPECT_EQ(keyed.mac({}), hmac_reference(key, {}));
  EXPECT_EQ(keyed.mac({m}), hmac_reference(key, m));
  EXPECT_EQ(hmac_sha256(key, m), hmac_reference(key, m));
}

// Both kernel families through the same absorb-and-pad code.
Digest parts_on(kernels::Sha256Kernel compress,
                kernels::HmacFinishKernel finish, const Midstates& keyed,
                std::initializer_list<BytesView> parts) {
  Digest out;
  kernels::hmac_parts(keyed.inner, keyed.outer,
                      std::span<const BytesView>(parts.begin(), parts.size()),
                      compress, finish, out.data());
  return out;
}

TEST(HmacParts, PortableMatchesReferenceAtEverySplit) {
  const Bytes key = pattern(48, 7, 1);
  const Midstates keyed = midstates(key);
  expect_every_split(
      [&](BytesView a, BytesView b, BytesView c) {
        return parts_on(kernels::sha256_portable,
                        kernels::hmac_finish_portable, keyed, {a, b, c});
      },
      key, "portable");
}

TEST(HmacParts, ShaNiMatchesPortable) {
#ifndef LATERAL_X86_CRYPTO_KERNELS
  GTEST_SKIP() << "not an x86-64 build: there is no SHA-NI kernel";
#else
  if (!kernels::cpu_has_sha_ni())
    GTEST_SKIP() << "this CPU lacks SHA-NI (sha_ni); hardware kernel untested";
  const Bytes key = pattern(48, 7, 1);
  const Midstates keyed = midstates(key);
  expect_every_split(
      [&](BytesView a, BytesView b, BytesView c) {
        return parts_on(kernels::sha256_shani, kernels::hmac_finish_shani,
                        keyed, {a, b, c});
      },
      key, "SHA-NI");
  // The finish kernel alone, from arbitrary (non-keyed) states.
  util::Xoshiro rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint32_t inner[8], outer[8];
    for (int i = 0; i < 8; ++i) {
      inner[i] = static_cast<std::uint32_t>(rng.next());
      outer[i] = static_cast<std::uint32_t>(rng.next());
    }
    const std::size_t blocks = 1 + rng.below(2);
    const Bytes tail = rng.bytes(64 * blocks);
    std::uint8_t hw[32], sw[32];
    kernels::hmac_finish_shani(inner, tail.data(), blocks, outer, hw);
    kernels::hmac_finish_portable(inner, tail.data(), blocks, outer, sw);
    EXPECT_TRUE(std::equal(hw, hw + 32, sw)) << "trial " << trial;
  }
#endif
}

TEST(HmacParts, Rfc4231Vectors) {
  const Bytes long_key(131, 0xaa);
  const struct {
    Bytes key, data;
    std::string mac;  // case 5 is truncated to 128 bits
  } cases[] = {
      {Bytes(20, 0x0b), to_bytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {to_bytes("Jefe"), to_bytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {unhex("0102030405060708090a0b0c0d0e0f10111213141516171819"),
       Bytes(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {Bytes(20, 0x0c), to_bytes("Test With Truncation"),
       "a3b6167473100ee06e0c796c2955552b"},
      {long_key,
       to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {long_key,
       to_bytes("This is a test using a larger than block-size key and a "
                "larger than block-size data. The key needs to be hashed "
                "before being used by the HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Hmac keyed(cases[i].key);
    const BytesView data = cases[i].data;
    // Whole, and split in three around the middle.
    const std::size_t a = data.size() / 3, b = 2 * data.size() / 3;
    for (const Digest& d :
         {keyed.mac({data}), keyed.mac({data.first(a),
                                        data.subspan(a, b - a),
                                        data.subspan(b)})}) {
      const std::string hex = util::to_hex(digest_view(d));
      EXPECT_EQ(hex.substr(0, cases[i].mac.size()), cases[i].mac)
          << "RFC 4231 case " << i + 1;
    }
  }
}

TEST(HmacParts, RefusesAFedContext) {
  Hmac ctx(to_bytes("key"));
  ctx.update(to_bytes("m"));
  EXPECT_THROW(ctx.mac({to_bytes("m")}), Error);
}

// ---------------------------------------------------------------------------
// Golden vectors: the exact bytes of the byte-at-a-time implementation.

constexpr std::size_t kGoldenLengths[] = {0, 1, 15, 16, 17, 64, 4096};

TEST(CryptoGolden, AeadSeal) {
  const std::pair<std::string, std::string> golden[] = {
      {"", "d5c964427b8523d7b456340821385e81"},
      {"f9", "62c443be0fb346ada8db5a6e22870f1b"},
      {"b082bea8e4aa8dada060aee32a5354", "a821b4d8ef663d3bbe47ccba6ad0617e"},
      {"65ce5de442048a907f7b7fc5b84b6790", "a734e8d140e331cc96a77716e77f5cfe"},
      {"4119328440b30d2bdcdb59c1c76f921b72",
       "5e5b97a5a6c28bf47d96858ac8ab52cc"},
      {"ad185e260e23f7f996e639edd21e74e58a275c396a786e603c62be3586375cd4b7edb1"
       "482d9ff879e7a2a857169f5e3eaf955dbded5535d21ca6afd947e37165",
       "45ce62d05ed3829962ad026605ef6374"},
      {"sha256:"
       "37bad9e971c3918ccbf766d093458556e8cc9c5aa8a8045227b37e5e06980ef8",
       "144bf870d4b53ec32ebc8fcf8ad89db8"},
  };
  const Aead aead(to_bytes("lateral.golden.aead"));
  for (std::size_t i = 0; i < std::size(kGoldenLengths); ++i) {
    const std::size_t n = kGoldenLengths[i];
    const Bytes plain = pattern(n, 31, static_cast<unsigned>(n));
    const SealedBox box = aead.seal(1000 + n, to_bytes("golden-aad"), plain);
    EXPECT_EQ(pin(box.ciphertext), golden[i].first) << "len=" << n;
    EXPECT_EQ(util::to_hex(BytesView(box.tag.data(), box.tag.size())),
              golden[i].second)
        << "len=" << n;
    auto open = aead.open(box, to_bytes("golden-aad"));
    ASSERT_TRUE(open.ok());
    EXPECT_EQ(*open, plain);
  }
}

TEST(CryptoGolden, Hkdf) {
  const std::string golden[] = {
      "",
      "5d",
      "5df40aa766e6129e19d0cd3d64ec48",
      "5df40aa766e6129e19d0cd3d64ec48df",
      "5df40aa766e6129e19d0cd3d64ec48dfe4",
      "5df40aa766e6129e19d0cd3d64ec48dfe4e08eb8a90d0a840e2e41d655ab59ee57dd1a4"
      "31572a80f83071f250b7ed69ab9494ce153d9c9c96e47d00d3f67e5f6",
      "sha256:01c5b20adc40d9b76154be756eff4e912595a427b7931effec527e516b704dd8",
  };
  for (std::size_t i = 0; i < std::size(kGoldenLengths); ++i)
    EXPECT_EQ(pin(hkdf(to_bytes("lateral.golden.salt"), to_bytes("golden-ikm"),
                       to_bytes("golden-info"), kGoldenLengths[i])),
              golden[i])
        << "len=" << kGoldenLengths[i];
}

TEST(CryptoGolden, HmacDrbg) {
  // One generator, each length drawn in turn.
  const std::string golden[] = {
      "",
      "b0",
      "ae4007da6d2cff71eeb42aff6a8ae3",
      "d9850d36990c0f424f051245e5aad95b",
      "6af1892b322aaa67814f98eef71e627d26",
      "dbabab1db8d53aebc13322ad26925f94b34791a54c32879065d69dfa74a4cfc35535f6"
      "dd78847d4339c414b32dd364a571f86ee5e8e4fed52f51ee56e7849155",
      "sha256:c9dae1ad0df22d77f4017bb959a2b870715dd14c5a8257a02097f9d7f7363ff2",
  };
  HmacDrbg drbg(to_bytes("lateral.golden.drbg"));
  for (std::size_t i = 0; i < std::size(kGoldenLengths); ++i)
    EXPECT_EQ(pin(drbg.generate(kGoldenLengths[i])), golden[i])
        << "len=" << kGoldenLengths[i];
}

}  // namespace
}  // namespace lateral::crypto

// RSA signature scheme: correctness, tamper rejection, serialization, and
// CRT signing against plain exponentiation.
#include <gtest/gtest.h>

#include <set>

#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"

namespace lateral::crypto {
namespace {

// The message representative rsa_sign exponentiates, rebuilt from the
// encoding's definition: 00 01 FF..FF 00 "sha256:" SHA-256(message).
Bignum message_representative(const RsaPublicKey& pub, BytesView message) {
  const std::size_t em_len = (pub.n.bit_length() + 7) / 8;
  const Bytes marker = to_bytes("sha256:");
  const Digest digest = Sha256::hash(message);
  Bytes em = {0x00, 0x01};
  em.insert(em.end(), em_len - marker.size() - digest.size() - 3, 0xFF);
  em.push_back(0x00);
  em.insert(em.end(), marker.begin(), marker.end());
  em.insert(em.end(), digest.begin(), digest.end());
  return Bignum::from_bytes(em);
}

// rsa_sign's CRT result must be em^d mod n exactly.
void expect_crt_matches_plain(const RsaKeyPair& key, BytesView message) {
  const Bignum em = message_representative(key.pub, message);
  ASSERT_GE(em, key.p);  // the half-size exponentiations reduce em first
  ASSERT_GE(em, key.q);
  EXPECT_EQ(Bignum::from_bytes(rsa_sign(key, message)),
            em.powmod(key.d, key.pub.n))
      << key.pub.n.to_hex();
}

class RsaTest : public ::testing::Test {
 protected:
  // Shared keypair: generation dominates test time, correctness tests can
  // reuse it.
  static const RsaKeyPair& keypair() {
    static const RsaKeyPair kp = [] {
      HmacDrbg drbg(to_bytes("rsa-test-keys"));
      return RsaKeyPair::generate(drbg, 512);
    }();
    return kp;
  }
};

TEST_F(RsaTest, SignVerifyRoundTrip) {
  const Bytes sig = rsa_sign(keypair(), to_bytes("hello world"));
  EXPECT_TRUE(rsa_verify(keypair().pub, to_bytes("hello world"), sig).ok());
}

TEST_F(RsaTest, RejectsDifferentMessage) {
  const Bytes sig = rsa_sign(keypair(), to_bytes("message-a"));
  EXPECT_EQ(rsa_verify(keypair().pub, to_bytes("message-b"), sig).error(),
            Errc::verification_failed);
}

TEST_F(RsaTest, RejectsTamperedSignature) {
  Bytes sig = rsa_sign(keypair(), to_bytes("msg"));
  sig[sig.size() / 2] ^= 0x01;
  EXPECT_FALSE(rsa_verify(keypair().pub, to_bytes("msg"), sig).ok());
}

TEST_F(RsaTest, RejectsTruncatedSignature) {
  Bytes sig = rsa_sign(keypair(), to_bytes("msg"));
  sig.pop_back();
  EXPECT_FALSE(rsa_verify(keypair().pub, to_bytes("msg"), sig).ok());
}

TEST_F(RsaTest, RejectsWrongKey) {
  HmacDrbg drbg(to_bytes("other-key"));
  const RsaKeyPair other = RsaKeyPair::generate(drbg, 512);
  const Bytes sig = rsa_sign(keypair(), to_bytes("msg"));
  EXPECT_FALSE(rsa_verify(other.pub, to_bytes("msg"), sig).ok());
}

TEST_F(RsaTest, SignatureWidthEqualsModulusWidth) {
  const Bytes sig = rsa_sign(keypair(), to_bytes("x"));
  EXPECT_EQ(sig.size(), (keypair().pub.n.bit_length() + 7) / 8);
}

TEST_F(RsaTest, EmptyMessageSignable) {
  const Bytes sig = rsa_sign(keypair(), {});
  EXPECT_TRUE(rsa_verify(keypair().pub, {}, sig).ok());
}

TEST_F(RsaTest, LargeMessageSignable) {
  const Bytes big(100'000, 0x42);
  const Bytes sig = rsa_sign(keypair(), big);
  EXPECT_TRUE(rsa_verify(keypair().pub, big, sig).ok());
}

TEST_F(RsaTest, CrtComponentsAreConsistent) {
  const RsaKeyPair& key = keypair();
  const Bignum one(1);
  EXPECT_EQ(key.p * key.q, key.pub.n);
  EXPECT_EQ(key.dp, key.d % (key.p - one));
  EXPECT_EQ(key.dq, key.d % (key.q - one));
  EXPECT_EQ(key.q.mulmod(key.qinv, key.p), one);
}

// 50 seeded 512-bit keys, four messages each, and one 1024-bit key. About
// half of the keys have p < q, where Garner's formula needs its +p, and
// its m2 mod p whenever em^dq mod q lands above p + m1.
TEST_F(RsaTest, CrtSignatureMatchesPlainExponentiation) {
  HmacDrbg drbg(to_bytes("crt-differential"));
  int p_greater = 0, q_greater = 0;
  for (int i = 0; i < 50; ++i) {
    const RsaKeyPair key = RsaKeyPair::generate(drbg, 512);
    (key.p > key.q ? p_greater : q_greater) += 1;
    for (int j = 0; j < 4; ++j)
      expect_crt_matches_plain(
          key, to_bytes("crt message " + std::to_string(4 * i + j)));
  }
  EXPECT_GT(p_greater, 0);
  EXPECT_GT(q_greater, 0);
  const RsaKeyPair big = RsaKeyPair::generate(drbg, 1024);
  for (int i = 0; i < 4; ++i)
    expect_crt_matches_plain(big, to_bytes("crt 1024 " + std::to_string(i)));
}

// Boneh-DeMillo-Lipton: a signature computed from a faulty CRT half would
// reveal a factor of n, so rsa_sign must throw rather than return it.
TEST_F(RsaTest, CrtFaultCheckWithholdsFaultySignature) {
  RsaKeyPair bad_dp = keypair();
  bad_dp.dp = bad_dp.dp + Bignum(1);
  EXPECT_THROW(rsa_sign(bad_dp, to_bytes("msg")), Error);
  RsaKeyPair bad_qinv = keypair();
  bad_qinv.qinv = bad_qinv.qinv + Bignum(1);
  EXPECT_THROW(rsa_sign(bad_qinv, to_bytes("msg")), Error);
  // The untouched key still signs.
  EXPECT_TRUE(rsa_verify(keypair().pub, to_bytes("msg"),
                         rsa_sign(keypair(), to_bytes("msg")))
                  .ok());
}

// generate() builds the Montgomery contexts of p, q and n once; copies
// share them, and rsa_sign refuses a key without its own.
TEST_F(RsaTest, GeneratedKeyKeepsItsMontgomeryContexts) {
  const RsaKeyPair& key = keypair();
  ASSERT_TRUE(key.mont_p && key.mont_q && key.mont_n);
  EXPECT_EQ(key.mont_p->value(), key.p);
  EXPECT_EQ(key.mont_q->value(), key.q);
  EXPECT_EQ(key.mont_n->value(), key.pub.n);
  const RsaKeyPair copy = key;
  EXPECT_EQ(copy.mont_p, key.mont_p);
  const Bytes message = to_bytes("contexts");
  EXPECT_EQ(rsa_sign(copy, message), rsa_sign(key, message));

  // A hand-built key (no contexts) or one with contexts that do not match
  // their fields is refused before anything is computed with them.
  const auto refused = [&](const RsaKeyPair& bad) {
    try {
      (void)rsa_sign(bad, message);
    } catch (const Error& e) {
      return std::string(e.what()).find("Montgomery context") !=
             std::string::npos;
    }
    return false;
  };
  for (auto RsaKeyPair::* context :
       {&RsaKeyPair::mont_p, &RsaKeyPair::mont_q, &RsaKeyPair::mont_n}) {
    RsaKeyPair bare = key;
    (bare.*context).reset();
    EXPECT_TRUE(refused(bare));
  }
  RsaKeyPair crossed = key;
  crossed.mont_p = key.mont_q;
  crossed.mont_q = key.mont_p;
  EXPECT_TRUE(refused(crossed));
  RsaKeyPair crossed_n = key;
  crossed_n.mont_n = key.mont_p;
  EXPECT_TRUE(refused(crossed_n));
}

TEST_F(RsaTest, PublicKeySerializationRoundTrip) {
  auto parsed = RsaPublicKey::deserialize(keypair().pub.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, keypair().pub);
}

TEST_F(RsaTest, DeserializeRejectsTruncation) {
  Bytes wire = keypair().pub.serialize();
  wire.pop_back();
  EXPECT_FALSE(RsaPublicKey::deserialize(wire).ok());
}

TEST_F(RsaTest, DeserializeRejectsTrailingGarbage) {
  Bytes wire = keypair().pub.serialize();
  wire.push_back(0x00);
  EXPECT_FALSE(RsaPublicKey::deserialize(wire).ok());
}

TEST_F(RsaTest, FingerprintStableAndDistinct) {
  EXPECT_EQ(keypair().pub.fingerprint(), keypair().pub.fingerprint());
  HmacDrbg drbg(to_bytes("fp-key"));
  const RsaKeyPair other = RsaKeyPair::generate(drbg, 512);
  EXPECT_NE(keypair().pub.fingerprint(), other.pub.fingerprint());
}

TEST_F(RsaTest, GenerationRejectsTinyModulus) {
  HmacDrbg drbg(to_bytes("tiny"));
  EXPECT_THROW(RsaKeyPair::generate(drbg, 128), Error);
}

// n has modulus_bits or one bit less, and a signature's encoding needs 50
// bytes, an n of at least 393 bits. So 393 is refused at generation
// rather than at the first signature, and the smallest accepted size signs
// and verifies whichever of its two widths n has.
TEST_F(RsaTest, GenerationRefusesModulusTooSmallToSign) {
  HmacDrbg drbg(to_bytes("smallest-modulus"));
  EXPECT_THROW(RsaKeyPair::generate(drbg, 393), Error);
  std::set<std::size_t> widths;
  for (int i = 0; i < 8; ++i) {
    const RsaKeyPair key = RsaKeyPair::generate(drbg, 394);
    widths.insert(key.pub.n.bit_length());
    const Bytes sig = rsa_sign(key, to_bytes("smallest"));
    EXPECT_TRUE(rsa_verify(key.pub, to_bytes("smallest"), sig).ok());
  }
  EXPECT_EQ(widths, (std::set<std::size_t>{393, 394}));
}

TEST_F(RsaTest, DistinctKeysFromDistinctSeeds) {
  HmacDrbg a(to_bytes("seed-a")), b(to_bytes("seed-b"));
  EXPECT_NE(RsaKeyPair::generate(a, 512).pub,
            RsaKeyPair::generate(b, 512).pub);
}

TEST_F(RsaTest, DeterministicKeygenFromSeed) {
  HmacDrbg a(to_bytes("same-seed")), b(to_bytes("same-seed"));
  EXPECT_EQ(RsaKeyPair::generate(a, 512).pub,
            RsaKeyPair::generate(b, 512).pub);
}

}  // namespace
}  // namespace lateral::crypto

// Diffie-Hellman agreement and Merkle tree properties.
#include <gtest/gtest.h>

#include <latch>
#include <thread>

#include "crypto/dh.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/rsa.h"
#include "util/rng.h"

namespace lateral::crypto {
namespace {

TEST(Dh, SharedSecretAgrees) {
  HmacDrbg drbg(to_bytes("dh"));
  const DhGroup& group = DhGroup::oakley1();
  const DhKeyPair a = DhKeyPair::generate(group, drbg);
  const DhKeyPair b = DhKeyPair::generate(group, drbg);
  auto sa = dh_shared_secret(group, a.private_key, b.public_key);
  auto sb = dh_shared_secret(group, b.private_key, a.public_key);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(*sa, *sb);
}

TEST(Dh, DistinctSessionsDistinctSecrets) {
  HmacDrbg drbg(to_bytes("dh2"));
  const DhGroup& group = DhGroup::oakley1();
  const DhKeyPair a = DhKeyPair::generate(group, drbg);
  const DhKeyPair b = DhKeyPair::generate(group, drbg);
  const DhKeyPair c = DhKeyPair::generate(group, drbg);
  EXPECT_NE(*dh_shared_secret(group, a.private_key, b.public_key),
            *dh_shared_secret(group, a.private_key, c.public_key));
}

TEST(Dh, RejectsDegeneratePublicValues) {
  HmacDrbg drbg(to_bytes("dh3"));
  const DhGroup& group = DhGroup::oakley1();
  const DhKeyPair a = DhKeyPair::generate(group, drbg);
  EXPECT_FALSE(dh_shared_secret(group, a.private_key, Bignum(0)).ok());
  EXPECT_FALSE(dh_shared_secret(group, a.private_key, Bignum(1)).ok());
  EXPECT_FALSE(
      dh_shared_secret(group, a.private_key, group.p - Bignum(1)).ok());
  EXPECT_FALSE(dh_shared_secret(group, a.private_key, group.p).ok());
}

TEST(Dh, SecretIsFixedWidth) {
  HmacDrbg drbg(to_bytes("dh4"));
  const DhGroup& group = DhGroup::oakley1();
  const DhKeyPair a = DhKeyPair::generate(group, drbg);
  const DhKeyPair b = DhKeyPair::generate(group, drbg);
  auto s = dh_shared_secret(group, a.private_key, b.public_key);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->size(), (group.p.bit_length() + 7) / 8);
}

TEST(Dh, PublicKeyInGroup) {
  HmacDrbg drbg(to_bytes("dh5"));
  const DhGroup& group = DhGroup::oakley1();
  for (int i = 0; i < 5; ++i) {
    const DhKeyPair kp = DhKeyPair::generate(group, drbg);
    EXPECT_LT(kp.public_key, group.p);
    EXPECT_GT(kp.public_key, Bignum(1));
  }
}

// generate takes g^x from the group's fixed-base table; it must equal the
// window exponentiation for every seeded x.
TEST(Dh, PublicKeyEqualsPowmod) {
  HmacDrbg drbg(to_bytes("dh6"));
  const DhGroup& group = DhGroup::oakley1();
  for (int i = 0; i < 16; ++i) {
    const DhKeyPair kp = DhKeyPair::generate(group, drbg);
    EXPECT_EQ(kp.private_key.bit_length(), DhGroup::kPrivateKeyBits);
    EXPECT_EQ(kp.public_key, group.g.powmod(kp.private_key, group.p));
  }
}

TEST(Dh, GeneratorTableBuiltOncePerGroup) {
  const DhGroup& group = DhGroup::oakley1();
  const FixedBaseTable& table = group.generator_table();
  EXPECT_EQ(&table, &group.generator_table());
  EXPECT_EQ(table.modulus().value(), group.p);
  // A second group over the same prime has a table of its own.
  const DhGroup copy(group.p, group.g);
  EXPECT_NE(&copy.generator_table(), &table);
  const Bignum x(0x123456789ABCDEFULL);
  EXPECT_EQ(copy.generator_table().pow(x), group.g.powmod(x, group.p));
  EXPECT_EQ(table.pow(x), group.g.powmod(x, group.p));
}

// Four threads generate key pairs, agree secrets and sign with one shared
// RSA key, all at once. Their first key pair comes from a fresh group, so
// they also race to build its table; the rest come from oakley1(). Every
// result must match the single-threaded reference; the CI
// thread-sanitizer job runs this suite.
TEST(Dh, ConcurrentKeyGenerationAndSigning) {
  const DhGroup& group = DhGroup::oakley1();
  const DhGroup fresh(group.p, group.g);
  HmacDrbg key_drbg(to_bytes("dh-threads-rsa"));
  const RsaKeyPair signer = RsaKeyPair::generate(key_drbg, 512);
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::latch start(kThreads);
  std::vector<std::vector<DhKeyPair>> pairs(kThreads);
  std::vector<std::vector<Bytes>> secrets(kThreads), signatures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      HmacDrbg drbg(to_bytes("dh-thread-" + std::to_string(t)));
      start.arrive_and_wait();
      for (int r = 0; r < kRounds; ++r) {
        pairs[t].push_back(DhKeyPair::generate(r == 0 ? fresh : group, drbg));
        const DhKeyPair& mine = pairs[t].back();
        auto secret = dh_shared_secret(group, mine.private_key,
                                       pairs[t].front().public_key);
        secrets[t].push_back(secret ? *secret : Bytes{});
        signatures[t].push_back(rsa_sign(signer, mine.public_key.to_bytes()));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(pairs[t].size(), static_cast<std::size_t>(kRounds));
    for (int r = 0; r < kRounds; ++r) {
      const DhKeyPair& kp = pairs[t][r];
      EXPECT_EQ(kp.public_key, group.g.powmod(kp.private_key, group.p));
      const Bignum expected = pairs[t].front().public_key.powmod(
          kp.private_key, group.p);
      EXPECT_EQ(Bignum::from_bytes(secrets[t][r]), expected);
      EXPECT_TRUE(rsa_verify(signer.pub, kp.public_key.to_bytes(),
                             signatures[t][r])
                      .ok());
    }
  }
}

TEST(Merkle, EmptyTreeHasStableRoot) {
  MerkleTree a(4), b(4);
  EXPECT_EQ(a.root(), b.root());
}

TEST(Merkle, UpdateChangesRoot) {
  MerkleTree tree(4);
  const Digest before = tree.root();
  ASSERT_TRUE(tree.update_leaf(2, to_bytes("data")).ok());
  EXPECT_NE(tree.root(), before);
}

TEST(Merkle, SameContentSameRoot) {
  MerkleTree a(8), b(8);
  for (std::size_t i = 0; i < 8; ++i) {
    const Bytes data = to_bytes("leaf-" + std::to_string(i));
    ASSERT_TRUE(a.update_leaf(i, data).ok());
    ASSERT_TRUE(b.update_leaf(i, data).ok());
  }
  EXPECT_EQ(a.root(), b.root());
}

TEST(Merkle, OrderOfUpdatesIrrelevant) {
  MerkleTree a(4), b(4);
  ASSERT_TRUE(a.update_leaf(0, to_bytes("x")).ok());
  ASSERT_TRUE(a.update_leaf(3, to_bytes("y")).ok());
  ASSERT_TRUE(b.update_leaf(3, to_bytes("y")).ok());
  ASSERT_TRUE(b.update_leaf(0, to_bytes("x")).ok());
  EXPECT_EQ(a.root(), b.root());
}

TEST(Merkle, ProofVerifies) {
  MerkleTree tree(8);
  for (std::size_t i = 0; i < 8; ++i)
    ASSERT_TRUE(tree.update_leaf(i, to_bytes("v" + std::to_string(i))).ok());
  for (std::size_t i = 0; i < 8; ++i) {
    auto proof = tree.prove(i);
    ASSERT_TRUE(proof.ok());
    EXPECT_TRUE(MerkleTree::verify(tree.root(),
                                   to_bytes("v" + std::to_string(i)), *proof)
                    .ok());
  }
}

TEST(Merkle, ProofRejectsWrongData) {
  MerkleTree tree(4);
  ASSERT_TRUE(tree.update_leaf(1, to_bytes("real")).ok());
  auto proof = tree.prove(1);
  ASSERT_TRUE(proof.ok());
  EXPECT_EQ(
      MerkleTree::verify(tree.root(), to_bytes("fake"), *proof).error(),
      Errc::verification_failed);
}

TEST(Merkle, ProofRejectsWrongPosition) {
  MerkleTree tree(4);
  ASSERT_TRUE(tree.update_leaf(0, to_bytes("a")).ok());
  ASSERT_TRUE(tree.update_leaf(1, to_bytes("b")).ok());
  auto proof = tree.prove(0);
  ASSERT_TRUE(proof.ok());
  proof->index = 1;  // leaf 0's data claimed at position 1
  // The sibling path for leaf 0 applied at index 1 folds in the wrong
  // order, so the computed root differs.
  EXPECT_FALSE(MerkleTree::verify(tree.root(), to_bytes("a"), *proof).ok());
}

TEST(Merkle, OutOfRangeLeafRejected) {
  MerkleTree tree(4);
  EXPECT_FALSE(tree.update_leaf(4, to_bytes("x")).ok());
  EXPECT_FALSE(tree.prove(4).ok());
}

TEST(Merkle, NonPowerOfTwoLeafCount) {
  MerkleTree tree(5);
  EXPECT_EQ(tree.leaf_count(), 5u);
  ASSERT_TRUE(tree.update_leaf(4, to_bytes("last")).ok());
  auto proof = tree.prove(4);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(MerkleTree::verify(tree.root(), to_bytes("last"), *proof).ok());
}

TEST(Merkle, DomainSeparationLeafVsNode) {
  // A leaf containing what looks like two concatenated digests must not
  // equal an interior node hash (0x00 vs 0x01 tags).
  const Digest l = MerkleTree::leaf_hash(to_bytes("x"));
  const Digest r = MerkleTree::leaf_hash(to_bytes("y"));
  Bytes fake;
  fake.insert(fake.end(), l.begin(), l.end());
  fake.insert(fake.end(), r.begin(), r.end());
  EXPECT_NE(MerkleTree::leaf_hash(fake), MerkleTree::node_hash(l, r));
}

class MerkleSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleSizeTest, AllProofsVerifyAtSize) {
  const std::size_t n = GetParam();
  MerkleTree tree(n);
  util::Xoshiro rng(n);
  std::vector<Bytes> leaves;
  for (std::size_t i = 0; i < n; ++i) {
    leaves.push_back(rng.bytes(16));
    ASSERT_TRUE(tree.update_leaf(i, leaves.back()).ok());
  }
  for (std::size_t i = 0; i < n; ++i) {
    auto proof = tree.prove(i);
    ASSERT_TRUE(proof.ok());
    EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[i], *proof).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleSizeTest,
                         ::testing::Values(1, 2, 3, 7, 8, 9, 31, 64));

}  // namespace
}  // namespace lateral::crypto

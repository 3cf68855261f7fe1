// SHA-256 against FIPS 180-4 / NIST CAVP vectors plus incremental-update
// properties.
#include <gtest/gtest.h>

#include "crypto/sha256.h"
#include "util/hex.h"
#include "util/rng.h"

namespace lateral::crypto {
namespace {

std::string hex_of(const Digest& d) { return util::to_hex(digest_view(d)); }

TEST(Sha256, EmptyInput) {
  EXPECT_EQ(hex_of(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, EmptyUpdatesAreNoOps) {
  // Empty views (which may carry a null pointer) at a block boundary and
  // mid-block leave the digest unchanged.
  Sha256 ctx;
  ctx.update({});
  ctx.update(to_bytes("abc"));
  ctx.update({});
  EXPECT_EQ(ctx.finish(), Sha256::hash(to_bytes("abc")));
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_of(Sha256::hash(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_of(Sha256::hash(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  const Bytes input(1'000'000, 'a');
  EXPECT_EQ(hex_of(Sha256::hash(input)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: exercises the padding-into-second-block path.
  const Bytes input(64, 0x61);
  EXPECT_EQ(hex_of(Sha256::hash(input)),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, FiftyFiveAndFiftySixBytes) {
  // 55 bytes is the largest single-block message; 56 forces two blocks.
  const Digest d55 = Sha256::hash(Bytes(55, 0));
  const Digest d56 = Sha256::hash(Bytes(56, 0));
  EXPECT_EQ(hex_of(d55),
            "02779466cdec163811d078815c633f21901413081449002f24aa3e80f0b88ef7");
  EXPECT_EQ(hex_of(d56),
            "d4817aa5497628e7c77e6b606107042bbba3130888c5f47a375e6179be789fbb");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  util::Xoshiro rng(11);
  const Bytes data = rng.bytes(1000);
  Sha256 ctx;
  std::size_t offset = 0;
  const std::size_t chunks[] = {1, 63, 64, 65, 128, 679};
  for (const std::size_t chunk : chunks) {
    ctx.update(BytesView(data.data() + offset, chunk));
    offset += chunk;
  }
  ASSERT_EQ(offset, data.size());
  EXPECT_EQ(ctx.finish(), Sha256::hash(data));
}

TEST(Sha256, UpdateAfterFinishThrows) {
  Sha256 ctx;
  ctx.update(to_bytes("x"));
  (void)ctx.finish();
  EXPECT_THROW(ctx.update(to_bytes("y")), Error);
  EXPECT_THROW(ctx.finish(), Error);
}

TEST(Sha256, Hash2ConcatenatesInputs) {
  const Digest combined = Sha256::hash2(to_bytes("ab"), to_bytes("c"));
  EXPECT_EQ(combined, Sha256::hash(to_bytes("abc")));
}

TEST(Sha256, DigestBytesMatchesView) {
  const Digest d = Sha256::hash(to_bytes("x"));
  const Bytes b = digest_bytes(d);
  ASSERT_EQ(b.size(), 32u);
  EXPECT_TRUE(ct_equal(b, digest_view(d)));
}

// Property sweep: every split point of a two-part update equals one-shot.
class Sha256SplitTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256SplitTest, SplitUpdateEqualsOneShot) {
  util::Xoshiro rng(17);
  const Bytes data = rng.bytes(200);
  const std::size_t split = GetParam();
  Sha256 ctx;
  ctx.update(BytesView(data.data(), split));
  ctx.update(BytesView(data.data() + split, data.size() - split));
  EXPECT_EQ(ctx.finish(), Sha256::hash(data));
}

INSTANTIATE_TEST_SUITE_P(Splits, Sha256SplitTest,
                         ::testing::Values(0, 1, 31, 32, 63, 64, 65, 100, 127,
                                           128, 199, 200));

// Distinct inputs give distinct digests (trivial collision sanity).
TEST(Sha256, NoTrivialCollisions) {
  util::Xoshiro rng(23);
  std::set<std::string> seen;
  for (int i = 0; i < 200; ++i)
    EXPECT_TRUE(seen.insert(hex_of(Sha256::hash(rng.bytes(32)))).second);
}

}  // namespace
}  // namespace lateral::crypto

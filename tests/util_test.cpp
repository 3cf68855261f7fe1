// Unit tests for lateral::util — hex codec, Result/Status, PRNG, tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/hex.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/types.h"
#include "util/wire.h"

namespace lateral {
namespace {

TEST(Hex, EncodesKnownBytes) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(util::to_hex(data), "0001abff");
}

TEST(Hex, EncodesEmpty) { EXPECT_EQ(util::to_hex(Bytes{}), ""); }

TEST(Hex, DecodesLowerAndUpperCase) {
  auto lower = util::from_hex("deadbeef");
  auto upper = util::from_hex("DEADBEEF");
  ASSERT_TRUE(lower.ok());
  ASSERT_TRUE(upper.ok());
  EXPECT_EQ(*lower, *upper);
  EXPECT_EQ((*lower)[0], 0xde);
}

TEST(Hex, RejectsOddLength) {
  EXPECT_EQ(util::from_hex("abc").error(), Errc::invalid_argument);
}

TEST(Hex, RejectsNonHexCharacters) {
  EXPECT_EQ(util::from_hex("zz").error(), Errc::invalid_argument);
}

TEST(Hex, RoundTrips) {
  util::Xoshiro rng(42);
  for (int i = 0; i < 50; ++i) {
    const Bytes data = rng.bytes(i);
    auto round = util::from_hex(util::to_hex(data));
    ASSERT_TRUE(round.ok());
    EXPECT_EQ(*round, data);
  }
}

TEST(Result, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.error(), Errc::ok);
}

TEST(Result, HoldsError) {
  Result<int> r(Errc::access_denied);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errc::access_denied);
  EXPECT_EQ(r.value_or(9), 9);
}

TEST(Result, ValueOnErrorThrows) {
  Result<int> r(Errc::exhausted);
  EXPECT_THROW(r.value(), Error);
}

TEST(Result, ConstructingFromOkThrows) {
  EXPECT_THROW(Result<int>(Errc::ok), Error);
}

TEST(Status, DefaultIsSuccess) {
  Status s;
  EXPECT_TRUE(s.ok());
}

TEST(Status, CarriesError) {
  Status s(Errc::tamper_detected);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error(), Errc::tamper_detected);
}

TEST(Errc, NamesAreStable) {
  EXPECT_EQ(errc_name(Errc::ok), "ok");
  EXPECT_EQ(errc_name(Errc::tamper_detected), "tamper_detected");
  EXPECT_EQ(errc_name(Errc::policy_violation), "policy_violation");
}

TEST(CtEqual, EqualAndUnequal) {
  const Bytes a = to_bytes("secret");
  const Bytes b = to_bytes("secret");
  const Bytes c = to_bytes("secreT");
  EXPECT_TRUE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, c));
  EXPECT_FALSE(ct_equal(a, to_bytes("secre")));
}

TEST(Xoshiro, DeterministicForSameSeed) {
  util::Xoshiro a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  util::Xoshiro a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Xoshiro, BelowRespectsBound) {
  util::Xoshiro rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Xoshiro, BelowCoversRange) {
  util::Xoshiro rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Xoshiro, UniformInUnitInterval) {
  util::Xoshiro rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro, BytesLength) {
  util::Xoshiro rng(5);
  EXPECT_EQ(rng.bytes(0).size(), 0u);
  EXPECT_EQ(rng.bytes(7).size(), 7u);
  EXPECT_EQ(rng.bytes(64).size(), 64u);
}

TEST(Table, RendersAlignedColumns) {
  util::Table table({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"longer", "22"});
  const std::string out = table.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  util::Table table({"one", "two"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(util::Table({}), Error);
}

TEST(Table, FormatsCycles) {
  EXPECT_EQ(util::fmt_cycles(0), "0");
  EXPECT_EQ(util::fmt_cycles(999), "999");
  EXPECT_EQ(util::fmt_cycles(1234567), "1,234,567");
}

TEST(Table, FormatsRatio) { EXPECT_EQ(util::fmt_ratio(2.5), "2.50x"); }

TEST(TypesBytes, StringRoundTrip) {
  EXPECT_EQ(to_string(to_bytes("hello")), "hello");
  EXPECT_EQ(to_bytes("").size(), 0u);
}

// --- wire.h ---------------------------------------------------------------

TEST(Wire, WritesBigEndianFieldsAndBlobs) {
  Bytes out;
  wire::ByteWriter w(out);
  w.u8(0x01);
  w.u32(0x02030405);
  w.bytes(Bytes{0x06, 0x07});
  w.u64(0x08090a0b0c0d0e0fULL);
  w.blob16(to_bytes("ab"));
  w.blob32(to_bytes("c"));
  w.blob64({});
  EXPECT_EQ(util::to_hex(out),
            "01020304050607"
            "08090a0b0c0d0e0f"
            "00026162"
            "0000000163"
            "0000000000000000");
  EXPECT_THROW(w.blob16(Bytes(0x10000, 0)), Error);
}

TEST(Wire, ReadsBackWhatWasWrittenAsViews) {
  Bytes in;
  wire::ByteWriter w(in);
  w.u8(7);
  w.blob32(to_bytes("payload"));
  w.u64(9);
  wire::ByteReader r(in);
  EXPECT_EQ(*r.u8(), 7u);
  const BytesView blob = *r.blob32();
  EXPECT_EQ(to_string(blob), "payload");
  EXPECT_EQ(blob.data(), in.data() + 1 + 4);  // a view, not a copy
  EXPECT_FALSE(r.finish().ok());
  EXPECT_EQ(*r.u64(), 9u);
  EXPECT_TRUE(r.finish().ok());
}

TEST(Wire, ShortInputFailsWithoutConsuming) {
  const Bytes in = {0x00, 0x00, 0x00, 0x05, 'x'};
  wire::ByteReader r(in);
  EXPECT_EQ(r.u64().error(), Errc::invalid_argument);
  EXPECT_EQ(r.blob32().error(), Errc::invalid_argument);  // claims 5, has 1
  EXPECT_EQ(r.bytes(6).error(), Errc::invalid_argument);
  EXPECT_EQ(r.offset(), 0u);
  EXPECT_EQ(*r.u32(), 5u);
  EXPECT_EQ(to_string(r.rest()), "x");
  EXPECT_EQ(r.u8().error(), Errc::invalid_argument);
}

TEST(Wire, RawPointerFormsMatchTheWriter) {
  std::uint8_t raw[8];
  wire::store_be64(raw, 0x1122334455667788ULL);
  Bytes written;
  wire::ByteWriter(written).u64(0x1122334455667788ULL);
  EXPECT_TRUE(std::equal(written.begin(), written.end(), raw));
  EXPECT_EQ(wire::load_be64(raw), 0x1122334455667788ULL);
  EXPECT_EQ(wire::load_be32(raw + 4), 0x55667788U);
}

TEST(Wire, EnumBytesPastTheLastEnumeratorNameNothing) {
  EXPECT_EQ(wire::errc8(0), Errc::ok);
  EXPECT_EQ(wire::errc8(static_cast<std::uint8_t>(wire::kLastErrc)),
            wire::kLastErrc);
  EXPECT_EQ(wire::errc8(static_cast<std::uint8_t>(wire::kLastErrc) + 1),
            Errc::invalid_argument);
  EXPECT_EQ(wire::errc8(0xEE), Errc::invalid_argument);
  EXPECT_EQ(wire::enum8(3, Errc::no_such_channel), Errc::no_such_channel);
  EXPECT_FALSE(wire::enum8(4, Errc::no_such_channel).has_value());
}

}  // namespace
}  // namespace lateral

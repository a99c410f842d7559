#include "msg/codec.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace miniraid {
namespace {

TEST(CodecTest, FixedWidthRoundTrip) {
  Encoder enc;
  enc.PutU8(0xab);
  enc.PutU16(0x1234);
  enc.PutU32(0xdeadbeef);
  enc.PutU64(0x0123456789abcdefULL);
  enc.PutI64(-42);

  Decoder dec(enc.buffer());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  ASSERT_TRUE(dec.GetU8(&u8).ok());
  ASSERT_TRUE(dec.GetU16(&u16).ok());
  ASSERT_TRUE(dec.GetU32(&u32).ok());
  ASSERT_TRUE(dec.GetU64(&u64).ok());
  ASSERT_TRUE(dec.GetI64(&i64).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i64, -42);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(CodecTest, LittleEndianOnTheWire) {
  Encoder enc;
  enc.PutU32(0x01020304);
  ASSERT_EQ(enc.size(), 4u);
  EXPECT_EQ(enc.buffer()[0], 0x04);
  EXPECT_EQ(enc.buffer()[3], 0x01);
}

TEST(CodecTest, VarintRoundTripBoundaries) {
  const uint64_t values[] = {0,    1,    127,        128,
                             300,  16383, 16384,     (1ULL << 32),
                             ~0ULL};
  for (const uint64_t v : values) {
    Encoder enc;
    enc.PutVarint(v);
    Decoder dec(enc.buffer());
    uint64_t out = 0;
    ASSERT_TRUE(dec.GetVarint(&out).ok()) << v;
    EXPECT_EQ(out, v);
    EXPECT_TRUE(dec.AtEnd());
  }
}

TEST(CodecTest, VarintSizes) {
  Encoder enc;
  enc.PutVarint(127);
  EXPECT_EQ(enc.size(), 1u);
  enc.Clear();
  enc.PutVarint(128);
  EXPECT_EQ(enc.size(), 2u);
  enc.Clear();
  enc.PutVarint(~0ULL);
  EXPECT_EQ(enc.size(), 10u);
}

TEST(CodecTest, StringRoundTrip) {
  Encoder enc;
  enc.PutString("hello");
  enc.PutString("");
  enc.PutString(std::string("\0\x01wire", 6));
  Decoder dec(enc.buffer());
  std::string a, b, c;
  ASSERT_TRUE(dec.GetString(&a).ok());
  ASSERT_TRUE(dec.GetString(&b).ok());
  ASSERT_TRUE(dec.GetString(&c).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, std::string("\0\x01wire", 6));
}

TEST(CodecTest, VectorRoundTrip) {
  Encoder enc;
  const std::vector<uint32_t> values = {5, 10, 15};
  enc.PutVector(values, [](Encoder& e, uint32_t v) { e.PutU32(v); });
  Decoder dec(enc.buffer());
  std::vector<uint32_t> out;
  ASSERT_TRUE(dec.GetVector<uint32_t>(&out, [](Decoder& d, uint32_t* v) {
                     return d.GetU32(v);
                   }).ok());
  EXPECT_EQ(out, values);
}

TEST(CodecTest, TruncationIsCorruptionNotCrash) {
  Encoder enc;
  enc.PutU64(12345);
  enc.PutString("payload");
  for (size_t cut = 0; cut < enc.size(); ++cut) {
    Decoder dec(enc.buffer().data(), cut);
    uint64_t v;
    std::string s;
    Status status = dec.GetU64(&v);
    if (status.ok()) status = dec.GetString(&s);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << "cut=" << cut;
  }
}

TEST(CodecTest, OverlongVarintRejected) {
  std::vector<uint8_t> evil(11, 0x80);  // never terminates within 64 bits
  Decoder dec(evil.data(), evil.size());
  uint64_t v;
  EXPECT_EQ(dec.GetVarint(&v).code(), StatusCode::kCorruption);
}

TEST(CodecTest, HugeVectorLengthRejectedUpFront) {
  Encoder enc;
  enc.PutVarint(1ULL << 40);  // claims a trillion elements
  Decoder dec(enc.buffer());
  std::vector<uint32_t> out;
  const Status status = dec.GetVector<uint32_t>(
      &out, [](Decoder& d, uint32_t* v) { return d.GetU32(v); });
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_TRUE(out.empty());
}

TEST(CodecTest, RandomValuesRoundTrip) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    Encoder enc;
    std::vector<uint64_t> values;
    for (int i = 0; i < 20; ++i) {
      values.push_back(rng.Next() >> (rng.NextBounded(64)));
      enc.PutVarint(values.back());
    }
    Decoder dec(enc.buffer());
    for (const uint64_t expected : values) {
      uint64_t v = 0;
      ASSERT_TRUE(dec.GetVarint(&v).ok());
      ASSERT_EQ(v, expected);
    }
    ASSERT_TRUE(dec.AtEnd());
  }
}

TEST(CodecTest, PutFixedAppendsAfterStringContent) {
  // Regression for the byte-at-a-time PutFixed workaround: the memcpy
  // rewrite must append at the write cursor after arbitrary prior content
  // (including across vector reallocation), not scribble from offset 0.
  Encoder enc;
  enc.PutString(std::string(300, 'x'));  // force at least one realloc later
  enc.PutU32(0xdeadbeef);
  enc.PutU64(0x0123456789abcdefULL);
  Decoder dec(enc.buffer());
  std::string s;
  uint32_t u32;
  uint64_t u64;
  ASSERT_TRUE(dec.GetString(&s).ok());
  ASSERT_TRUE(dec.GetU32(&u32).ok());
  ASSERT_TRUE(dec.GetU64(&u64).ok());
  EXPECT_EQ(s.size(), 300u);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(CodecTest, PutBytesAndReserveMatchPushByteEncoding) {
  Encoder manual;
  const uint8_t raw[] = {1, 2, 3, 4, 5};
  for (uint8_t b : raw) manual.PutU8(b);
  Encoder bulk;
  bulk.reserve(sizeof(raw));
  bulk.PutBytes(raw, sizeof(raw));
  EXPECT_EQ(bulk.buffer(), manual.buffer());
}

TEST(CodecTest, GetStringViewIsBoundsChecked) {
  Encoder enc;
  enc.PutString("payload");
  // Valid: the view aliases the wire bytes.
  {
    Decoder dec(enc.buffer());
    std::string_view v;
    ASSERT_TRUE(dec.GetStringView(&v).ok());
    EXPECT_EQ(v, "payload");
    EXPECT_TRUE(dec.AtEnd());
  }
  // A declared length past the end of the buffer must be rejected, not
  // read out of bounds — including every truncation of the valid frame.
  for (size_t cut = 0; cut < enc.size(); ++cut) {
    Decoder dec(enc.buffer().data(), cut);
    std::string_view v;
    EXPECT_EQ(dec.GetStringView(&v).code(), StatusCode::kCorruption)
        << "cut=" << cut;
  }
  // An absurd length prefix with no payload behind it.
  Encoder evil;
  evil.PutVarint(1ULL << 32);
  Decoder dec(evil.buffer());
  std::string_view v;
  EXPECT_EQ(dec.GetStringView(&v).code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace miniraid

// Unit tests for the netbase layer: addresses, prefixes, the Internet
// checksum, and the bounds-checked byte reader/writer.
#include <gtest/gtest.h>

#include <limits>

#include "netbase/address.h"
#include "netbase/byte_io.h"
#include "netbase/checksum.h"
#include "netbase/prefix.h"
#include "util/rng.h"

namespace rr::net {
namespace {

// ------------------------------------------------------------ IPv4Address

TEST(Address, RoundTripsDottedQuad) {
  const auto addr = IPv4Address::parse("192.0.2.33");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->to_string(), "192.0.2.33");
  EXPECT_EQ(addr->value(), 0xC0000221u);
}

TEST(Address, ParsesBoundaryOctets) {
  EXPECT_TRUE(IPv4Address::parse("0.0.0.0").has_value());
  EXPECT_TRUE(IPv4Address::parse("255.255.255.255").has_value());
  EXPECT_EQ(IPv4Address::parse("255.255.255.255")->value(), 0xFFFFFFFFu);
}

TEST(Address, RejectsMalformedInput) {
  EXPECT_FALSE(IPv4Address::parse("").has_value());
  EXPECT_FALSE(IPv4Address::parse("1.2.3").has_value());
  EXPECT_FALSE(IPv4Address::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(IPv4Address::parse("256.1.1.1").has_value());
  EXPECT_FALSE(IPv4Address::parse("1..2.3").has_value());
  EXPECT_FALSE(IPv4Address::parse("a.b.c.d").has_value());
  EXPECT_FALSE(IPv4Address::parse("01.2.3.4").has_value());  // leading zero
  EXPECT_FALSE(IPv4Address::parse("1.2.3.4 ").has_value());
}

TEST(Address, BytesAreNetworkOrder) {
  const IPv4Address addr{10, 20, 30, 40};
  const auto bytes = addr.to_bytes();
  EXPECT_EQ(bytes[0], 10);
  EXPECT_EQ(bytes[3], 40);
  EXPECT_EQ(IPv4Address::from_bytes(10, 20, 30, 40), addr);
}

TEST(Address, OrderingFollowsNumericValue) {
  EXPECT_LT(IPv4Address(1, 0, 0, 0), IPv4Address(2, 0, 0, 0));
  EXPECT_LT(IPv4Address(1, 0, 0, 255), IPv4Address(1, 0, 1, 0));
}

// ----------------------------------------------------------------- Prefix

TEST(Prefix, MasksHostBits) {
  const Prefix p{IPv4Address{192, 0, 2, 77}, 24};
  EXPECT_EQ(p.base().to_string(), "192.0.2.0");
  EXPECT_EQ(p.to_string(), "192.0.2.0/24");
}

TEST(Prefix, ContainsAddressesAndSubPrefixes) {
  const Prefix p = *Prefix::parse("10.1.0.0/16");
  EXPECT_TRUE(p.contains(IPv4Address(10, 1, 200, 3)));
  EXPECT_FALSE(p.contains(IPv4Address(10, 2, 0, 0)));
  EXPECT_TRUE(p.contains(*Prefix::parse("10.1.34.0/24")));
  EXPECT_FALSE(p.contains(*Prefix::parse("10.0.0.0/8")));
}

TEST(Prefix, SizeAndAddressAt) {
  const Prefix p = *Prefix::parse("198.51.100.0/24");
  EXPECT_EQ(p.size(), 256u);
  EXPECT_EQ(p.address_at(1).to_string(), "198.51.100.1");
  EXPECT_EQ(p.address_at(256).to_string(), "198.51.100.0");  // wraps
}

TEST(Prefix, ZeroLengthCoversEverything) {
  const Prefix p{IPv4Address{}, 0};
  EXPECT_EQ(p.size(), std::uint64_t{1} << 32);
  EXPECT_TRUE(p.contains(IPv4Address(255, 1, 2, 3)));
}

TEST(Prefix, ParseRejectsBadInput) {
  EXPECT_FALSE(Prefix::parse("10.0.0.0").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/").has_value());
  EXPECT_FALSE(Prefix::parse("10.0.0.0/2x").has_value());
}

TEST(Prefix, Slash24OfAddress) {
  EXPECT_EQ(Prefix::slash24_of(IPv4Address(203, 0, 113, 99)).to_string(),
            "203.0.113.0/24");
}

// --------------------------------------------------------------- checksum

TEST(Checksum, Rfc1071Example) {
  // Classic example from RFC 1071 §3: {00 01, f2 03, f4 f5, f6 f7}.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03,
                               0xf4, 0xf5, 0xf6, 0xf7};
  const std::uint32_t partial = checksum_partial(data);
  EXPECT_EQ(partial, 0x2ddf0u);
  EXPECT_EQ(checksum_finish(partial), static_cast<std::uint16_t>(~0xddf2));
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::uint8_t data[] = {0x12, 0x34, 0x56};
  EXPECT_EQ(internet_checksum(data),
            checksum_finish(0x1234 + 0x5600));
}

TEST(Checksum, ValidatedBufferSumsToZero) {
  util::Rng rng{7};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> data(
        static_cast<std::size_t>(rng.next_in(2, 128)) & ~std::size_t{1});
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    data[0] = data[1] = 0;  // checksum field placeholder
    const std::uint16_t sum = internet_checksum(data);
    data[0] = static_cast<std::uint8_t>(sum >> 8);
    data[1] = static_cast<std::uint8_t>(sum);
    EXPECT_TRUE(checksum_ok(data));
    if (data.size() > 2) {
      data[2] ^= 0xff;  // corrupt
      EXPECT_FALSE(checksum_ok(data));
    }
  }
}

// ---------------------------------------------------------------- byte IO

TEST(ByteIo, WriterRoundTripsThroughReader) {
  ByteWriter writer;
  writer.u8(0xAB);
  writer.u16(0x1234);
  writer.u32(0xDEADBEEF);
  writer.address(IPv4Address(8, 8, 4, 4));

  ByteReader reader{writer.view()};
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u16(), 0x1234);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.address(), IPv4Address(8, 8, 4, 4));
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(ByteIo, BigEndianOnTheWire) {
  ByteWriter writer;
  writer.u16(0x0102);
  EXPECT_EQ(writer.view()[0], 0x01);
  EXPECT_EQ(writer.view()[1], 0x02);
}

TEST(ByteIo, ShortReadMarksBad) {
  const std::uint8_t data[] = {1, 2, 3};
  ByteReader reader{data};
  EXPECT_EQ(reader.u16(), 0x0102);
  EXPECT_EQ(reader.u16(), 0);  // only one byte left
  EXPECT_FALSE(reader.ok());
  // Once bad, always bad — even reads that would fit return zero.
  EXPECT_EQ(reader.u8(), 0);
}

TEST(ByteIo, PatchU16) {
  ByteWriter writer;
  writer.u32(0);
  writer.patch_u16(1, 0xBEEF);
  EXPECT_EQ(writer.view()[1], 0xBE);
  EXPECT_EQ(writer.view()[2], 0xEF);
  writer.patch_u16(3, 0xFFFF);  // would straddle the end: ignored
  EXPECT_EQ(writer.view()[3], 0x00);
}

TEST(ByteIo, BytesAndRest) {
  ByteWriter writer;
  const std::uint8_t payload[] = {9, 8, 7, 6};
  writer.bytes(payload);
  writer.zeros(2);
  ByteReader reader{writer.view()};
  const auto got = reader.bytes(4);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0], 9);
  EXPECT_EQ(reader.rest().size(), 2u);
}

}  // namespace
}  // namespace rr::net

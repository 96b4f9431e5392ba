// Wire-format tests: the test oracle's IPv4 options (Record Route),
// headers, ICMP, UDP and whole-datagram round trips; its reference per-hop
// editors; and the library's fault surgery (packet/wire.h).
#include <gtest/gtest.h>

#include "netbase/checksum.h"
#include "packet/datagram.h"
#include "packet/icmp.h"
#include "packet/ipv4.h"
#include "packet/mutate.h"
#include "packet/options.h"
#include "packet/udp.h"
#include "packet/wire.h"
#include "util/rng.h"

namespace rr::pkt {
namespace {

using net::IPv4Address;

// ---------------------------------------------------------------- options

TEST(RecordRouteOption, WireLayoutMatchesRfc791) {
  auto rr = RecordRouteOption::empty(9);
  EXPECT_EQ(rr.wire_length(), 39);  // 3 + 9*4
  EXPECT_EQ(rr.pointer(), 4);       // minimum legal pointer
  EXPECT_TRUE(rr.stamp(IPv4Address(10, 0, 0, 1)));
  EXPECT_EQ(rr.pointer(), 8);
  EXPECT_EQ(rr.remaining_slots(), 8);
}

TEST(RecordRouteOption, NineSlotsIsTheLimit) {
  auto rr = RecordRouteOption::empty(9);
  for (int i = 0; i < 9; ++i) {
    EXPECT_TRUE(rr.stamp(IPv4Address(10, 0, 0, static_cast<uint8_t>(i))));
  }
  EXPECT_TRUE(rr.full());
  EXPECT_FALSE(rr.stamp(IPv4Address(10, 0, 0, 99)));
  EXPECT_EQ(rr.recorded.size(), 9u);
}

TEST(Options, SerializeParseRoundTrip) {
  std::vector<IpOption> options;
  auto rr = RecordRouteOption::empty(9);
  ASSERT_TRUE(rr.stamp(IPv4Address(192, 0, 2, 1)));
  ASSERT_TRUE(rr.stamp(IPv4Address(192, 0, 2, 2)));
  options.emplace_back(rr);

  net::ByteWriter writer;
  ASSERT_TRUE(serialize_options(options, writer));
  EXPECT_EQ(writer.size() % 4, 0u);  // padded to 32-bit boundary
  EXPECT_EQ(writer.size(), 40u);     // 39 + 1 pad = max option area

  const auto parsed = parse_options(writer.view());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 1u);
  const auto* parsed_rr = find_record_route(*parsed);
  ASSERT_NE(parsed_rr, nullptr);
  EXPECT_EQ(*parsed_rr, rr);
}

TEST(Options, NopAndRawRoundTrip) {
  std::vector<IpOption> options;
  options.emplace_back(NopOption{});
  options.emplace_back(RawOption{148, {0x01, 0x02}});  // router alert-ish

  net::ByteWriter writer;
  ASSERT_TRUE(serialize_options(options, writer));
  const auto parsed = parse_options(writer.view());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_TRUE(std::holds_alternative<NopOption>((*parsed)[0]));
  const auto& raw = std::get<RawOption>((*parsed)[1]);
  EXPECT_EQ(raw.type, 148);
  EXPECT_EQ(raw.data.size(), 2u);
}

TEST(Options, ParseRejectsMalformedRecordRoute) {
  // Pointer below 4.
  const std::uint8_t bad_pointer[] = {7, 7, 3, 0, 0, 0, 0, 0};
  EXPECT_FALSE(parse_options(bad_pointer).has_value());
  // Length not 3+4k.
  const std::uint8_t bad_length[] = {7, 6, 4, 0, 0, 0, 0, 0};
  EXPECT_FALSE(parse_options(bad_length).has_value());
  // Pointer beyond the option.
  const std::uint8_t far_pointer[] = {7, 7, 16, 0, 0, 0, 0, 0};
  EXPECT_FALSE(parse_options(far_pointer).has_value());
  // Option runs past the buffer.
  const std::uint8_t overrun[] = {7, 40, 4};
  EXPECT_FALSE(parse_options(overrun).has_value());
  // Truncated: type with no length byte.
  const std::uint8_t truncated[] = {7};
  EXPECT_FALSE(parse_options(truncated).has_value());
}

TEST(Options, EndOfListStopsParsing) {
  const std::uint8_t data[] = {1, 0, 7, 7};  // NOP, EOL, then garbage
  const auto parsed = parse_options(data);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 1u);
}

TEST(Options, OversizedListRejected) {
  std::vector<IpOption> options;
  options.emplace_back(RecordRouteOption::empty(9));  // 39 bytes
  options.emplace_back(RawOption{200, {1, 2, 3}});    // +5 > 40
  net::ByteWriter writer;
  EXPECT_FALSE(serialize_options(options, writer));
  EXPECT_EQ(writer.size(), 0u);
}

TEST(TimestampOption, FourSlotCapWithAddresses) {
  auto ts = TimestampOption::empty(4);
  EXPECT_EQ(ts.wire_length(), 36);  // 4 + 4*8
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ts.stamp(IPv4Address(10, 0, 0, static_cast<uint8_t>(i)),
                         1000u * static_cast<unsigned>(i)));
  }
  EXPECT_TRUE(ts.full());
  EXPECT_FALSE(ts.stamp(IPv4Address(10, 0, 0, 9), 5000));
  EXPECT_EQ(ts.overflow, 1);  // the miss is tallied
}

TEST(TimestampOption, SerializeParseRoundTrip) {
  auto ts = TimestampOption::empty(3);
  ASSERT_TRUE(ts.stamp(IPv4Address(192, 0, 2, 1), 12345678));
  std::vector<IpOption> options{ts};
  net::ByteWriter writer;
  ASSERT_TRUE(serialize_options(options, writer));
  const auto parsed = parse_options(writer.view());
  ASSERT_TRUE(parsed.has_value());
  const auto* back = find_timestamp(*parsed);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(*back, ts);
}

TEST(TimestampOption, OversizedCapacityRejected) {
  auto ts = TimestampOption::empty(5);  // 4 + 5*8 = 44 > 40
  net::ByteWriter writer;
  EXPECT_FALSE(serialize_options({IpOption{ts}}, writer));
}

TEST(TimestampOption, InPlaceStampAndOverflow) {
  const auto ping = make_ping_ts(IPv4Address(1, 1, 1, 1),
                                 IPv4Address(2, 2, 2, 2), 7, 1, 64, 4);
  auto bytes = *ping.serialize();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ts_stamp(bytes, IPv4Address(10, 9, 0,
                                            static_cast<uint8_t>(i)),
                         777u + static_cast<unsigned>(i)));
    ASSERT_TRUE(Ipv4Header::parse(bytes).has_value());  // checksum intact
  }
  // Fifth stamp: no room; the overflow counter must tick instead.
  ASSERT_TRUE(ts_stamp(bytes, IPv4Address(10, 9, 0, 99), 999));
  const auto parsed = Ipv4Header::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  const auto* ts = find_timestamp(parsed->options);
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->entries.size(), 4u);
  EXPECT_EQ(ts->overflow, 1);
  EXPECT_EQ(ts->entries[2].address, IPv4Address(10, 9, 0, 2));
  EXPECT_EQ(ts->entries[2].timestamp_ms, 779u);
}

// ------------------------------------------------------------ IPv4 header

TEST(Ipv4Header, RoundTripNoOptions) {
  Ipv4Header header;
  header.source = IPv4Address(1, 2, 3, 4);
  header.destination = IPv4Address(5, 6, 7, 8);
  header.ttl = 17;
  header.protocol = IpProto::kUdp;
  header.identification = 0xCAFE;

  net::ByteWriter writer;
  ASSERT_TRUE(header.serialize(writer, 100));
  EXPECT_EQ(writer.size(), kIpv4BaseHeaderBytes);

  const auto parsed = Ipv4Header::parse(writer.view());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->source, header.source);
  EXPECT_EQ(parsed->destination, header.destination);
  EXPECT_EQ(parsed->ttl, 17);
  EXPECT_EQ(parsed->protocol, IpProto::kUdp);
  EXPECT_EQ(parsed->identification, 0xCAFE);
  EXPECT_EQ(parsed->total_length, 120);
}

TEST(Ipv4Header, RoundTripWithRecordRoute) {
  Ipv4Header header;
  header.source = IPv4Address(10, 0, 0, 1);
  header.destination = IPv4Address(10, 0, 0, 2);
  header.options.emplace_back(RecordRouteOption::empty(9));

  net::ByteWriter writer;
  ASSERT_TRUE(header.serialize(writer, 8));
  EXPECT_EQ(writer.size(), 60u);  // maximum IPv4 header
  EXPECT_EQ(writer.view()[0], 0x4F);  // version 4, IHL 15

  const auto parsed = Ipv4Header::parse(writer.view());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_NE(parsed->record_route(), nullptr);
  EXPECT_EQ(parsed->record_route()->capacity, 9);
}

TEST(Ipv4Header, ParseRejectsCorruptChecksum) {
  Ipv4Header header;
  header.source = IPv4Address(1, 1, 1, 1);
  header.destination = IPv4Address(2, 2, 2, 2);
  net::ByteWriter writer;
  ASSERT_TRUE(header.serialize(writer, 0));
  std::vector<std::uint8_t> bytes{writer.view().begin(), writer.view().end()};
  bytes[8] ^= 0x01;  // flip a TTL bit without fixing the checksum
  EXPECT_FALSE(Ipv4Header::parse(bytes).has_value());
}

TEST(Ipv4Header, ParseRejectsTruncatedAndNonV4) {
  const std::uint8_t short_buf[] = {0x45, 0x00};
  EXPECT_FALSE(Ipv4Header::parse(short_buf).has_value());
  std::uint8_t v6ish[20] = {0x60};
  EXPECT_FALSE(Ipv4Header::parse(v6ish).has_value());
}

// ------------------------------------------------------------------- ICMP

TEST(Icmp, EchoRoundTrip) {
  const auto request = IcmpMessage::echo_request(0x1234, 7, 16);
  net::ByteWriter writer;
  request.serialize(writer);
  EXPECT_TRUE(net::checksum_ok(writer.view()));

  const auto parsed = IcmpMessage::parse(writer.view());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, IcmpType::kEchoRequest);
  ASSERT_NE(parsed->echo(), nullptr);
  EXPECT_EQ(parsed->echo()->identifier, 0x1234);
  EXPECT_EQ(parsed->echo()->sequence, 7);
  EXPECT_EQ(parsed->echo()->payload.size(), 16u);
}

TEST(Icmp, EchoReplyEchoesBody) {
  const auto request = IcmpMessage::echo_request(1, 2);
  const auto reply = IcmpMessage::echo_reply_for(*request.echo());
  EXPECT_EQ(reply.type, IcmpType::kEchoReply);
  EXPECT_EQ(*reply.echo(), *request.echo());
}

TEST(Icmp, ErrorQuotesHeaderAndLeadingPayload) {
  // Build an offending datagram with a full RR option.
  auto probe = make_ping(IPv4Address(1, 1, 1, 1), IPv4Address(2, 2, 2, 2), 9,
                         9, 64, 9);
  const auto probe_bytes = probe.serialize();
  ASSERT_TRUE(probe_bytes.has_value());

  const auto error = IcmpMessage::error(IcmpType::kTimeExceeded, 0,
                                        *probe_bytes, 8);
  const auto* body = error.error_body();
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(body->quoted_datagram.size(), 60u + 8u);  // header + 8 bytes

  // The quoted header must itself parse — including the RR option.
  const auto quoted = Ipv4Header::parse(body->quoted_datagram);
  ASSERT_TRUE(quoted.has_value());
  EXPECT_NE(quoted->record_route(), nullptr);
}

TEST(Icmp, ParseRejectsCorruption) {
  const auto msg = IcmpMessage::echo_request(5, 6);
  net::ByteWriter writer;
  msg.serialize(writer);
  std::vector<std::uint8_t> bytes{writer.view().begin(), writer.view().end()};
  bytes[4] ^= 0xFF;
  EXPECT_FALSE(IcmpMessage::parse(bytes).has_value());
  EXPECT_FALSE(IcmpMessage::parse({bytes.data(), 4}).has_value());
}

// -------------------------------------------------------------------- UDP

TEST(Udp, RoundTrip) {
  UdpDatagram udp;
  udp.source_port = 54321;
  udp.destination_port = kUdpProbePortBase;
  udp.payload = {1, 2, 3};

  net::ByteWriter writer;
  udp.serialize(writer);
  EXPECT_EQ(writer.size(), 11u);
  const auto parsed = UdpDatagram::parse(writer.view());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, udp);
}

TEST(Udp, ParseRejectsBadLength) {
  const std::uint8_t bad[] = {0, 1, 0, 2, 0, 3, 0, 0};  // length 3 < 8
  EXPECT_FALSE(UdpDatagram::parse(bad).has_value());
}

// --------------------------------------------------------------- datagram

TEST(Datagram, PingRoundTrip) {
  const auto ping = make_ping(IPv4Address(9, 9, 9, 9),
                              IPv4Address(10, 10, 10, 10), 42, 1, 64, 9);
  const auto bytes = ping.serialize();
  ASSERT_TRUE(bytes.has_value());

  const auto parsed = Datagram::parse(*bytes);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_NE(parsed->icmp(), nullptr);
  EXPECT_EQ(parsed->icmp()->echo()->identifier, 42);
  ASSERT_NE(parsed->header.record_route(), nullptr);
  EXPECT_EQ(parsed->header.record_route()->recorded.size(), 0u);
}

TEST(Datagram, UdpProbeRoundTrip) {
  const auto probe = make_udp_probe(IPv4Address(9, 9, 9, 9),
                                    IPv4Address(10, 10, 10, 10), 40000,
                                    33500, 64, 9);
  const auto bytes = probe.serialize();
  ASSERT_TRUE(bytes.has_value());
  const auto parsed = Datagram::parse(*bytes);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_NE(parsed->udp(), nullptr);
  EXPECT_EQ(parsed->udp()->destination_port, 33500);
  EXPECT_NE(parsed->header.record_route(), nullptr);
}

// ----------------------------------------------------------------- mutate

std::vector<std::uint8_t> ping_bytes(int rr_slots, std::uint8_t ttl = 64) {
  const auto ping = make_ping(IPv4Address(1, 0, 0, 1),
                              IPv4Address(2, 0, 0, 2), 77, 3, ttl, rr_slots);
  return *ping.serialize();
}

TEST(Mutate, PeekFields) {
  const auto bytes = ping_bytes(9, 33);
  EXPECT_EQ(*peek_source(bytes), IPv4Address(1, 0, 0, 1));
  EXPECT_EQ(*peek_destination(bytes), IPv4Address(2, 0, 0, 2));
  EXPECT_EQ(*peek_source(ping_bytes(0)), IPv4Address(1, 0, 0, 1));
}

TEST(Mutate, DecrementTtlKeepsChecksumValid) {
  auto bytes = ping_bytes(9, 5);
  for (int expected = 4; expected >= 0; --expected) {
    const auto ttl = decrement_ttl(bytes);
    ASSERT_TRUE(ttl.has_value());
    EXPECT_EQ(*ttl, expected);
    // Incremental update must agree with a full recompute at every step.
    EXPECT_TRUE(Ipv4Header::parse(bytes).has_value());
  }
  EXPECT_FALSE(decrement_ttl(bytes).has_value());  // already zero
}

TEST(Mutate, RrStampWritesSlotAndAdvancesPointer) {
  auto bytes = ping_bytes(9);
  for (int i = 0; i < 9; ++i) {
    EXPECT_TRUE(rr_stamp(bytes, IPv4Address(10, 0, 0,
                                            static_cast<uint8_t>(i + 1))));
  }
  EXPECT_FALSE(rr_stamp(bytes, IPv4Address(10, 0, 0, 99)));  // full

  const auto parsed = Datagram::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  const auto* rr = parsed->header.record_route();
  ASSERT_NE(rr, nullptr);
  ASSERT_EQ(rr->recorded.size(), 9u);
  EXPECT_EQ(rr->recorded.front(), IPv4Address(10, 0, 0, 1));
  EXPECT_EQ(rr->recorded.back(), IPv4Address(10, 0, 0, 9));
}

TEST(Mutate, RrStampWithoutOptionIsNoop) {
  auto bytes = ping_bytes(0);
  const auto before = bytes;
  EXPECT_FALSE(rr_stamp(bytes, IPv4Address(10, 0, 0, 1)));
  EXPECT_EQ(bytes, before);
}

TEST(Mutate, GarbageBuffersAreRejectedSafely) {
  std::vector<std::uint8_t> garbage(64, 0xAA);
  EXPECT_FALSE(peek_source(garbage).has_value());
  EXPECT_FALSE(peek_destination(garbage).has_value());
  EXPECT_FALSE(rr_stamp(garbage, IPv4Address(1, 2, 3, 4)));
  std::vector<std::uint8_t> tiny(4, 0x45);
  EXPECT_FALSE(decrement_ttl(tiny).has_value());
}

// The property the whole simulator relies on: a packet mutated hop by hop
// (decrement + stamp) stays checksum-valid and parseable at every step.
TEST(Mutate, HopByHopPipelineKeepsPacketValid) {
  util::Rng rng{99};
  for (int trial = 0; trial < 40; ++trial) {
    auto bytes = ping_bytes(9, static_cast<std::uint8_t>(
                                   rng.next_in(10, 64)));
    for (int hop = 0; hop < 12; ++hop) {
      const auto ttl = decrement_ttl(bytes);
      ASSERT_TRUE(ttl.has_value());
      if (*ttl == 0) break;
      rr_stamp(bytes, IPv4Address{static_cast<std::uint32_t>(rng())});
      const auto parsed = Datagram::parse(bytes);
      ASSERT_TRUE(parsed.has_value());
    }
  }
}

// ------------------------------------------------- fault-layer mutators

std::size_t timestamp_option_offset(std::span<const std::uint8_t> bytes) {
  for (std::size_t i = 20; i + 1 < bytes.size(); ++i) {
    if (bytes[i] == kOptTimestamp) return i;
  }
  ADD_FAILURE() << "no timestamp option in buffer";
  return 0;
}

// Regression: ts_stamp used to trust the option's pointer field. A pointer
// below 5 or one not aligned to the 8-byte (address, timestamp) entry grid
// would land the write on the option's own type/length/pointer bytes.
TEST(Mutate, TsStampRejectsCorruptPointer) {
  const auto ping = make_ping_ts(IPv4Address(1, 1, 1, 1),
                                 IPv4Address(2, 2, 2, 2), 7, 1, 64, 4);
  for (const std::uint8_t bad_pointer : {0, 3, 4, 6, 10}) {
    auto bytes = *ping.serialize();
    const std::size_t opt = timestamp_option_offset(bytes);
    bytes[opt + 2] = bad_pointer;  // 5 and 13 are the only legal small ones
    const auto before = bytes;
    EXPECT_FALSE(ts_stamp(bytes, IPv4Address(9, 9, 9, 9), 123))
        << "pointer " << int{bad_pointer};
    EXPECT_EQ(bytes, before) << "buffer must be untouched on rejection";
  }
}

// Regression (found by tests/fuzz_packet_main.cpp under ASan): a total-
// length field smaller than the IHL-derived header length underflowed the
// ICMP length computation and read past the buffer while fixing the
// checksum.
TEST(Mutate, MangleIcmpQuoteRejectsLyingTotalLength) {
  auto bytes = ping_bytes(9);
  bytes[2] = 0;
  bytes[3] = 24;  // total length 24 < 60-byte header
  rewrite_header_checksum(bytes);
  const auto before = bytes;
  EXPECT_FALSE(mangle_icmp_quote(bytes));
  EXPECT_EQ(bytes, before);
}

TEST(Mutate, FaultMutatorsRejectGarbageSafely) {
  std::vector<std::uint8_t> garbage(64, 0xAA);
  std::vector<std::uint8_t> tiny(4, 0x45);
  const auto garbage_before = garbage;
  EXPECT_FALSE(rr_truncate(garbage));
  EXPECT_FALSE(rr_garble(garbage, IPv4Address(240, 0, 0, 1)));
  EXPECT_FALSE(blank_options(garbage));
  EXPECT_FALSE(mangle_icmp_quote(garbage));
  EXPECT_EQ(garbage, garbage_before);
  EXPECT_FALSE(rr_truncate(tiny));
  EXPECT_FALSE(mangle_icmp_quote(tiny));
  // A ping without options has nothing to truncate, garble, or blank.
  auto plain = ping_bytes(0);
  EXPECT_FALSE(rr_truncate(plain));
  EXPECT_FALSE(rr_garble(plain, IPv4Address(240, 0, 0, 1)));
  EXPECT_FALSE(blank_options(plain));
}

// The monotonicity contract of rr_truncate: the option must come back
// *exhausted*, never with freed slots a later hop could stamp into.
TEST(Mutate, RrTruncateExhaustsOptionWithoutFreeingSlots) {
  auto bytes = ping_bytes(9);
  ASSERT_TRUE(rr_stamp(bytes, IPv4Address(10, 0, 0, 1)));
  ASSERT_TRUE(rr_stamp(bytes, IPv4Address(10, 0, 0, 2)));
  ASSERT_TRUE(rr_truncate(bytes));
  const auto info = inspect_datagram(bytes);
  ASSERT_TRUE(info.has_value());
  ASSERT_NE(info->rr_offset, 0u);
  const RrWire rr_after = rr_wire(bytes, info->rr_offset);
  EXPECT_EQ(rr_after.filled, rr_after.capacity);  // exhausted, none freed
  EXPECT_FALSE(rr_stamp(bytes, IPv4Address(10, 0, 0, 3)));
  // Still a valid datagram; the record is all zeros (provably bogus).
  const auto parsed = Datagram::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  const auto* rr = parsed->header.record_route();
  ASSERT_NE(rr, nullptr);
  for (const auto& addr : rr->recorded) {
    EXPECT_EQ(addr, IPv4Address{});
  }
}

TEST(Mutate, RrGarbleOverwritesLatestStamp) {
  auto bytes = ping_bytes(9);
  ASSERT_TRUE(rr_stamp(bytes, IPv4Address(10, 0, 0, 1)));
  ASSERT_TRUE(rr_stamp(bytes, IPv4Address(10, 0, 0, 2)));
  const IPv4Address bogus(240, 1, 2, 3);
  ASSERT_TRUE(rr_garble(bytes, bogus));
  const auto parsed = Datagram::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  const auto* rr = parsed->header.record_route();
  ASSERT_NE(rr, nullptr);
  ASSERT_EQ(rr->recorded.size(), 2u);
  EXPECT_EQ(rr->recorded[0], IPv4Address(10, 0, 0, 1));  // untouched
  EXPECT_EQ(rr->recorded[1], bogus);
  // An empty record has no stamp to garble.
  auto fresh = ping_bytes(9);
  EXPECT_FALSE(rr_garble(fresh, bogus));
}

// The sim's form of option stripping: contents destroyed, geometry kept,
// so routers/hosts make baseline-identical slow-path and drop decisions.
TEST(Mutate, BlankOptionsKeepsGeometryButRemovesRecordRoute) {
  auto bytes = ping_bytes(9, 21);
  ASSERT_TRUE(rr_stamp(bytes, IPv4Address(10, 0, 0, 1)));
  const std::size_t before_size = bytes.size();
  ASSERT_TRUE(blank_options(bytes));
  EXPECT_EQ(bytes.size(), before_size);
  const auto info = inspect_datagram(bytes);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->header_bytes, 60u);  // slow path still sees options
  EXPECT_TRUE(info->options_present);
  EXPECT_EQ(info->rr_offset, 0u);
  EXPECT_FALSE(rr_stamp(bytes, IPv4Address(10, 0, 0, 2)));
  const auto parsed = Datagram::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->header.options.empty());  // NOPs, not nothing
  EXPECT_EQ(parsed->header.record_route(), nullptr);
  // Nothing to blank without options.
  auto plain = ping_bytes(0);
  EXPECT_FALSE(blank_options(plain));
}

TEST(Mutate, MangleIcmpQuotePerturbsQuoteButKeepsMessageValid) {
  // Build a real router error quoting a stamped probe, as the sim does.
  auto probe = make_ping(IPv4Address(1, 1, 1, 1), IPv4Address(2, 2, 2, 2),
                         9, 9, 64, 9);
  auto probe_bytes = *probe.serialize();
  ASSERT_TRUE(rr_stamp(probe_bytes, IPv4Address(10, 0, 0, 1)));

  Datagram error;
  error.header.source = IPv4Address(10, 0, 0, 1);
  error.header.destination = IPv4Address(1, 1, 1, 1);
  error.header.ttl = 64;
  error.header.protocol = IpProto::kIcmp;
  error.payload =
      IcmpMessage::error(IcmpType::kTimeExceeded, 0, probe_bytes, 8);
  auto bytes = *error.serialize();

  const auto original = Datagram::parse(bytes);
  ASSERT_TRUE(original.has_value());
  ASSERT_TRUE(mangle_icmp_quote(bytes));

  // Still parses (IP and ICMP checksums repaired) ...
  const auto mangled = Datagram::parse(bytes);
  ASSERT_TRUE(mangled.has_value());
  const auto* body = mangled->icmp()->error_body();
  ASSERT_NE(body, nullptr);
  // ... but the quoted source no longer matches the original probe.
  const auto* original_body = original->icmp()->error_body();
  EXPECT_NE(body->quoted_datagram, original_body->quoted_datagram);
  EXPECT_NE(body->quoted_datagram[12], original_body->quoted_datagram[12]);
}

}  // namespace
}  // namespace rr::pkt

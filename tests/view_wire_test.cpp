// Equivalence of the library's packet code (packet/view.h, packet/wire.h)
// with the test oracle in tests/model/packet (Datagram/Ipv4Header parse +
// serialize, the rescanning reference editors). The simulator's
// bit-for-bit golden and differential guarantees rest on these pairs
// producing identical bytes and identical accept/reject decisions —
// including after the fault surgery of packet/wire.h (blank_options /
// rr_truncate / rr_garble) that rewrites option content under a live view.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "packet/datagram.h"
#include "packet/mutate.h"
#include "packet/options.h"
#include "packet/view.h"
#include "packet/wire.h"
#include "util/rng.h"

namespace rr::pkt {
namespace {

using net::IPv4Address;

IPv4Address rand_addr(util::Rng& rng) {
  return IPv4Address{static_cast<std::uint32_t>(rng())};
}

// ------------------------------------------------ builders

TEST(WireBuilders, PingMatchesLegacySerialize) {
  std::vector<std::uint8_t> out;
  for (int slots = 0; slots <= 9; ++slots) {
    const auto legacy = *make_ping(IPv4Address(10, 0, 0, 1),
                                   IPv4Address(10, 0, 0, 2), 77, 5, 64, slots)
                             .serialize();
    build_ping(out, IPv4Address(10, 0, 0, 1), IPv4Address(10, 0, 0, 2), 77, 5,
               64, slots);
    EXPECT_EQ(out, legacy) << "slots " << slots;
  }
}

TEST(WireBuilders, PingTsMatchesLegacySerialize) {
  std::vector<std::uint8_t> out;
  for (int slots = 1; slots <= 4; ++slots) {
    const auto legacy = *make_ping_ts(IPv4Address(9, 9, 9, 9),
                                      IPv4Address(8, 8, 8, 8), 3, 2, 64, slots)
                            .serialize();
    build_ping_ts(out, IPv4Address(9, 9, 9, 9), IPv4Address(8, 8, 8, 8), 3, 2,
                  64, slots);
    EXPECT_EQ(out, legacy) << "slots " << slots;
  }
}

TEST(WireBuilders, UdpProbeMatchesLegacySerialize) {
  std::vector<std::uint8_t> out;
  for (int slots = 0; slots <= 9; ++slots) {
    const auto legacy =
        *make_udp_probe(IPv4Address(1, 2, 3, 4), IPv4Address(4, 3, 2, 1),
                        0x8001, 33435, 64, slots)
             .serialize();
    build_udp_probe(out, IPv4Address(1, 2, 3, 4), IPv4Address(4, 3, 2, 1),
                    0x8001, 33435, 64, slots);
    EXPECT_EQ(out, legacy) << "slots " << slots;
  }
}

TEST(WireBuilders, ReusedBufferRebuildsIdentically) {
  std::vector<std::uint8_t> out;
  build_ping(out, IPv4Address(1, 1, 1, 1), IPv4Address(2, 2, 2, 2), 1, 1, 64,
             9);
  const auto first = out;
  // A smaller build into the same (larger) buffer must shrink it exactly.
  const auto small = *make_ping(IPv4Address(1, 1, 1, 1),
                                IPv4Address(2, 2, 2, 2), 1, 2, 64, 0)
                          .serialize();
  build_ping(out, IPv4Address(1, 1, 1, 1), IPv4Address(2, 2, 2, 2), 1, 2, 64,
             0);
  EXPECT_EQ(out, small);
  build_ping(out, IPv4Address(1, 1, 1, 1), IPv4Address(2, 2, 2, 2), 1, 1, 64,
             9);
  EXPECT_EQ(out, first);
}

// ------------------------------------------------ view vs mutate.h

class ViewMutateSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ViewMutateSeeds, StampSequencesMatchMutateFunctions) {
  util::Rng rng{GetParam()};
  for (int trial = 0; trial < 25; ++trial) {
    // A datagram with both an RR and a TS option exercises both cached
    // offsets at once (the simulator's RR and TS probes each carry one).
    Datagram datagram;
    datagram.header.source = rand_addr(rng);
    datagram.header.destination = rand_addr(rng);
    datagram.header.ttl = static_cast<std::uint8_t>(rng.next_in(3, 255));
    datagram.header.identification = static_cast<std::uint16_t>(rng());
    datagram.header.protocol = IpProto::kIcmp;
    datagram.payload = IcmpMessage::echo_request(7, 1, 8);
    const int rr_slots = static_cast<int>(rng.next_in(1, 4));
    const int ts_slots = static_cast<int>(rng.next_in(1, 2));
    datagram.header.options.emplace_back(
        RecordRouteOption::empty(static_cast<std::uint8_t>(rr_slots)));
    datagram.header.options.emplace_back(
        TimestampOption::empty(static_cast<std::uint8_t>(ts_slots)));

    auto via_view = *datagram.serialize();
    auto via_mutate = via_view;
    Ipv4HeaderView view{via_view};
    ASSERT_TRUE(view.valid());
    ASSERT_TRUE(view.has_options());

    for (int step = 0; step < 12; ++step) {
      switch (rng.next_below(3)) {
        case 0: {
          const auto a = view.decrement_ttl();
          const auto b = decrement_ttl(via_mutate);
          EXPECT_EQ(a, b);
          break;
        }
        case 1: {
          const IPv4Address addr = rand_addr(rng);
          EXPECT_EQ(view.rr_stamp(addr), rr_stamp(via_mutate, addr));
          break;
        }
        default: {
          const IPv4Address addr = rand_addr(rng);
          const std::uint32_t ms = static_cast<std::uint32_t>(rng());
          EXPECT_EQ(view.ts_stamp(addr, ms), ts_stamp(via_mutate, addr, ms));
          break;
        }
      }
      ASSERT_EQ(via_view, via_mutate) << "trial " << trial << " step " << step;
    }
    // The mutated buffer still parses and carries a valid checksum.
    EXPECT_TRUE(Ipv4Header::parse(via_view).has_value());
  }
}

TEST_P(ViewMutateSeeds, OptionlessAndInvalidBuffersAreInert) {
  util::Rng rng{GetParam() ^ 0x5150ULL};
  // No options: stamps fail on both paths, TTL still works.
  auto plain = *make_ping(rand_addr(rng), rand_addr(rng), 1, 1, 64, 0)
                    .serialize();
  auto plain_mutate = plain;
  Ipv4HeaderView view{plain};
  EXPECT_TRUE(view.valid());
  EXPECT_FALSE(view.has_options());
  EXPECT_FALSE(view.rr_stamp(rand_addr(rng)));
  EXPECT_FALSE(rr_stamp(plain_mutate, IPv4Address(1, 1, 1, 1)));
  EXPECT_EQ(view.decrement_ttl(), decrement_ttl(plain_mutate));
  EXPECT_EQ(plain, plain_mutate);

  // Garbage: the view is inert exactly when mutate.h declines.
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    auto junk_mutate = junk;
    Ipv4HeaderView junk_view{junk};
    const auto a = junk_view.decrement_ttl();
    const auto b = decrement_ttl(junk_mutate);
    EXPECT_EQ(a.has_value(), b.has_value());
    EXPECT_EQ(junk, junk_mutate);
    if (!junk_view.valid()) {
      EXPECT_FALSE(junk_view.rr_stamp(IPv4Address(1, 2, 3, 4)));
    }
  }
}

TEST_P(ViewMutateSeeds, FaultSurgeryUnderALiveView) {
  util::Rng rng{GetParam() ^ 0xfaceULL};
  for (int trial = 0; trial < 20; ++trial) {
    auto via_view = *make_ping(rand_addr(rng), rand_addr(rng), 9, 1, 64, 9)
                         .serialize();
    auto via_mutate = via_view;
    Ipv4HeaderView view{via_view};

    // Stamp a couple of hops, then let the fault layer rewrite the option
    // bytes in place (boundaries never move), then keep stamping: the
    // view's per-call revalidation must track mutate.h exactly.
    for (int i = 0; i < 2; ++i) {
      const IPv4Address addr = rand_addr(rng);
      ASSERT_EQ(view.rr_stamp(addr), rr_stamp(via_mutate, addr));
    }
    const int fault = static_cast<int>(rng.next_below(3));
    if (fault == 0) {
      ASSERT_TRUE(blank_options(via_view));
      ASSERT_TRUE(blank_options(via_mutate));
    } else if (fault == 1) {
      ASSERT_TRUE(rr_truncate(via_view));
      ASSERT_TRUE(rr_truncate(via_mutate));
    } else {
      ASSERT_TRUE(rr_garble(via_view, IPv4Address(6, 6, 6, 6)));
      ASSERT_TRUE(rr_garble(via_mutate, IPv4Address(6, 6, 6, 6)));
    }
    ASSERT_EQ(via_view, via_mutate);

    for (int i = 0; i < 3; ++i) {
      const IPv4Address addr = rand_addr(rng);
      EXPECT_EQ(view.rr_stamp(addr), rr_stamp(via_mutate, addr));
      EXPECT_EQ(view.decrement_ttl(), decrement_ttl(via_mutate));
      ASSERT_EQ(via_view, via_mutate);
    }
    if (fault == 0 || fault == 1) {
      // Blanked (type -> NOP) or truncated (pointer past end): no further
      // stamps on either path.
      EXPECT_FALSE(view.rr_stamp(IPv4Address(1, 1, 1, 1)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewMutateSeeds,
                         ::testing::Values(21, 22, 23, 24, 25));

// ------------------------------------------------ inspect vs parse

class InspectSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InspectSeeds, AcceptedFieldsMatchDatagramParse) {
  util::Rng rng{GetParam()};
  std::vector<std::uint8_t> bytes;
  for (int trial = 0; trial < 30; ++trial) {
    const int kind = static_cast<int>(rng.next_below(3));
    if (kind == 0) {
      build_ping(bytes, rand_addr(rng), rand_addr(rng),
                 static_cast<std::uint16_t>(rng()),
                 static_cast<std::uint16_t>(rng()), 64,
                 static_cast<int>(rng.next_in(0, 9)));
    } else if (kind == 1) {
      build_ping_ts(bytes, rand_addr(rng), rand_addr(rng),
                    static_cast<std::uint16_t>(rng()),
                    static_cast<std::uint16_t>(rng()), 64,
                    static_cast<int>(rng.next_in(1, 4)));
    } else {
      build_udp_probe(bytes, rand_addr(rng), rand_addr(rng),
                      static_cast<std::uint16_t>(rng() | 0x8000),
                      static_cast<std::uint16_t>(33435 + rng.next_below(256)),
                      64, static_cast<int>(rng.next_in(0, 9)));
    }
    // Accrue some stamps so option geometry varies.
    for (int i = 0; i < static_cast<int>(rng.next_below(4)); ++i) {
      (void)rr_stamp(bytes, rand_addr(rng));
      (void)ts_stamp(bytes, rand_addr(rng), static_cast<std::uint32_t>(rng()));
    }

    const auto info = inspect_datagram(bytes);
    const auto parsed = Datagram::parse(bytes);
    ASSERT_EQ(info.has_value(), parsed.has_value());
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->source, parsed->header.source);
    EXPECT_EQ(info->destination, parsed->header.destination);
    EXPECT_EQ(info->ttl, parsed->header.ttl);
    EXPECT_EQ(info->identification, parsed->header.identification);
    EXPECT_EQ(info->options_present, !parsed->header.options.empty());

    if (const auto* rr = parsed->header.record_route()) {
      ASSERT_NE(info->rr_offset, 0u);
      const RrWire wire = rr_wire(bytes, info->rr_offset);
      EXPECT_EQ(wire.capacity, rr->capacity);
      EXPECT_EQ(static_cast<std::size_t>(wire.filled), rr->recorded.size());
      for (std::size_t i = 0; i < rr->recorded.size(); ++i) {
        EXPECT_EQ(rr_slot(bytes, wire, i), rr->recorded[i]);
      }
    } else {
      EXPECT_EQ(info->rr_offset, 0u);
    }
    if (const auto* ts = find_timestamp(parsed->header.options)) {
      ASSERT_NE(info->ts_offset, 0u);
      const TsWire wire = ts_wire(bytes, info->ts_offset);
      EXPECT_EQ(wire.capacity, ts->capacity);
      EXPECT_EQ(static_cast<std::size_t>(wire.filled), ts->entries.size());
      EXPECT_EQ(wire.overflow, ts->overflow);
      for (std::size_t i = 0; i < ts->entries.size(); ++i) {
        const TsEntryWire entry = ts_entry(bytes, wire, i);
        EXPECT_EQ(entry.address, ts->entries[i].address);
        EXPECT_EQ(entry.timestamp_ms, ts->entries[i].timestamp_ms);
      }
    } else {
      EXPECT_EQ(info->ts_offset, 0u);
    }
  }
}

TEST_P(InspectSeeds, RejectionAgreesUnderCorruption) {
  util::Rng rng{GetParam() ^ 0xc0deULL};
  std::vector<std::uint8_t> pristine;
  build_ping(pristine, IPv4Address(1, 2, 3, 4), IPv4Address(4, 3, 2, 1), 1, 1,
             64, 9);
  for (int trial = 0; trial < 200; ++trial) {
    auto bytes = pristine;
    const int flips = 1 + static_cast<int>(rng.next_below(3));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.next_below(bytes.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    EXPECT_EQ(inspect_datagram(bytes).has_value(),
              Datagram::parse(bytes).has_value());
  }
  // Truncations.
  for (std::size_t len = 0; len <= pristine.size(); ++len) {
    const std::span<const std::uint8_t> prefix{pristine.data(), len};
    EXPECT_EQ(inspect_datagram(prefix).has_value(),
              Datagram::parse(prefix).has_value());
  }
}

TEST_P(InspectSeeds, InspectHeaderMatchesIpv4HeaderParseOnQuotes) {
  util::Rng rng{GetParam() ^ 0xabba};
  std::vector<std::uint8_t> probe;
  build_udp_probe(probe, rand_addr(rng), rand_addr(rng), 0x8000, 33435, 64, 9);
  for (int i = 0; i < 3; ++i) (void)rr_stamp(probe, rand_addr(rng));
  // ICMP errors quote at least the header, truncating the transport: every
  // prefix of the datagram from the bare header up must agree.
  for (std::size_t len = 20; len <= probe.size(); ++len) {
    const std::span<const std::uint8_t> quote{probe.data(), len};
    const auto info = inspect_header(quote);
    const auto parsed = Ipv4Header::parse(quote);
    ASSERT_EQ(info.has_value(), parsed.has_value()) << "len " << len;
    if (info.has_value()) {
      EXPECT_EQ(info->source, parsed->source);
      EXPECT_EQ(info->destination, parsed->destination);
      EXPECT_EQ(info->protocol, static_cast<std::uint8_t>(parsed->protocol));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InspectSeeds, ::testing::Values(31, 32, 33));

// Regression (found by tests/fuzz_packet_main.cpp): End-of-List padding
// past the options' own length. The payload starts at the wire IHL; the
// oracle's Datagram::parse used to look for it at the options'
// re-serialized length and rejected a datagram inspect_datagram accepts.
TEST(InspectVsParse, ExtraOptionPaddingLocatesPayloadByIhl) {
  std::vector<std::uint8_t> ping;
  build_ping(ping, IPv4Address(1, 2, 3, 4), IPv4Address(4, 3, 2, 1), 5, 6, 64,
             2);
  ASSERT_EQ(ping[0] & 0x0f, 8);  // 11 RR bytes + 1 pad: a 32-byte header
  std::vector<std::uint8_t> padded(ping.begin(), ping.begin() + 32);
  padded.insert(padded.end(), 4, kOptEndOfList);
  padded.insert(padded.end(), ping.begin() + 32, ping.end());
  padded[0] = 0x49;  // IHL 9: a 36-byte header
  padded[3] = static_cast<std::uint8_t>(padded.size());
  ASSERT_TRUE(rewrite_header_checksum(padded));

  const auto info = inspect_datagram(padded);
  const auto parsed = Datagram::parse(padded);
  ASSERT_TRUE(info.has_value());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(info->header_bytes, 36u);
  ASSERT_NE(parsed->icmp(), nullptr);
  EXPECT_EQ(parsed->icmp()->echo()->sequence, 6);
  EXPECT_EQ(info->echo_sequence, 6);
}

// ------------------------------------------------ reply transforms

/// The legacy host echo reply (sim::Network before the zero-copy path):
/// parse the request, copy options verbatim, optionally stamp self.
std::vector<std::uint8_t> legacy_echo_reply(
    std::span<const std::uint8_t> request, std::uint16_t ip_id,
    bool keep_options, bool stamps_self, IPv4Address stamp_address,
    std::uint32_t ts_ms) {
  const auto datagram = Datagram::parse(request);
  EXPECT_TRUE(datagram.has_value());
  Datagram reply;
  reply.header.source = datagram->header.destination;
  reply.header.destination = datagram->header.source;
  reply.header.ttl = 64;
  reply.header.protocol = IpProto::kIcmp;
  reply.header.identification = ip_id;
  reply.payload = IcmpMessage::echo_reply_for(*datagram->icmp()->echo());
  if (keep_options && !datagram->header.options.empty()) {
    reply.header.options = datagram->header.options;
    if (auto* rr = reply.header.record_route(); rr != nullptr && stamps_self) {
      rr->stamp(stamp_address);
    }
    if (auto* ts = find_timestamp(reply.header.options);
        ts != nullptr && stamps_self) {
      ts->stamp(stamp_address, ts_ms);
    }
  }
  return *reply.serialize();
}

class ReplySeeds : public ::testing::TestWithParam<std::uint64_t> {};

// Trials 0 and 1 pin the endpoint's two no-room cases: an RR option that
// the forward path already filled, and a TS option whose overflow counter
// has saturated at 15. Both must leave the option bytes alone.
TEST_P(ReplySeeds, EchoReplyInplaceMatchesLegacySerialize) {
  util::Rng rng{GetParam()};
  std::vector<std::uint8_t> request;
  for (int trial = 0; trial < 30; ++trial) {
    const bool rr_full = trial == 0;
    const bool ts_saturated = trial == 1;
    const bool ts_probe = ts_saturated || (!rr_full && rng.chance(0.3));
    const int slots = static_cast<int>(rng.next_in(1, ts_probe ? 4 : 9));
    if (ts_probe) {
      build_ping_ts(request, rand_addr(rng), rand_addr(rng),
                    static_cast<std::uint16_t>(rng()), 4, 64, slots);
    } else {
      build_ping(request, rand_addr(rng), rand_addr(rng),
                 static_cast<std::uint16_t>(rng()), 4, 64, slots);
    }
    // Forward-path wear: TTL decrements and stamps, sometimes to overflow.
    int hops = static_cast<int>(rng.next_below(12));
    if (rr_full) hops = slots;
    if (ts_saturated) hops = slots + 15;
    for (int i = 0; i < hops; ++i) {
      ASSERT_TRUE(decrement_ttl(request).has_value());
      (void)rr_stamp(request, rand_addr(rng));
      (void)ts_stamp(request, rand_addr(rng),
                     static_cast<std::uint32_t>(rng()));
    }

    const auto worn = inspect_datagram(request);
    ASSERT_TRUE(worn.has_value());
    if (rr_full) {
      ASSERT_EQ(rr_wire(request, worn->rr_offset).filled, slots);
    }
    if (ts_saturated) {
      ASSERT_EQ(ts_wire(request, worn->ts_offset).overflow, 15);
    }

    const std::uint16_t ip_id = static_cast<std::uint16_t>(rng());
    const bool stamps_self = rr_full || ts_saturated || rng.chance(0.7);
    const IPv4Address self = rand_addr(rng);
    const std::uint32_t ts_ms = static_cast<std::uint32_t>(rng());
    const auto legacy = legacy_echo_reply(request, ip_id, /*keep=*/true,
                                          stamps_self, self, ts_ms);

    // The endpoint sequence of sim::Network: transform in place, stamp
    // through a view while the header checksum is still stale, then
    // recompute both checksums.
    auto inplace = request;
    const auto info = inspect_datagram(inplace);
    ASSERT_TRUE(info.has_value());
    echo_reply_inplace(inplace, *info, ip_id);
    if (stamps_self) {
      Ipv4HeaderView view{inplace};
      const bool rr_stamped = view.rr_stamp(self);
      (void)view.ts_stamp(self, ts_ms);
      if (rr_full) {
        EXPECT_FALSE(rr_stamped);
      }
    }
    finalize_checksums(inplace, info->header_bytes, info->total_length);
    EXPECT_EQ(inplace, legacy) << "trial " << trial;
    EXPECT_TRUE(Datagram::parse(inplace).has_value());
  }
}

TEST_P(ReplySeeds, StrippedReplyMatchesLegacySerialize) {
  util::Rng rng{GetParam() ^ 0x57ULL};
  std::vector<std::uint8_t> request;
  std::vector<std::uint8_t> out;
  for (int trial = 0; trial < 20; ++trial) {
    build_ping(request, rand_addr(rng), rand_addr(rng),
               static_cast<std::uint16_t>(rng()), 2, 64,
               static_cast<int>(rng.next_in(0, 9)));
    for (int i = 0; i < 3; ++i) (void)rr_stamp(request, rand_addr(rng));
    const std::uint16_t ip_id = static_cast<std::uint16_t>(rng());
    const auto legacy =
        legacy_echo_reply(request, ip_id, /*keep=*/false, false,
                          IPv4Address{}, 0);
    const auto info = inspect_datagram(request);
    ASSERT_TRUE(info.has_value());
    build_echo_reply_stripped(out, request, *info, ip_id);
    EXPECT_EQ(out, legacy);
  }
}

TEST_P(ReplySeeds, IcmpErrorMatchesLegacySerialize) {
  util::Rng rng{GetParam() ^ 0x911ULL};
  std::vector<std::uint8_t> offending;
  std::vector<std::uint8_t> out;
  for (const std::size_t depth : {std::size_t{0}, std::size_t{8},
                                  std::size_t{28}, std::size_t{1500}}) {
    for (int trial = 0; trial < 8; ++trial) {
      build_udp_probe(offending, rand_addr(rng), rand_addr(rng),
                      static_cast<std::uint16_t>(rng() | 0x8000), 33435, 64,
                      9);
      for (int i = 0; i < static_cast<int>(rng.next_below(5)); ++i) {
        (void)rr_stamp(offending, rand_addr(rng));
      }
      const IPv4Address from = rand_addr(rng);
      const auto dst = *peek_source(offending);
      const std::uint16_t ip_id = static_cast<std::uint16_t>(rng());
      const bool ttl_error = rng.chance(0.5);
      const auto type =
          ttl_error ? IcmpType::kTimeExceeded : IcmpType::kDestUnreachable;
      const std::uint8_t code = ttl_error ? 0 : kCodePortUnreachable;

      Datagram error;
      error.header.source = from;
      error.header.destination = dst;
      error.header.ttl = 64;
      error.header.protocol = IpProto::kIcmp;
      error.header.identification = ip_id;
      error.payload = IcmpMessage::error(type, code, offending, depth);
      const auto legacy = *error.serialize();

      build_icmp_error(out, static_cast<std::uint8_t>(type), code, from, dst,
                       ip_id, offending, depth);
      EXPECT_EQ(out, legacy) << "depth " << depth;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplySeeds, ::testing::Values(41, 42, 43));

}  // namespace
}  // namespace rr::pkt

// Whole IPv4 datagrams: header + transport payload, with build/parse
// round-trips through real wire bytes.
//
// The owning packet model, kept as the spec oracle for the library's wire
// functions (packet/wire.h builds and inspects, packet/view.h edits): the
// tests hold their bytes and their accept/reject decisions to this model's
// serialize() and parse().
#pragma once

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "packet/icmp.h"
#include "packet/ipv4.h"
#include "packet/udp.h"

namespace rr::pkt {

using TransportPayload = std::variant<IcmpMessage, UdpDatagram>;

struct Datagram {
  Ipv4Header header;
  TransportPayload payload;

  [[nodiscard]] const IcmpMessage* icmp() const noexcept {
    return std::get_if<IcmpMessage>(&payload);
  }
  [[nodiscard]] const UdpDatagram* udp() const noexcept {
    return std::get_if<UdpDatagram>(&payload);
  }

  /// Serializes header + payload to wire bytes (checksums computed).
  /// Returns std::nullopt if the header options are malformed/oversized.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> serialize() const;

  /// Parses a full datagram; validates IP and ICMP checksums and that the
  /// transport protocol matches the payload found.
  [[nodiscard]] static std::optional<Datagram> parse(
      std::span<const std::uint8_t> data);
};

/// Builds a ping (ICMP echo request) datagram; enables Record Route when
/// `rr_slots` > 0.
[[nodiscard]] Datagram make_ping(net::IPv4Address source,
                                 net::IPv4Address destination,
                                 std::uint16_t identifier,
                                 std::uint16_t sequence, std::uint8_t ttl = 64,
                                 int rr_slots = 0);

/// Builds a ping with the Timestamp option (type 68, flag 1:
/// address+timestamp pairs; at most four fit in the option area).
[[nodiscard]] Datagram make_ping_ts(net::IPv4Address source,
                                    net::IPv4Address destination,
                                    std::uint16_t identifier,
                                    std::uint16_t sequence,
                                    std::uint8_t ttl = 64, int ts_slots = 4);

/// Builds a ping-RRudp probe: UDP to a high (likely closed) port with the
/// Record Route option enabled.
[[nodiscard]] Datagram make_udp_probe(net::IPv4Address source,
                                      net::IPv4Address destination,
                                      std::uint16_t source_port,
                                      std::uint16_t destination_port,
                                      std::uint8_t ttl = 64,
                                      int rr_slots = kMaxRrSlots);

}  // namespace rr::pkt

// UDP header (RFC 768), used by the `ping-RRudp` probe of §3.3: a UDP
// datagram to a high, almost-certainly-closed port elicits an ICMP port
// unreachable whose quotation carries the probe's RR option back.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netbase/byte_io.h"

namespace rr::pkt {

struct UdpDatagram {
  std::uint16_t source_port = 0;
  std::uint16_t destination_port = 0;
  std::vector<std::uint8_t> payload;

  /// Serializes with the checksum field zero (legal for IPv4 UDP; scamper's
  /// probes behave the same and it keeps the simulator honest about not
  /// relying on transport checksums).
  void serialize(net::ByteWriter& out) const;

  [[nodiscard]] static std::optional<UdpDatagram> parse(
      std::span<const std::uint8_t> data);

  [[nodiscard]] std::size_t wire_length() const noexcept {
    return 8 + payload.size();
  }

  [[nodiscard]] bool operator==(const UdpDatagram&) const = default;
};

}  // namespace rr::pkt

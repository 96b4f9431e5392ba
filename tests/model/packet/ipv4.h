// IPv4 header (RFC 791), including options.
//
// The header serializes to real wire format: IHL reflects the option area,
// the checksum is computed over the header, and parsing validates both.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netbase/address.h"
#include "netbase/byte_io.h"
#include "packet/options.h"
#include "packet/wire.h"

namespace rr::pkt {

inline constexpr std::size_t kIpv4BaseHeaderBytes = 20;
inline constexpr std::size_t kIpv4MaxHeaderBytes = 60;

struct Ipv4Header {
  std::uint8_t tos = 0;
  std::uint16_t identification = 0;
  bool dont_fragment = true;
  std::uint8_t ttl = 64;
  IpProto protocol = IpProto::kIcmp;
  net::IPv4Address source;
  net::IPv4Address destination;
  std::vector<IpOption> options;

  /// Filled in by parse(); serialize() computes them.
  std::uint16_t total_length = 0;
  std::uint16_t checksum = 0;

  /// Bytes occupied by options after padding to a 32-bit boundary.
  [[nodiscard]] std::size_t options_wire_bytes() const noexcept;

  /// Full header length (20 + padded options), i.e. IHL * 4.
  [[nodiscard]] std::size_t header_length() const noexcept {
    return kIpv4BaseHeaderBytes + options_wire_bytes();
  }

  [[nodiscard]] const RecordRouteOption* record_route() const noexcept {
    return find_record_route(options);
  }
  [[nodiscard]] RecordRouteOption* record_route() noexcept {
    return find_record_route(options);
  }

  /// Serializes header + payload length into `out`, computing total_length
  /// and checksum. `payload_bytes` is only used for the length field.
  /// Returns false if the options do not fit or are malformed.
  [[nodiscard]] bool serialize(net::ByteWriter& out,
                               std::size_t payload_bytes) const;

  /// Parses and validates a header from the front of `data` (checksum,
  /// version, IHL and length consistency). On success the reader in the
  /// caller should continue at header_length().
  [[nodiscard]] static std::optional<Ipv4Header> parse(
      std::span<const std::uint8_t> data);
};

}  // namespace rr::pkt

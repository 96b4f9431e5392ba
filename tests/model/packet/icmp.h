// ICMP messages (RFC 792), restricted to the types the study exercises:
//
//  * Echo Request / Echo Reply — the `ping` and `ping-RR` probes,
//  * Time Exceeded — elicited by the TTL-limited `ping-RR` of §4.2,
//  * Destination Unreachable (port unreachable) — elicited by `ping-RRudp`.
//
// Error messages quote the offending datagram (IP header incl. options plus
// the leading payload bytes, per RFC 792/1812). Reading the RR option back
// out of that quotation is precisely the trick §3.3 and §4.2 rely on, so the
// quotation here is byte-faithful.
#pragma once

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "netbase/byte_io.h"
#include "packet/wire.h"

namespace rr::pkt {

/// Echo request/reply body: identifier, sequence, opaque payload.
struct IcmpEcho {
  std::uint16_t identifier = 0;
  std::uint16_t sequence = 0;
  std::vector<std::uint8_t> payload;

  [[nodiscard]] bool operator==(const IcmpEcho&) const = default;
};

/// Error body: the quoted prefix of the offending datagram.
struct IcmpErrorBody {
  std::vector<std::uint8_t> quoted_datagram;

  [[nodiscard]] bool operator==(const IcmpErrorBody&) const = default;
};

struct IcmpMessage {
  IcmpType type = IcmpType::kEchoRequest;
  std::uint8_t code = 0;
  std::variant<IcmpEcho, IcmpErrorBody> body;

  [[nodiscard]] static IcmpMessage echo_request(std::uint16_t identifier,
                                                std::uint16_t sequence,
                                                std::size_t payload_bytes = 8);

  /// Builds the reply for a request (same id/seq/payload).
  [[nodiscard]] static IcmpMessage echo_reply_for(const IcmpEcho& request);

  /// Builds an error quoting `offending_datagram`. The quotation keeps the
  /// full IP header (incl. options) plus `quoted_payload_bytes` of payload.
  [[nodiscard]] static IcmpMessage error(
      IcmpType type, std::uint8_t code,
      std::span<const std::uint8_t> offending_datagram,
      std::size_t quoted_payload_bytes = 8);

  [[nodiscard]] bool is_echo() const noexcept {
    return type == IcmpType::kEchoRequest || type == IcmpType::kEchoReply;
  }

  [[nodiscard]] const IcmpEcho* echo() const noexcept {
    return std::get_if<IcmpEcho>(&body);
  }
  [[nodiscard]] const IcmpErrorBody* error_body() const noexcept {
    return std::get_if<IcmpErrorBody>(&body);
  }

  /// Serializes with a correct ICMP checksum.
  void serialize(net::ByteWriter& out) const;

  /// Parses and checksum-validates an ICMP message.
  [[nodiscard]] static std::optional<IcmpMessage> parse(
      std::span<const std::uint8_t> data);
};

}  // namespace rr::pkt

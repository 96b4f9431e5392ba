#include "packet/icmp.h"

#include <algorithm>

#include "netbase/checksum.h"
#include "packet/ipv4.h"

namespace rr::pkt {

IcmpMessage IcmpMessage::echo_request(std::uint16_t identifier,
                                      std::uint16_t sequence,
                                      std::size_t payload_bytes) {
  IcmpMessage msg;
  msg.type = IcmpType::kEchoRequest;
  msg.code = 0;
  IcmpEcho echo;
  echo.identifier = identifier;
  echo.sequence = sequence;
  echo.payload.resize(payload_bytes);
  // Deterministic cookie pattern so replies are recognizable in dumps.
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    echo.payload[i] = static_cast<std::uint8_t>(0xa5 ^ (i * 29));
  }
  msg.body = std::move(echo);
  return msg;
}

IcmpMessage IcmpMessage::echo_reply_for(const IcmpEcho& request) {
  IcmpMessage msg;
  msg.type = IcmpType::kEchoReply;
  msg.code = 0;
  msg.body = request;  // id, seq and payload are echoed back verbatim
  return msg;
}

IcmpMessage IcmpMessage::error(IcmpType type, std::uint8_t code,
                               std::span<const std::uint8_t> offending_datagram,
                               std::size_t quoted_payload_bytes) {
  IcmpMessage msg;
  msg.type = type;
  msg.code = code;
  IcmpErrorBody body;
  // Quote the full IP header (IHL * 4 bytes, options included) plus the
  // leading transport bytes.
  std::size_t quote_len = offending_datagram.size();
  if (!offending_datagram.empty()) {
    const std::size_t header_bytes =
        static_cast<std::size_t>(offending_datagram[0] & 0x0f) * 4;
    quote_len = std::min(offending_datagram.size(),
                         header_bytes + quoted_payload_bytes);
  }
  body.quoted_datagram.assign(offending_datagram.begin(),
                              offending_datagram.begin() +
                                  static_cast<std::ptrdiff_t>(quote_len));
  msg.body = std::move(body);
  return msg;
}

void IcmpMessage::serialize(net::ByteWriter& out) const {
  const std::size_t start = out.size();
  out.u8(static_cast<std::uint8_t>(type));
  out.u8(code);
  const std::size_t checksum_offset = out.size();
  out.u16(0);
  if (const auto* echo = std::get_if<IcmpEcho>(&body)) {
    out.u16(echo->identifier);
    out.u16(echo->sequence);
    out.bytes(echo->payload);
  } else {
    const auto& err = std::get<IcmpErrorBody>(body);
    out.u32(0);  // unused / reserved word
    out.bytes(err.quoted_datagram);
  }
  const std::uint16_t sum =
      net::internet_checksum(out.view().subspan(start, out.size() - start));
  out.patch_u16(checksum_offset, sum);
}

std::optional<IcmpMessage> IcmpMessage::parse(
    std::span<const std::uint8_t> data) {
  if (data.size() < 8) return std::nullopt;
  if (!net::checksum_ok(data)) return std::nullopt;

  IcmpMessage msg;
  const std::uint8_t raw_type = data[0];
  msg.code = data[1];
  switch (raw_type) {
    case static_cast<std::uint8_t>(IcmpType::kEchoReply):
    case static_cast<std::uint8_t>(IcmpType::kDestUnreachable):
    case static_cast<std::uint8_t>(IcmpType::kEchoRequest):
    case static_cast<std::uint8_t>(IcmpType::kTimeExceeded):
      msg.type = static_cast<IcmpType>(raw_type);
      break;
    default:
      return std::nullopt;  // type we do not model
  }

  net::ByteReader reader{data};
  reader.skip(4);  // type, code, checksum
  if (msg.is_echo()) {
    IcmpEcho echo;
    echo.identifier = reader.u16();
    echo.sequence = reader.u16();
    const auto rest = reader.rest();
    echo.payload.assign(rest.begin(), rest.end());
    msg.body = std::move(echo);
  } else {
    reader.skip(4);  // unused word
    IcmpErrorBody body;
    const auto rest = reader.rest();
    body.quoted_datagram.assign(rest.begin(), rest.end());
    msg.body = std::move(body);
  }
  return msg;
}

}  // namespace rr::pkt

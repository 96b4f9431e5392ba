#include "packet/datagram.h"

#include <algorithm>

namespace rr::pkt {

namespace {

struct PayloadSerializer {
  net::ByteWriter& out;
  void operator()(const IcmpMessage& icmp) const { icmp.serialize(out); }
  void operator()(const UdpDatagram& udp) const { udp.serialize(out); }
};

}  // namespace

std::optional<std::vector<std::uint8_t>> Datagram::serialize() const {
  // Serialize the payload first so the header knows the total length.
  net::ByteWriter payload_bytes;
  std::visit(PayloadSerializer{payload_bytes}, payload);

  net::ByteWriter out{header.header_length() + payload_bytes.size()};
  if (!header.serialize(out, payload_bytes.size())) return std::nullopt;
  out.bytes(payload_bytes.view());
  return std::move(out).take();
}

std::optional<Datagram> Datagram::parse(std::span<const std::uint8_t> data) {
  auto header = Ipv4Header::parse(data);
  if (!header) return std::nullopt;
  // The payload starts where the wire IHL says, which is past the parsed
  // options' own (re-serialized) length when the option area carries
  // extra End-of-List padding.
  const std::size_t header_bytes = static_cast<std::size_t>(data[0] & 0x0f) * 4;
  if (header->total_length > data.size()) return std::nullopt;
  const auto transport =
      data.subspan(header_bytes, header->total_length - header_bytes);

  Datagram datagram;
  if (header->protocol == IpProto::kIcmp) {
    auto icmp = IcmpMessage::parse(transport);
    if (!icmp) return std::nullopt;
    datagram.payload = std::move(*icmp);
  } else if (header->protocol == IpProto::kUdp) {
    auto udp = UdpDatagram::parse(transport);
    if (!udp) return std::nullopt;
    datagram.payload = std::move(*udp);
  } else {
    return std::nullopt;
  }
  datagram.header = std::move(*header);
  return datagram;
}

Datagram make_ping(net::IPv4Address source, net::IPv4Address destination,
                   std::uint16_t identifier, std::uint16_t sequence,
                   std::uint8_t ttl, int rr_slots) {
  Datagram datagram;
  datagram.header.source = source;
  datagram.header.destination = destination;
  datagram.header.ttl = ttl;
  datagram.header.protocol = IpProto::kIcmp;
  datagram.header.identification = static_cast<std::uint16_t>(
      (identifier << 4) ^ sequence);
  if (rr_slots > 0) {
    datagram.header.options.emplace_back(RecordRouteOption::empty(
        static_cast<std::uint8_t>(std::min(rr_slots, kMaxRrSlots))));
  }
  datagram.payload = IcmpMessage::echo_request(identifier, sequence);
  return datagram;
}

Datagram make_ping_ts(net::IPv4Address source, net::IPv4Address destination,
                      std::uint16_t identifier, std::uint16_t sequence,
                      std::uint8_t ttl, int ts_slots) {
  Datagram datagram;
  datagram.header.source = source;
  datagram.header.destination = destination;
  datagram.header.ttl = ttl;
  datagram.header.protocol = IpProto::kIcmp;
  datagram.header.identification =
      static_cast<std::uint16_t>((identifier << 3) ^ sequence ^ 0x5a5a);
  datagram.header.options.emplace_back(TimestampOption::empty(
      static_cast<std::uint8_t>(std::clamp(ts_slots, 1, 4))));
  datagram.payload = IcmpMessage::echo_request(identifier, sequence);
  return datagram;
}

Datagram make_udp_probe(net::IPv4Address source, net::IPv4Address destination,
                        std::uint16_t source_port,
                        std::uint16_t destination_port, std::uint8_t ttl,
                        int rr_slots) {
  Datagram datagram;
  datagram.header.source = source;
  datagram.header.destination = destination;
  datagram.header.ttl = ttl;
  datagram.header.protocol = IpProto::kUdp;
  datagram.header.identification =
      static_cast<std::uint16_t>(source_port ^ (destination_port << 1));
  if (rr_slots > 0) {
    datagram.header.options.emplace_back(RecordRouteOption::empty(
        static_cast<std::uint8_t>(std::min(rr_slots, kMaxRrSlots))));
  }
  UdpDatagram udp;
  udp.source_port = source_port;
  udp.destination_port = destination_port;
  udp.payload = {0xde, 0xad, 0xbe, 0xef};
  datagram.payload = std::move(udp);
  return datagram;
}

}  // namespace rr::pkt

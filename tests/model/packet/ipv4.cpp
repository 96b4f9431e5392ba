#include "packet/ipv4.h"

#include "netbase/checksum.h"

namespace rr::pkt {

std::size_t Ipv4Header::options_wire_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& option : options) total += option_wire_length(option);
  return (total + 3) & ~std::size_t{3};
}

bool Ipv4Header::serialize(net::ByteWriter& out,
                           std::size_t payload_bytes) const {
  const std::size_t header_bytes = header_length();
  if (header_bytes > kIpv4MaxHeaderBytes) return false;
  const std::size_t total = header_bytes + payload_bytes;
  if (total > 0xffff) return false;

  const std::size_t start = out.size();
  const std::uint8_t version_ihl =
      static_cast<std::uint8_t>((4 << 4) | (header_bytes / 4));
  out.u8(version_ihl);
  out.u8(tos);
  out.u16(static_cast<std::uint16_t>(total));
  out.u16(identification);
  out.u16(dont_fragment ? std::uint16_t{0x4000} : std::uint16_t{0});
  out.u8(ttl);
  out.u8(static_cast<std::uint8_t>(protocol));
  const std::size_t checksum_offset = out.size();
  out.u16(0);  // checksum placeholder
  out.address(source);
  out.address(destination);
  if (!serialize_options(options, out)) return false;
  if (out.size() - start != header_bytes) return false;  // internal invariant

  const std::uint16_t sum = net::internet_checksum(
      out.view().subspan(start, header_bytes));
  out.patch_u16(checksum_offset, sum);
  return true;
}

std::optional<Ipv4Header> Ipv4Header::parse(
    std::span<const std::uint8_t> data) {
  if (data.size() < kIpv4BaseHeaderBytes) return std::nullopt;
  const std::uint8_t version = data[0] >> 4;
  const std::size_t header_bytes = static_cast<std::size_t>(data[0] & 0x0f) * 4;
  if (version != 4) return std::nullopt;
  if (header_bytes < kIpv4BaseHeaderBytes || header_bytes > data.size()) {
    return std::nullopt;
  }
  if (!net::checksum_ok(data.first(header_bytes))) return std::nullopt;

  net::ByteReader reader{data.first(header_bytes)};
  reader.skip(1);  // version/IHL already consumed above
  Ipv4Header header;
  header.tos = reader.u8();
  header.total_length = reader.u16();
  header.identification = reader.u16();
  const std::uint16_t flags_frag = reader.u16();
  header.dont_fragment = (flags_frag & 0x4000) != 0;
  header.ttl = reader.u8();
  // An unknown transport is still a valid IP header: keep the raw number.
  header.protocol = static_cast<IpProto>(reader.u8());
  header.checksum = reader.u16();
  header.source = reader.address();
  header.destination = reader.address();
  if (!reader.ok()) return std::nullopt;
  if (header.total_length < header_bytes) return std::nullopt;

  auto parsed = parse_options(reader.rest());
  if (!parsed) return std::nullopt;
  header.options = std::move(*parsed);
  return header;
}

}  // namespace rr::pkt

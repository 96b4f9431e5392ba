#include "packet/wire.h"

#include <algorithm>

#include "netbase/checksum.h"
#include "packet/view.h"

namespace rr::pkt {

namespace {

std::uint16_t read_u16(std::span<const std::uint8_t> buffer,
                       std::size_t offset) noexcept {
  return static_cast<std::uint16_t>((std::uint16_t{buffer[offset]} << 8) |
                                    buffer[offset + 1]);
}

void write_u16(std::span<std::uint8_t> buffer, std::size_t offset,
               std::uint16_t value) noexcept {
  buffer[offset] = static_cast<std::uint8_t>(value >> 8);
  buffer[offset + 1] = static_cast<std::uint8_t>(value);
}

void write_address(std::span<std::uint8_t> buffer, std::size_t offset,
                   net::IPv4Address address) noexcept {
  write_u16(buffer, offset, static_cast<std::uint16_t>(address.value() >> 16));
  write_u16(buffer, offset + 2, static_cast<std::uint16_t>(address.value()));
}

net::IPv4Address read_address(std::span<const std::uint8_t> buffer,
                              std::size_t offset) noexcept {
  return net::IPv4Address::from_bytes(buffer[offset], buffer[offset + 1],
                                      buffer[offset + 2], buffer[offset + 3]);
}

void rewrite_header_checksum(std::span<std::uint8_t> bytes,
                             std::size_t header_bytes) noexcept {
  write_u16(bytes, 10, 0);
  write_u16(bytes, 10, net::internet_checksum(bytes.first(header_bytes)));
}

/// Walks the options area with parse_options grammar; false = parse_options
/// would have returned nullopt. Records the first RR / TS offsets (absolute)
/// and whether any option (NOPs included) was parsed.
bool walk_options(std::span<const std::uint8_t> data, std::size_t header_bytes,
                  WireInfo& info) noexcept {
  std::size_t i = 20;
  while (i < header_bytes) {
    const std::uint8_t type = data[i];
    if (type == kOptEndOfList) break;  // rest is padding
    if (type == kOptNop) {
      info.options_present = true;
      ++i;
      continue;
    }
    if (i + 1 >= header_bytes) return false;  // missing length
    const std::uint8_t length = data[i + 1];
    if (length < 2 || i + length > header_bytes) return false;
    if (type == kOptRecordRoute) {
      if (length < 3 || (length - 3) % 4 != 0) return false;
      const int capacity = (length - 3) / 4;
      if (capacity < 1 || capacity > kMaxRrSlots) return false;
      const std::uint8_t pointer = data[i + 2];
      if (pointer < kRrMinPointer || (pointer - kRrMinPointer) % 4 != 0) {
        return false;
      }
      if ((pointer - kRrMinPointer) / 4 > capacity) return false;
      if (info.rr_offset == 0) info.rr_offset = i;
    } else if (type == kOptTimestamp) {
      if (length < 4) return false;
      const std::uint8_t flags = data[i + 3] & 0x0f;
      if (flags != kTsFlagTimestampOnly &&
          flags != kTsFlagAddressAndTimestamp) {
        return false;
      }
      const int entry_bytes = flags == kTsFlagTimestampOnly ? 4 : 8;
      if ((length - 4) % entry_bytes != 0) return false;
      const int capacity = (length - 4) / entry_bytes;
      if (capacity < 1) return false;
      const std::uint8_t pointer = data[i + 2];
      if (pointer < 5 || (pointer - 5) % entry_bytes != 0) return false;
      if ((pointer - 5) / entry_bytes > capacity) return false;
      if (info.ts_offset == 0) info.ts_offset = i;
    }
    // Other types are RawOptions: any content of declared length parses.
    info.options_present = true;
    i += length;
  }
  return true;
}

/// Writes the 8-byte ICMP echo request body (id, seq, cookie payload) with
/// a zero checksum placeholder at `offset`.
void write_echo_request(std::span<std::uint8_t> bytes, std::size_t offset,
                        std::uint16_t identifier,
                        std::uint16_t sequence) noexcept {
  bytes[offset] = static_cast<std::uint8_t>(IcmpType::kEchoRequest);
  bytes[offset + 1] = 0;
  write_u16(bytes, offset + 2, 0);
  write_u16(bytes, offset + 4, identifier);
  write_u16(bytes, offset + 6, sequence);
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[offset + 8 + i] = static_cast<std::uint8_t>(0xa5 ^ (i * 29));
  }
}

/// Header bytes of a probe carrying an empty `rr_slots`-slot RR option
/// (none when rr_slots <= 0): the 3 + 4*slots option bytes are padded to a
/// 32-bit boundary with End-of-List zeros (always exactly one byte).
std::size_t rr_probe_header_bytes(int rr_slots) noexcept {
  const int slots = std::min(rr_slots, kMaxRrSlots);
  return slots > 0 ? 20 + ((3 + 4 * static_cast<std::size_t>(slots) + 3) &
                           ~std::size_t{3})
                   : 20;
}

/// Writes the empty RR option of a probe built with rr_probe_header_bytes.
void write_empty_rr(std::span<std::uint8_t> bytes,
                    std::size_t header_bytes) noexcept {
  if (header_bytes == 20) return;
  bytes[20] = kOptRecordRoute;
  bytes[21] = static_cast<std::uint8_t>(header_bytes - 21);  // 3 + 4*slots
  bytes[22] = kRrMinPointer;  // empty: slots and the pad byte stay zero
}

void write_base_header(std::span<std::uint8_t> bytes, std::size_t header_bytes,
                       std::size_t total, std::uint16_t identification,
                       std::uint8_t ttl, std::uint8_t protocol,
                       net::IPv4Address source,
                       net::IPv4Address destination) noexcept {
  bytes[0] = static_cast<std::uint8_t>(0x40 | (header_bytes / 4));
  bytes[1] = 0;  // tos
  write_u16(bytes, 2, static_cast<std::uint16_t>(total));
  write_u16(bytes, 4, identification);
  write_u16(bytes, 6, 0x4000);  // don't-fragment
  bytes[8] = ttl;
  bytes[9] = protocol;
  write_u16(bytes, 10, 0);  // checksum placeholder
  write_address(bytes, 12, source);
  write_address(bytes, 16, destination);
}

}  // namespace

std::optional<WireInfo> inspect_header(
    std::span<const std::uint8_t> data) noexcept {
  const std::size_t header_bytes = peek_header_bytes(data);
  if (header_bytes == 0) return std::nullopt;
  if (!net::checksum_ok(data.first(header_bytes))) return std::nullopt;

  WireInfo info;
  info.header_bytes = header_bytes;
  info.total_length = read_u16(data, 2);
  if (info.total_length < header_bytes) return std::nullopt;
  info.identification = read_u16(data, 4);
  info.ttl = data[8];
  info.protocol = data[9];
  info.source = read_address(data, 12);
  info.destination = read_address(data, 16);
  if (!walk_options(data, header_bytes, info)) return std::nullopt;
  return info;
}

std::optional<WireInfo> inspect_datagram(
    std::span<const std::uint8_t> data) noexcept {
  auto info = inspect_header(data);
  if (!info) return std::nullopt;
  if (info->total_length > data.size()) return std::nullopt;
  const auto transport =
      data.subspan(info->header_bytes, info->total_length - info->header_bytes);

  if (info->protocol == static_cast<std::uint8_t>(IpProto::kIcmp)) {
    if (transport.size() < 8) return std::nullopt;
    if (!net::checksum_ok(transport)) return std::nullopt;
    const std::uint8_t type = transport[0];
    if (type != static_cast<std::uint8_t>(IcmpType::kEchoReply) &&
        type != static_cast<std::uint8_t>(IcmpType::kDestUnreachable) &&
        type != static_cast<std::uint8_t>(IcmpType::kEchoRequest) &&
        type != static_cast<std::uint8_t>(IcmpType::kTimeExceeded)) {
      return std::nullopt;  // type we do not model
    }
    info->icmp_type = type;
    info->icmp_code = transport[1];
    if (type == static_cast<std::uint8_t>(IcmpType::kEchoReply) ||
        type == static_cast<std::uint8_t>(IcmpType::kEchoRequest)) {
      info->echo_identifier = read_u16(transport, 4);
      info->echo_sequence = read_u16(transport, 6);
    } else {
      info->quote_offset = info->header_bytes + 8;
      info->quote_length = transport.size() - 8;
    }
  } else if (info->protocol == static_cast<std::uint8_t>(IpProto::kUdp)) {
    if (transport.size() < 8) return std::nullopt;
    const std::uint16_t length = read_u16(transport, 4);
    if (length < 8 || length > transport.size()) return std::nullopt;
    info->udp_source_port = read_u16(transport, 0);
    info->udp_destination_port = read_u16(transport, 2);
  } else {
    return std::nullopt;
  }
  return info;
}

std::optional<net::IPv4Address> peek_source(
    std::span<const std::uint8_t> datagram) noexcept {
  if (peek_header_bytes(datagram) == 0) return std::nullopt;
  return read_address(datagram, 12);
}

std::optional<net::IPv4Address> peek_destination(
    std::span<const std::uint8_t> datagram) noexcept {
  if (peek_header_bytes(datagram) == 0) return std::nullopt;
  return read_address(datagram, 16);
}

RrWire rr_wire(std::span<const std::uint8_t> data,
               std::size_t rr_offset) noexcept {
  RrWire rr;
  rr.offset = rr_offset;
  const std::uint8_t length = data[rr_offset + 1];
  const std::uint8_t pointer = data[rr_offset + 2];
  rr.capacity = static_cast<std::uint8_t>((length - 3) / 4);
  rr.filled = static_cast<std::uint8_t>((pointer - kRrMinPointer) / 4);
  return rr;
}

net::IPv4Address rr_slot(std::span<const std::uint8_t> data, const RrWire& rr,
                         std::size_t index) noexcept {
  return read_address(data, rr.offset + 3 + 4 * index);
}

TsWire ts_wire(std::span<const std::uint8_t> data,
               std::size_t ts_offset) noexcept {
  TsWire ts;
  ts.offset = ts_offset;
  const std::uint8_t length = data[ts_offset + 1];
  const std::uint8_t pointer = data[ts_offset + 2];
  ts.flags = data[ts_offset + 3] & 0x0f;
  ts.overflow = data[ts_offset + 3] >> 4;
  ts.entry_bytes = ts.flags == kTsFlagTimestampOnly ? 4 : 8;
  ts.capacity = static_cast<std::uint8_t>((length - 4) / ts.entry_bytes);
  ts.filled = static_cast<std::uint8_t>((pointer - 5) / ts.entry_bytes);
  return ts;
}

TsEntryWire ts_entry(std::span<const std::uint8_t> data, const TsWire& ts,
                     std::size_t index) noexcept {
  TsEntryWire entry;
  std::size_t at = ts.offset + 4 + ts.entry_bytes * index;
  if (ts.flags == kTsFlagAddressAndTimestamp) {
    entry.address = read_address(data, at);
    at += 4;
  }
  entry.timestamp_ms =
      (std::uint32_t{read_u16(data, at)} << 16) | read_u16(data, at + 2);
  return entry;
}

void build_ping(std::vector<std::uint8_t>& out, net::IPv4Address source,
                net::IPv4Address destination, std::uint16_t identifier,
                std::uint16_t sequence, std::uint8_t ttl, int rr_slots) {
  const std::size_t header_bytes = rr_probe_header_bytes(rr_slots);
  const std::size_t total = header_bytes + 16;
  out.assign(total, 0);
  write_base_header(out, header_bytes, total,
                    static_cast<std::uint16_t>((identifier << 4) ^ sequence),
                    ttl, static_cast<std::uint8_t>(IpProto::kIcmp), source,
                    destination);
  write_empty_rr(out, header_bytes);
  write_echo_request(out, header_bytes, identifier, sequence);
  finalize_checksums(out, header_bytes, total);
}

void build_ping_ts(std::vector<std::uint8_t>& out, net::IPv4Address source,
                   net::IPv4Address destination, std::uint16_t identifier,
                   std::uint16_t sequence, std::uint8_t ttl, int ts_slots) {
  const int slots = std::clamp(ts_slots, 1, 4);
  const std::size_t option_bytes = 4 + 8 * static_cast<std::size_t>(slots);
  const std::size_t header_bytes = 20 + option_bytes;
  const std::size_t total = header_bytes + 16;
  out.assign(total, 0);
  write_base_header(
      out, header_bytes, total,
      static_cast<std::uint16_t>((identifier << 3) ^ sequence ^ 0x5a5a), ttl,
      static_cast<std::uint8_t>(IpProto::kIcmp), source, destination);
  out[20] = kOptTimestamp;
  out[21] = static_cast<std::uint8_t>(4 + 8 * slots);
  out[22] = 5;  // first entry
  out[23] = kTsFlagAddressAndTimestamp;  // overflow 0
  write_echo_request(out, header_bytes, identifier, sequence);
  finalize_checksums(out, header_bytes, total);
}

void build_udp_probe(std::vector<std::uint8_t>& out, net::IPv4Address source,
                     net::IPv4Address destination, std::uint16_t source_port,
                     std::uint16_t destination_port, std::uint8_t ttl,
                     int rr_slots) {
  const std::size_t header_bytes = rr_probe_header_bytes(rr_slots);
  const std::size_t total = header_bytes + 12;  // 8 UDP + 4 payload
  out.assign(total, 0);
  write_base_header(
      out, header_bytes, total,
      static_cast<std::uint16_t>(source_port ^ (destination_port << 1)), ttl,
      static_cast<std::uint8_t>(IpProto::kUdp), source, destination);
  write_empty_rr(out, header_bytes);
  write_u16(out, header_bytes, source_port);
  write_u16(out, header_bytes + 2, destination_port);
  write_u16(out, header_bytes + 4, 12);
  // The UDP checksum stays 0: legal for IPv4 UDP, and it keeps the
  // simulator from relying on transport checksums.
  out[header_bytes + 8] = 0xde;
  out[header_bytes + 9] = 0xad;
  out[header_bytes + 10] = 0xbe;
  out[header_bytes + 11] = 0xef;
  rewrite_header_checksum(out, header_bytes);
}

void echo_reply_inplace(std::span<std::uint8_t> bytes, const WireInfo& info,
                        std::uint16_t ip_id) noexcept {
  write_address(bytes, 12, info.destination);
  write_address(bytes, 16, info.source);
  bytes[1] = 0;                 // tos
  write_u16(bytes, 4, ip_id);
  write_u16(bytes, 6, 0x4000);  // don't-fragment
  bytes[8] = 64;                // fresh ttl
  bytes[info.header_bytes] = static_cast<std::uint8_t>(IcmpType::kEchoReply);
  bytes[info.header_bytes + 1] = 0;
}

void finalize_checksums(std::span<std::uint8_t> bytes,
                        std::size_t header_bytes, std::size_t total) noexcept {
  write_u16(bytes, header_bytes + 2, 0);
  write_u16(bytes, header_bytes + 2,
            net::internet_checksum(
                bytes.subspan(header_bytes, total - header_bytes)));
  rewrite_header_checksum(bytes, header_bytes);
}

void build_echo_reply_stripped(std::vector<std::uint8_t>& out,
                               std::span<const std::uint8_t> request,
                               const WireInfo& info, std::uint16_t ip_id) {
  const std::size_t icmp_bytes = info.total_length - info.header_bytes;
  const std::size_t total = 20 + icmp_bytes;
  out.assign(total, 0);
  write_base_header(out, 20, total, ip_id, 64,
                    static_cast<std::uint8_t>(IpProto::kIcmp),
                    info.destination, info.source);
  std::copy_n(request.begin() + static_cast<std::ptrdiff_t>(info.header_bytes),
              icmp_bytes, out.begin() + 20);
  out[20] = static_cast<std::uint8_t>(IcmpType::kEchoReply);
  out[21] = 0;
  finalize_checksums(out, 20, total);
}

void build_icmp_error(std::vector<std::uint8_t>& out, std::uint8_t icmp_type,
                      std::uint8_t icmp_code, net::IPv4Address source,
                      net::IPv4Address destination, std::uint16_t ip_id,
                      std::span<const std::uint8_t> offending,
                      std::size_t quoted_payload_bytes) {
  std::size_t quote_bytes = offending.size();
  if (!offending.empty()) {
    const std::size_t offending_header =
        static_cast<std::size_t>(offending[0] & 0x0f) * 4;
    quote_bytes =
        std::min(offending.size(), offending_header + quoted_payload_bytes);
  }
  const std::size_t total = 20 + 8 + quote_bytes;
  out.assign(total, 0);
  write_base_header(out, 20, total, ip_id, 64,
                    static_cast<std::uint8_t>(IpProto::kIcmp), source,
                    destination);
  out[20] = icmp_type;
  out[21] = icmp_code;
  // Bytes 22..27 (checksum + unused word) stay zero until finalize.
  std::copy_n(offending.begin(), quote_bytes, out.begin() + 28);
  finalize_checksums(out, 20, total);
}

// The RR surgery finds its option the way the walk does: a view's cached
// offset, revalidated (Ipv4HeaderView::valid_rr_offset).

bool rr_truncate(std::span<std::uint8_t> datagram) noexcept {
  const Ipv4HeaderView view{datagram};
  const std::size_t rr = view.valid_rr_offset();
  if (rr == 0) return false;
  // Zero every slot and exhaust the option (pointer one past the last
  // slot): the record is gone and no later hop can stamp into the wreck.
  const std::uint8_t length = datagram[rr + 1];
  std::fill_n(datagram.begin() + static_cast<std::ptrdiff_t>(rr) + 3,
              length - 3, std::uint8_t{0});
  datagram[rr + 2] = static_cast<std::uint8_t>(length + 1);
  rewrite_header_checksum(datagram, view.header_bytes());
  return true;
}

bool rr_garble(std::span<std::uint8_t> datagram,
               net::IPv4Address bogus) noexcept {
  const Ipv4HeaderView view{datagram};
  const std::size_t rr = view.valid_rr_offset();
  if (rr == 0 || datagram[rr + 2] == kRrMinPointer) return false;  // empty
  // The latest stamp sits just below the (1-based) pointer.
  write_address(datagram, rr + datagram[rr + 2] - 5, bogus);
  rewrite_header_checksum(datagram, view.header_bytes());
  return true;
}

bool blank_options(std::span<std::uint8_t> datagram) noexcept {
  const std::size_t header_bytes = peek_header_bytes(datagram);
  if (header_bytes <= 20) return false;
  std::fill(datagram.begin() + 20,
            datagram.begin() + static_cast<std::ptrdiff_t>(header_bytes),
            kOptNop);
  rewrite_header_checksum(datagram, header_bytes);
  return true;
}

bool mangle_icmp_quote(std::span<std::uint8_t> datagram) noexcept {
  const std::size_t header_bytes = peek_header_bytes(datagram);
  if (header_bytes == 0) return false;
  if (datagram[9] != static_cast<std::uint8_t>(IpProto::kIcmp)) return false;
  const std::size_t total = read_u16(datagram, 2);
  if (total > datagram.size()) return false;
  // The ICMP header (8) and a quoted base header (20), checked before the
  // subtraction below could underflow on a lying total length.
  if (total < header_bytes + 8 + 20) return false;
  const std::size_t icmp_begin = header_bytes;
  const std::size_t icmp_len = total - header_bytes;
  const std::uint8_t type = datagram[icmp_begin];
  if (type != 3 && type != 11 && type != 12) return false;  // not an error

  // Scribble over the quoted inner header: source address and protocol.
  const std::size_t quote = icmp_begin + 8;
  datagram[quote + 9] ^= 0xFF;   // protocol
  datagram[quote + 12] ^= 0xA5;  // source address, first octet
  datagram[quote + 15] ^= 0x5A;  // source address, last octet

  // Repair the ICMP checksum so the message still parses.
  write_u16(datagram, icmp_begin + 2, 0);
  write_u16(datagram, icmp_begin + 2,
            net::internet_checksum(datagram.subspan(icmp_begin, icmp_len)));
  return true;
}

}  // namespace rr::pkt

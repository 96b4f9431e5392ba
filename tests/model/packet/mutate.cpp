#include "packet/mutate.h"

#include "netbase/checksum.h"
#include "packet/wire.h"

namespace rr::pkt {

namespace {

/// Header length in bytes if the buffer plausibly starts with IPv4,
/// otherwise 0.
std::size_t plausible_header_len(
    std::span<const std::uint8_t> datagram) noexcept {
  if (datagram.size() < 20) return 0;
  if ((datagram[0] >> 4) != 4) return 0;
  const std::size_t header_bytes =
      static_cast<std::size_t>(datagram[0] & 0x0f) * 4;
  if (header_bytes < 20 || header_bytes > datagram.size()) return 0;
  return header_bytes;
}

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

/// Location of a valid Record Route option within the header.
struct RrLocation {
  std::size_t option_offset = 0;  // offset of the type byte
  std::uint8_t length = 0;        // option length field
  std::uint8_t pointer = 0;       // option pointer field

  [[nodiscard]] bool full() const noexcept { return pointer >= length; }
};

/// Finds the first Record Route option in the header's option area.
std::optional<RrLocation> find_rr(
    std::span<const std::uint8_t> datagram) noexcept {
  const std::size_t header_bytes = plausible_header_len(datagram);
  if (header_bytes <= 20) return std::nullopt;
  std::size_t i = 20;
  while (i < header_bytes) {
    const std::uint8_t type = datagram[i];
    if (type == kOptEndOfList) return std::nullopt;
    if (type == kOptNop) {
      ++i;
      continue;
    }
    if (i + 1 >= header_bytes) return std::nullopt;
    const std::uint8_t length = datagram[i + 1];
    if (length < 2 || i + length > header_bytes) return std::nullopt;
    if (type == kOptRecordRoute) {
      if (length < 3 || (length - 3) % 4 != 0) return std::nullopt;
      const std::uint8_t pointer = datagram[i + 2];
      if (pointer < kRrMinPointer || (pointer - kRrMinPointer) % 4 != 0) {
        return std::nullopt;
      }
      if ((pointer - kRrMinPointer) / 4 > (length - 3) / 4) return std::nullopt;
      RrLocation loc;
      loc.option_offset = i;
      loc.length = length;
      loc.pointer = pointer;
      return loc;
    }
    i += length;
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::uint8_t> decrement_ttl(
    std::span<std::uint8_t> datagram) noexcept {
  if (plausible_header_len(datagram) == 0) return std::nullopt;
  const std::uint8_t ttl = datagram[8];
  if (ttl == 0) return std::nullopt;

  // RFC 1624 incremental checksum update: HC' = ~(~HC + ~m + m'), where m
  // is the old 16-bit word containing the TTL and m' the new one.
  const std::uint16_t old_word = read_u16(datagram, 8);
  const std::uint16_t new_word =
      static_cast<std::uint16_t>(old_word - 0x0100);
  datagram[8] = static_cast<std::uint8_t>(ttl - 1);
  std::uint32_t sum =
      static_cast<std::uint32_t>(~read_u16(datagram, 10) & 0xffff);
  sum += static_cast<std::uint32_t>(~old_word & 0xffff);
  sum += new_word;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  write_u16(datagram, 10, static_cast<std::uint16_t>(~sum & 0xffff));
  return datagram[8];
}

bool rr_stamp(std::span<std::uint8_t> datagram,
              net::IPv4Address address) noexcept {
  const auto loc = find_rr(datagram);
  if (!loc || loc->full()) return false;

  const std::size_t slot =
      loc->option_offset + loc->pointer - 1;  // pointer is 1-based
  const auto bytes = address.to_bytes();
  datagram[slot] = bytes[0];
  datagram[slot + 1] = bytes[1];
  datagram[slot + 2] = bytes[2];
  datagram[slot + 3] = bytes[3];
  datagram[loc->option_offset + 2] =
      static_cast<std::uint8_t>(loc->pointer + 4);
  return rewrite_header_checksum(datagram);
}

bool ts_stamp(std::span<std::uint8_t> datagram, net::IPv4Address address,
              std::uint32_t timestamp_ms) noexcept {
  const std::size_t header_bytes = plausible_header_len(datagram);
  if (header_bytes <= 20) return false;
  std::size_t i = 20;
  while (i < header_bytes) {
    const std::uint8_t type = datagram[i];
    if (type == kOptEndOfList) return false;
    if (type == kOptNop) {
      ++i;
      continue;
    }
    if (i + 1 >= header_bytes) return false;
    const std::uint8_t length = datagram[i + 1];
    if (length < 2 || i + length > header_bytes) return false;
    if (type != kOptTimestamp) {
      i += length;
      continue;
    }
    if (length < 4) return false;
    const std::uint8_t pointer = datagram[i + 2];
    const std::uint8_t flags = datagram[i + 3] & 0x0f;
    const int entry_bytes =
        flags == kTsFlagTimestampOnly ? 4 : 8;
    // The pointer is 1-based and must sit on an entry boundary past the
    // 4-byte option preamble; anything else (a pointer of 0..4, or one
    // that is misaligned) would make the writes below land on the
    // option's own type/length/pointer bytes — or before the option.
    if (pointer < 5 || (pointer - 5) % entry_bytes != 0) return false;
    if (pointer + entry_bytes - 1 > length) {
      // Full: bump the 4-bit overflow counter (saturating).
      const std::uint8_t overflow = datagram[i + 3] >> 4;
      if (overflow < 15) {
        datagram[i + 3] =
            static_cast<std::uint8_t>(((overflow + 1) << 4) | flags);
        return rewrite_header_checksum(datagram);
      }
      return true;  // saturated; nothing to update
    }
    std::size_t at = i + pointer - 1;
    if (flags == kTsFlagAddressAndTimestamp) {
      const auto addr_bytes = address.to_bytes();
      datagram[at] = addr_bytes[0];
      datagram[at + 1] = addr_bytes[1];
      datagram[at + 2] = addr_bytes[2];
      datagram[at + 3] = addr_bytes[3];
      at += 4;
    }
    datagram[at] = static_cast<std::uint8_t>(timestamp_ms >> 24);
    datagram[at + 1] = static_cast<std::uint8_t>(timestamp_ms >> 16);
    datagram[at + 2] = static_cast<std::uint8_t>(timestamp_ms >> 8);
    datagram[at + 3] = static_cast<std::uint8_t>(timestamp_ms);
    datagram[i + 2] = static_cast<std::uint8_t>(pointer + entry_bytes);
    return rewrite_header_checksum(datagram);
  }
  return false;
}

bool rewrite_header_checksum(std::span<std::uint8_t> datagram) noexcept {
  const std::size_t header_bytes = plausible_header_len(datagram);
  if (header_bytes == 0) return false;
  write_u16(datagram, 10, 0);
  const std::uint16_t sum =
      net::internet_checksum(datagram.first(header_bytes));
  write_u16(datagram, 10, sum);
  return true;
}

}  // namespace rr::pkt

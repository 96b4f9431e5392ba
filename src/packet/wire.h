// Zero-allocation wire-format access: the library's one packet model.
// Probes and replies live as bytes in caller-owned, reusable buffers; the
// functions here build, inspect (offsets and scalar fields only) and
// transform those bytes, and packet/view.h edits them per hop. An echo
// reply that keeps the request's options reuses the request buffer, its
// option area copied verbatim. The owning packet model under tests/model
// is the spec oracle: view_wire_test.cpp and the packet fuzzer hold these
// functions to its bytes and to its accept/reject decisions.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netbase/address.h"

namespace rr::pkt {

// --- protocol constants ----------------------------------------------------

/// IP protocol numbers the toolkit sends.
enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kUdp = 17,
};

/// ICMP types the study exercises (RFC 792).
enum class IcmpType : std::uint8_t {
  kEchoReply = 0,
  kDestUnreachable = 3,
  kEchoRequest = 8,
  kTimeExceeded = 11,
};

inline constexpr std::uint8_t kCodePortUnreachable = 3;
inline constexpr std::uint8_t kCodeTtlExceededInTransit = 0;

/// High port range used for ping-RRudp probes (unlikely to be listened on).
inline constexpr std::uint16_t kUdpProbePortBase = 33435;

// IPv4 options (RFC 791 §3.1). Record Route (type 7) is type, length,
// pointer, then 4-byte slots: `length` counts the whole option
// (3 + 4*slots) and the 1-based `pointer` names the next free slot byte
// (smallest legal value 4). A router writes its outgoing address at the
// pointer and advances it by four, or forwards without recording once the
// pointer exceeds the length. Nine slots (39 bytes, plus one byte of
// padding) exhaust the 40-byte option area: the paper's nine-hop limit.
inline constexpr std::uint8_t kOptEndOfList = 0;
inline constexpr std::uint8_t kOptNop = 1;
inline constexpr std::uint8_t kOptRecordRoute = 7;
inline constexpr std::uint8_t kOptTimestamp = 68;

inline constexpr int kMaxRrSlots = 9;  // (40 - 3) / 4
inline constexpr std::uint8_t kRrMinPointer = 4;

/// Timestamp option (type 68) flag values: timestamps only (4-byte
/// entries), or address + timestamp pairs (8-byte entries, four fit).
inline constexpr std::uint8_t kTsFlagTimestampOnly = 0;
inline constexpr std::uint8_t kTsFlagAddressAndTimestamp = 1;

// --- inspection --------------------------------------------------------------

/// Scalar summary of a validated packet; all offsets are absolute into the
/// inspected buffer.
struct WireInfo {
  std::size_t header_bytes = 0;
  std::uint16_t total_length = 0;
  std::uint8_t ttl = 0;
  std::uint8_t protocol = 0;
  std::uint16_t identification = 0;
  net::IPv4Address source;
  net::IPv4Address destination;
  bool options_present = false;  // any parsed option, NOPs included
  std::size_t rr_offset = 0;     // first RR option; 0 = none
  std::size_t ts_offset = 0;     // first TS option; 0 = none

  // Transport fields (populated by inspect_datagram only).
  std::uint8_t icmp_type = 0;
  std::uint8_t icmp_code = 0;
  std::uint16_t echo_identifier = 0;  // ICMP types 0/8
  std::uint16_t echo_sequence = 0;
  std::size_t quote_offset = 0;  // ICMP types 3/11; 0 = none
  std::size_t quote_length = 0;
  std::uint16_t udp_source_port = 0;
  std::uint16_t udp_destination_port = 0;
};

/// Validates a full datagram: the header (see inspect_header), a total
/// length the buffer holds, and an ICMP message of a modelled type with a
/// valid checksum or a UDP header whose length fits.
[[nodiscard]] std::optional<WireInfo> inspect_datagram(
    std::span<const std::uint8_t> data) noexcept;

/// Validates a (possibly truncated-quote) header: version 4, an IHL the
/// buffer holds, a valid header checksum, a total length no shorter than
/// the header, and well-formed options. No total-length-vs-buffer or
/// transport checks.
[[nodiscard]] std::optional<WireInfo> inspect_header(
    std::span<const std::uint8_t> data) noexcept;

/// Decoded geometry of a validated RR / TS option (fields were already
/// checked by inspect_*, so these never fail on an inspected buffer).
struct RrWire {
  std::uint8_t capacity = 0;
  std::uint8_t filled = 0;
  std::size_t offset = 0;
};
struct TsWire {
  std::uint8_t flags = 0;
  std::uint8_t overflow = 0;
  std::uint8_t capacity = 0;
  std::uint8_t filled = 0;
  std::uint8_t entry_bytes = 4;
  std::size_t offset = 0;
};

[[nodiscard]] RrWire rr_wire(std::span<const std::uint8_t> data,
                             std::size_t rr_offset) noexcept;
[[nodiscard]] net::IPv4Address rr_slot(std::span<const std::uint8_t> data,
                                       const RrWire& rr,
                                       std::size_t index) noexcept;
[[nodiscard]] TsWire ts_wire(std::span<const std::uint8_t> data,
                             std::size_t ts_offset) noexcept;
struct TsEntryWire {
  net::IPv4Address address;
  std::uint32_t timestamp_ms = 0;
};
[[nodiscard]] TsEntryWire ts_entry(std::span<const std::uint8_t> data,
                                   const TsWire& ts,
                                   std::size_t index) noexcept;

/// Header length (IHL * 4) when the buffer can start with an IPv4 header
/// (version 4, 20 <= IHL * 4 <= size), else 0. No checksum check.
[[nodiscard]] inline std::size_t peek_header_bytes(
    std::span<const std::uint8_t> datagram) noexcept {
  if (datagram.size() < 20 || (datagram[0] >> 4) != 4) return 0;
  const std::size_t bytes = static_cast<std::size_t>(datagram[0] & 0x0f) * 4;
  return bytes >= 20 && bytes <= datagram.size() ? bytes : 0;
}

/// Address fields of a header peek_header_bytes accepts, else nullopt.
[[nodiscard]] std::optional<net::IPv4Address> peek_source(
    std::span<const std::uint8_t> datagram) noexcept;
[[nodiscard]] std::optional<net::IPv4Address> peek_destination(
    std::span<const std::uint8_t> datagram) noexcept;

// --- probe builders ----------------------------------------------------------

void build_ping(std::vector<std::uint8_t>& out, net::IPv4Address source,
                net::IPv4Address destination, std::uint16_t identifier,
                std::uint16_t sequence, std::uint8_t ttl, int rr_slots);

void build_ping_ts(std::vector<std::uint8_t>& out, net::IPv4Address source,
                   net::IPv4Address destination, std::uint16_t identifier,
                   std::uint16_t sequence, std::uint8_t ttl, int ts_slots);

void build_udp_probe(std::vector<std::uint8_t>& out, net::IPv4Address source,
                     net::IPv4Address destination, std::uint16_t source_port,
                     std::uint16_t destination_port, std::uint8_t ttl,
                     int rr_slots);

// --- endpoint reply construction ------------------------------------------

/// Turns a validated echo request into the echo reply the simulated host
/// sends, reusing the buffer: addresses swapped, ttl 64, fresh
/// IP-ID, ICMP type 0, options kept verbatim. Checksums are NOT final —
/// callers apply any endpoint stamps, then call `finalize_checksums`.
void echo_reply_inplace(std::span<std::uint8_t> bytes, const WireInfo& info,
                        std::uint16_t ip_id) noexcept;

/// Recomputes the ICMP checksum over [header_bytes, total) and then the
/// header checksum, in serialize order.
void finalize_checksums(std::span<std::uint8_t> bytes,
                        std::size_t header_bytes, std::size_t total) noexcept;

/// Builds the option-less echo reply (host strips options, or router does
/// not stamp) into `out`.
void build_echo_reply_stripped(std::vector<std::uint8_t>& out,
                               std::span<const std::uint8_t> request,
                               const WireInfo& info, std::uint16_t ip_id);

/// Builds an ICMP error (time-exceeded / dest-unreachable) quoting the
/// offending datagram: its full header (options included) plus
/// `quoted_payload_bytes` of payload (RFC 792/1812).
void build_icmp_error(std::vector<std::uint8_t>& out, std::uint8_t icmp_type,
                      std::uint8_t icmp_code, net::IPv4Address source,
                      net::IPv4Address destination, std::uint16_t ip_id,
                      std::span<const std::uint8_t> offending,
                      std::size_t quoted_payload_bytes);

// --- fault surgery -----------------------------------------------------------
// In-place edits for the fault-injection layer (sim/fault.h). A fault
// yields a *plausible* corrupted packet: option boundaries never move (a
// live Ipv4HeaderView stays valid) and the checksums stay valid. Each
// returns false, leaving the buffer untouched, when it does not apply.

/// Zeroes every RR slot and pushes the pointer past the end: the option
/// stays, exhausted. Never a rewind — freed slots would let later hops
/// stamp, and a fault must never add reachability evidence.
bool rr_truncate(std::span<std::uint8_t> datagram) noexcept;

/// Overwrites the most recently recorded RR slot with `bogus`.
bool rr_garble(std::span<std::uint8_t> datagram,
               net::IPv4Address bogus) noexcept;

/// Overwrites the whole option area with NOPs: the mid-path option
/// stripping of §3.3 that keeps the header geometry, so every slow-path
/// and rate-limit decision matches the unfaulted walk.
bool blank_options(std::span<std::uint8_t> datagram) noexcept;

/// Perturbs the protocol and source address quoted by an ICMP error and
/// repairs the ICMP checksum: it still parses, but no longer matches the
/// probe that elicited it.
bool mangle_icmp_quote(std::span<std::uint8_t> datagram) noexcept;

}  // namespace rr::pkt

// Reference per-hop editors: the test oracle for packet/view.h.
//
// Each call rescans the option area from scratch and (for the stamps)
// recomputes the full header checksum, the simplest way to edit a
// forwarded packet's bytes correctly. Ipv4HeaderView caches the option
// offsets and updates the checksum incrementally instead; the tests hold
// it to these functions byte for byte (tests/view_wire_test.cpp).
//
// All functions operate on a raw datagram buffer whose first byte is the
// IPv4 version/IHL byte. They validate just enough structure to be safe on
// arbitrary bytes and return false (leaving the buffer untouched) when the
// operation does not apply.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "netbase/address.h"

namespace rr::pkt {

/// Decrements the TTL and repairs the header checksum incrementally
/// (RFC 1141). Returns the new TTL, or nullopt if the buffer is not a
/// plausible IPv4 datagram or the TTL is already zero.
std::optional<std::uint8_t> decrement_ttl(
    std::span<std::uint8_t> datagram) noexcept;

/// Stamps `address` into the next free RR slot (advancing the pointer) and
/// repairs the header checksum. Returns false if there is no RR option or
/// it is full — in which case the datagram is untouched and the router
/// simply forwards it, per RFC 791.
bool rr_stamp(std::span<std::uint8_t> datagram,
              net::IPv4Address address) noexcept;

/// Stamps an (address, timestamp) entry into the first Timestamp option
/// (flag 1) if a slot is free — otherwise increments its overflow counter
/// — and repairs the header checksum. Returns false when the datagram has
/// no Timestamp option at all.
bool ts_stamp(std::span<std::uint8_t> datagram, net::IPv4Address address,
              std::uint32_t timestamp_ms) noexcept;

/// Recomputes the header checksum from scratch (after arbitrary edits).
bool rewrite_header_checksum(std::span<std::uint8_t> datagram) noexcept;

}  // namespace rr::pkt

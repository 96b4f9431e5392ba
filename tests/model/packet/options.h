// IPv4 options (RFC 791 §3.1), centred on the Record Route option: the
// structured half of the test oracle. The wire layout and the option type
// constants live in packet/wire.h, which the library uses.
#pragma once

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "netbase/address.h"
#include "netbase/byte_io.h"
#include "packet/wire.h"

namespace rr::pkt {

inline constexpr int kMaxOptionBytes = 40;  // IPv4 header option area

/// Single-byte padding option (type 1).
struct NopOption {
  [[nodiscard]] bool operator==(const NopOption&) const = default;
};

/// Record Route option state, decoupled from wire bytes.
///
/// `recorded` holds the addresses stamped so far (slots before the pointer);
/// the remaining `capacity - recorded.size()` slots are zero on the wire.
struct RecordRouteOption {
  std::uint8_t capacity = kMaxRrSlots;
  std::vector<net::IPv4Address> recorded;

  /// A fresh, empty 9-slot option as the prober emits it.
  [[nodiscard]] static RecordRouteOption empty(
      std::uint8_t slots = kMaxRrSlots) noexcept {
    RecordRouteOption opt;
    opt.capacity = slots;
    return opt;
  }

  [[nodiscard]] int remaining_slots() const noexcept {
    return capacity - static_cast<int>(recorded.size());
  }
  [[nodiscard]] bool full() const noexcept { return remaining_slots() <= 0; }

  /// Records an address if a slot is free; returns whether it was recorded.
  bool stamp(net::IPv4Address addr) {
    if (full()) return false;
    recorded.push_back(addr);
    return true;
  }

  /// Wire pointer value for the current fill level.
  [[nodiscard]] std::uint8_t pointer() const noexcept {
    return static_cast<std::uint8_t>(kRrMinPointer + 4 * recorded.size());
  }

  /// Whole-option length on the wire (type + len + ptr + slots).
  [[nodiscard]] std::uint8_t wire_length() const noexcept {
    return static_cast<std::uint8_t>(3 + 4 * capacity);
  }

  [[nodiscard]] bool operator==(const RecordRouteOption&) const = default;
};

/// IP Timestamp option (type 68, RFC 791 §3.1) in its address+timestamp
/// form (flag 1). Each entry consumes eight bytes, so the 40-byte option
/// area caps it at FOUR hops — less than half of Record Route's nine,
/// which is one reason the paper centres on RR. A 4-bit overflow counter
/// tallies routers that found no room.
struct TimestampOption {
  static constexpr std::uint8_t kFlagTimestampOnly = kTsFlagTimestampOnly;
  static constexpr std::uint8_t kFlagAddressAndTimestamp =
      kTsFlagAddressAndTimestamp;

  struct Entry {
    net::IPv4Address address;
    std::uint32_t timestamp_ms = 0;  // milliseconds since midnight UT

    [[nodiscard]] bool operator==(const Entry&) const = default;
  };

  std::uint8_t flags = kFlagAddressAndTimestamp;
  std::uint8_t capacity = 4;  // entries (max 4 with addresses, 9 without)
  std::uint8_t overflow = 0;  // 4-bit counter of routers that missed out
  std::vector<Entry> entries;

  [[nodiscard]] static TimestampOption empty(std::uint8_t slots = 4) {
    TimestampOption ts;
    ts.capacity = slots;
    return ts;
  }

  [[nodiscard]] int entry_bytes() const noexcept {
    return flags == kFlagTimestampOnly ? 4 : 8;
  }
  [[nodiscard]] int remaining_slots() const noexcept {
    return capacity - static_cast<int>(entries.size());
  }
  [[nodiscard]] bool full() const noexcept { return remaining_slots() <= 0; }

  bool stamp(net::IPv4Address addr, std::uint32_t timestamp_ms) {
    if (full()) {
      if (overflow < 15) ++overflow;
      return false;
    }
    entries.push_back(Entry{addr, timestamp_ms});
    return true;
  }

  [[nodiscard]] std::uint8_t pointer() const noexcept {
    return static_cast<std::uint8_t>(5 + entry_bytes() *
                                             static_cast<int>(entries.size()));
  }
  [[nodiscard]] std::uint8_t wire_length() const noexcept {
    return static_cast<std::uint8_t>(4 + entry_bytes() * capacity);
  }

  [[nodiscard]] bool operator==(const TimestampOption&) const = default;
};

/// Any option we do not model structurally (kept verbatim so the packet
/// round-trips; `data` excludes the type and length bytes).
struct RawOption {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> data;

  [[nodiscard]] bool operator==(const RawOption&) const = default;
};

using IpOption = std::variant<NopOption, RecordRouteOption,
                              TimestampOption, RawOption>;

/// Serialized length of one option in bytes.
[[nodiscard]] std::size_t option_wire_length(const IpOption& option) noexcept;

/// Serializes an option list, padded with End-of-List bytes to a 4-byte
/// multiple. Returns false (writing nothing) if the list exceeds the 40-byte
/// option area or any single option is malformed.
[[nodiscard]] bool serialize_options(const std::vector<IpOption>& options,
                                     net::ByteWriter& out);

/// Parses `option_bytes` (the header area after the fixed 20 bytes).
/// Returns std::nullopt on malformed encodings (bad lengths, overruns).
[[nodiscard]] std::optional<std::vector<IpOption>> parse_options(
    std::span<const std::uint8_t> option_bytes);

/// Convenience: pointer to the first RecordRouteOption, if any.
[[nodiscard]] const RecordRouteOption* find_record_route(
    const std::vector<IpOption>& options) noexcept;
[[nodiscard]] RecordRouteOption* find_record_route(
    std::vector<IpOption>& options) noexcept;

/// Convenience: pointer to the first TimestampOption, if any.
[[nodiscard]] const TimestampOption* find_timestamp(
    const std::vector<IpOption>& options) noexcept;
[[nodiscard]] TimestampOption* find_timestamp(
    std::vector<IpOption>& options) noexcept;

}  // namespace rr::pkt

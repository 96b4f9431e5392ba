#include "packet/options.h"

namespace rr::pkt {

namespace {

struct WireLengthVisitor {
  std::size_t operator()(const NopOption&) const noexcept { return 1; }
  std::size_t operator()(const RecordRouteOption& rr) const noexcept {
    return rr.wire_length();
  }
  std::size_t operator()(const TimestampOption& ts) const noexcept {
    return ts.wire_length();
  }
  std::size_t operator()(const RawOption& raw) const noexcept {
    return 2 + raw.data.size();
  }
};

bool serialize_one(const IpOption& option, net::ByteWriter& out) {
  if (std::holds_alternative<NopOption>(option)) {
    out.u8(kOptNop);
    return true;
  }
  if (const auto* rr = std::get_if<RecordRouteOption>(&option)) {
    if (rr->capacity < 1 || rr->capacity > kMaxRrSlots) return false;
    if (rr->recorded.size() > rr->capacity) return false;
    out.u8(kOptRecordRoute);
    out.u8(rr->wire_length());
    out.u8(rr->pointer());
    for (const auto& addr : rr->recorded) out.address(addr);
    out.zeros(4 * static_cast<std::size_t>(rr->remaining_slots()));
    return true;
  }
  if (const auto* ts = std::get_if<TimestampOption>(&option)) {
    if (ts->flags != TimestampOption::kFlagTimestampOnly &&
        ts->flags != TimestampOption::kFlagAddressAndTimestamp) {
      return false;
    }
    const int max_capacity =
        (kMaxOptionBytes - 4) / ts->entry_bytes();  // 9 or 4
    if (ts->capacity < 1 || ts->capacity > max_capacity) return false;
    if (static_cast<int>(ts->entries.size()) > ts->capacity) return false;
    out.u8(kOptTimestamp);
    out.u8(ts->wire_length());
    out.u8(ts->pointer());
    out.u8(static_cast<std::uint8_t>((ts->overflow << 4) | ts->flags));
    for (const auto& entry : ts->entries) {
      if (ts->flags == TimestampOption::kFlagAddressAndTimestamp) {
        out.address(entry.address);
      }
      out.u32(entry.timestamp_ms);
    }
    out.zeros(static_cast<std::size_t>(ts->entry_bytes()) *
              static_cast<std::size_t>(ts->remaining_slots()));
    return true;
  }
  const auto& raw = std::get<RawOption>(option);
  if (raw.type == kOptEndOfList || raw.type == kOptNop ||
      raw.type == kOptRecordRoute || raw.type == kOptTimestamp) {
    return false;  // structural types must use their structured form
  }
  if (raw.data.size() > static_cast<std::size_t>(kMaxOptionBytes - 2)) {
    return false;
  }
  out.u8(raw.type);
  out.u8(static_cast<std::uint8_t>(2 + raw.data.size()));
  out.bytes(raw.data);
  return true;
}

}  // namespace

std::size_t option_wire_length(const IpOption& option) noexcept {
  return std::visit(WireLengthVisitor{}, option);
}

bool serialize_options(const std::vector<IpOption>& options,
                       net::ByteWriter& out) {
  net::ByteWriter scratch;
  for (const auto& option : options) {
    if (!serialize_one(option, scratch)) return false;
  }
  std::size_t total = scratch.size();
  if (total > static_cast<std::size_t>(kMaxOptionBytes)) return false;
  out.bytes(scratch.view());
  // Pad to a 32-bit boundary with End-of-List bytes (zero).
  const std::size_t padded = (total + 3) & ~std::size_t{3};
  out.zeros(padded - total);
  return true;
}

std::optional<std::vector<IpOption>> parse_options(
    std::span<const std::uint8_t> option_bytes) {
  if (option_bytes.size() > static_cast<std::size_t>(kMaxOptionBytes)) {
    return std::nullopt;
  }
  std::vector<IpOption> options;
  std::size_t i = 0;
  while (i < option_bytes.size()) {
    const std::uint8_t type = option_bytes[i];
    if (type == kOptEndOfList) break;  // rest is padding
    if (type == kOptNop) {
      options.emplace_back(NopOption{});
      ++i;
      continue;
    }
    if (i + 1 >= option_bytes.size()) return std::nullopt;  // missing length
    const std::uint8_t length = option_bytes[i + 1];
    if (length < 2 || i + length > option_bytes.size()) return std::nullopt;
    if (type == kOptRecordRoute) {
      if (length < 3 || (length - 3) % 4 != 0) return std::nullopt;
      const int capacity = (length - 3) / 4;
      if (capacity < 1 || capacity > kMaxRrSlots) return std::nullopt;
      const std::uint8_t pointer = option_bytes[i + 2];
      if (pointer < kRrMinPointer || (pointer - kRrMinPointer) % 4 != 0) {
        return std::nullopt;
      }
      const int filled = (pointer - kRrMinPointer) / 4;
      if (filled > capacity) return std::nullopt;
      RecordRouteOption rr;
      rr.capacity = static_cast<std::uint8_t>(capacity);
      rr.recorded.reserve(static_cast<std::size_t>(filled));
      for (int slot = 0; slot < filled; ++slot) {
        const std::size_t at = i + 3 + 4 * static_cast<std::size_t>(slot);
        rr.recorded.push_back(net::IPv4Address::from_bytes(
            option_bytes[at], option_bytes[at + 1], option_bytes[at + 2],
            option_bytes[at + 3]));
      }
      options.emplace_back(std::move(rr));
    } else if (type == kOptTimestamp) {
      if (length < 4) return std::nullopt;
      const std::uint8_t pointer = option_bytes[i + 2];
      const std::uint8_t of_flags = option_bytes[i + 3];
      TimestampOption ts;
      ts.flags = of_flags & 0x0f;
      ts.overflow = of_flags >> 4;
      if (ts.flags != TimestampOption::kFlagTimestampOnly &&
          ts.flags != TimestampOption::kFlagAddressAndTimestamp) {
        return std::nullopt;  // prespecified mode (3) not modelled
      }
      const int entry_bytes = ts.entry_bytes();
      if ((length - 4) % entry_bytes != 0) return std::nullopt;
      const int capacity = (length - 4) / entry_bytes;
      if (capacity < 1) return std::nullopt;
      ts.capacity = static_cast<std::uint8_t>(capacity);
      if (pointer < 5 || (pointer - 5) % entry_bytes != 0) {
        return std::nullopt;
      }
      const int filled = (pointer - 5) / entry_bytes;
      if (filled > capacity) return std::nullopt;
      for (int slot = 0; slot < filled; ++slot) {
        std::size_t at = i + 4 + static_cast<std::size_t>(entry_bytes) *
                                     static_cast<std::size_t>(slot);
        TimestampOption::Entry entry;
        if (ts.flags == TimestampOption::kFlagAddressAndTimestamp) {
          entry.address = net::IPv4Address::from_bytes(
              option_bytes[at], option_bytes[at + 1], option_bytes[at + 2],
              option_bytes[at + 3]);
          at += 4;
        }
        entry.timestamp_ms = (std::uint32_t{option_bytes[at]} << 24) |
                             (std::uint32_t{option_bytes[at + 1]} << 16) |
                             (std::uint32_t{option_bytes[at + 2]} << 8) |
                             std::uint32_t{option_bytes[at + 3]};
        ts.entries.push_back(entry);
      }
      options.emplace_back(std::move(ts));
    } else {
      RawOption raw;
      raw.type = type;
      raw.data.assign(option_bytes.begin() + static_cast<std::ptrdiff_t>(i) + 2,
                      option_bytes.begin() + static_cast<std::ptrdiff_t>(i) +
                          length);
      options.emplace_back(std::move(raw));
    }
    i += length;
  }
  return options;
}

const RecordRouteOption* find_record_route(
    const std::vector<IpOption>& options) noexcept {
  for (const auto& option : options) {
    if (const auto* rr = std::get_if<RecordRouteOption>(&option)) return rr;
  }
  return nullptr;
}

RecordRouteOption* find_record_route(std::vector<IpOption>& options) noexcept {
  for (auto& option : options) {
    if (auto* rr = std::get_if<RecordRouteOption>(&option)) return rr;
  }
  return nullptr;
}

const TimestampOption* find_timestamp(
    const std::vector<IpOption>& options) noexcept {
  for (const auto& option : options) {
    if (const auto* ts = std::get_if<TimestampOption>(&option)) return ts;
  }
  return nullptr;
}

TimestampOption* find_timestamp(std::vector<IpOption>& options) noexcept {
  for (auto& option : options) {
    if (auto* ts = std::get_if<TimestampOption>(&option)) return ts;
  }
  return nullptr;
}

}  // namespace rr::pkt

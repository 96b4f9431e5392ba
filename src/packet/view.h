// Mutable zero-copy view over a serialized IPv4 datagram: the library's
// one packet editor. The walk and the endpoints (sim/network.cpp) bind a
// view, which locates the first RR and TS options once; every TTL
// decrement or stamp is then an O(1) byte edit with an RFC 1624
// incremental checksum update. The fault surgery of packet/wire.h
// rewrites option *content* in place without moving option boundaries, so
// the cached offsets stay valid, and `rr_stamp` / `ts_stamp` revalidate
// the option bytes on every call. tests/view_wire_test.cpp holds every
// edit, byte for byte, to the rescanning reference editors of the test
// oracle (tests/model), including under that surgery.
//
// Everything is defined inline: the census simulator performs ~4 billion
// stamp/TTL mutations end to end, and at ~5 ns apiece the call overhead of
// an out-of-line definition is a measurable slice of the whole run.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "netbase/address.h"
#include "netbase/checksum.h"
#include "packet/wire.h"

namespace rr::pkt {

class Ipv4HeaderView {
 public:
  /// Binds to a datagram buffer. If the buffer does not plausibly start
  /// with an IPv4 header the view is inert: `valid()` is false, mutations
  /// fail, and `has_options()` is false.
  explicit Ipv4HeaderView(std::span<std::uint8_t> datagram) noexcept
      : data_(datagram), header_bytes_(peek_header_bytes(datagram)) {
    // One walk caches the first RR and TS offsets. EOL ends it, NOP
    // advances a byte, anything malformed ends it: a rescan's rules.
    std::size_t i = 20;
    while (i < header_bytes_ && (rr_offset_ == kNone || ts_offset_ == kNone)) {
      const std::uint8_t type = data_[i];
      if (type == kOptEndOfList) break;
      if (type == kOptNop) {
        ++i;
        continue;
      }
      if (i + 1 >= header_bytes_) break;
      const std::uint8_t length = data_[i + 1];
      if (length < 2 || i + length > header_bytes_) break;
      if (type == kOptRecordRoute && rr_offset_ == kNone) rr_offset_ = i;
      if (type == kOptTimestamp && ts_offset_ == kNone) ts_offset_ = i;
      i += length;
    }
  }

  [[nodiscard]] bool valid() const noexcept { return header_bytes_ != 0; }
  [[nodiscard]] bool has_options() const noexcept { return header_bytes_ > 20; }
  /// Lets stamping skip the timestamp computation for RR-only packets.
  [[nodiscard]] bool has_ts() const noexcept { return ts_offset_ != kNone; }
  [[nodiscard]] std::size_t header_bytes() const noexcept {
    return header_bytes_;
  }

  /// Decrements the TTL and updates the header checksum incrementally
  /// (RFC 1624). Returns the new TTL, or nullopt if the view is inert or
  /// the TTL is already zero.
  std::optional<std::uint8_t> decrement_ttl() noexcept {
    if (!valid()) return std::nullopt;
    const std::uint8_t ttl = data_[8];
    if (ttl == 0) return std::nullopt;
    // Incremental from the stored checksum: a checksum that was wrong
    // before stays wrong by the same amount.
    const std::uint16_t old_word = read_u16(8);
    const std::uint16_t new_word =
        static_cast<std::uint16_t>(old_word - 0x0100);
    data_[8] = static_cast<std::uint8_t>(ttl - 1);
    net::IncrementalChecksum delta;
    delta.update(old_word, new_word);
    write_u16(10, delta.apply(read_u16(10)));
    return data_[8];
  }

  /// Offset of the first Record Route option while its bytes form a valid
  /// option (type, length and pointer grammar), else 0. Rereads the bytes:
  /// the fault surgery may have rewritten them since binding
  /// (blank_options turns the type into a NOP, rr_truncate moves the
  /// pointer past the end).
  [[nodiscard]] std::size_t valid_rr_offset() const noexcept {
    if (rr_offset_ == kNone) return kNone;
    const std::size_t i = rr_offset_;
    if (data_[i] != kOptRecordRoute) return kNone;
    const std::uint8_t length = data_[i + 1];
    if (length < 3 || (length - 3) % 4 != 0) return kNone;
    const std::uint8_t pointer = data_[i + 2];
    if (pointer < kRrMinPointer || (pointer - kRrMinPointer) % 4 != 0) {
      return kNone;
    }
    if ((pointer - kRrMinPointer) / 4 > (length - 3) / 4) return kNone;
    return i;
  }

  /// Stamps `address` into the next free RR slot and advances the
  /// pointer. Returns false (buffer untouched) when there is no valid RR
  /// option or it is full — the router then simply forwards, per RFC 791.
  bool rr_stamp(net::IPv4Address address) noexcept {
    return valid_rr_offset() != kNone && rr_stamp_trusted(address);
  }

  /// `rr_stamp` minus the option revalidation — legal only when the
  /// caller can prove nothing rewrote option bytes since the view was
  /// constructed; see stamp_trusted_into for the proof obligations.
  bool rr_stamp_trusted(net::IPv4Address address) noexcept {
    net::IncrementalChecksum delta;
    if (!stamp_trusted_into(address, delta)) return false;
    write_u16(10, delta.apply(read_u16(10)));
    return true;
  }

  /// Fused TTL decrement + trusted RR stamp: one checksum read-modify-
  /// write for the hop instead of two. Returns what decrement_ttl would;
  /// the stamp happens only when the packet survives (new TTL > 0),
  /// matching the walk's expire-before-stamp order. RFC 1624 deltas
  /// compose exactly — both orders equal the full recompute of the final
  /// bytes — so the result is byte-identical to decrement_ttl() followed
  /// by rr_stamp_trusted() (the run-list compiler's peephole fusion,
  /// sim/pipeline.h, relies on this).
  std::optional<std::uint8_t> ttl_rr_stamp_trusted(
      net::IPv4Address address) noexcept {
    if (!valid()) return std::nullopt;
    const std::uint8_t ttl = data_[8];
    if (ttl == 0) return std::nullopt;
    const std::uint16_t old_word = read_u16(8);
    data_[8] = static_cast<std::uint8_t>(ttl - 1);
    net::IncrementalChecksum delta;
    delta.update(old_word, read_u16(8));
    if (data_[8] != 0) stamp_trusted_into(address, delta);
    write_u16(10, delta.apply(read_u16(10)));
    return data_[8];
  }

  /// Stamps an (address, timestamp) entry into the first Timestamp option
  /// if a slot is free, otherwise bumps its 4-bit overflow counter
  /// (saturating at 15). Returns false when there is no valid Timestamp
  /// option.
  bool ts_stamp(net::IPv4Address address, std::uint32_t timestamp_ms) noexcept {
    if (ts_offset_ == kNone) return false;
    const std::size_t i = ts_offset_;
    if (data_[i] != kOptTimestamp) return false;
    const std::uint8_t length = data_[i + 1];
    if (length < 4) return false;
    const std::uint8_t pointer = data_[i + 2];
    const std::uint8_t flags = data_[i + 3] & 0x0f;
    const std::size_t entry_bytes = flags == kTsFlagTimestampOnly ? 4 : 8;
    if (pointer < 5 || (pointer - 5) % entry_bytes != 0) return false;
    if (pointer + entry_bytes - 1 > length) {
      // Full: bump the 4-bit overflow counter (saturating).
      const std::uint8_t overflow = data_[i + 3] >> 4;
      if (overflow < 15) {
        const std::size_t word = (i + 3) & ~std::size_t{1};
        const std::uint16_t old_word = read_u16(word);
        data_[i + 3] =
            static_cast<std::uint8_t>(((overflow + 1) << 4) | flags);
        finish_stamp({&word, 1}, {&old_word, 1});
      }
      return true;
    }

    // The pointer word and the words covering the entry, which starts at
    // least two bytes past the pointer, so no word is listed twice.
    const std::size_t begin = i + pointer - 1;
    std::size_t words[6] = {(i + 2) & ~std::size_t{1}};
    std::size_t n = 1;
    for (std::size_t w = begin & ~std::size_t{1}; w < begin + entry_bytes;
         w += 2) {
      words[n++] = w;
    }
    std::uint16_t old_words[6];
    for (std::size_t k = 0; k < n; ++k) old_words[k] = read_u16(words[k]);

    std::size_t at = begin;
    if (flags == kTsFlagAddressAndTimestamp) {
      write_u32(at, address.value());
      at += 4;
    }
    write_u32(at, timestamp_ms);
    data_[i + 2] = static_cast<std::uint8_t>(pointer + entry_bytes);
    finish_stamp({words, n}, {old_words, n});
    return true;
  }

 private:
  static constexpr std::size_t kNone = 0;

  [[nodiscard]] std::uint16_t read_u16(std::size_t offset) const noexcept {
    return static_cast<std::uint16_t>((std::uint16_t{data_[offset]} << 8) |
                                      data_[offset + 1]);
  }
  void write_u16(std::size_t offset, std::uint16_t value) noexcept {
    data_[offset] = static_cast<std::uint8_t>(value >> 8);
    data_[offset + 1] = static_cast<std::uint8_t>(value);
  }
  void write_u32(std::size_t offset, std::uint32_t value) noexcept {
    write_u16(offset, static_cast<std::uint16_t>(value >> 16));
    write_u16(offset + 2, static_cast<std::uint16_t>(value));
  }

  /// The stamp core: writes the slot and pointer bytes and folds their
  /// word deltas into `delta` without touching the checksum field (callers
  /// apply once, possibly combining with other updates). It skips the
  /// option revalidation — legal exactly when nothing rewrote option bytes
  /// since construction, which the pipeline compiler proves structurally:
  /// fault elements are the only mid-walk option writers, and with the
  /// fault plan disabled they are compiled out of every run list
  /// (sim/pipeline.h, TrustedStampElement). The two remaining guards are
  /// bounds checks that keep it memory-safe on arbitrary bytes.
  bool stamp_trusted_into(net::IPv4Address address,
                          net::IncrementalChecksum& delta) noexcept {
    if (rr_offset_ == kNone) return false;
    const std::size_t i = rr_offset_;
    const std::uint8_t length = data_[i + 1];
    if (length < 3) return false;  // bounds only: degenerate option
    const std::uint8_t pointer = data_[i + 2];
    // Full (pointer >= length on a valid option: a valid RR has
    // pointer ≡ 0 (mod 4), length ≡ 3 (mod 4), so pointer < length
    // implies pointer + 3 <= length) — and on a corrupted option this is
    // the bound that keeps the 4-byte write inside i + length - 1.
    if (pointer + 3u > length) return false;

    const std::size_t slot = i + pointer - 1;  // pointer is 1-based
    const std::size_t pointer_word = (i + 2) & ~std::size_t{1};
    const std::size_t slot_word = slot & ~std::size_t{1};
    std::size_t words[4];
    std::uint16_t old_words[4];
    std::size_t n = 0;
    // The pointer word, then the two (even-aligned slot) or three words
    // covering the 4-byte slot. The only overlap on a valid packet is
    // pointer_word == slot_word, when the slot starts at i + 3 (pointer
    // of 4, even i).
    words[n] = pointer_word;
    old_words[n] = read_u16(pointer_word);
    ++n;
    if (slot_word != pointer_word) {
      words[n] = slot_word;
      old_words[n] = read_u16(slot_word);
      ++n;
    }
    words[n] = slot_word + 2;
    old_words[n] = read_u16(slot_word + 2);
    ++n;
    if ((slot & 1) != 0) {
      words[n] = slot_word + 4;
      old_words[n] = read_u16(slot_word + 4);
      ++n;
    }

    write_u32(slot, address.value());
    data_[i + 2] = static_cast<std::uint8_t>(pointer + 4);
    for (std::size_t k = 0; k < n; ++k) {
      delta.update(old_words[k], read_u16(words[k]));
    }
    return true;
  }

  void finish_stamp(std::span<const std::size_t> words,
                    std::span<const std::uint16_t> old_words) noexcept {
    net::IncrementalChecksum delta;
    for (std::size_t k = 0; k < words.size(); ++k) {
      delta.update(old_words[k], read_u16(words[k]));
    }
    write_u16(10, delta.apply(read_u16(10)));
  }

  std::span<std::uint8_t> data_;
  std::size_t header_bytes_ = 0;
  std::size_t rr_offset_ = kNone;  // offset of the first RR option, 0 = none
  std::size_t ts_offset_ = kNone;  // offset of the first TS option, 0 = none
};

}  // namespace rr::pkt

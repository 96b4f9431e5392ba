// Mutable zero-copy view over a serialized IPv4 datagram.
//
// `Network::walk` mutates the same buffer dozens of times per probe (TTL
// decrement plus RR/TS stamps at every stamping hop). The free functions in
// mutate.h re-scan the options area and recompute the full header checksum
// on every call; this view locates the first RR and TS options once, then
// performs each mutation in O(1) with an RFC 1624 incremental checksum
// update. Results are bit-identical to the mutate.h functions for every
// buffer the simulator produces (see view_wire_test.cpp), including after
// the fault injections (blank_options / rr_truncate / rr_garble) which
// change option *content* in place but never move option boundaries — the
// cached offsets stay valid and the type/length/pointer bytes are
// revalidated on every call.
//
// The one case where an incremental update would diverge from mutate.h is a
// buffer whose stored checksum is already invalid (the corrupt-checksum
// fault): the legacy full recompute silently repairs it at the next stamp.
// Callers that corrupt the checksum must call `mark_checksum_dirty()`; the
// next stamping mutation then does one full recompute (matching the legacy
// repair) and reverts to incremental updates.
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
#include "packet/options.h"

namespace rr::pkt {

class Ipv4HeaderView {
 public:
  /// An inert, unbound view: `valid()` is false and every mutation fails.
  /// Exists so batch walkers (sim/pipeline.h WalkBatch) can hold arrays of
  /// views and rebind slots by assignment without a heap indirection.
  Ipv4HeaderView() noexcept = default;

  /// Binds to a datagram buffer. If the buffer does not plausibly start
  /// with an IPv4 header the view is inert: `valid()` is false, mutations
  /// fail, and `has_options()` is false — mirroring the mutate.h functions
  /// on the same buffer.
  explicit Ipv4HeaderView(std::span<std::uint8_t> datagram) noexcept
      : data_(datagram) {
    if (datagram.size() < 20) return;
    if ((datagram[0] >> 4) != 4) return;
    const std::size_t header_bytes =
        static_cast<std::size_t>(datagram[0] & 0x0f) * 4;
    if (header_bytes < 20 || header_bytes > datagram.size()) return;
    header_bytes_ = header_bytes;

    // One walk over the options area caches where the first RR and first TS
    // options live. The traversal rules (EOL terminates, NOP advances one
    // byte, anything malformed ends the scan) match find_rr / ts_stamp, so a
    // cached offset exists exactly when the legacy scan would have reached
    // that option.
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
  /// Whether the constructor located a timestamp option. Lets stamping
  /// hot paths skip the timestamp computation entirely for RR-only
  /// packets (the census's dominant packet class).
  [[nodiscard]] bool has_ts() const noexcept { return ts_offset_ != kNone; }
  [[nodiscard]] std::size_t header_bytes() const noexcept {
    return header_bytes_;
  }

  /// See mutate.h `decrement_ttl`: same result, same bytes.
  std::optional<std::uint8_t> decrement_ttl() noexcept {
    if (!valid()) return std::nullopt;
    const std::uint8_t ttl = data_[8];
    if (ttl == 0) return std::nullopt;
    // Same RFC 1624 arithmetic as mutate.h decrement_ttl: incremental from
    // the stored checksum, so a corrupted checksum stays corrupted — exactly
    // like the legacy path.
    const std::uint16_t old_word = read_u16(8);
    const std::uint16_t new_word =
        static_cast<std::uint16_t>(old_word - 0x0100);
    data_[8] = static_cast<std::uint8_t>(ttl - 1);
    net::IncrementalChecksum delta;
    delta.update(old_word, new_word);
    write_u16(10, delta.apply(read_u16(10)));
    return data_[8];
  }

  /// See mutate.h `rr_stamp` / `ts_stamp`: same result, same bytes, O(1).
  bool rr_stamp(net::IPv4Address address) noexcept {
    if (rr_offset_ == kNone) return false;
    const std::size_t i = rr_offset_;
    // Revalidate the option bytes: the fault hooks rewrite option content in
    // place (blank_options turns the type into a NOP, rr_truncate moves the
    // pointer past the end), so the checks find_rr performs per scan must be
    // repeated per stamp.
    if (data_[i] != kOptRecordRoute) return false;
    const std::uint8_t length = data_[i + 1];
    if (length < 3 || (length - 3) % 4 != 0) return false;
    const std::uint8_t pointer = data_[i + 2];
    if (pointer < kRrMinPointer || (pointer - kRrMinPointer) % 4 != 0) {
      return false;
    }
    if ((pointer - kRrMinPointer) / 4 > (length - 3) / 4) return false;
    if (pointer >= length) return false;  // full

    const std::size_t slot = i + pointer - 1;  // pointer is 1-based
    std::size_t words[4];
    std::uint16_t old_words[4];
    std::size_t n = 0;
    note_word(i + 2, words, old_words, n);
    for (std::size_t b = slot; b < slot + 4; ++b) {
      note_word(b, words, old_words, n);
    }

    const auto bytes = address.to_bytes();
    data_[slot] = bytes[0];
    data_[slot + 1] = bytes[1];
    data_[slot + 2] = bytes[2];
    data_[slot + 3] = bytes[3];
    data_[i + 2] = static_cast<std::uint8_t>(pointer + 4);
    finish_stamp({words, n}, {old_words, n});
    return true;
  }

  /// `rr_stamp` minus the per-stamp option revalidation — legal only when
  /// the caller can prove nothing rewrote option bytes since the view was
  /// constructed; see stamp_trusted_into for the proof obligations.
  /// Byte-identical to rr_stamp whenever both succeed.
  bool rr_stamp_trusted(net::IPv4Address address) noexcept {
    if (checksum_dirty_) return rr_stamp(address);
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
    if (checksum_dirty_) {
      // Rare repair path (unreachable from fault-free compiled lists, but
      // keeps the fused call safe anywhere): sequential updates preserve
      // the legacy stays-corrupted-then-repairs semantics.
      const auto ttl = decrement_ttl();
      if (ttl && *ttl != 0) rr_stamp(address);
      return ttl;
    }
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

  bool ts_stamp(net::IPv4Address address, std::uint32_t timestamp_ms) noexcept {
    if (ts_offset_ == kNone) return false;
    const std::size_t i = ts_offset_;
    if (data_[i] != kOptTimestamp) return false;
    const std::uint8_t length = data_[i + 1];
    if (length < 4) return false;
    const std::uint8_t pointer = data_[i + 2];
    const std::uint8_t flags = data_[i + 3] & 0x0f;
    const std::size_t entry_bytes =
        flags == TimestampOption::kFlagTimestampOnly ? 4 : 8;
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
        return true;
      }
      return true;  // saturated; nothing to update
    }

    const std::size_t begin = i + pointer - 1;
    std::size_t words[6];
    std::uint16_t old_words[6];
    std::size_t n = 0;
    note_word(i + 2, words, old_words, n);
    for (std::size_t b = begin; b < begin + entry_bytes; ++b) {
      note_word(b, words, old_words, n);
    }

    std::size_t at = begin;
    if (flags == TimestampOption::kFlagAddressAndTimestamp) {
      const auto addr_bytes = address.to_bytes();
      data_[at] = addr_bytes[0];
      data_[at + 1] = addr_bytes[1];
      data_[at + 2] = addr_bytes[2];
      data_[at + 3] = addr_bytes[3];
      at += 4;
    }
    data_[at] = static_cast<std::uint8_t>(timestamp_ms >> 24);
    data_[at + 1] = static_cast<std::uint8_t>(timestamp_ms >> 16);
    data_[at + 2] = static_cast<std::uint8_t>(timestamp_ms >> 8);
    data_[at + 3] = static_cast<std::uint8_t>(timestamp_ms);
    data_[i + 2] = static_cast<std::uint8_t>(pointer + entry_bytes);
    finish_stamp({words, n}, {old_words, n});
    return true;
  }

  /// The stored header checksum may be invalid; the next stamp performs a
  /// full recompute (as the legacy full-rewrite path would) instead of an
  /// incremental update.
  void mark_checksum_dirty() noexcept { checksum_dirty_ = true; }

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

  /// The trusted-stamp core: writes the slot and pointer bytes and folds
  /// their word deltas into `delta` without touching the checksum field
  /// (callers apply once, possibly combining with other updates). Caller
  /// must have checked !checksum_dirty_. Skips the per-stamp option
  /// revalidation rr_stamp performs — legal exactly when nothing rewrote
  /// option bytes since construction, which the pipeline compiler proves
  /// structurally: fault elements are the only mid-walk option writers,
  /// and with the fault plan disabled they are compiled out of every run
  /// list (sim/pipeline.h, TrustedStampElement). The two remaining guards
  /// are pure bounds checks that never fire on a packet the constructor
  /// accepted; they keep the fast path memory-safe when the fuzzer binds
  /// views over arbitrary bytes. Byte-identical to rr_stamp whenever both
  /// succeed.
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
    // Same word set note_word would collect, without the dedup scan: the
    // pointer word, then the two (even-aligned slot) or three words
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

    const auto bytes = address.to_bytes();
    data_[slot] = bytes[0];
    data_[slot + 1] = bytes[1];
    data_[slot + 2] = bytes[2];
    data_[slot + 3] = bytes[3];
    data_[i + 2] = static_cast<std::uint8_t>(pointer + 4);
    for (std::size_t k = 0; k < n; ++k) {
      delta.update(old_words[k], read_u16(words[k]));
    }
    return true;
  }

  /// Records the 16-bit word containing `byte_offset` (once) for the
  /// incremental checksum delta.
  void note_word(std::size_t byte_offset, std::size_t* words,
                 std::uint16_t* old_words, std::size_t& n) const noexcept {
    const std::size_t word = byte_offset & ~std::size_t{1};
    for (std::size_t k = 0; k < n; ++k) {
      if (words[k] == word) return;
    }
    words[n] = word;
    old_words[n] = read_u16(word);
    ++n;
  }

  void finish_stamp(std::span<const std::size_t> words,
                    std::span<const std::uint16_t> old_words) noexcept {
    if (checksum_dirty_) {
      // Full recompute, as the legacy rewrite_header_checksum would do. This
      // is what repairs a corrupt-checksum-faulted packet at its next stamp.
      write_u16(10, 0);
      write_u16(10, net::internet_checksum(data_.first(header_bytes_)));
      checksum_dirty_ = false;
      return;
    }
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
  bool checksum_dirty_ = false;
};

}  // namespace rr::pkt

// Compiled forwarding plane for campaign traffic.
//
// The campaign's steady state resolves two host-to-host router paths per
// probe (forward to the destination, reverse for the reply). A campaign
// visits each (VP, destination) pair exactly once, so without a table
// every probe would pay a full assemble + derive stitch twice.
//
// CompiledFib precomputes those paths once per destination block, keyed by
// what they actually depend on. A stitched host path is a function of the
// endpoints' access routers, not the hosts themselves: only two elements
// are per-host — the first hop's ingress (picked from the source-host
// salt) and the last hop's egress (picked from the destination-host salt);
// see PathStitcher::derive_addresses. So the table stores one forward and
// one reverse "spine" per (source host, destination access router) pair —
// typically 10-30x fewer than per-destination paths — and a lookup copies
// the spine into a caller-owned scratch and re-picks the single
// destination-dependent address. The result is bit-identical to the
// stitcher's output for every covered pair (asserted by the campaign
// equivalence tests).
//
// Build-then-freeze: build() stitches everything eagerly; the finished
// object is immutable and safe for any number of concurrent readers.
// Lookups for pairs outside the compiled (sources x block) coverage
// return kMiss and the caller stitches the path itself.
//
// Rows (sources) are independent: each row's spines live in that row's
// own exact-size arena, so build() can stitch rows across a worker pool
// and the table is the same at any thread count — every spine is a pure
// function of the stitcher, whichever worker stitched it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "routing/stitcher.h"

namespace rr::util {
class ThreadPool;
}  // namespace rr::util

namespace rr::route {

class CompiledFib {
 public:
  enum class Lookup : std::uint8_t {
    kMiss,        // pair not compiled; fall back to the stitcher
    kUnroutable,  // compiled, and BGP has no route
    kHit,         // `out` holds the full hop list
  };

  /// Compiles dual-direction spines for every (source, destination access
  /// router) pair. `sources` are the probing hosts (VPs and the plain-ping
  /// probe host); `dests` are the destination hosts of the current block.
  /// With a `pool`, rows are stitched across its workers; without one, on
  /// the calling thread. The table is identical either way.
  [[nodiscard]] static std::shared_ptr<const CompiledFib> build(
      PathStitcher& stitcher, std::span<const HostId> sources,
      std::span<const HostId> dests, util::ThreadPool* pool = nullptr);

  /// Forward path `src` -> `dst` into `out` (equivalent to
  /// PathStitcher::host_path(src, dst)).
  Lookup forward(HostId src, HostId dst, std::vector<PathHop>& out) const;

  /// Reverse path `dst` -> `reply_to` into `out` (equivalent to
  /// PathStitcher::host_path(dst, reply_to)).
  Lookup reverse(HostId dst, HostId reply_to,
                 std::vector<PathHop>& out) const;

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    std::size_t bytes = pairs_.capacity() * sizeof(SpinePair) +
                        arenas_.capacity() * sizeof(arenas_.front()) +
                        (source_slot_.capacity() + ar_slot_.capacity()) *
                            sizeof(std::uint32_t);
    for (const auto& arena : arenas_) {
      bytes += arena.capacity() * sizeof(PathHop);
    }
    return bytes;
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffff'ffffu;
  static constexpr std::uint8_t kFwdRoutable = 1 << 0;
  static constexpr std::uint8_t kRevRoutable = 1 << 1;

  /// Offsets index the pair's row arena (arenas_[row]).
  struct SpinePair {
    std::uint32_t fwd_off = 0;
    std::uint32_t rev_off = 0;
    std::uint16_t fwd_len = 0;
    std::uint16_t rev_len = 0;
    std::uint8_t flags = 0;
  };

  CompiledFib() = default;

  const topo::Topology* topology_ = nullptr;
  std::vector<std::uint32_t> source_slot_;  // HostId -> table row
  std::vector<std::uint32_t> ar_slot_;      // RouterId -> table column
  std::size_t columns_ = 0;
  std::vector<SpinePair> pairs_;  // [row * columns_ + column]
  std::vector<std::vector<PathHop>> arenas_;  // [row], exact-size
};

}  // namespace rr::route

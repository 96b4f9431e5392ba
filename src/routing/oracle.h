// RoutingOracle: efficient AS-path answers for a measurement study.
//
// A study has a small, known set of *source* ASes (vantage points, the
// probe host, cloud providers) probing every destination AS, plus reverse
// paths from arbitrary ASes back to those sources. The oracle therefore:
//
//  * precomputes, for every destination AS, the forward path from each
//    source AS (one route selection per destination, with the paths
//    stored compactly in per-block arenas);
//  * pins the route trees *toward* each source AS, so reverse paths from
//    any AS back to a source are a cheap pointer walk;
//  * computes a fresh tree for anything else (no study path asks for one).
//
// Forward/reverse asymmetry comes for free: the two directions consult
// different trees.
//
// The sweep needs no full tree. Every AS on a source's path lies in the
// sources' provider closure (the sources and every AS above them along
// provider edges) or in the destination's provider cone, so each
// destination's selection runs BgpEngine::select_routes over only those
// ASes: the cone, its peers, and the closure in provider-first order (399
// of 5,200 ASes for the default world's 145 source ASes), and resets only
// the entries it wrote. A selection costs about the cone and the closure
// instead of every AS and edge.
//
// Construction parallelism: each destination's selection is independent,
// so the sweep fans blocks of 256 destinations across a util::ThreadPool.
// Each block keeps its paths in its own exact-size arena, and its worker
// writes only that block's columns of the offset table, with offsets
// relative to the block's arena. Nothing is merged afterwards, and every
// path answer is the same at any thread count.
//
// Simple stubs (no customers, no peers, one provider) get no selection:
// a simple stub's route tree is its provider's tree one hop longer (the
// lemma in oracle.cpp), so a source's path to it is the path to the
// provider followed by the stub, assembled at query time.
//
// Concurrency: the oracle is immutable after construction, so every query
// is safe from any number of threads.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "routing/bgp.h"

namespace rr::route {

class RoutingOracle {
 public:
  /// `source_ases` are the ASes probes originate from (deduplicated
  /// internally). Precomputation runs one route selection per destination
  /// AS, fanned across `threads` workers (resolved like
  /// util::resolve_thread_count; results are identical at any value).
  RoutingOracle(std::shared_ptr<const topo::Topology> topology, Epoch epoch,
                std::vector<AsId> source_ases, int threads = 0);

  [[nodiscard]] const BgpEngine& engine() const noexcept { return engine_; }
  [[nodiscard]] Epoch epoch() const noexcept { return engine_.epoch(); }

  /// AS path from `src` to `dst`, inclusive; empty if unreachable.
  /// O(1)+path-length for source-origin or source-destined queries;
  /// computes `dst`'s route tree otherwise.
  [[nodiscard]] std::vector<AsId> as_path(AsId src, AsId dst) const;

  /// Copy-free variant: the returned span aliases the immutable path arena
  /// for source-origin queries (the hot case — `storage` is not touched)
  /// unless `dst` is a simple stub, and otherwise points into `storage`,
  /// which is filled reusing its capacity. The arena-backed span stays
  /// valid for the oracle's lifetime; a storage-backed span is valid until
  /// `storage` changes.
  [[nodiscard]] std::span<const AsId> path_view(
      AsId src, AsId dst, std::vector<AsId>& storage) const;

  /// True if `src` can reach `dst` at all under policy routing.
  [[nodiscard]] bool reachable(AsId src, AsId dst) const;

  /// Bytes the oracle holds: the engine's adjacency tables and the
  /// precomputed state (path arenas, offset and slot tables, pinned trees
  /// and the stub table).
  [[nodiscard]] std::size_t memory_bytes() const noexcept;
  /// The path arenas' share of memory_bytes().
  [[nodiscard]] std::size_t arena_bytes() const noexcept;

 private:
  /// Source-origin path to a destination that is not a simple stub: a
  /// view into its block's arena, empty when unreachable.
  [[nodiscard]] std::span<const AsId> arena_path(std::uint32_t slot,
                                                 AsId dst) const noexcept;

  static constexpr std::uint32_t kNotSource = 0xffff'ffffu;

  BgpEngine engine_;
  std::vector<AsId> sources_;  // sorted, unique
  /// AsId -> index into sources_, kNotSource otherwise. Flat (one slot per
  /// AS) rather than a hash map: path_view consults it once per campaign
  /// path resolution, and an indexed load beats a hashtable probe on that
  /// scale (~10M queries per census).
  std::vector<std::uint32_t> source_slot_;

  // Forward paths, one arena per sweep block of kSweepBlock destinations:
  // arenas_[dst / kSweepBlock] holds length-prefixed paths, and
  // forward_offsets_[source_idx * num_as + dst] is 1 + the index of the
  // path's length word in that arena, or 0 when `dst` is unreachable or a
  // simple stub.
  static constexpr std::size_t kSweepBlock = 256;
  std::vector<std::uint32_t> forward_offsets_;
  std::vector<std::vector<AsId>> arenas_;  // exact-size

  // AsId -> its one provider when the AS is a simple stub, kNoAs otherwise.
  std::vector<AsId> stub_provider_;

  // Pinned trees toward each source AS (for reverse paths), indexed by the
  // destination AS (null for non-sources — same flat-beats-hash reasoning
  // as source_slot_).
  std::vector<std::unique_ptr<RouteTree>> pinned_;
};

}  // namespace rr::route

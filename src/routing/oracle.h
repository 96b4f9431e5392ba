// RoutingOracle: efficient AS-path answers for a measurement study.
//
// A study has a small, known set of *source* ASes (vantage points, the
// probe host, cloud providers) probing every destination AS, plus reverse
// paths from arbitrary ASes back to those sources. The oracle therefore:
//
//  * precomputes, for every destination AS, the forward path from each
//    source AS (one route-tree sweep over all destinations, with the paths
//    stored compactly in an arena);
//  * pins the route trees *toward* each source AS, so reverse paths from
//    any AS back to a source are a cheap pointer walk;
//  * falls back to a FIFO cache of freshly computed trees for anything else.
//
// Forward/reverse asymmetry comes for free: the two directions consult
// different trees.
//
// Construction parallelism: the destination sweep dominates world build
// time, and each destination's tree is independent, so the sweep fans
// destination blocks across a util::ThreadPool. Every worker fills a
// per-block arena through a per-thread TreeScratch; the blocks are then
// concatenated serially in destination order, which makes the final arena
// (and therefore every path answer) byte-identical to a serial build at
// any thread count.
//
// Concurrency: after construction the precomputed arrays and pinned trees
// are immutable, so source-origin and source-destined queries are safe from
// any number of threads. Only the fallback cache mutates post-construction;
// it is guarded by a mutex (fallback queries are rare — campaign traffic
// never takes that path).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "routing/bgp.h"
#include "util/annotations.h"
#include "util/mutex.h"

namespace rr::route {

class RoutingOracle {
 public:
  /// `source_ases` are the ASes probes originate from (deduplicated
  /// internally). Precomputation runs one tree per destination AS, fanned
  /// across `threads` workers (resolved like util::resolve_thread_count;
  /// results are identical at any value).
  RoutingOracle(std::shared_ptr<const topo::Topology> topology, Epoch epoch,
                std::vector<AsId> source_ases, int threads = 0);

  [[nodiscard]] const BgpEngine& engine() const noexcept { return engine_; }
  [[nodiscard]] Epoch epoch() const noexcept { return engine_.epoch(); }

  /// AS path from `src` to `dst`, inclusive; empty if unreachable.
  /// O(1)+path-length for source-origin or source-destined queries;
  /// falls back to tree computation (FIFO-cached) otherwise.
  [[nodiscard]] std::vector<AsId> as_path(AsId src, AsId dst);

  /// Copy-free variant: the returned span aliases the immutable path arena
  /// for source-origin queries (the hot case — `storage` is not touched),
  /// and otherwise points into `storage`, which is filled reusing its
  /// capacity. The arena-backed span stays valid for the oracle's
  /// lifetime; a storage-backed span is valid until `storage` changes.
  [[nodiscard]] std::span<const AsId> path_view(AsId src, AsId dst,
                                                std::vector<AsId>& storage);

  /// True if `src` can reach `dst` at all under policy routing.
  [[nodiscard]] bool reachable(AsId src, AsId dst);

 private:
  /// Fills `out` with the fallback path (the tree reference cannot outlive
  /// the cache lock, so the lookup happens under it).
  void fallback_path_into(AsId src, AsId dst, std::vector<AsId>& out)
      RROPT_EXCLUDES(fallback_mu_);

  static constexpr std::uint32_t kNotSource = 0xffff'ffffu;

  BgpEngine engine_;
  std::vector<AsId> sources_;  // sorted, unique
  /// AsId -> index into sources_, kNotSource otherwise. Flat (one slot per
  /// AS) rather than a hash map: path_view consults it once per campaign
  /// path resolution, and an indexed load beats a hashtable probe on that
  /// scale (~10M queries per census).
  std::vector<std::uint32_t> source_slot_;

  // Forward paths: arena[offsets[source_idx * num_as + dst]] .. length-
  // prefixed sequences. Offset of 0 means "unreachable" (arena slot 0 is a
  // sentinel).
  std::vector<std::uint32_t> forward_offsets_;
  std::vector<AsId> arena_;

  // Pinned trees toward each source AS (for reverse paths), indexed by the
  // destination AS (null for non-sources — same flat-beats-hash reasoning
  // as source_slot_).
  std::vector<std::unique_ptr<RouteTree>> pinned_;

  // Small FIFO cache for everything else, guarded for concurrent callers.
  // Eviction replaces the slot at `fallback_evict_at_` and advances it (a
  // ring) — never an O(n) pop-front.
  static constexpr std::size_t kFallbackCacheSize = 64;
  util::Mutex fallback_mu_;
  std::unordered_map<AsId, std::unique_ptr<RouteTree>> fallback_
      RROPT_GUARDED_BY(fallback_mu_);
  std::vector<AsId> fallback_order_ RROPT_GUARDED_BY(fallback_mu_);
  std::size_t fallback_evict_at_ RROPT_GUARDED_BY(fallback_mu_) = 0;
};

}  // namespace rr::route

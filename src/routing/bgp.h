// Valley-free (Gao-Rexford) BGP route computation over the AS graph.
//
// Routes follow standard policy preferences: customer-learned routes beat
// peer-learned routes beat provider-learned routes; within a class, shorter
// AS paths win; remaining ties break to the lowest neighbour id so that
// route selection is deterministic.
//
// A RouteTree holds, for one destination AS, every other AS's selected
// next hop toward it — the simulated analogue of "what the BGP tables say
// about reaching this prefix".
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "topology/topology.h"

namespace rr::route {

using topo::AsId;
using topo::Epoch;

enum class RouteClass : std::uint8_t {
  kSelf = 0,      // the destination AS itself
  kCustomer = 1,  // learned from a customer
  kPeer = 2,      // learned from a peer
  kProvider = 3,  // learned from a provider
  kNone = 4,      // unreachable
};

struct RouteEntry {
  AsId next_hop = topo::kNoAs;
  std::uint16_t length = std::numeric_limits<std::uint16_t>::max();
  RouteClass route_class = RouteClass::kNone;

  [[nodiscard]] bool reachable() const noexcept {
    return route_class != RouteClass::kNone;
  }
};

/// All ASes' selected routes toward one destination AS.
class RouteTree {
 public:
  /// Longest AS path as_path_into() follows, in ASes: valley-free paths
  /// cannot exceed the AS count, and a walk past this bound is treated as
  /// unreachable.
  static constexpr std::size_t kMaxPathAses = 64;

  RouteTree(AsId destination, std::vector<RouteEntry> entries)
      : destination_(destination), entries_(std::move(entries)) {}

  [[nodiscard]] AsId destination() const noexcept { return destination_; }
  [[nodiscard]] const RouteEntry& entry(AsId as) const noexcept {
    return entries_[as];
  }
  [[nodiscard]] bool reachable_from(AsId as) const noexcept {
    return entries_[as].reachable();
  }

  /// AS path from `src` to the destination, inclusive on both ends.
  /// Empty when unreachable.
  [[nodiscard]] std::vector<AsId> as_path_from(AsId src) const {
    std::vector<AsId> path;
    as_path_into(src, path);
    return path;
  }

  /// Same, but fills a caller-owned vector (cleared first) so repeated
  /// queries reuse its storage. `out` is empty when unreachable.
  void as_path_into(AsId src, std::vector<AsId>& out) const;

  /// Bytes the tree holds: the object and its entries.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return sizeof(*this) + entries_.capacity() * sizeof(RouteEntry);
  }

  /// Takes the entries storage back out (leaving the tree empty). Sweep
  /// loops use this to recycle the vector through their TreeScratch.
  [[nodiscard]] std::vector<RouteEntry> release_entries() noexcept {
    return std::move(entries_);
  }

 private:
  AsId destination_;
  std::vector<RouteEntry> entries_;
};

/// Reusable working set for compute_tree_into: one tree computation's
/// entries, BFS state and the Dijkstra bucket queue, recycled across calls
/// so a sweep over many destinations allocates only while the vectors are
/// still growing.
struct TreeScratch {
  std::vector<RouteEntry> entries;
  std::vector<std::uint16_t> customer_dist;
  std::vector<AsId> frontier;
  std::vector<AsId> next_frontier;
  /// Dial buckets for the provider-route phase: buckets[len] holds the
  /// (parent, as) relaxations pending at path length `len`, in push order
  /// (the drain needs no order within a bucket). Inner vectors keep their
  /// capacity across trees.
  std::vector<std::vector<std::pair<AsId, AsId>>> buckets;
};

/// Per-epoch BGP engine: owns the epoch-filtered adjacency and computes
/// route trees.
///
/// Adjacency lives in three CSR (offset + flat id) tables rather than
/// vector-of-vectors: one cache-resident array per relation makes the
/// per-tree sweeps — which touch every edge of the graph — sequential
/// scans. Per-AS neighbour order is unchanged (sorted ascending), so every
/// deterministic tie-break below is unchanged too.
class BgpEngine {
 public:
  BgpEngine(std::shared_ptr<const topo::Topology> topology, Epoch epoch);

  [[nodiscard]] Epoch epoch() const noexcept { return epoch_; }
  [[nodiscard]] const topo::Topology& topology() const noexcept {
    return *topology_;
  }

  /// Computes the full route tree toward `destination` (uncached).
  [[nodiscard]] RouteTree compute_tree(AsId destination) const;

  /// Same computation into a reusable scratch: the selected routes land in
  /// `scratch.entries` (indexed by AS) and every working vector keeps its
  /// storage for the next call. The route selection — including every
  /// tie-break — is identical to compute_tree, and to the heap-based
  /// Dijkstra the provider phase replaced: each AS takes the shortest
  /// provider route and, among those, the smallest parent (see the
  /// equivalence note in bgp.cpp).
  void compute_tree_into(AsId destination, TreeScratch& scratch) const;

  /// Epoch-filtered adjacency, exposed for diagnostics/tests. Each span is
  /// the AS's neighbour list sorted ascending.
  [[nodiscard]] std::span<const AsId> customers_of(AsId as) const noexcept {
    return customers_.neighbors(as);
  }
  [[nodiscard]] std::span<const AsId> providers_of(AsId as) const noexcept {
    return providers_.neighbors(as);
  }
  [[nodiscard]] std::span<const AsId> peers_of(AsId as) const noexcept {
    return peers_.neighbors(as);
  }

 private:
  /// One relation's adjacency in compressed sparse row form.
  struct Csr {
    std::vector<std::uint32_t> offsets;  // size n+1
    std::vector<AsId> flat;              // concatenated neighbour lists

    [[nodiscard]] std::span<const AsId> neighbors(AsId as) const noexcept {
      return {flat.data() + offsets[as],
              flat.data() + offsets[static_cast<std::size_t>(as) + 1]};
    }
  };

  std::shared_ptr<const topo::Topology> topology_;
  Epoch epoch_;
  Csr customers_;  // as -> its customers
  Csr providers_;  // as -> its providers
  Csr peers_;      // as -> its peers
};

}  // namespace rr::route

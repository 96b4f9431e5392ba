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

/// Appends `src`'s AS path toward `destination` along `entries`' next
/// hops to `out`, inclusive on both ends, and returns its length in ASes.
/// Returns 0 and leaves `out` as it was when `src` is unreachable or the
/// walk passes RouteTree::kMaxPathAses ASes.
std::size_t append_as_path(std::span<const RouteEntry> entries,
                           AsId destination, AsId src, std::vector<AsId>& out);

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
  void as_path_into(AsId src, std::vector<AsId>& out) const {
    out.clear();
    append_as_path(entries_, destination_, src, out);
  }

  /// Bytes the tree holds: the object and its entries.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return sizeof(*this) + entries_.capacity() * sizeof(RouteEntry);
  }

 private:
  AsId destination_;
  std::vector<RouteEntry> entries_;
};

/// Reusable working set for BgpEngine::select_routes. Between calls every
/// entry is unreachable (RouteEntry{}); a selection writes only the ASes
/// it reaches, and clear() resets exactly those, so a sweep over many
/// destinations pays for the ASes it touches, not for every AS.
struct TreeScratch {
  std::vector<RouteEntry> entries;  // indexed by AS
  /// The destination's provider cone in BFS order: the destination and
  /// every AS phase 1 gave a customer route.
  std::vector<AsId> cone;
  /// ASes phase 2 gave a peer route.
  std::vector<AsId> peered;

  /// Resets what BgpEngine::select_routes(_, order, *this) wrote, leaving
  /// the scratch clean for the next destination.
  void clear(std::span<const AsId> order) noexcept;
};

/// Per-epoch BGP engine: owns the epoch-filtered adjacency and computes
/// route trees.
///
/// Adjacency lives in three CSR (offset + flat id) tables rather than
/// vector-of-vectors: one cache-resident array per relation makes the
/// per-tree scans sequential. Per-AS neighbour order is sorted ascending,
/// which every deterministic tie-break below relies on.
class BgpEngine {
 public:
  /// Throws std::logic_error if the epoch's provider graph has a cycle
  /// (the generator builds it acyclic; provider routes need an order in
  /// which every AS follows its providers).
  BgpEngine(std::shared_ptr<const topo::Topology> topology, Epoch epoch);

  [[nodiscard]] Epoch epoch() const noexcept { return epoch_; }
  [[nodiscard]] const topo::Topology& topology() const noexcept {
    return *topology_;
  }

  /// Computes the full route tree toward `destination` (uncached):
  /// select_routes over provider_order().
  [[nodiscard]] RouteTree compute_tree(AsId destination) const;

  /// The route selection, one pass in three phases (bgp.cpp):
  ///  1. customer routes for the destination's provider cone (a BFS up
  ///     the provider edges, smallest customer on equal length);
  ///  2. peer routes for every AS peering with the cone (shortest, then
  ///     smallest peer);
  ///  3. provider routes for the ASes of `order` left without either, in
  ///     `order`'s order (shortest, then smallest provider).
  /// `order` must list each of its ASes after all of that AS's providers
  /// and hold every provider of each: provider_order() gives the full
  /// tree, and a subsequence of it closed under providers (a set of
  /// sources' provider closure) gives exactly the full tree's entries for
  /// the cone, the peered ASes and `order`. `scratch` must be clean (see
  /// TreeScratch) or empty.
  void select_routes(AsId destination, std::span<const AsId> order,
                     TreeScratch& scratch) const;

  /// Every AS once, each after all of its providers: a topological order
  /// of the provider graph, fixed at construction.
  [[nodiscard]] std::span<const AsId> provider_order() const noexcept {
    return provider_order_;
  }

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

  /// Bytes held by the three adjacency tables and the provider order.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return customers_.memory_bytes() + providers_.memory_bytes() +
           peers_.memory_bytes() + provider_order_.capacity() * sizeof(AsId);
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
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
      return offsets.capacity() * sizeof(std::uint32_t) +
             flat.capacity() * sizeof(AsId);
    }
  };

  std::shared_ptr<const topo::Topology> topology_;
  Epoch epoch_;
  Csr customers_;  // as -> its customers
  Csr providers_;  // as -> its providers
  Csr peers_;      // as -> its peers
  std::vector<AsId> provider_order_;
};

}  // namespace rr::route

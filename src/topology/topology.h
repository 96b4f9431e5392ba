// The generated Internet: ASes, routers, hosts, links, vantage points,
// cloud providers, and the address plan tying them together.
//
// Topology is immutable after generation. Routing (src/routing) computes
// paths over it per epoch; the simulator (src/sim) adds per-device
// behaviour on top.
//
// Address services run on a compiled forwarding plane: the generator fills
// a mutable LpmTrie and then calls compile(), which freezes it into a flat
// DIR-24-8 table (netbase/flat_lpm.h), precomputes the per-epoch vantage-
// point lists, and lays host alias sets out in one arena — so the per-
// packet queries (`as_of_address`, `owner_of`, `aliases_of`) are array
// loads with no per-call allocation. The lookups path stitching makes per
// hop (`link_between`, `access_chain`, `router_interfaces`,
// `router_as_ids`) are frozen the same way into flat tables. See
// DESIGN.md §8.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netbase/flat_lpm.h"
#include "netbase/lpm_trie.h"
#include "topology/address_index.h"
#include "topology/types.h"

namespace rr::util {
class ThreadPool;
}  // namespace rr::util

namespace rr::topo {

class Topology {
 public:
  // ------------------------------------------------------------- accessors
  [[nodiscard]] std::span<const AsInfo> ases() const noexcept { return ases_; }
  [[nodiscard]] std::span<const Router> routers() const noexcept {
    return routers_;
  }
  [[nodiscard]] std::span<const Host> hosts() const noexcept { return hosts_; }
  [[nodiscard]] std::span<const AsLink> links() const noexcept {
    return links_;
  }
  [[nodiscard]] std::span<const VantagePoint> vantage_points() const noexcept {
    return vantage_points_;
  }
  [[nodiscard]] std::span<const CloudProvider> clouds() const noexcept {
    return clouds_;
  }

  [[nodiscard]] const AsInfo& as_at(AsId id) const noexcept {
    return ases_[id];
  }
  [[nodiscard]] const Router& router_at(RouterId id) const noexcept {
    return routers_[id];
  }
  [[nodiscard]] const Host& host_at(HostId id) const noexcept {
    return hosts_[id];
  }
  [[nodiscard]] const AsLink& link_at(LinkId id) const noexcept {
    return links_[id];
  }

  /// The single machine used for the plain-ping study (USC in the paper).
  [[nodiscard]] HostId probe_host() const noexcept { return probe_host_; }

  /// Destination hosts only (one per advertised prefix), excluding VP and
  /// infrastructure hosts.
  [[nodiscard]] std::span<const HostId> destinations() const noexcept {
    return destinations_;
  }

  /// Vantage points available in a given epoch (precompiled, stable order).
  [[nodiscard]] std::span<const VantagePoint* const> vantage_points_in(
      Epoch epoch) const noexcept {
    return epoch == Epoch::k2011 ? vps_2011_ : vps_2016_;
  }

  /// RouterId-indexed AS membership, flattened at freeze for dataplane
  /// compilation and path stitching: sim/pipeline.h folds this with the
  /// behaviour assignment into packed per-router HopRows, and the stitcher
  /// reads each hop's AS from it, without chasing Router structs.
  [[nodiscard]] std::span<const AsId> router_as_ids() const noexcept {
    return router_as_;
  }

  /// A router's interfaces (the same run as `router_at(id).interfaces`,
  /// loopback first), served from one arena laid out at freeze so the
  /// stitcher's per-hop interface picks and `aliases_of` read no Router
  /// struct.
  [[nodiscard]] std::span<const net::IPv4Address> router_interfaces(
      RouterId id) const noexcept {
    return {iface_arena_.data() + iface_offset_[id],
            iface_arena_.data() + iface_offset_[id + 1]};
  }

  // ------------------------------------------------------ address services
  /// AS owning an address, via longest-prefix match over advertised +
  /// infrastructure blocks (this is what AS-path extraction from RR or
  /// traceroute data uses).
  [[nodiscard]] std::optional<AsId> as_of_address(
      net::IPv4Address addr) const noexcept {
    const AsId* found = flat_address_to_as_.lookup(addr);
    if (!found) return std::nullopt;
    return *found;
  }

  /// Device-level owner (exact match), for the simulator and for alias
  /// ground truth. Nullopt for addresses that were never assigned.
  [[nodiscard]] std::optional<AddressOwner> owner_of(
      net::IPv4Address addr) const noexcept {
    return address_index_.find(addr);
  }

  /// Ground-truth alias set (all addresses of the owning device),
  /// or empty if the address is unassigned. The view aliases storage
  /// owned by the topology; no per-call allocation.
  [[nodiscard]] std::span<const net::IPv4Address> aliases_of(
      net::IPv4Address addr) const noexcept;

  /// The inter-AS link between two ASes, if adjacent (at most one link per
  /// AS pair is generated). An open-addressed probe of the pair table
  /// compile() builds from the link list.
  [[nodiscard]] std::optional<LinkId> link_between(AsId a,
                                                   AsId b) const noexcept;

  /// Host owning an exact address, if any.
  [[nodiscard]] std::optional<HostId> host_by_address(
      net::IPv4Address addr) const noexcept;

  /// Routers between an AS's core and an access router (inclusive on both
  /// ends: chain[0] is the core router the chain hangs off; chain.back() is
  /// the access router itself); empty for a router no host hangs off. Used
  /// by router-level path stitching.
  [[nodiscard]] std::span<const RouterId> access_chain(
      RouterId access_router) const noexcept {
    return {chain_arena_.data() + chain_offset_[access_router],
            chain_arena_.data() + chain_offset_[access_router + 1]};
  }

  /// The mutable-build prefix trie the flat table was compiled from; kept
  /// as the reference structure for equivalence tests.
  [[nodiscard]] const net::LpmTrie<AsId>& address_trie() const noexcept {
    return address_to_as_;
  }

  // ------------------------------------------------------------ statistics
  [[nodiscard]] std::size_t num_destination_prefixes() const noexcept {
    return destinations_.size();
  }
  [[nodiscard]] std::string summary() const;

 private:
  friend class Generator;

  static std::uint64_t pair_key(AsId a, AsId b) noexcept {
    const AsId lo = a < b ? a : b;
    const AsId hi = a < b ? b : a;
    return (std::uint64_t{lo} << 32) | hi;
  }

  /// Freezes the generated world into the compiled forwarding plane:
  /// flattens the prefix trie, caches the per-epoch VP lists, and builds
  /// the host-alias arena — each block-parallel across `pool` with
  /// per-shard results merged in index order, so the compiled bytes are
  /// identical at any thread count — then flattens the stitch-path
  /// lookups (link pairs, access chains, router interfaces) in index
  /// order and releases the generation-time maps. Called once at the end
  /// of generation; the compiled queries are valid only afterwards (the
  /// generator hands out no topology before it). Sets `frozen_`: debug
  /// builds assert no generator mutation path runs afterwards.
  void compile(util::ThreadPool& pool);

  /// Builds link_slots_ from links_ (see link_between).
  void compile_link_table();

  /// Generator-side guard: every mutation phase asserts the topology has
  /// not been frozen by compile() yet.
  void assert_mutable() const noexcept {
#ifndef NDEBUG
    assert(!frozen_);
#endif
  }

  std::vector<AsInfo> ases_;
  std::vector<Router> routers_;
  std::vector<Host> hosts_;
  std::vector<AsLink> links_;
  std::vector<VantagePoint> vantage_points_;
  std::vector<CloudProvider> clouds_;
  std::vector<HostId> destinations_;
  HostId probe_host_ = kNoHost;

  net::LpmTrie<AsId> address_to_as_;
  AddressIndex address_index_;
  // Generation-time indexes: the generator deduplicates links and chains
  // through them; compile() flattens them and releases both.
  std::unordered_map<std::uint64_t, LinkId> link_by_pair_;
  std::unordered_map<RouterId, std::vector<RouterId>> access_chain_;

  // ---------------------------------------------- compiled (see compile())
  net::FlatLpm<AsId> flat_address_to_as_;
  std::vector<const VantagePoint*> vps_2011_;
  std::vector<const VantagePoint*> vps_2016_;
  /// Per-host offset into host_alias_arena_ (kNoAliasEntry for hosts with
  /// no extra aliases, whose set is just the inline `address` member).
  static constexpr std::uint32_t kNoAliasEntry = 0xffff'ffffu;
  std::vector<std::uint32_t> host_alias_offset_;
  std::vector<net::IPv4Address> host_alias_arena_;  // [addr, aliases...] runs
  std::vector<AsId> router_as_;  // RouterId-indexed AS membership
  /// Open-addressed (linear probing) pair_key -> link table, a power of
  /// two at least twice the link count; kEmptyPair marks a free slot (no
  /// pair_key equals it: a pair's low id is below kNoAs).
  struct LinkSlot {
    std::uint64_t key;
    LinkId link;
  };
  static constexpr std::uint64_t kEmptyPair = ~std::uint64_t{0};
  std::vector<LinkSlot> link_slots_;
  /// RouterId-indexed runs (offset[id] .. offset[id + 1]) into one arena:
  /// access chains (empty for routers no host hangs off) and interfaces.
  std::vector<std::uint32_t> chain_offset_;
  std::vector<RouterId> chain_arena_;
  std::vector<std::uint32_t> iface_offset_;
  std::vector<net::IPv4Address> iface_arena_;
  /// Set by compile(); generation is over and the object is immutable.
  bool frozen_ = false;
};

}  // namespace rr::topo

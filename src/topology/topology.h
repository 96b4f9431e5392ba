// The generated Internet: ASes, routers, hosts, links, vantage points,
// cloud providers, and the address plan tying them together.
//
// Topology is immutable after generation. Routing (src/routing) computes
// paths over it per epoch; the simulator (src/sim) adds per-device
// behaviour on top.
//
// Each address fact is held once, in a flat form the per-packet queries
// read with no per-call allocation. The address plan is contiguous,
// unique /24 blocks allocated upward from 16.0.0.0, and every block's
// assigned addresses are a gap-free run from .1, so the block table holds
// each block's AS and where its run starts in one owner arena:
// `as_of_address` is one load and `owner_of` two. Router interfaces and
// host alias sets are offset + arena runs the generator appends once;
// compile() lays the owner runs out from them, precomputes the per-epoch
// vantage-point lists and flattens the lookups path stitching makes per
// hop (`link_between`, `access_chain`, `router_as_ids`). See DESIGN.md §8.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netbase/prefix.h"
#include "topology/types.h"

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

  /// Every address a router owns, loopback first, then its other
  /// interfaces in allocation order: the ground-truth alias set that
  /// MIDAR-style resolution tries to rediscover, and what the stitcher
  /// picks per-hop interfaces from.
  [[nodiscard]] std::span<const net::IPv4Address> router_interfaces(
      RouterId id) const noexcept {
    return {iface_arena_.data() + iface_offset_[id],
            iface_arena_.data() + iface_offset_[id + 1]};
  }

  /// The addresses a host owns besides `address`; empty for most hosts.
  /// CPE boxes are often multi-addressed, and such a device may stamp one
  /// of these instead of `address` (the alias false negative of §3.3).
  [[nodiscard]] std::span<const net::IPv4Address> host_aliases(
      HostId id) const noexcept {
    const auto run = alias_run(id);
    return run.empty() ? run : run.subspan(1);
  }

  // ------------------------------------------------------ address services
  /// AS owning an address: the AS its /24 block of the plan was allocated
  /// to, advertised or infrastructure (this is what AS-path extraction
  /// from RR or traceroute data uses); nullopt outside the plan. One
  /// bounds check, one load: an address below the plan wraps to a block
  /// number past any plan that fits in the address space.
  [[nodiscard]] std::optional<AsId> as_of_address(
      net::IPv4Address addr) const noexcept {
    const std::uint32_t block = (addr.value() - kFirstBlock) >> 8;
    if (block >= blocks_.size()) return std::nullopt;
    return blocks_[block].as;
  }

  /// Device-level owner (exact match), for the simulator and for alias
  /// ground truth. Nullopt for addresses that were never assigned. The
  /// address's block says where the block's owner run starts, and the
  /// run holds .1, .2, ... in order, so the owner is one load past it.
  [[nodiscard]] std::optional<AddressOwner> owner_of(
      net::IPv4Address addr) const noexcept {
    const std::uint32_t block = (addr.value() - kFirstBlock) >> 8;
    const std::uint32_t host = addr.value() & 0xffu;
    if (block >= blocks_.size() || host == 0) return std::nullopt;
    const std::uint32_t at = blocks_[block].owners + host - 1;
    if (at >= owner_run_end(block)) return std::nullopt;
    const std::uint32_t packed = owner_arena_[at];
    return AddressOwner{(packed & kHostBit) ? AddressOwner::Kind::kHost
                                            : AddressOwner::Kind::kRouter,
                        packed & ~kHostBit};
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

  // ------------------------------------------------------------ statistics
  [[nodiscard]] std::string summary() const;

  /// Bytes the topology holds: its entity tables (with each AS's lists),
  /// the block table and owner runs, and the flat runs and tables
  /// compile() lays out. Site names fit their strings' inline buffers.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  friend class Generator;

  static std::uint64_t pair_key(AsId a, AsId b) noexcept {
    const AsId lo = a < b ? a : b;
    const AsId hi = a < b ? b : a;
    return (std::uint64_t{lo} << 32) | hi;
  }

  /// The first address of the plan, 16.0.0.0; block b of the plan covers
  /// kFirstBlock + 256 * b through kFirstBlock + 256 * b + 255.
  static constexpr std::uint32_t kFirstBlock = 0x1000'0000u;

  /// An owner_arena_ entry is the owner's id, with this bit set for a host.
  static constexpr std::uint32_t kHostBit = 0x8000'0000u;

  /// Allocates the plan's next /24 block to `as` (generator only).
  net::Prefix alloc_block(AsId as) {
    assert_mutable();
    const net::Prefix block{
        net::IPv4Address{kFirstBlock +
                         (static_cast<std::uint32_t>(blocks_.size()) << 8)},
        24};
    blocks_.push_back({as, 0});
    return block;
  }

  /// One past the last owner_arena_ entry of a block's run.
  [[nodiscard]] std::uint32_t owner_run_end(
      std::uint32_t block) const noexcept {
    return block + 1 < blocks_.size()
               ? blocks_[block + 1].owners
               : static_cast<std::uint32_t>(owner_arena_.size());
  }

  /// A host's [address, aliases...] run; empty for a host with no aliases.
  [[nodiscard]] std::span<const net::IPv4Address> alias_run(
      HostId id) const noexcept {
    return {alias_arena_.data() + alias_offset_[id],
            alias_arena_.data() + alias_offset_[id + 1]};
  }

  /// Freezes the generated world: trims the tables the generator
  /// appended to, lays out the owner runs, caches the per-epoch VP lists,
  /// flattens the stitch-path lookups (link pairs, access chains, router
  /// AS ids) in index order and releases the generation-time maps. Called
  /// once at the end of generation; the compiled queries are valid only
  /// afterwards (the generator hands out no topology before it). Sets
  /// `frozen_`: debug builds assert no generator mutation path runs
  /// afterwards.
  void compile();

  /// Lays out owner_arena_ and each block's run start from the interface
  /// and alias runs. Throws std::logic_error unless every block's
  /// assigned addresses are exactly .1 through .n, each owned once.
  void compile_owner_runs();

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

  /// A /24 block of the address plan: its AS, and where its owner run
  /// (the owners of .1, .2, ...) starts in owner_arena_; the run ends
  /// where the next block's starts.
  struct Block {
    AsId as;
    std::uint32_t owners;
  };
  /// The plan's blocks, by block number, and their packed owner runs.
  std::vector<Block> blocks_;
  std::vector<std::uint32_t> owner_arena_;
  /// RouterId-indexed interface runs (offset[id] .. offset[id + 1]) and
  /// HostId-indexed alias runs, each laid out once by the generator. The
  /// alias offsets start with the first host's, 0.
  std::vector<std::uint32_t> iface_offset_;
  std::vector<net::IPv4Address> iface_arena_;
  std::vector<std::uint32_t> alias_offset_{0};
  std::vector<net::IPv4Address> alias_arena_;
  // Generation-time indexes: the generator deduplicates links and chains
  // through them; compile() flattens them and releases both.
  std::unordered_map<std::uint64_t, LinkId> link_by_pair_;
  std::unordered_map<RouterId, std::vector<RouterId>> access_chain_;

  // ---------------------------------------------- compiled (see compile())
  std::vector<const VantagePoint*> vps_2011_;
  std::vector<const VantagePoint*> vps_2016_;
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
  /// RouterId-indexed access-chain runs (empty for routers no host hangs
  /// off), laid out like the interface runs.
  std::vector<std::uint32_t> chain_offset_;
  std::vector<RouterId> chain_arena_;
  /// Set by compile(); generation is over and the object is immutable.
  bool frozen_ = false;
};

}  // namespace rr::topo

#include "topology/topology.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/rng.h"
#include "util/strings.h"

namespace rr::topo {

const char* to_string(AsType type) noexcept {
  switch (type) {
    case AsType::kTransitAccess: return "Transit/Access";
    case AsType::kEnterprise: return "Enterprise";
    case AsType::kContent: return "Content";
    case AsType::kUnknown: return "Unknown";
  }
  return "?";
}

const char* to_string(Platform platform) noexcept {
  switch (platform) {
    case Platform::kPlanetLab: return "PlanetLab";
    case Platform::kMLab: return "M-Lab";
    case Platform::kProbeHost: return "ProbeHost";
    case Platform::kCloud: return "Cloud";
  }
  return "?";
}

void Topology::compile() {
  assert_mutable();
  // The generator appended these one entry at a time; drop the growth
  // slack.
  blocks_.shrink_to_fit();
  routers_.shrink_to_fit();
  hosts_.shrink_to_fit();
  alias_offset_.shrink_to_fit();
  alias_arena_.shrink_to_fit();
  compile_owner_runs();

  vps_2011_.clear();
  vps_2016_.clear();
  for (const auto& vp : vantage_points_) {
    if (vp.exists_in_2011) vps_2011_.push_back(&vp);
    if (vp.exists_in_2016) vps_2016_.push_back(&vp);
  }

  // Stitch-path lookups: RouterId-indexed runs laid out in index order,
  // then the generation-time maps are released (swapped with empties, so
  // their buckets go too).
  const std::size_t n_routers = routers_.size();
  router_as_.resize(n_routers);
  chain_offset_.assign(n_routers + 1, 0);
  for (std::size_t r = 0; r < n_routers; ++r) {
    router_as_[r] = routers_[r].as_id;
    const auto chain = access_chain_.find(static_cast<RouterId>(r));
    chain_offset_[r + 1] = chain_offset_[r] +
        (chain == access_chain_.end()
             ? 0
             : static_cast<std::uint32_t>(chain->second.size()));
  }
  chain_arena_.resize(chain_offset_[n_routers]);
  for (const auto& [access, chain] : access_chain_) {
    std::copy(chain.begin(), chain.end(),
              chain_arena_.begin() + chain_offset_[access]);
  }
  std::unordered_map<RouterId, std::vector<RouterId>>{}.swap(access_chain_);
  compile_link_table();
  std::unordered_map<std::uint64_t, LinkId>{}.swap(link_by_pair_);

  frozen_ = true;
}

void Topology::compile_owner_runs() {
  // Every assigned address with its packed owner: router interfaces, then
  // each host's address and aliases.
  const auto for_each_owned = [&](const auto& visit) {
    for (RouterId r = 0; r < routers_.size(); ++r) {
      for (const net::IPv4Address addr : router_interfaces(r)) visit(addr, r);
    }
    for (HostId h = 0; h < hosts_.size(); ++h) {
      const auto run = alias_run(h);
      if (run.empty()) visit(hosts_[h].address, h | kHostBit);
      for (const net::IPv4Address addr : run) visit(addr, h | kHostBit);
    }
  };
  const auto fail = [](net::IPv4Address addr) {
    throw std::logic_error(
        "Topology: " + addr.to_string() +
        " breaks the address plan; each /24 block's addresses must be one "
        "gap-free run from .1, each owned once");
  };
  const auto block_of = [&](net::IPv4Address addr) {
    const std::uint32_t block = (addr.value() - kFirstBlock) >> 8;
    if (block >= blocks_.size() || (addr.value() & 0xffu) == 0) fail(addr);
    return block;
  };

  // Count each block's addresses into its run start, then turn the counts
  // into offsets.
  for (Block& block : blocks_) block.owners = 0;
  for_each_owned([&](net::IPv4Address addr, std::uint32_t) {
    ++blocks_[block_of(addr)].owners;
  });
  std::uint32_t offset = 0;
  for (Block& block : blocks_) {
    const std::uint32_t count = block.owners;
    block.owners = offset;
    offset += count;
  }
  // A block with n addresses has n slots, so n addresses that each land
  // on a distinct slot in .1 .. .n leave no gap.
  constexpr std::uint32_t kUnowned = ~std::uint32_t{0};
  owner_arena_.assign(offset, kUnowned);
  for_each_owned([&](net::IPv4Address addr, std::uint32_t packed) {
    const std::uint32_t block = block_of(addr);
    const std::uint32_t at =
        blocks_[block].owners + (addr.value() & 0xffu) - 1;
    if (at >= owner_run_end(block) || owner_arena_[at] != kUnowned) {
      fail(addr);
    }
    owner_arena_[at] = packed;
  });
}

void Topology::compile_link_table() {
  std::size_t slots = 16;
  while (slots < 2 * links_.size()) slots *= 2;
  link_slots_.assign(slots, LinkSlot{kEmptyPair, kNoLink});
  const std::size_t mask = slots - 1;
  for (LinkId id = 0; id < links_.size(); ++id) {
    const std::uint64_t key = pair_key(links_[id].a, links_[id].b);
    std::size_t at = util::mix64(key) & mask;
    while (link_slots_[at].key != kEmptyPair) at = (at + 1) & mask;
    link_slots_[at] = LinkSlot{key, id};
  }
}

std::span<const net::IPv4Address> Topology::aliases_of(
    net::IPv4Address addr) const noexcept {
  const auto owner = owner_of(addr);
  if (!owner) return {};
  if (owner->kind == AddressOwner::Kind::kRouter) {
    return router_interfaces(owner->id);
  }
  const auto run = alias_run(owner->id);
  return run.empty() ? std::span{&hosts_[owner->id].address, 1} : run;
}

std::optional<LinkId> Topology::link_between(AsId a, AsId b) const noexcept {
  const std::uint64_t key = pair_key(a, b);
  const std::size_t mask = link_slots_.size() - 1;
  for (std::size_t at = util::mix64(key) & mask;; at = (at + 1) & mask) {
    const LinkSlot& slot = link_slots_[at];
    if (slot.key == key) return slot.link;
    if (slot.key == kEmptyPair) return std::nullopt;
  }
}

std::optional<HostId> Topology::host_by_address(
    net::IPv4Address addr) const noexcept {
  const auto owner = owner_of(addr);
  if (!owner || owner->kind != AddressOwner::Kind::kHost) return std::nullopt;
  return owner->id;
}

std::size_t Topology::memory_bytes() const noexcept {
  const auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(v.front());
  };
  std::size_t total =
      bytes(ases_) + bytes(routers_) + bytes(hosts_) + bytes(links_) +
      bytes(vantage_points_) + bytes(clouds_) + bytes(destinations_) +
      bytes(blocks_) + bytes(owner_arena_) + bytes(iface_offset_) +
      bytes(iface_arena_) + bytes(alias_offset_) + bytes(alias_arena_) +
      bytes(vps_2011_) + bytes(vps_2016_) + bytes(router_as_) +
      bytes(link_slots_) + bytes(chain_offset_) + bytes(chain_arena_);
  for (const auto& as : ases_) {
    total += bytes(as.links) + bytes(as.routers) + bytes(as.core) +
             bytes(as.hosts);
  }
  return total;
}

std::string Topology::summary() const {
  std::size_t peering = 0;
  std::size_t links2011 = 0;
  for (const auto& link : links_) {
    if (link.kind == LinkKind::kPeerPeer) ++peering;
    if (link.exists_in_2011) ++links2011;
  }
  std::string out;
  out += "ASes: " + util::with_commas(ases_.size());
  out += ", routers: " + util::with_commas(routers_.size());
  out += ", hosts: " + util::with_commas(hosts_.size());
  out += ", destination prefixes: " + util::with_commas(destinations_.size());
  out += ", links: " + util::with_commas(links_.size());
  out += " (" + util::with_commas(peering) + " peering, ";
  out += util::with_commas(links2011) + " present in 2011)";
  out += ", VPs: " + util::with_commas(vantage_points_.size());
  return out;
}

}  // namespace rr::topo

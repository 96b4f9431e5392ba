#include "topology/topology.h"

#include <algorithm>

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
  block_as_.shrink_to_fit();

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
      bytes(block_as_) + address_index_.memory_bytes() +
      bytes(iface_offset_) + bytes(iface_arena_) + bytes(alias_offset_) +
      bytes(alias_arena_) + bytes(vps_2011_) + bytes(vps_2016_) +
      bytes(router_as_) + bytes(link_slots_) + bytes(chain_offset_) +
      bytes(chain_arena_);
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

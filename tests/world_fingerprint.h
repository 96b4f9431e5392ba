// One FNV-1a digest over every observable structure of a generated world,
// for the golden pins in topology_property_test.cpp (test scale) and
// topology_scale_pins_test.cpp (default scale).
#pragma once

#include <cstdint>
#include <string>

#include "topology/topology.h"

namespace rr::topo::golden {

/// FNV-1a over the eight little-endian bytes of `value`.
inline std::uint64_t fnv(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (i * 8)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

inline std::uint64_t fnv_str(std::uint64_t hash, const std::string& s) {
  hash = fnv(hash, s.size());
  for (const char c : s) hash = fnv(hash, static_cast<std::uint8_t>(c));
  return hash;
}

/// Folds `owner_of(addr)` into `hash`: 0 for a miss, else kind + 1, then
/// the owner's id (kNoRouter for a miss).
inline std::uint64_t fnv_owner(std::uint64_t hash, const Topology& topo,
                               net::IPv4Address addr) {
  const auto owner = topo.owner_of(addr);
  hash = fnv(hash, owner ? static_cast<std::uint64_t>(owner->kind) + 1 : 0);
  return fnv(hash, owner ? owner->id : kNoRouter);
}

/// Hashes every observable structure of a generated world, including the
/// flat address services: the owner and address-to-AS answers for every
/// interface, host address and alias, the interface and alias runs, the
/// access chains and the per-epoch VP lists.
inline std::uint64_t world_fingerprint(const Topology& topo) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& as : topo.ases()) {
    h = fnv(h, as.asn);
    h = fnv(h, static_cast<std::uint64_t>(as.type));
    h = fnv(h, static_cast<std::uint64_t>(as.tier));
    h = fnv(h, as.depth);
    h = fnv(h, (std::uint64_t{as.colo_presence} << 1) | as.cloud);
    h = fnv(h, as.internal_hops);
    for (const LinkId link : as.links) h = fnv(h, link);
    for (const RouterId r : as.routers) h = fnv(h, r);
    for (const RouterId r : as.core) h = fnv(h, r);
    for (const HostId host : as.hosts) h = fnv(h, host);
  }
  for (RouterId r = 0; r < topo.routers().size(); ++r) {
    const Router& router = topo.router_at(r);
    h = fnv(h, router.as_id);
    h = fnv(h, router.loopback.value());
    h = fnv(h, router.is_border);
    for (const auto addr : topo.router_interfaces(r)) {
      h = fnv(h, addr.value());
      h = fnv_owner(h, topo, addr);
    }
    for (const auto addr : topo.aliases_of(router.loopback)) {
      h = fnv(h, addr.value());
    }
  }
  for (HostId id = 0; id < topo.hosts().size(); ++id) {
    const Host& host = topo.host_at(id);
    h = fnv(h, host.as_id);
    h = fnv(h, host.access_router);
    h = fnv(h, host.address.value());
    h = fnv_owner(h, topo, host.address);
    for (const auto addr : topo.host_aliases(id)) {
      h = fnv(h, addr.value());
      h = fnv_owner(h, topo, addr);
    }
    for (const auto addr : topo.aliases_of(host.address)) {
      h = fnv(h, addr.value());
    }
    const auto as = topo.as_of_address(host.address);
    h = fnv(h, as ? std::uint64_t{*as} + 1 : 0);
    for (const RouterId r : topo.access_chain(host.access_router)) {
      h = fnv(h, r);
    }
  }
  for (const auto& link : topo.links()) {
    h = fnv(h, link.a);
    h = fnv(h, link.b);
    h = fnv(h, static_cast<std::uint64_t>(link.kind));
    h = fnv(h, link.exists_in_2011);
    h = fnv(h, link.router_a);
    h = fnv(h, link.router_b);
    h = fnv(h, link.addr_a.value());
    h = fnv(h, link.addr_b.value());
  }
  for (const auto& vp : topo.vantage_points()) {
    h = fnv(h, vp.host);
    h = fnv(h, static_cast<std::uint64_t>(vp.platform));
    h = fnv_str(h, vp.site);
    h = fnv(h, (std::uint64_t{vp.exists_in_2011} << 1) | vp.exists_in_2016);
  }
  for (const Epoch epoch : {Epoch::k2011, Epoch::k2016}) {
    for (const auto* vp : topo.vantage_points_in(epoch)) {
      h = fnv(h, vp->host);
    }
  }
  for (const auto& cloud : topo.clouds()) {
    h = fnv_str(h, cloud.name);
    h = fnv(h, cloud.as_id);
    h = fnv(h, cloud.probe_host);
  }
  for (const HostId dest : topo.destinations()) h = fnv(h, dest);
  h = fnv(h, topo.probe_host());
  return h;
}

}  // namespace rr::topo::golden

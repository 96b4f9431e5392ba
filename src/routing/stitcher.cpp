#include "routing/stitcher.h"

#include <algorithm>

#include "util/rng.h"

namespace rr::route {

namespace {

std::uint64_t pair_mix(std::uint64_t a, std::uint64_t b) noexcept {
  return util::mix64((a << 32) ^ b ^ 0x5bd1e995);
}

/// Storage for AS paths the oracle cannot alias: every path that is not
/// source-origin, which includes every reply path, and every path to a
/// simple stub (RoutingOracle::path_view). One per thread, reused
/// across stitches, so concurrent callers never share it and the stitcher
/// keeps no per-instance state.
std::vector<topo::AsId>& thread_path_storage() {
  thread_local std::vector<topo::AsId> storage;
  return storage;
}

/// Appends a hop whose addresses derive_addresses() fills in later.
void push_router(std::vector<PathHop>& out, RouterId router) {
  out.emplace_back().router = router;  // RROPT_HOT_OK: recycled capacity
}

}  // namespace

void PathStitcher::append_intra(topo::AsId as, RouterId from, RouterId to,
                                std::vector<PathHop>& out) const {
  if (from == to) return;
  const topo::AsInfo& info = topology_->as_at(as);
  if (info.core.empty() || info.internal_hops == 0) return;

  // Deterministically select up to `internal_hops` core routers (excluding
  // the endpoints) to model the backbone crossing.
  const std::uint64_t salt = pair_mix(from, to);
  int wanted = info.internal_hops;
  const std::size_t n = info.core.size();
  std::size_t index = static_cast<std::size_t>(salt % n);
  for (std::size_t attempts = 0; attempts < n && wanted > 0; ++attempts) {
    const RouterId candidate = info.core[index];
    index = (index + 1) % n;
    if (candidate == from || candidate == to) continue;
    push_router(out, candidate);
    --wanted;
  }
}

bool PathStitcher::assemble(std::optional<HostId> src_host,
                            std::optional<RouterId> src_router,
                            std::optional<HostId> dst_host,
                            std::optional<RouterId> dst_router,
                            std::vector<PathHop>& out) {
  // RROPT_HOT_BEGIN(stitcher-assemble): every path a send does not reuse
  // is stitched here, into the caller's recycled vector; rropt_lint bans
  // unwaived allocation here and in the helpers this calls.
  out.clear();
  const topo::AsId dst_as =
      dst_host ? topology_->host_at(*dst_host).as_id
               : topology_->router_at(*dst_router).as_id;

  topo::AsId src_as;
  RouterId entry;  // the router where "the rest of the path" begins
  if (src_host) {
    const topo::Host& src_info = topology_->host_at(*src_host);
    src_as = src_info.as_id;
    const auto chain = topology_->access_chain(src_info.access_router);
    // Host-side chain runs core -> ... -> access; the packet traverses it
    // in reverse.
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      push_router(out, *it);
    }
    entry = chain.empty() ? src_info.access_router : chain.front();
    if (chain.empty()) push_router(out, src_info.access_router);
  } else {
    src_as = topology_->router_at(*src_router).as_id;
    entry = *src_router;  // excluded from the sequence itself
  }

  // Span view: source-origin queries (every campaign forward path not
  // bound for a simple stub) alias the oracle's arena directly — no
  // per-assembly path copy.
  const std::span<const topo::AsId> as_path =
      oracle_->path_view(src_as, dst_as, thread_path_storage());
  if (as_path.empty()) return false;

  for (std::size_t i = 0; i + 1 < as_path.size(); ++i) {
    const auto link_id = topology_->link_between(as_path[i], as_path[i + 1]);
    if (!link_id) return false;  // BGP and link tables must agree
    const topo::AsLink& link = topology_->link_at(*link_id);
    if (!link.exists_in(oracle_->epoch())) return false;
    const bool a_side = link.a == as_path[i];
    const RouterId egress_border = a_side ? link.router_a : link.router_b;
    const RouterId ingress_border = a_side ? link.router_b : link.router_a;
    append_intra(as_path[i], entry, egress_border, out);
    push_router(out, egress_border);
    push_router(out, ingress_border);
    entry = ingress_border;
  }

  // Destination side: cross the final AS, then either descend the host's
  // access chain or stop at the target router.
  if (dst_host) {
    const topo::Host& dst_info = topology_->host_at(*dst_host);
    const auto dst_chain = topology_->access_chain(dst_info.access_router);
    const RouterId dst_top =
        dst_chain.empty() ? dst_info.access_router : dst_chain.front();
    append_intra(dst_as, entry, dst_top, out);
    if (dst_chain.empty()) {
      push_router(out, dst_info.access_router);
    } else {
      for (const RouterId router : dst_chain) push_router(out, router);
    }
  } else {
    append_intra(dst_as, entry, *dst_router, out);
    push_router(out, *dst_router);
  }

  // Collapse consecutive duplicates introduced at seams (e.g. a stub AS
  // whose single core router is simultaneously border and access top).
  out.erase(std::unique(out.begin(), out.end(),
                        [](const PathHop& a, const PathHop& b) {
                          return a.router == b.router;
                        }),
            out.end());
  // A router-originated packet is not processed by its own originator
  // (it may be its own egress border).
  if (src_router && !out.empty() && out.front().router == *src_router) {
    out.erase(out.begin());
  }
  // RROPT_HOT_END(stitcher-assemble)
  return true;
}

net::IPv4Address PathStitcher::pick_interface(const topo::Topology& topology,
                                              RouterId router,
                                              std::uint64_t salt) {
  // The run starts with the loopback, the only pick a router without
  // other interfaces has.
  const auto interfaces = topology.router_interfaces(router);
  if (interfaces.size() <= 1) return interfaces.front();
  const std::size_t index =
      1 + static_cast<std::size_t>(pair_mix(router, salt) %
                                   (interfaces.size() - 1));
  return interfaces[index];
}

void PathStitcher::derive_addresses(std::uint64_t dst_salt,
                                    std::optional<HostId> src,
                                    std::vector<PathHop>& hops) const {
  // RROPT_HOT_BEGIN(stitcher-derive): fills addresses in place with flat
  // topology reads; nothing here may allocate.
  const std::uint64_t src_salt =
      src ? (kSrcHostSaltTag | *src) : 0x7000000000000000ULL;
  const std::span<const topo::AsId> router_as = topology_->router_as_ids();
  for (std::size_t i = 0; i < hops.size(); ++i) {
    PathHop& hop = hops[i];
    const topo::AsId as = router_as[hop.router];

    // Ingress: how upstream addresses this router.
    if (i == 0) {
      hop.ingress = pick_interface(hop.router, src_salt);
    } else {
      const RouterId prev = hops[i - 1].router;
      const topo::AsId prev_as = router_as[prev];
      if (prev_as != as) {
        const auto link_id = topology_->link_between(prev_as, as);
        const topo::AsLink& link = topology_->link_at(*link_id);
        hop.ingress = link.a == as ? link.addr_a : link.addr_b;
      } else {
        hop.ingress = pick_interface(hop.router, prev);
      }
    }

    // Egress: the outgoing interface (what RR records).
    if (i + 1 == hops.size()) {
      hop.egress = pick_interface(hop.router, kDstSaltTag | dst_salt);
    } else {
      const RouterId next = hops[i + 1].router;
      const topo::AsId next_as = router_as[next];
      if (next_as != as) {
        const auto link_id = topology_->link_between(as, next_as);
        const topo::AsLink& link = topology_->link_at(*link_id);
        hop.egress = link.a == as ? link.addr_a : link.addr_b;
      } else {
        hop.egress = pick_interface(hop.router, next);
      }
    }
  }
  // RROPT_HOT_END(stitcher-derive)
}

bool PathStitcher::host_path(HostId src, HostId dst,
                             std::vector<PathHop>& out) {
  if (!assemble(src, std::nullopt, dst, std::nullopt, out)) return false;
  derive_addresses(dst, src, out);
  return true;
}

bool PathStitcher::router_path(RouterId src, HostId dst,
                               std::vector<PathHop>& out) {
  if (!assemble(std::nullopt, src, dst, std::nullopt, out)) return false;
  derive_addresses(dst, std::nullopt, out);
  return true;
}

bool PathStitcher::host_to_router_path(HostId src, RouterId dst,
                                       std::vector<PathHop>& out) {
  if (!assemble(src, std::nullopt, std::nullopt, dst, out)) return false;
  derive_addresses(0xf100000000000000ULL | dst, src, out);
  return true;
}

}  // namespace rr::route

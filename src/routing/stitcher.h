// Router-level path stitching.
//
// The BGP layer answers "which ASes does this packet traverse?"; the
// stitcher expands that into the ordered list of routers, together with the
// two addresses that matter to the measurement tools:
//
//  * `ingress`: the interface upstream hops identify the router by — what a
//    traceroute from the packet's source sees;
//  * `egress`: the outgoing interface, which is what the router writes into
//    a Record Route slot (RFC 791). The RR/traceroute address mismatch the
//    literature documents falls out of this distinction.
//
// Forward and reverse paths are stitched independently against the per-
// direction route trees, so reply packets generally take a different router
// path than the probe did.
//
// A stitcher holds no per-call state and the oracle it wraps is immutable,
// so one instance may be shared by concurrent callers. Every entry point
// assembles the hops straight into the caller's vector, and AS paths the
// oracle cannot alias go through per-thread storage, so a caller that
// recycles its output vector stitches without allocating once both have
// seen the longest path. Campaign traffic reads most paths from a compiled
// table instead (routing/fib.h); the network stitches everything else per
// send.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "routing/oracle.h"
#include "topology/topology.h"

namespace rr::route {

using topo::HostId;
using topo::RouterId;

struct PathHop {
  RouterId router = topo::kNoRouter;
  net::IPv4Address ingress;
  net::IPv4Address egress;
};

class PathStitcher {
 public:
  PathStitcher(std::shared_ptr<const topo::Topology> topology,
               const RoutingOracle& oracle)
      : topology_(std::move(topology)), oracle_(&oracle) {}

  /// Stitches the router path from `src` to `dst` (hosts excluded) into
  /// `out`, replacing its contents. Returns false when BGP has no route;
  /// `out` is then unspecified. The same holds for the two entry points
  /// below.
  bool host_path(HostId src, HostId dst, std::vector<PathHop>& out);

  /// Path from a mid-network router toward a host (used for ICMP errors
  /// generated in transit). The originating router itself is excluded.
  bool router_path(RouterId src, HostId dst, std::vector<PathHop>& out);

  /// Path from a host to a router interface (used when probing router
  /// addresses directly, e.g. for alias resolution). The target router is
  /// the final element of `out`.
  bool host_to_router_path(HostId src, RouterId dst,
                           std::vector<PathHop>& out);

  /// Salt tags for the per-host endpoint interface picks inside
  /// derive_addresses(). Exposed (with pick_interface) so the compiled
  /// forwarding plane (routing/fib.h) can re-derive the one host-dependent
  /// address of a shared path spine bit-identically.
  static constexpr std::uint64_t kSrcHostSaltTag = 0x9000000000000000ULL;
  static constexpr std::uint64_t kDstSaltTag = 0xd000000000000000ULL;

  /// Deterministic non-loopback interface pick for a router, used for
  /// intra-AS adjacency and the path endpoints.
  [[nodiscard]] static net::IPv4Address pick_interface(
      const topo::Topology& topology, RouterId router, std::uint64_t salt);

  [[nodiscard]] const topo::Topology& topology() const noexcept {
    return *topology_;
  }

 private:
  /// Appends the routers strictly between `from` and `to` inside one AS
  /// (a deterministic selection of the AS's core routers).
  void append_intra(topo::AsId as, RouterId from, RouterId to,
                    std::vector<PathHop>& out) const;

  /// Replaces `out` with the path's hops, routers only; returns false if
  /// unroutable. Exactly one of src_host/src_router and one of
  /// dst_host/dst_router must be set.
  bool assemble(std::optional<HostId> src_host,
                std::optional<RouterId> src_router,
                std::optional<HostId> dst_host,
                std::optional<RouterId> dst_router,
                std::vector<PathHop>& out);

  /// Fills every hop's ingress/egress addresses in place. A hop's
  /// addresses depend only on its neighbours' routers, which this never
  /// writes, so filling in place equals deriving from a separate copy.
  void derive_addresses(std::uint64_t dst_salt, std::optional<HostId> src,
                        std::vector<PathHop>& hops) const;

  [[nodiscard]] net::IPv4Address pick_interface(RouterId router,
                                                std::uint64_t salt) const {
    return pick_interface(*topology_, router, salt);
  }

  std::shared_ptr<const topo::Topology> topology_;
  const RoutingOracle* oracle_;
};

}  // namespace rr::route

// Core entity types for the simulated Internet: autonomous systems,
// routers, hosts (probe-able destinations), inter-AS links, vantage points
// and cloud providers.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "netbase/address.h"

namespace rr::topo {

using AsId = std::uint32_t;      // dense index into Topology::ases()
using RouterId = std::uint32_t;  // dense index into Topology::routers()
using HostId = std::uint32_t;    // dense index into Topology::hosts()
using LinkId = std::uint32_t;    // dense index into Topology::links()

inline constexpr AsId kNoAs = std::numeric_limits<AsId>::max();
inline constexpr RouterId kNoRouter = std::numeric_limits<RouterId>::max();
inline constexpr HostId kNoHost = std::numeric_limits<HostId>::max();
inline constexpr LinkId kNoLink = std::numeric_limits<LinkId>::max();

/// CAIDA-style AS classification, the breakdown used by Table 1.
enum class AsType : std::uint8_t {
  kTransitAccess = 0,
  kEnterprise = 1,
  kContent = 2,
  kUnknown = 3,
};
inline constexpr int kNumAsTypes = 4;

[[nodiscard]] const char* to_string(AsType type) noexcept;

/// Position in the provider hierarchy. Tier-1s form a peering clique at the
/// top; larger depth = further from the core.
enum class AsTier : std::uint8_t {
  kTier1 = 0,
  kLargeTransit = 1,
  kRegionalTransit = 2,
  kStub = 3,
};

/// Measurement epochs compared by Figure 2.
enum class Epoch : std::uint8_t { k2011 = 0, k2016 = 1 };

/// Business relationship of an inter-AS link (Gao-Rexford model).
enum class LinkKind : std::uint8_t {
  kCustomerProvider = 0,  // `a` is the customer of `b`
  kPeerPeer = 1,
};

struct AsInfo {
  std::uint32_t asn = 0;  // display AS number
  AsType type = AsType::kUnknown;
  AsTier tier = AsTier::kStub;
  std::uint8_t depth = 0;       // hierarchy depth (tier1 == 1)
  bool colo_presence = false;   // well-peered colo/IXP presence (M-Lab-like)
  bool cloud = false;           // hyperscale cloud/content provider
  std::uint8_t internal_hops = 1;  // typical extra router hops across the AS

  std::vector<LinkId> links;        // all incident inter-AS links
  std::vector<RouterId> routers;    // all routers owned by this AS
  std::vector<RouterId> core;       // backbone routers used for transit
  std::vector<HostId> hosts;        // destination hosts in this AS
};

struct AsLink {
  AsId a = kNoAs;
  AsId b = kNoAs;
  LinkKind kind = LinkKind::kCustomerProvider;
  bool exists_in_2011 = true;   // peering links may be 2016-only
  RouterId router_a = kNoRouter;
  RouterId router_b = kNoRouter;
  net::IPv4Address addr_a;      // router_a's interface on this link
  net::IPv4Address addr_b;      // router_b's interface on this link

  [[nodiscard]] AsId other(AsId self) const noexcept {
    return self == a ? b : a;
  }
  [[nodiscard]] bool exists_in(Epoch epoch) const noexcept {
    return epoch == Epoch::k2016 || exists_in_2011;
  }
};

/// A router. Its interfaces, loopback first, are
/// Topology::router_interfaces(id).
struct Router {
  AsId as_id = kNoAs;
  net::IPv4Address loopback;
  bool is_border = false;
};

/// A probe-able end host: one per advertised destination prefix (the /24
/// holding `address`), plus the hosts that vantage points run on. Any
/// extra addresses the device owns are Topology::host_aliases(id).
struct Host {
  AsId as_id = kNoAs;
  RouterId access_router = kNoRouter;
  net::IPv4Address address;
};

/// Who owns an IP address: a router interface or an end-host device.
struct AddressOwner {
  enum class Kind : std::uint8_t { kRouter, kHost } kind = Kind::kRouter;
  std::uint32_t id = 0;  // RouterId or HostId
};

enum class Platform : std::uint8_t {
  kPlanetLab = 0,
  kMLab = 1,
  kProbeHost = 2,  // the single USC-like machine used for plain pings
  kCloud = 3,
};

[[nodiscard]] const char* to_string(Platform platform) noexcept;

struct VantagePoint {
  HostId host = kNoHost;
  Platform platform = Platform::kPlanetLab;
  std::string site;        // e.g. "mlab-nyc01"
  bool exists_in_2011 = false;
  bool exists_in_2016 = true;
};

struct CloudProvider {
  std::string name;        // e.g. "gce"
  AsId as_id = kNoAs;
  HostId probe_host = kNoHost;  // host inside the provider used to traceroute
};

}  // namespace rr::topo

// Per-AS, per-router and per-host behaviour models.
//
// Everything the study measures is an aggregate of these small policies:
// whether a host answers ping or ping-RR, whether an AS filters IP-options
// packets at its edge, whether routers stamp RR slots, hide from TTL, stay
// anonymous to traceroute, or rate-limit the options slow path.
//
// Default probabilities are calibrated against the paper's own findings
// (Table 1 ratios, the Fonseca et al. edge-filtering result, §3.5's stamp
// audit, §4.1's source-proximate limiters); see DESIGN.md for the
// derivation.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "topology/topology.h"
#include "util/rng.h"

namespace rr::sim {

struct BehaviorParams {
  std::uint64_t seed = 0xbeefcafe;

  // ------------------------------------------------------------- host ping
  /// P(host answers plain ping), by AS type (Table 1 by-IP, corrected for
  /// the dark-AS share below).
  std::array<double, topo::kNumAsTypes> host_ping_responsive{0.78, 0.89,
                                                             0.85, 0.71};
  /// P(an AS is entirely dark — nothing in it answers), by type.
  std::array<double, topo::kNumAsTypes> as_dark{0.02, 0.05, 0.01, 0.12};

  // ----------------------------------------------------- host RR handling
  /// Among hosts that answer ping, how the host itself treats a ping-RR.
  /// P(drop): silently ignores echo requests carrying options.
  std::array<double, topo::kNumAsTypes> host_drops_rr{0.08, 0.10, 0.08, 0.01};
  /// P(strip): replies but without copying the option (counts as
  /// non-RR-responsive under the paper's definition).
  std::array<double, topo::kNumAsTypes> host_strips_rr{0.04, 0.05, 0.04, 0.01};
  /// P(a copying host never records its own address) — §3.3's second
  /// false-negative case, recovered by ping-RRudp.
  double host_no_self_stamp = 0.045;
  /// P(a multi-addressed destination stamps an alias instead of the probed
  /// address) — §3.3's first case, recovered by alias resolution.
  double host_stamps_alias = 0.60;
  /// P(host answers UDP to a closed port with ICMP port-unreachable).
  double host_responds_udp = 0.85;

  // ------------------------------------------------------- AS option policy
  /// P(AS drops IP-options packets at its edge) when it is the source or
  /// destination AS of the packet, by type. Dominant failure mode (the
  /// 91%-at-edges result).
  std::array<double, topo::kNumAsTypes> as_filters_edge{0.13, 0.20, 0.12,
                                                        0.16};
  /// P(AS drops options packets even in transit). Rare.
  double as_filters_transit = 0.004;
  /// AS-wide stamping policy: almost everyone stamps; a tiny number never
  /// do; some have a mix of stamping and non-stamping routers (§3.5: 2 and
  /// 143 of 7,185 ASes respectively).
  double as_never_stamps = 0.0004;
  double as_sometimes_stamps = 0.02;
  /// Within a "sometimes" AS, P(an individual router does not stamp).
  double router_no_stamp_in_mixed_as = 0.5;

  // ---------------------------------------------------------- router quirks
  double router_hidden = 0.01;      // forwards without decrementing TTL
  double router_anonymous = 0.025;  // sends no TTL-exceeded
  double router_responds_ping = 0.90;

  // ----------------------------------------------------------- rate limits
  /// P(router polices its options slow path at all); most limits are far
  /// above study probing rates.
  double router_rate_limited = 0.05;
  double generous_limit_pps_min = 250;
  double generous_limit_pps_max = 4000;
  /// A few vantage points sit behind strict source-proximate limiters
  /// (Figure 4 shows ~8 of 79 losing >25% at 100pps).
  int strict_limited_vps = 8;
  double strict_limit_pps_min = 12;
  double strict_limit_pps_max = 45;

  // ------------------------------------------------------------------ loss
  double base_loss = 0.0012;        // any packet, any hop segment
  double options_extra_loss = 0.0018;  // extra per-hop risk on the slow path

  // ------------------------------------------------------------- ip-id gen
  double ipid_velocity_min = 2.0;    // background counter speed, ids/sec
  double ipid_velocity_max = 1500.0;
};

/// How a host treats an echo request that carries IP options.
enum class RrHandling : std::uint8_t { kCopy = 0, kStrip = 1, kDrop = 2 };

/// AS-wide stamping policy (§3.5).
enum class StampPolicy : std::uint8_t { kAlways = 0, kSometimes = 1,
                                        kNever = 2 };

struct HostBehavior {
  bool ping_responsive = true;
  RrHandling rr_handling = RrHandling::kCopy;
  bool stamps_self = true;
  bool responds_udp = true;
  /// Address the device writes into RR slots (normally the probed address;
  /// an alias for some multi-addressed devices).
  net::IPv4Address stamp_address;
};

struct RouterBehavior {
  bool stamps = true;
  bool hidden = false;
  bool anonymous = false;
  bool responds_ping = true;
  /// 0 disables the limiter.
  float options_rate_pps = 0.0f;
  float options_burst = 0.0f;
};

struct AsBehavior {
  bool filters_edge = false;
  bool filters_transit = false;
  bool dark = false;
  StampPolicy stamping = StampPolicy::kAlways;
};

/// Folds a router's behaviour (AS policy already applied) into the 5-bit
/// personality key that selects its dataplane run list — the HopRow flags
/// byte (sim/element.h). Pipeline compilation calls this once per router
/// at freeze; the walk never consults behaviour structs again.
[[nodiscard]] std::uint8_t personality_flags(const RouterBehavior& rb,
                                             const AsBehavior& ab) noexcept;

/// Immutable behaviour assignment for a topology.
class Behaviors {
 public:
  Behaviors(std::shared_ptr<const topo::Topology> topology,
            const BehaviorParams& params);

  [[nodiscard]] const BehaviorParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] const HostBehavior& host(topo::HostId id) const noexcept {
    return hosts_[id];
  }
  [[nodiscard]] const RouterBehavior& router(
      topo::RouterId id) const noexcept {
    return routers_[id];
  }
  [[nodiscard]] const AsBehavior& as_behavior(topo::AsId id) const noexcept {
    return ases_[id];
  }

  /// Background IP-ID velocity of a device (ids per second).
  [[nodiscard]] double router_ipid_velocity(topo::RouterId id) const noexcept {
    return router_ipid_velocity_[id];
  }
  [[nodiscard]] double host_ipid_velocity(topo::HostId id) const noexcept {
    return host_ipid_velocity_[id];
  }

  /// Vantage points that were assigned strict source-proximate limiters
  /// (useful for tests and for Figure 4's expectations).
  [[nodiscard]] const std::vector<std::size_t>& strict_limited_vp_indices()
      const noexcept {
    return strict_vps_;
  }

  [[nodiscard]] const topo::Topology& topology() const noexcept {
    return *topology_;
  }

 private:
  std::shared_ptr<const topo::Topology> topology_;
  BehaviorParams params_;
  std::vector<HostBehavior> hosts_;
  std::vector<RouterBehavior> routers_;
  std::vector<AsBehavior> ases_;
  std::vector<double> router_ipid_velocity_;
  std::vector<double> host_ipid_velocity_;
  std::vector<std::size_t> strict_vps_;
};

}  // namespace rr::sim

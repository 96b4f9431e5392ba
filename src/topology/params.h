// Generation parameters for the simulated Internet.
//
// Defaults are calibrated so that a `paper_scale()` topology reproduces the
// *shape* of the IMC'17 study: AS-type mix and prefix counts follow Table 1
// (at one-tenth the census size), hierarchy depth and peering densities are
// set so that closest-VP RR distances land near the paper's Figure 1/2
// distributions, and the 2011 epoch strips most peering links to recreate
// the pre-flattening Internet.
#pragma once

#include <array>
#include <cstdint>

#include "topology/types.h"

namespace rr::topo {

struct TopologyParams {
  std::uint64_t seed = 20160924;  // RouteViews snapshot date in the paper

  /// Has no effect: generation is one serial pass. It stays only because
  /// the census benchmark sets it, until the next benchmark change retires
  /// it.
  int threads = 0;

  // ------------------------------------------------------------------ scale
  int num_ases = 5200;

  /// Fraction of ASes per type, following Table 1's by-AS breakdown
  /// (transit/access 38.3%, enterprise 48.0%, content 4.3%, unknown 9.4%).
  std::array<double, kNumAsTypes> type_fraction{0.383, 0.480, 0.043, 0.094};

  /// Mean advertised prefixes per AS of each type (Table 1 by-IP / by-AS:
  /// 19.6, 2.5, 19.7, 3.3). Drawn from a geometric-like distribution.
  std::array<double, kNumAsTypes> prefixes_per_as{19.6, 2.5, 19.7, 3.3};

  /// Hard cap so one AS cannot dominate a small topology.
  int max_prefixes_per_as = 400;

  // -------------------------------------------------------------- hierarchy
  int num_tier1 = 12;
  /// Fraction of transit/access ASes that are large (depth-2) transits.
  double large_transit_fraction = 0.08;
  /// Providers per non-tier1 AS: 1 + geometric(extra_provider_prob).
  double extra_provider_prob = 0.35;
  int max_providers = 3;

  // ---------------------------------------------------------------- peering
  /// Mean peer links per AS, by tier, for each epoch. Flattening means the
  /// 2016 values are much larger (Labovitz/Chiu-style evolution).
  double peers_large_transit_2016 = 6.0;
  double peers_large_transit_2011 = 0.8;
  double peers_regional_2016 = 3.0;
  double peers_regional_2011 = 0.1;
  double peers_content_2016 = 8.0;
  double peers_content_2011 = 0.2;
  /// Cloud providers peer with this fraction of transit ASes in 2016
  /// (per provider: GCE-like hyper-peered first, then EC2/Softlayer).
  std::array<double, 3> cloud_peer_fraction_2016{0.85, 0.40, 0.45};
  double cloud_peer_fraction_2011 = 0.01;
  /// Colo-present ASes get extra peers in 2016 (IXP effect).
  double colo_extra_peers_2016 = 8.0;

  /// Fraction of regional transit ASes with a colo/IXP presence.
  double colo_fraction = 0.06;

  /// A handful of colos are giant interconnection hubs (NYC/LA-style):
  /// they peer with most of the regional fabric by 2016. The best M-Lab
  /// sites live here, which is what makes one site cover 73% of the
  /// RR-reachable set in the paper's greedy analysis.
  int mega_colo_count = 6;
  double mega_colo_regional_peer_fraction_2016 = 0.75;
  double mega_colo_regional_peer_fraction_2011 = 0.02;

  /// PlanetLab-hosting campuses uplink through R&E fabrics that meet the
  /// colos, so one of their providers is drawn from the colo pool.
  double plab_colo_provider_prob = 0.9;

  // ---------------------------------------------------------------- routers
  /// Core routers per AS by tier (tier1, large transit, regional, stub).
  std::array<int, 4> core_routers{4, 3, 2, 1};
  /// internal_hops: extra router hops to cross an AS, by tier. Actual value
  /// per AS is drawn in [min, max].
  std::array<int, 4> internal_hops_min{3, 2, 0, 0};
  std::array<int, 4> internal_hops_max{4, 3, 1, 1};
  /// Extra hops from a destination's /24 access router into the AS core
  /// (last-mile depth): drawn in [0, last_mile_extra_max].
  int last_mile_extra_max = 3;

  /// Interface addresses allocated per core router beyond the loopback.
  int core_interfaces = 2;

  /// Fraction of destination devices that own extra (alias) addresses.
  double host_alias_fraction = 0.05;
  int max_host_aliases = 3;

  // ------------------------------------------------------------------- VPs
  int planetlab_sites_2016 = 55;
  int mlab_sites_2016 = 86;
  int planetlab_sites_2011 = 294;
  int mlab_sites_2011 = 14;
  /// Sites available in both years (paper: 34 PlanetLab + 11 M-Lab).
  int planetlab_common_sites = 34;
  int mlab_common_sites = 11;

  int num_cloud_providers = 3;

  /// Builds the default paper-scale parameter set (one-tenth census).
  [[nodiscard]] static TopologyParams paper_scale() { return {}; }

  /// Full-census scale: ~510k destination prefixes, matching the paper's
  /// survey size (Table 1 reports 511,119 prefixes). The AS count stays at
  /// 20k — a quarter of the real table — with per-AS prefix means scaled
  /// up 2.65x so the destination census reaches paper size while the
  /// O(AS^2) BGP sweep stays tractable on one machine. VP counts are the
  /// paper's real 141 (55 PlanetLab + 86 M-Lab sites in 2016).
  [[nodiscard]] static TopologyParams census_scale() {
    TopologyParams p;
    p.num_ases = 20000;
    for (double& mean : p.prefixes_per_as) mean *= 2.65;
    return p;
  }

  /// A small topology for unit tests (hundreds of hosts, sub-second).
  [[nodiscard]] static TopologyParams test_scale() {
    TopologyParams p;
    p.num_ases = 120;
    p.num_tier1 = 4;
    p.planetlab_sites_2016 = 6;
    p.mlab_sites_2016 = 8;
    p.planetlab_sites_2011 = 10;
    p.mlab_sites_2011 = 3;
    p.planetlab_common_sites = 4;
    p.mlab_common_sites = 2;
    p.max_prefixes_per_as = 40;
    return p;
  }
};

}  // namespace rr::topo

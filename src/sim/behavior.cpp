#include "sim/behavior.h"

#include <algorithm>

#include "sim/element.h"

namespace rr::sim {

Behaviors::Behaviors(std::shared_ptr<const topo::Topology> topology,
                     const BehaviorParams& params)
    : topology_(std::move(topology)), params_(params) {
  util::Rng rng{params_.seed};
  util::Rng as_rng = rng.fork("as");
  util::Rng router_rng = rng.fork("router");
  util::Rng host_rng = rng.fork("host");
  util::Rng ipid_rng = rng.fork("ipid");

  // ----------------------------------------------------------------- ASes
  const auto& ases = topology_->ases();
  ases_.resize(ases.size());
  for (std::size_t i = 0; i < ases.size(); ++i) {
    const auto type = static_cast<std::size_t>(ases[i].type);
    AsBehavior& b = ases_[i];
    const bool is_transit_role =
        ases[i].tier != topo::AsTier::kStub || ases[i].cloud;
    // Edge filtering applies to the AS's own hosts/probes; transit-role
    // networks are less trigger-happy than enterprise edges.
    b.filters_edge = as_rng.chance(params_.as_filters_edge[type] *
                                   (is_transit_role ? 0.5 : 1.0));
    b.filters_transit = as_rng.chance(params_.as_filters_transit);
    b.dark = as_rng.chance(params_.as_dark[type]);
    const double stamp_roll = as_rng.next_double();
    if (stamp_roll < params_.as_never_stamps) {
      b.stamping = StampPolicy::kNever;
    } else if (stamp_roll <
               params_.as_never_stamps + params_.as_sometimes_stamps) {
      b.stamping = StampPolicy::kSometimes;
    } else {
      b.stamping = StampPolicy::kAlways;
    }
  }

  // -------------------------------------------------------------- routers
  const auto& routers = topology_->routers();
  routers_.resize(routers.size());
  router_ipid_velocity_.resize(routers.size());
  for (std::size_t i = 0; i < routers.size(); ++i) {
    RouterBehavior& b = routers_[i];
    const AsBehavior& as_b = ases_[routers[i].as_id];
    switch (as_b.stamping) {
      case StampPolicy::kAlways: b.stamps = true; break;
      case StampPolicy::kNever: b.stamps = false; break;
      case StampPolicy::kSometimes:
        b.stamps = !router_rng.chance(params_.router_no_stamp_in_mixed_as);
        break;
    }
    b.hidden = router_rng.chance(params_.router_hidden);
    b.anonymous = router_rng.chance(params_.router_anonymous);
    b.responds_ping = router_rng.chance(params_.router_responds_ping);
    if (router_rng.chance(params_.router_rate_limited)) {
      b.options_rate_pps = static_cast<float>(
          router_rng.next_in(static_cast<std::int64_t>(
                                 params_.generous_limit_pps_min),
                             static_cast<std::int64_t>(
                                 params_.generous_limit_pps_max)));
      b.options_burst = std::max(5.0f, b.options_rate_pps / 10.0f);
    }
    router_ipid_velocity_[i] =
        params_.ipid_velocity_min +
        ipid_rng.next_double() *
            (params_.ipid_velocity_max - params_.ipid_velocity_min);
  }

  // ---------------------------------------------------------------- hosts
  const auto& hosts = topology_->hosts();
  hosts_.resize(hosts.size());
  host_ipid_velocity_.resize(hosts.size());
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    HostBehavior& b = hosts_[i];
    const topo::Host& host = hosts[i];
    const auto type =
        static_cast<std::size_t>(topology_->as_at(host.as_id).type);
    const AsBehavior& as_b = ases_[host.as_id];
    b.ping_responsive =
        !as_b.dark && host_rng.chance(params_.host_ping_responsive[type]);
    const double rr_roll = host_rng.next_double();
    if (rr_roll < params_.host_drops_rr[type]) {
      b.rr_handling = RrHandling::kDrop;
    } else if (rr_roll <
               params_.host_drops_rr[type] + params_.host_strips_rr[type]) {
      b.rr_handling = RrHandling::kStrip;
    } else {
      b.rr_handling = RrHandling::kCopy;
    }
    b.stamps_self = !host_rng.chance(params_.host_no_self_stamp);
    b.responds_udp = host_rng.chance(params_.host_responds_udp);
    b.stamp_address = host.address;
    const auto aliases = topology_->host_aliases(static_cast<topo::HostId>(i));
    if (!aliases.empty() && host_rng.chance(params_.host_stamps_alias)) {
      b.stamp_address = aliases[host_rng.next_below(aliases.size())];
    }
    host_ipid_velocity_[i] =
        params_.ipid_velocity_min +
        ipid_rng.next_double() *
            (params_.ipid_velocity_max - params_.ipid_velocity_min);
  }

  // ------------------------------------- strict source-proximate limiters
  // Pick a handful of vantage points and clamp the options rate of every
  // router on their access chain.
  const auto vps = topology_->vantage_points();
  std::vector<std::size_t> candidates;
  std::size_t active_2016 = 0;
  for (std::size_t i = 0; i < vps.size(); ++i) {
    // Only 2016-active VPs matter for the rate study.
    if (!vps[i].exists_in_2016) continue;
    candidates.push_back(i);
    ++active_2016;
  }
  util::Rng strict_rng = rng.fork("strict");
  strict_rng.shuffle(candidates);
  // The paper saw ~8 of 141 VPs behind strict limiters (~6%); scale the
  // absolute parameter down for small worlds so the fraction holds.
  const std::size_t fraction_cap =
      std::max<std::size_t>(1, (active_2016 * 6 + 99) / 100);
  const std::size_t want = std::min(
      {static_cast<std::size_t>(std::max(params_.strict_limited_vps, 0)),
       fraction_cap, candidates.size()});
  for (std::size_t i = 0; i < want; ++i) {
    const std::size_t vp_index = candidates[i];
    const topo::Host& host = topology_->host_at(vps[vp_index].host);
    const auto chain = topology_->access_chain(host.access_router);
    const float pps = static_cast<float>(strict_rng.next_in(
        static_cast<std::int64_t>(params_.strict_limit_pps_min),
        static_cast<std::int64_t>(params_.strict_limit_pps_max)));
    for (topo::RouterId router : chain) {
      routers_[router].options_rate_pps = pps;
      routers_[router].options_burst = std::max(4.0f, pps / 4.0f);
    }
    strict_vps_.push_back(vp_index);
  }
}

std::uint8_t personality_flags(const RouterBehavior& rb,
                               const AsBehavior& ab) noexcept {
  std::uint8_t flags = 0;
  if (rb.hidden) flags |= HopRow::kHidden;
  if (rb.stamps) flags |= HopRow::kStamps;
  if (rb.options_rate_pps > 0.0f) flags |= HopRow::kRateLimited;
  if (ab.filters_transit) flags |= HopRow::kFiltersTransit;
  if (ab.filters_edge) flags |= HopRow::kFiltersEdge;
  return flags;
}

}  // namespace rr::sim

#include "measure/cloud.h"

#include <algorithm>

#include "util/log.h"
#include "util/rng.h"

namespace rr::measure {

namespace {

/// TTL budget of every traceroute the study sends.
constexpr int kTracerouteMaxTtl = 40;

/// Hop count outside the provider AS: the paper counts path length from
/// the first hop past the provider's edge (the probe is assumed to tunnel
/// to the edge for free).
int external_hop_count(const probe::TracerouteResult& trace,
                       const topo::Topology& topology, topo::AsId cloud_as) {
  if (!trace.reached) return -1;
  int internal = 0;
  for (const auto& hop : trace.hops) {
    if (!hop.responded) break;  // conservatively stop discounting at a gap
    if (hop.kind != probe::ResponseKind::kTtlExceeded) break;
    const auto as = topology.as_of_address(hop.address);
    if (!as || *as != cloud_as) break;
    ++internal;
  }
  return static_cast<int>(trace.hops.size()) - internal;
}

}  // namespace

CloudStudyResult cloud_study(Testbed& testbed, const Campaign& campaign,
                             const CloudStudyConfig& config) {
  CloudStudyResult result;
  const auto& topology = campaign.topology();
  util::Rng rng{config.seed};

  // Destination samples, classified by the M-Lab campaign.
  std::vector<std::size_t> reachable, responsive_only;
  for (std::size_t d = 0; d < campaign.num_destinations(); ++d) {
    if (campaign.rr_reachable(d)) {
      reachable.push_back(d);
    } else if (campaign.rr_responsive(d)) {
      responsive_only.push_back(d);
    }
  }
  rng.shuffle(reachable);
  rng.shuffle(responsive_only);
  if (reachable.size() > config.max_reachable_dests) {
    reachable.resize(config.max_reachable_dests);
  }
  if (responsive_only.size() > config.max_responsive_dests) {
    responsive_only.resize(config.max_responsive_dests);
  }

  // ---------------------------------------------- M-Lab calibration CDF
  // Traceroute each RR-reachable destination from the M-Lab VP closest to
  // it (by RR distance).
  {
    std::vector<std::size_t> mlab_vps;
    for (std::size_t v = 0; v < campaign.num_vps(); ++v) {
      if (campaign.vps()[v]->platform == topo::Platform::kMLab) {
        mlab_vps.push_back(v);
      }
    }
    std::vector<double> samples;
    for (std::size_t d : reachable) {
      std::size_t best_vp = campaign.num_vps();
      int best = 0;
      for (std::size_t v : mlab_vps) {
        const auto& obs = campaign.at(v, d);
        if (!obs.rr_reachable()) continue;
        if (best == 0 || obs.dest_slot < best) {
          best = obs.dest_slot;
          best_vp = v;
        }
      }
      if (best_vp == campaign.num_vps()) continue;
      auto prober = testbed.make_prober(campaign.vps()[best_vp]->host,
                                        config.pps);
      const auto target =
          topology.host_at(campaign.destinations()[d]).address;
      const auto trace = prober.traceroute(target, kTracerouteMaxTtl);
      if (trace.reached) {
        samples.push_back(static_cast<double>(trace.hops.size()));
      }
    }
    result.mlab_to_reachable = analysis::Cdf{std::move(samples)};
  }

  // ------------------------------------------------- per-provider CDFs
  for (const auto& cloud : topology.clouds()) {
    CloudStudyResult::ProviderData data;
    data.name = cloud.name;
    auto prober = testbed.make_prober(cloud.probe_host, config.pps);

    auto run_set = [&](const std::vector<std::size_t>& dests) {
      std::vector<double> samples;
      for (std::size_t d : dests) {
        const auto target =
            topology.host_at(campaign.destinations()[d]).address;
        const auto trace = prober.traceroute(target, kTracerouteMaxTtl);
        const int hops = external_hop_count(trace, topology, cloud.as_id);
        if (hops > 0) samples.push_back(static_cast<double>(hops));
      }
      return analysis::Cdf{std::move(samples)};
    };

    data.to_reachable = run_set(reachable);
    data.to_responsive = run_set(responsive_only);
    result.providers.push_back(std::move(data));
  }

  util::log_info() << "cloud study: " << result.providers.size()
                   << " providers, " << reachable.size() << " reachable + "
                   << responsive_only.size() << " responsive-only dests";
  return result;
}

}  // namespace rr::measure

#include "measure/reclassify.h"

#include <algorithm>

#include "util/log.h"
#include "util/rng.h"

namespace rr::measure {

std::vector<std::size_t> reclassification_candidates(
    const Campaign& campaign) {
  std::vector<std::size_t> out;
  for (std::size_t d = 0; d < campaign.num_destinations(); ++d) {
    if (campaign.rr_responsive(d) && !campaign.rr_reachable(d)) {
      out.push_back(d);
    }
  }
  return out;
}

std::vector<net::IPv4Address> midar_candidate_addresses(
    const Campaign& campaign) {
  std::vector<net::IPv4Address> out;
  for (std::size_t d = 0; d < campaign.num_destinations(); ++d) {
    if (!campaign.rr_responsive(d)) continue;
    out.push_back(
        campaign.topology().host_at(campaign.destinations()[d]).address);
    const auto& recorded = campaign.recorded_union(d);
    out.insert(out.end(), recorded.begin(), recorded.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

ReclassifyResult reclassify(Testbed& testbed, const Campaign& campaign,
                            const AliasSets& aliases,
                            const ReclassifyConfig& config) {
  ReclassifyResult result;
  const auto candidates = reclassification_candidates(campaign);

  // ---------------------------------------------------------- alias test
  std::vector<std::uint8_t> recovered(campaign.num_destinations(), 0);
  for (std::size_t d : candidates) {
    const auto addr =
        campaign.topology().host_at(campaign.destinations()[d]).address;
    if (aliases.aliased_to_any(addr, campaign.recorded_union(d))) {
      recovered[d] = 1;
      result.via_alias.push_back(d);
    }
  }

  // -------------------------------------------------- quoted-packet test
  // For each remaining candidate, issue ping-RRudp from a few VPs that the
  // destination is known to answer; a port-unreachable whose quoted header
  // still has free RR slots proves in-range arrival.
  util::Rng rng{config.seed};
  for (std::size_t d : candidates) {
    if (recovered[d]) continue;
    const auto target =
        campaign.topology().host_at(campaign.destinations()[d]).address;

    // VPs that saw an option-copied reply from this destination.
    std::vector<std::size_t> responsive_vps;
    for (std::size_t v = 0; v < campaign.num_vps(); ++v) {
      if (campaign.at(v, d).rr_responsive()) responsive_vps.push_back(v);
    }
    rng.shuffle(responsive_vps);
    // VPs tried per destination for the UDP probe (closest first would
    // need a distance we do not have; responsive-first is the paper's
    // position), with up to kUdpAttempts probes each.
    constexpr std::size_t kUdpVpsPerDest = 3;
    constexpr int kUdpAttempts = 2;
    const std::size_t tries =
        std::min(responsive_vps.size(), kUdpVpsPerDest);

    bool proven = false;
    for (std::size_t t = 0; t < tries && !proven; ++t) {
      auto prober = testbed.make_prober(
          campaign.vps()[responsive_vps[t]]->host, config.pps);
      for (int attempt = 0; attempt < kUdpAttempts && !proven; ++attempt) {
        ++result.udp_probes_sent;
        const auto r = prober.probe(probe::ProbeSpec::ping_rr_udp(target));
        if (r.kind != probe::ResponseKind::kPortUnreachable) continue;
        ++result.udp_responses;
        if (r.quoted_rr_present && r.quoted_rr_free_slots > 0) {
          proven = true;
        }
      }
    }
    if (proven) {
      recovered[d] = 1;
      result.via_quoted.push_back(d);
    }
  }

  util::log_info() << "reclassify: " << candidates.size() << " candidates, "
                   << result.via_alias.size() << " via alias, "
                   << result.via_quoted.size() << " via quoted RR";
  return result;
}

}  // namespace rr::measure

#include "measure/as_stamping.h"

#include <algorithm>

#include "util/log.h"
#include "util/rng.h"

namespace rr::measure {

std::size_t AsStampingResult::always() const {
  std::size_t count = 0;
  for (const auto& [as, tally] : per_as) {
    if (tally.seen_in_both == tally.seen_in_traceroute) ++count;
  }
  return count;
}

std::size_t AsStampingResult::sometimes() const {
  std::size_t count = 0;
  for (const auto& [as, tally] : per_as) {
    if (tally.seen_in_both > 0 &&
        tally.seen_in_both < tally.seen_in_traceroute) {
      ++count;
    }
  }
  return count;
}

std::size_t AsStampingResult::never() const {
  std::size_t count = 0;
  for (const auto& [as, tally] : per_as) {
    if (tally.seen_in_both == 0) ++count;
  }
  return count;
}

AsStampingResult audit_as_stamping(Testbed& testbed, const Campaign& campaign,
                                   const AsStampingConfig& config) {
  AsStampingResult result;
  const auto& topology = campaign.topology();
  util::Rng rng{config.seed};

  for (std::size_t v = 0; v < campaign.num_vps(); ++v) {
    if (campaign.vps()[v]->platform != topo::Platform::kMLab) continue;

    // This VP's directly RR-reachable destinations.
    std::vector<std::size_t> reachable;
    for (std::size_t d = 0; d < campaign.num_destinations(); ++d) {
      if (campaign.at(v, d).rr_reachable()) reachable.push_back(d);
    }
    if (reachable.size() > config.max_dests_per_vp) {
      rng.shuffle(reachable);
      reachable.resize(config.max_dests_per_vp);
    }

    auto prober = testbed.make_prober(campaign.vps()[v]->host, config.pps);
    for (std::size_t d : reachable) {
      const auto target =
          topology.host_at(campaign.destinations()[d]).address;

      // Fresh ping-RR for the full recorded address list (the campaign
      // stores only compact observations).
      const auto rr = prober.probe(probe::ProbeSpec::ping_rr(target));
      if (rr.kind != probe::ResponseKind::kEchoReply ||
          !rr.rr_option_in_reply) {
        continue;
      }
      const auto dest_it =
          std::find(rr.rr_recorded.begin(), rr.rr_recorded.end(), target);
      if (dest_it == rr.rr_recorded.end()) continue;  // not reachable now

      // Forward RR AS set: addresses recorded before the destination's own
      // stamp, mapped to ASes with the public prefix->AS table.
      std::vector<topo::AsId> rr_ases;
      for (auto it = rr.rr_recorded.begin(); it != dest_it; ++it) {
        if (const auto as = topology.as_of_address(*it)) {
          rr_ases.push_back(*as);
        }
      }

      constexpr int kTracerouteMaxTtl = 32;
      const auto trace = prober.traceroute(target, kTracerouteMaxTtl);
      if (!trace.reached) continue;

      // AS set seen on the traceroute (exclude the source and destination
      // ASes: the source side is below the first stamping router and the
      // destination stamps as a host, not a router).
      const topo::AsId dst_as =
          topology.host_at(campaign.destinations()[d]).as_id;
      const topo::AsId src_as =
          topology.host_at(campaign.vps()[v]->host).as_id;
      std::vector<topo::AsId> trace_ases;
      for (const auto& hop : trace.hops) {
        if (!hop.responded ||
            hop.kind != probe::ResponseKind::kTtlExceeded) {
          continue;
        }
        if (const auto as = topology.as_of_address(hop.address)) {
          if (*as == dst_as || *as == src_as) continue;
          if (trace_ases.empty() || trace_ases.back() != *as) {
            trace_ases.push_back(*as);
          }
        }
      }
      if (trace_ases.empty()) continue;

      ++result.pairs_compared;
      for (topo::AsId as : trace_ases) {
        auto& tally = result.per_as[as];
        ++tally.seen_in_traceroute;
        if (std::find(rr_ases.begin(), rr_ases.end(), as) != rr_ases.end()) {
          ++tally.seen_in_both;
        }
      }
    }
  }

  util::log_info() << "as-stamping audit: " << result.pairs_compared
                   << " pairs, " << result.total_ases() << " ASes";
  return result;
}

}  // namespace rr::measure

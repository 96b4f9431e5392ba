// §3.6 cloud-provider study (Figure 3): would GCE/EC2/Softlayer make good
// RR vantage points?
//
// Clouds filter or strip outgoing IP options (the paper could not send
// ping-RR from any of them), so reachability is *estimated* from
// traceroute hop counts: traceroutes from a host inside each provider to
// destinations known (from the M-Lab campaign) to be RR-responsive or
// RR-reachable. Hops inside the provider's own AS are not counted — the
// paper assumes the packet can be tunnelled to the AS edge without
// consuming RR slots.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/cdf.h"
#include "measure/campaign.h"
#include "measure/testbed.h"

namespace rr::measure {

struct CloudStudyConfig {
  std::size_t max_reachable_dests = 20000;
  std::size_t max_responsive_dests = 20000;
  double pps = 100.0;
  std::uint64_t seed = 0xC10D;
};

struct CloudStudyResult {
  struct ProviderData {
    std::string name;
    /// Hop counts (from the first hop outside the provider AS) to
    /// destinations that are RR-reachable from M-Lab.
    analysis::Cdf to_reachable;
    /// Same, to RR-responsive-but-not-reachable destinations.
    analysis::Cdf to_responsive;

    [[nodiscard]] double fraction_responsive_within(int hops) const {
      return to_responsive.fraction_at_or_below(hops);
    }
  };

  /// Traceroute hop counts from the closest M-Lab VP to RR-reachable
  /// destinations (the calibration distribution).
  analysis::Cdf mlab_to_reachable;
  std::vector<ProviderData> providers;
};

[[nodiscard]] CloudStudyResult cloud_study(Testbed& testbed,
                                           const Campaign& campaign,
                                           const CloudStudyConfig& config = {});

}  // namespace rr::measure

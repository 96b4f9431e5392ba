#include "measure/ratelimit.h"

#include <algorithm>

#include "util/log.h"
#include "util/rng.h"

namespace rr::measure {

std::size_t RateLimitResult::severely_limited(double threshold) const {
  std::size_t count = 0;
  for (const auto& row : rows) {
    if (row.drop_fraction() > threshold) ++count;
  }
  return count;
}

RateLimitResult rate_limit_study(Testbed& testbed, const Campaign& campaign,
                                 const RateLimitConfig& config) {
  RateLimitResult result;
  util::Rng rng{config.seed};

  // Sample of previously RR-responsive destinations.
  auto responsive = campaign.rr_responsive_indices();
  rng.shuffle(responsive);
  if (responsive.size() > config.sample_size) {
    responsive.resize(config.sample_size);
  }
  result.probed_destinations = responsive.size();

  const std::size_t n_vps = campaign.num_vps();
  std::vector<std::uint64_t> counts_low(n_vps, 0), counts_high(n_vps, 0);

  // §4.1's two probing rates.
  constexpr double kLowPps = 10.0;
  constexpr double kHighPps = 100.0;
  for (const bool high_rate : {false, true}) {
    const double pps = high_rate ? kHighPps : kLowPps;
    auto& counts = high_rate ? counts_high : counts_low;

    testbed.network().reset();
    std::vector<probe::Prober> probers;
    std::vector<std::vector<std::uint32_t>> orders(n_vps);
    probers.reserve(n_vps);
    for (std::size_t v = 0; v < n_vps; ++v) {
      probers.push_back(testbed.make_prober(campaign.vps()[v]->host, pps));
      auto& order = orders[v];
      order.resize(responsive.size());
      for (std::size_t i = 0; i < responsive.size(); ++i) {
        order[i] = static_cast<std::uint32_t>(i);
      }
      rng.shuffle(order);  // §4.1: random order per VP
    }

    for (std::size_t k = 0; k < responsive.size(); ++k) {
      for (std::size_t v = 0; v < n_vps; ++v) {
        const std::size_t d = responsive[orders[v][k]];
        const auto target = campaign.topology()
                                .host_at(campaign.destinations()[d])
                                .address;
        const auto r = probers[v].probe(probe::ProbeSpec::ping_rr(target));
        if (r.kind == probe::ResponseKind::kEchoReply &&
            r.rr_option_in_reply) {
          ++counts[v];
        }
      }
    }
  }

  // Exclusion threshold: the paper dropped VPs with fewer than 1,000
  // responses to its 100k-destination sample, an absolute count; scaled
  // to the sample probed here, that is 1% of it.
  constexpr double kMinResponseFraction = 0.01;
  const auto threshold = static_cast<std::uint64_t>(
      kMinResponseFraction * static_cast<double>(responsive.size()));
  for (std::size_t v = 0; v < n_vps; ++v) {
    if (counts_low[v] < threshold && counts_high[v] < threshold) {
      ++result.excluded_vps;
      continue;
    }
    result.rows.push_back(
        RateLimitResult::VpRow{v, counts_low[v], counts_high[v]});
  }

  util::log_info() << "rate-limit study: " << result.rows.size()
                   << " VPs kept, " << result.excluded_vps << " excluded, "
                   << result.severely_limited() << " severely limited";
  return result;
}

}  // namespace rr::measure

// §4.1 rate-limiting study (Figure 4): probe a fixed sample of
// RR-responsive destinations from every VP at two rates and compare the
// per-VP response counts. VPs behind strict source-proximate limiters
// collapse at the higher rate; everyone else loses only a sliver.
#pragma once

#include <cstdint>
#include <vector>

#include "measure/campaign.h"
#include "measure/testbed.h"

namespace rr::measure {

struct RateLimitConfig {
  std::size_t sample_size = 100000;  // destinations drawn from RR-responsive
  std::uint64_t seed = 0x441;
};

struct RateLimitResult {
  struct VpRow {
    std::size_t vp_index = 0;
    std::uint64_t responses_low = 0;
    std::uint64_t responses_high = 0;

    [[nodiscard]] double drop_fraction() const noexcept {
      if (responses_low == 0) return 0.0;
      const double low = static_cast<double>(responses_low);
      const double high = static_cast<double>(responses_high);
      return low > high ? (low - high) / low : 0.0;
    }
  };
  std::vector<VpRow> rows;          // VPs above the exclusion threshold
  std::size_t excluded_vps = 0;     // below threshold at both rates
  std::size_t probed_destinations = 0;

  /// VPs losing more than `threshold` of their responses at the high rate.
  [[nodiscard]] std::size_t severely_limited(double threshold = 0.25) const;
};

[[nodiscard]] RateLimitResult rate_limit_study(
    Testbed& testbed, const Campaign& campaign,
    const RateLimitConfig& config = {});

}  // namespace rr::measure

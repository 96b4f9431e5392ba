// §3.5 "Do ASes Refuse to Stamp Packets?" — the coarse-grained audit that
// compares AS paths derived from traceroutes against the AS paths in the
// corresponding ping-RR responses.
//
// Restricting the comparison to RR-reachable destinations sidesteps the
// path-alignment problem: the full forward path fits in the RR header, so
// any AS on the traceroute that never shows up in RR is evidence of
// forward-without-stamping policy.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "measure/campaign.h"
#include "measure/testbed.h"

namespace rr::measure {

struct AsStampingConfig {
  std::size_t max_dests_per_vp = 10000;  // the paper's cap
  double pps = 50.0;
  std::uint64_t seed = 0x35a;
};

struct AsStampingResult {
  /// Per-AS tallies across all compared (traceroute, ping-RR) pairs.
  struct AsTally {
    std::uint64_t seen_in_traceroute = 0;
    std::uint64_t seen_in_both = 0;
  };
  std::unordered_map<topo::AsId, AsTally> per_as;
  std::uint64_t pairs_compared = 0;

  /// The paper's three buckets.
  [[nodiscard]] std::size_t always() const;     // in RR whenever traced
  [[nodiscard]] std::size_t sometimes() const;  // usually but not always
  [[nodiscard]] std::size_t never() const;      // traced, never in RR
  [[nodiscard]] std::size_t total_ases() const { return per_as.size(); }
};

/// Runs the audit from every M-Lab VP toward (a sample of) its
/// RR-reachable destinations.
[[nodiscard]] AsStampingResult audit_as_stamping(
    Testbed& testbed, const Campaign& campaign,
    const AsStampingConfig& config = {});

}  // namespace rr::measure

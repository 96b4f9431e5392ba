// §3.3 "Uncovering Additional Reachability": two tests that recover RR-
// reachable destinations the naive destination-IP-in-header check misses.
//
//  1. Alias test: the destination device stamped one of its *other*
//     addresses. MIDAR-discovered alias sets are intersected with the
//     addresses recorded in the destination's RR responses.
//  2. Quoted-packet test (ping-RRudp): a UDP probe to a closed high port
//     makes the destination quote the offending datagram — byte-for-byte
//     as it arrived — inside the ICMP port-unreachable. Free RR slots in
//     the quoted header prove the probe arrived with room to spare, even
//     though the destination never stamps.
#pragma once

#include <cstdint>
#include <vector>

#include "measure/campaign.h"
#include "measure/midar.h"
#include "measure/testbed.h"

namespace rr::measure {

struct ReclassifyConfig {
  double pps = 50.0;
  std::uint64_t seed = 0x3c3;
};

struct ReclassifyResult {
  /// Destination indices recovered by the alias test.
  std::vector<std::size_t> via_alias;
  /// Destination indices recovered by the quoted-packet test (exclusive of
  /// the alias recoveries, matching the paper's additive accounting).
  std::vector<std::size_t> via_quoted;
  std::uint64_t udp_probes_sent = 0;
  std::uint64_t udp_responses = 0;

  [[nodiscard]] std::size_t total() const noexcept {
    return via_alias.size() + via_quoted.size();
  }
};

/// Candidate set: RR-responsive destinations not directly RR-reachable.
[[nodiscard]] std::vector<std::size_t> reclassification_candidates(
    const Campaign& campaign);

/// Builds the MIDAR input for §3.3: every RR-responsive destination address
/// plus every address that appeared in an RR response header.
[[nodiscard]] std::vector<net::IPv4Address> midar_candidate_addresses(
    const Campaign& campaign);

/// Runs both reclassification tests.
[[nodiscard]] ReclassifyResult reclassify(Testbed& testbed,
                                          const Campaign& campaign,
                                          const AliasSets& aliases,
                                          const ReclassifyConfig& config = {});

}  // namespace rr::measure

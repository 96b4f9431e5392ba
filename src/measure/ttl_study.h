// §4.2 TTL-limiting study (Figure 5): what initial TTL lets a ping-RR
// reach in-range destinations while expiring before it pesters the rest of
// the path?
//
// Each VP probes an equal number of destinations it can reach within the
// RR limit ("near") and RR-responsive destinations it cannot ("far"), with
// initial TTLs drawn from {3..23} and the default 64. A destination counts
// as responsive at a TTL if the probe produced an Echo Reply; TTL-exceeded
// errors still deliver the quoted RR data but count as "expired", which is
// the desired outcome for the far set.
#pragma once

#include <cstdint>
#include <vector>

#include "measure/campaign.h"
#include "measure/stopset.h"
#include "measure/testbed.h"

namespace rr::measure {

struct TtlStudyConfig {
  std::size_t per_vp_per_class = 400;
  double pps = 20.0;
  std::uint64_t seed = 0x771;
  /// Redundancy-aware probing: seed a per-VP stop set (measure/stopset.h)
  /// with the expire/reach facts the census already established — a near
  /// destination stamped at RR slot s expires below TTL s and answers at
  /// or above it; a far one (nine slots full) expires through TTL 9 and
  /// answered the census's TTL-64 probe — and synthesize those outcomes
  /// instead of re-probing. The TTL *schedule* (shuffles, TTL draws) is
  /// identical either way; only the redundant sends are elided.
  bool use_stop_sets = true;
};

struct TtlStudyResult {
  struct Row {
    int ttl = 0;
    std::uint64_t near_sent = 0;
    std::uint64_t near_replied = 0;      // echo reply received
    std::uint64_t near_expired = 0;      // ttl-exceeded received
    std::uint64_t far_sent = 0;
    std::uint64_t far_replied = 0;
    std::uint64_t far_expired = 0;

    [[nodiscard]] double near_reply_rate() const noexcept {
      return near_sent ? static_cast<double>(near_replied) /
                             static_cast<double>(near_sent)
                       : 0.0;
    }
    [[nodiscard]] double far_reply_rate() const noexcept {
      return far_sent ? static_cast<double>(far_replied) /
                            static_cast<double>(far_sent)
                      : 0.0;
    }
  };
  std::vector<Row> rows;  // ordered by TTL

  /// Probing-cost accounting when stop sets are on (zeroed when off):
  /// probes_saved counts synthesized outcomes, probes_sent live sends.
  StopSetStats stats;

  [[nodiscard]] const Row* row_for(int ttl) const noexcept;
};

[[nodiscard]] TtlStudyResult ttl_study(Testbed& testbed,
                                       const Campaign& campaign,
                                       const TtlStudyConfig& config = {});

}  // namespace rr::measure

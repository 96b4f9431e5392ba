// Responsiveness classification — Table 1 and the §3.2 analyses.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "measure/campaign.h"

namespace rr::measure {

struct ResponseCounts {
  std::uint64_t probed = 0;
  std::uint64_t ping_responsive = 0;
  std::uint64_t rr_responsive = 0;

  [[nodiscard]] double ping_rate() const noexcept {
    return probed ? static_cast<double>(ping_responsive) /
                        static_cast<double>(probed)
                  : 0.0;
  }
  [[nodiscard]] double rr_rate() const noexcept {
    return probed ? static_cast<double>(rr_responsive) /
                        static_cast<double>(probed)
                  : 0.0;
  }
  /// The paper's headline ratio: RR-responsive / ping-responsive.
  [[nodiscard]] double rr_over_ping() const noexcept {
    return ping_responsive ? static_cast<double>(rr_responsive) /
                                 static_cast<double>(ping_responsive)
                           : 0.0;
  }
};

/// Table 1: by-IP and by-AS counts, total and per AS type.
struct ResponseTable {
  /// Index 0 = total, 1.. = AsType order (Transit/Access, Enterprise,
  /// Content, Unknown).
  std::array<ResponseCounts, 1 + topo::kNumAsTypes> by_ip;
  std::array<ResponseCounts, 1 + topo::kNumAsTypes> by_as;
};

/// The Table 1 fold, shared by a live campaign (build_response_table) and
/// a frozen dataset (data::CampaignDataset::response_table): add() counts
/// one probed destination by IP and folds it into its AS, and table()
/// counts each AS once, as ping- or RR-responsive if any of its
/// destinations was.
class ResponseTally {
 public:
  /// `as` is any id unique per AS (an AsId, or the ASN a dataset keeps).
  void add(std::uint32_t as, topo::AsType type, bool ping, bool rr);
  [[nodiscard]] ResponseTable table() const;

 private:
  struct AsAgg {
    topo::AsType type = topo::AsType::kUnknown;
    bool ping = false;
    bool rr = false;
  };
  ResponseTable table_;  // by_ip only; table() fills by_as
  std::unordered_map<std::uint32_t, AsAgg> per_as_;
};

[[nodiscard]] ResponseTable build_response_table(const Campaign& campaign);

/// §3.2: per RR-responsive destination, the number of VPs whose ping-RR it
/// answered with the option copied.
[[nodiscard]] std::vector<int> responding_vp_counts(const Campaign& campaign);

/// Fraction of RR-responsive destinations answering more than
/// `threshold` VPs (the paper reports ~80% answering > 90 of 141).
[[nodiscard]] double fraction_answering_more_than(const Campaign& campaign,
                                                  int threshold);

}  // namespace rr::measure

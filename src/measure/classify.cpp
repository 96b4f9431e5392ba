#include "measure/classify.h"

namespace rr::measure {

namespace {

/// Counts one row (probed, and ping/RR-responsive) into the total and its
/// AS type's row.
void add_row(std::array<ResponseCounts, 1 + topo::kNumAsTypes>& rows,
             topo::AsType type, bool ping, bool rr) {
  const std::size_t type_row = 1 + static_cast<std::size_t>(type);
  for (const std::size_t idx : {std::size_t{0}, type_row}) {
    ++rows[idx].probed;
    if (ping) ++rows[idx].ping_responsive;
    if (rr) ++rows[idx].rr_responsive;
  }
}

}  // namespace

void ResponseTally::add(std::uint32_t as, topo::AsType type, bool ping,
                        bool rr) {
  add_row(table_.by_ip, type, ping, rr);
  AsAgg& agg = per_as_[as];
  agg.type = type;
  agg.ping = agg.ping || ping;
  agg.rr = agg.rr || rr;
}

ResponseTable ResponseTally::table() const {
  ResponseTable table = table_;
  for (const auto& [as, agg] : per_as_) {
    add_row(table.by_as, agg.type, agg.ping, agg.rr);
  }
  return table;
}

ResponseTable build_response_table(const Campaign& campaign) {
  const auto& topology = campaign.topology();
  ResponseTally tally;
  for (std::size_t d = 0; d < campaign.num_destinations(); ++d) {
    const topo::AsId as = topology.host_at(campaign.destinations()[d]).as_id;
    tally.add(as, topology.as_at(as).type, campaign.ping_responsive(d),
              campaign.rr_responsive(d));
  }
  return tally.table();
}

std::vector<int> responding_vp_counts(const Campaign& campaign) {
  std::vector<int> counts;
  for (std::size_t d = 0; d < campaign.num_destinations(); ++d) {
    const int count = campaign.responding_vp_count(d);
    if (count > 0) counts.push_back(count);
  }
  return counts;
}

double fraction_answering_more_than(const Campaign& campaign, int threshold) {
  const auto counts = responding_vp_counts(campaign);
  if (counts.empty()) return 0.0;
  std::size_t above = 0;
  for (int count : counts) {
    if (count > threshold) ++above;
  }
  return static_cast<double>(above) / static_cast<double>(counts.size());
}

}  // namespace rr::measure

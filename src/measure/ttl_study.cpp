#include "measure/ttl_study.h"

#include <algorithm>
#include <map>
#include <memory>

#include "util/log.h"
#include "util/rng.h"

namespace rr::measure {

namespace {

/// The initial TTLs the study draws from: kTtlMin..kTtlMax and the
/// default TTL 64.
constexpr int kTtlMin = 3;
constexpr int kTtlMax = 23;
constexpr int kDefaultTtl = 64;

}  // namespace

const TtlStudyResult::Row* TtlStudyResult::row_for(int ttl) const noexcept {
  for (const auto& row : rows) {
    if (row.ttl == ttl) return &row;
  }
  return nullptr;
}

TtlStudyResult ttl_study(Testbed& testbed, const Campaign& campaign,
                         const TtlStudyConfig& config) {
  util::Rng rng{config.seed};
  TtlStudyResult result;
  std::map<int, TtlStudyResult::Row> rows;

  std::vector<int> ttl_values;
  for (int ttl = kTtlMin; ttl <= kTtlMax; ++ttl) ttl_values.push_back(ttl);
  ttl_values.push_back(kDefaultTtl);

  for (std::size_t v = 0; v < campaign.num_vps(); ++v) {
    // Near: directly RR-reachable from this VP. Far: RR-responsive to this
    // VP but out of RR range of it.
    std::vector<std::size_t> near, far;
    for (std::size_t d = 0; d < campaign.num_destinations(); ++d) {
      const RrObservation& obs = campaign.at(v, d);
      if (obs.rr_reachable()) {
        near.push_back(d);
      } else if (obs.rr_responsive()) {
        far.push_back(d);
      }
    }
    rng.shuffle(near);
    rng.shuffle(far);
    const std::size_t take = std::min(
        {near.size(), far.size(), config.per_vp_per_class});
    near.resize(take);
    far.resize(take);
    if (take == 0) continue;

    // Seed this VP's stop set with what the census proved about each
    // sampled destination. Near (stamped at slot s, s <= 9): a TTL-t
    // probe expires for t < s and reaches for t >= s. Far (nine slots
    // full, so more than nine hops out): expires through TTL 9, and the
    // census's default-TTL probe already drew its echo. Facts are exact
    // in a noiseless world; under loss/rate-limiting they reproduce the
    // modal outcome, trading fidelity of re-measured noise for not
    // re-sending probes whose answer is known (the Doubletree bargain).
    std::unique_ptr<StopSet> stops;
    if (config.use_stop_sets) {
      stops = std::make_unique<StopSet>(take * 64 + 1024);
      for (const bool is_far : {false, true}) {
        for (std::size_t d : is_far ? far : near) {
          const auto target = campaign.topology()
                                  .host_at(campaign.destinations()[d])
                                  .address;
          if (is_far) {
            for (int t = kTtlMin; t <= std::min(9, kTtlMax); ++t) {
              stops->insert(path_point_key(target, t));
            }
          } else {
            const int s = campaign.at(v, d).dest_slot;
            for (int t = kTtlMin; t <= kTtlMax; ++t) {
              stops->insert(t < s ? path_point_key(target, t)
                                  : reach_point_key(target, t));
            }
          }
          stops->insert(reach_point_key(target, kDefaultTtl));
        }
      }
    }

    auto prober = testbed.make_prober(campaign.vps()[v]->host, config.pps);
    for (const bool is_far : {false, true}) {
      const auto& set = is_far ? far : near;
      for (std::size_t d : set) {
        const int ttl =
            ttl_values[rng.next_below(ttl_values.size())];
        const auto target = campaign.topology()
                                .host_at(campaign.destinations()[d])
                                .address;
        auto& row = rows[ttl];
        row.ttl = ttl;
        auto& sent = is_far ? row.far_sent : row.near_sent;
        auto& replied = is_far ? row.far_replied : row.near_replied;
        auto& expired = is_far ? row.far_expired : row.near_expired;
        ++sent;
        if (stops != nullptr) {
          ++result.stats.checks;
          if (stops->contains(reach_point_key(target, ttl))) {
            ++result.stats.hits;
            ++result.stats.probes_saved;
            ++replied;
            continue;
          }
          ++result.stats.checks;
          if (stops->contains(path_point_key(target, ttl))) {
            ++result.stats.hits;
            ++result.stats.probes_saved;
            ++expired;
            continue;
          }
        }
        const auto r = prober.probe(probe::ProbeSpec::ping_rr(
            target, static_cast<std::uint8_t>(ttl)));
        ++result.stats.probes_sent;
        if (r.kind == probe::ResponseKind::kEchoReply) ++replied;
        if (r.kind == probe::ResponseKind::kTtlExceeded) ++expired;
      }
    }
  }

  for (auto& [ttl, row] : rows) result.rows.push_back(row);
  util::log_info() << "ttl study: " << result.rows.size() << " TTL buckets, "
                   << result.stats.probes_sent << " probes sent, "
                   << result.stats.probes_saved << " saved";
  return result;
}

}  // namespace rr::measure

// Regenerates Figure 5: response rate of RR-reachable vs non-RR-reachable
// destinations under TTL-limited ping-RR probes (§4.2). TTLs of 10-12
// should let most in-range probes complete while expiring most of the
// out-of-range ones.
#include <iostream>

#include "analysis/series.h"
#include "bench/common.h"
#include "measure/figures.h"
#include "measure/ttl_study.h"

using namespace rr;

int main() {
  bench::heading("Figure 5: response rate vs initial TTL (§4.2)");
  bench::Telemetry telemetry{"fig5"};
  measure::Testbed testbed =
      bench::build_world(telemetry, bench::bench_config());
  bench::record_world(telemetry, testbed);
  telemetry.phase("campaign");
  const auto campaign = measure::Campaign::run(testbed);
  telemetry.phase("analysis");
  telemetry.value("destinations", campaign.num_destinations());

  measure::TtlStudyConfig study_config;
  if (std::getenv("RROPT_QUICK")) study_config.per_vp_per_class = 100;
  if (std::getenv("RROPT_NO_STOPSET")) study_config.use_stop_sets = false;
  const auto result = measure::ttl_study(testbed, campaign, study_config);

  const auto figure = measure::figure5(result);
  figure.print(std::cout);
  figure.write_csv("fig5.csv");

  // Content hash over every row of the figure: one changed count anywhere
  // in the TTL study flips it, so the regression guard can pin the figure
  // exactly (the study is bit-reproducible at any thread count and with
  // stop sets on or off).
  std::uint64_t rows_hash = 1469598103934665603ULL;
  const auto fold = [&rows_hash](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      rows_hash ^= (v >> (b * 8)) & 0xff;
      rows_hash *= 1099511628211ULL;
    }
  };
  for (const auto& row : result.rows) {
    fold(static_cast<std::uint64_t>(row.ttl));
    fold(row.near_sent);
    fold(row.near_replied);
    fold(row.near_expired);
    fold(row.far_sent);
    fold(row.far_replied);
    fold(row.far_expired);
  }
  char rows_hash_hex[32];
  std::snprintf(rows_hash_hex, sizeof rows_hash_hex, "%016llx",
                static_cast<unsigned long long>(rows_hash));

  const auto& stats = result.stats;
  std::printf("\n  probing cost: %llu sent, %llu saved by stop sets "
              "(hit rate %.1f%%, reduction %.1f%%)\n",
              static_cast<unsigned long long>(stats.probes_sent),
              static_cast<unsigned long long>(stats.probes_saved),
              100.0 * stats.hit_rate(), 100.0 * stats.reduction());
  telemetry.value("probes_sent", stats.probes_sent);
  telemetry.value("probes_saved", stats.probes_saved);
  telemetry.value("stopset_hit_rate", stats.hit_rate());
  telemetry.value("stopset_reduction", stats.reduction());
  telemetry.value("fig5_rows_hash", std::string(rows_hash_hex));

  bench::heading("headline TTL trade-off (§4.2)");
  auto rate = [&](int ttl, bool far_set) {
    const auto* row = result.row_for(ttl);
    if (!row) return std::string("n/a");
    return util::percent(far_set ? row->far_reply_rate()
                                 : row->near_reply_rate());
  };
  bench::report("RR-reachable responding at TTL 7", "<50%", rate(7, false));
  bench::report("RR-reachable responding at TTL 10", "~70%", rate(10, false));
  bench::report("RR-unreachable responding at TTL 10", "~25%", rate(10, true));
  bench::report("RR-unreachable responding at TTL 13", ">50%", rate(13, true));
  bench::report("RR-reachable responding at TTL 64", "high", rate(64, false));
  return 0;
}

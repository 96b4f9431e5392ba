// Stop-set determinism: the redundancy-aware trace census promises a
// bit-identical probe schedule at any worker-thread count (round-frozen
// global set, deferred commits in canonical VP order), and the stop-set
// consumers downstream of the campaign (TTL study / Figure 5) promise
// identical outputs on identically rebuilt worlds. Tier 2 — every case
// builds fresh worlds per thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "measure/campaign.h"
#include "measure/testbed.h"
#include "measure/trace_census.h"
#include "measure/ttl_study.h"

namespace rr::measure {
namespace {

measure::TestbedConfig world_config() {
  measure::TestbedConfig config;
  config.topo_params = topo::TopologyParams::test_scale();
  config.topo_params.seed = 777;
  return config;
}

TraceCensusResult census_at(int threads, bool stop_sets = true) {
  measure::Testbed testbed{world_config()};
  TraceCensusConfig config;
  config.per_vp_dests = 48;
  config.threads = threads;
  config.use_stop_sets = stop_sets;
  return run_trace_census(testbed, config);
}

TEST(StopSetDeterminism, CensusScheduleIsIdenticalAtAnyThreadCount) {
  const auto t1 = census_at(1);
  for (const int threads : {2, 8}) {
    const auto tn = census_at(threads);
    // The schedule hash folds every trace's target, probe count, stop
    // TTLs, and full hop list per VP — bit-identical schedules or bust.
    EXPECT_EQ(tn.schedule_hash, t1.schedule_hash) << threads << " threads";
    EXPECT_EQ(tn.probes_sent, t1.probes_sent) << threads << " threads";
    EXPECT_EQ(tn.probes_saved, t1.probes_saved) << threads << " threads";
    EXPECT_EQ(tn.interface_hash, t1.interface_hash) << threads << " threads";
    EXPECT_EQ(tn.link_hash, t1.link_hash) << threads << " threads";
    EXPECT_EQ(tn.global_keys, t1.global_keys) << threads << " threads";
    EXPECT_EQ(tn.local_keys, t1.local_keys) << threads << " threads";
    EXPECT_EQ(tn.stopset_overflows, 0u) << threads << " threads";
  }
  // The stop sets actually did something on this world, or the property
  // above is vacuous.
  EXPECT_GT(t1.stats.hits, 0u);
  EXPECT_GT(t1.probes_saved, 0u);
  // Every set is sized for its census: a rejected fact would cost savings.
  EXPECT_EQ(t1.stopset_overflows, 0u);
}

TEST(StopSetDeterminism, QuickScaleCensusDoesNotOverflow) {
  // The repository's quick bench scale (RROPT_QUICK): 800 ASes, with the
  // colo share raised so the M-Lab VP pool stays satisfiable, and 128
  // destinations per VP, as bench_trace runs it.
  measure::TestbedConfig world;
  world.topo_params.num_ases = 800;
  world.topo_params.planetlab_sites_2011 = 60;
  world.topo_params.colo_fraction = std::min(0.30, 0.06 * 5200.0 / 800.0);
  measure::Testbed testbed{world};
  TraceCensusConfig config;
  config.per_vp_dests = 128;
  const auto census = run_trace_census(testbed, config);
  EXPECT_GT(census.local_keys, 0u);
  EXPECT_GT(census.global_keys, 0u);
  EXPECT_EQ(census.stopset_overflows, 0u);
}

TEST(StopSetDeterminism, BaselineCensusIsAlsoThreadInvariant) {
  const auto t1 = census_at(1, /*stop_sets=*/false);
  const auto t8 = census_at(8, /*stop_sets=*/false);
  EXPECT_EQ(t8.schedule_hash, t1.schedule_hash);
  EXPECT_EQ(t8.probes_sent, t1.probes_sent);
  EXPECT_EQ(t8.interface_hash, t1.interface_hash);
  EXPECT_EQ(t8.link_hash, t1.link_hash);
}

TEST(StopSetDeterminism, DatasetAndFigure5AreThreadInvariant) {
  // The full consumer chain: campaign at k threads -> dataset content
  // hash, then the stop-set-seeded TTL study -> Figure 5 rows. Identical
  // worlds, identical outputs, at every k.
  std::uint64_t ref_hash = 0;
  std::vector<TtlStudyResult::Row> ref_rows;
  StopSetStats ref_stats;
  for (const int threads : {1, 2, 8}) {
    measure::Testbed testbed{world_config()};
    CampaignConfig campaign_config;
    campaign_config.threads = threads;
    auto campaign = Campaign::run(testbed, campaign_config);

    TtlStudyConfig study_config;
    study_config.per_vp_per_class = 40;
    const auto study = ttl_study(testbed, campaign, study_config);

    const auto dataset = data::CampaignDataset::from_campaign(
        std::move(campaign), "determinism probe");
    if (threads == 1) {
      ref_hash = dataset.content_hash();
      ref_rows = study.rows;
      ref_stats = study.stats;
      EXPECT_GT(study.stats.probes_saved, 0u)
          << "stop sets must fire for the invariance to mean anything";
      continue;
    }
    EXPECT_EQ(dataset.content_hash(), ref_hash) << threads << " threads";
    ASSERT_EQ(study.rows.size(), ref_rows.size()) << threads << " threads";
    for (std::size_t i = 0; i < study.rows.size(); ++i) {
      const auto& a = study.rows[i];
      const auto& b = ref_rows[i];
      EXPECT_EQ(a.ttl, b.ttl);
      EXPECT_EQ(a.near_sent, b.near_sent);
      EXPECT_EQ(a.near_replied, b.near_replied);
      EXPECT_EQ(a.near_expired, b.near_expired);
      EXPECT_EQ(a.far_sent, b.far_sent);
      EXPECT_EQ(a.far_replied, b.far_replied);
      EXPECT_EQ(a.far_expired, b.far_expired);
    }
    EXPECT_EQ(study.stats.probes_sent, ref_stats.probes_sent);
    EXPECT_EQ(study.stats.probes_saved, ref_stats.probes_saved);
  }
}

}  // namespace
}  // namespace rr::measure

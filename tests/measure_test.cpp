// The measurement library end to end on a small world: campaign,
// classification, reachability, alias resolution, reclassification, the
// AS-stamping audit, rate limiting and the TTL study.
#include <gtest/gtest.h>

#include <algorithm>

#include "measure/as_stamping.h"
#include "measure/campaign.h"
#include "measure/classify.h"
#include "measure/cloud.h"
#include "measure/midar.h"
#include "measure/ratelimit.h"
#include "measure/reachability.h"
#include "measure/figures.h"
#include "measure/reclassify.h"
#include "measure/testbed.h"
#include "measure/ttl_study.h"
#include "sim/fault.h"

namespace rr::measure {
namespace {

class MeasureTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TestbedConfig config;
    config.topo_params = topo::TopologyParams::test_scale();
    config.topo_params.seed = 5;
    testbed_ = new Testbed{config};
    campaign_ = new Campaign{Campaign::run(*testbed_)};
  }
  static void TearDownTestSuite() {
    delete campaign_;
    delete testbed_;
    campaign_ = nullptr;
    testbed_ = nullptr;
  }

  static Testbed* testbed_;
  static Campaign* campaign_;
};

Testbed* MeasureTest::testbed_ = nullptr;
Campaign* MeasureTest::campaign_ = nullptr;

TEST_F(MeasureTest, CampaignCoversAllDestinations) {
  EXPECT_EQ(campaign_->num_destinations(),
            testbed_->topology().destinations().size());
  EXPECT_EQ(campaign_->num_vps(), testbed_->vps().size());
}

TEST_F(MeasureTest, ResponseRatesAreInPlausibleBands) {
  const auto table = build_response_table(*campaign_);
  const auto& total = table.by_ip[0];
  EXPECT_EQ(total.probed, campaign_->num_destinations());
  // Paper: 77% ping-responsive, 58% RR-responsive, ratio 75%. Small-world
  // bands are loose but must carry the same story.
  EXPECT_GT(total.ping_rate(), 0.60);
  EXPECT_LT(total.ping_rate(), 0.92);
  EXPECT_GT(total.rr_over_ping(), 0.55);
  EXPECT_LT(total.rr_over_ping(), 0.92);
  EXPECT_LT(total.rr_responsive, total.ping_responsive);
}

TEST_F(MeasureTest, ByAsCountsAreConsistent) {
  const auto table = build_response_table(*campaign_);
  // Sum of per-type rows equals the total row.
  std::uint64_t ip_sum = 0, as_sum = 0;
  for (int t = 1; t <= topo::kNumAsTypes; ++t) {
    ip_sum += table.by_ip[static_cast<std::size_t>(t)].probed;
    as_sum += table.by_as[static_cast<std::size_t>(t)].probed;
  }
  EXPECT_EQ(ip_sum, table.by_ip[0].probed);
  EXPECT_EQ(as_sum, table.by_as[0].probed);
  // AS-level rates exceed IP-level rates (one responsive host suffices).
  EXPECT_GE(table.by_as[0].ping_rate(), table.by_ip[0].ping_rate());
  EXPECT_GE(table.by_as[0].rr_rate(), table.by_ip[0].rr_rate());
}

TEST_F(MeasureTest, RrObservationInvariants) {
  for (std::size_t v = 0; v < campaign_->num_vps(); ++v) {
    for (std::size_t d = 0; d < campaign_->num_destinations(); ++d) {
      const auto& obs = campaign_->at(v, d);
      if (obs.rr_reachable()) {
        EXPECT_TRUE(obs.rr_responsive());
        EXPECT_LE(obs.dest_slot, obs.stamp_count);
        EXPECT_LE(obs.dest_slot, 9);
      }
      if (obs.flags & RrObservation::kOptionPresent) {
        EXPECT_LE(static_cast<int>(obs.stamp_count) + obs.free_slots, 9);
      }
    }
  }
}

TEST_F(MeasureTest, SomeDestinationsAreReachableWithinNineHops) {
  const auto reachable = campaign_->rr_reachable_indices();
  const auto responsive = campaign_->rr_responsive_indices();
  EXPECT_GT(reachable.size(), 0u);
  EXPECT_GT(responsive.size(), reachable.size() / 2);
  // Reachable implies responsive.
  for (std::size_t d : reachable) {
    EXPECT_TRUE(campaign_->rr_responsive(d));
  }
}

TEST_F(MeasureTest, DistanceCdfIsMonotoneAndBounded) {
  const auto responsive = campaign_->rr_responsive_indices();
  std::vector<std::size_t> all_vps;
  for (std::size_t v = 0; v < campaign_->num_vps(); ++v) {
    all_vps.push_back(v);
  }
  const auto cdf = closest_vp_distance_cdf(*campaign_, all_vps, responsive);
  double prev = 0.0;
  for (int x = 1; x <= 9; ++x) {
    const double y = cdf.fraction_at_or_below(x);
    EXPECT_GE(y, prev);
    prev = y;
  }
  EXPECT_DOUBLE_EQ(
      cdf.fraction_at_or_below(9),
      fraction_within(*campaign_, all_vps, responsive, 9));
}

TEST_F(MeasureTest, SubsetReachabilityIsMonotone) {
  const auto responsive = campaign_->rr_responsive_indices();
  const auto mlab = vp_indices_of_platform(*campaign_, topo::Platform::kMLab);
  std::vector<std::size_t> all_vps;
  for (std::size_t v = 0; v < campaign_->num_vps(); ++v) {
    all_vps.push_back(v);
  }
  EXPECT_LE(fraction_within(*campaign_, mlab, responsive, 9),
            fraction_within(*campaign_, all_vps, responsive, 9));
}

TEST_F(MeasureTest, GreedySelectionCoverageIsMonotoneAndEndsComplete) {
  const auto reachable = campaign_->rr_reachable_indices();
  ASSERT_GT(reachable.size(), 0u);
  std::vector<std::size_t> all_vps;
  for (std::size_t v = 0; v < campaign_->num_vps(); ++v) {
    all_vps.push_back(v);
  }
  const auto greedy =
      greedy_vp_selection(*campaign_, all_vps, reachable, 50);
  ASSERT_FALSE(greedy.coverage.empty());
  for (std::size_t i = 1; i < greedy.coverage.size(); ++i) {
    EXPECT_GE(greedy.coverage[i], greedy.coverage[i - 1]);
  }
  // Candidates = the very VPs defining reachability, so coverage ends at 1.
  EXPECT_NEAR(greedy.coverage.back(), 1.0, 1e-9);
  // No VP chosen twice.
  auto chosen = greedy.chosen_vps;
  std::sort(chosen.begin(), chosen.end());
  EXPECT_EQ(std::adjacent_find(chosen.begin(), chosen.end()), chosen.end());
}

TEST_F(MeasureTest, MidarRecoversRealAliasesWithoutInventingWrongOnes) {
  // Candidates: interfaces of a few multi-interface routers + some host
  // addresses (singletons).
  const auto& topology = testbed_->topology();
  std::vector<net::IPv4Address> candidates;
  int router_sets = 0;
  for (topo::RouterId id = 0; id < topology.routers().size() &&
                              router_sets < 12; ++id) {
    const auto interfaces = topology.router_interfaces(id);
    if (interfaces.size() < 3) continue;
    candidates.insert(candidates.end(), interfaces.begin(), interfaces.end());
    ++router_sets;
  }
  ASSERT_GT(router_sets, 3);
  for (std::size_t i = 0; i < 30; ++i) {
    candidates.push_back(
        topology.host_at(topology.destinations()[i]).address);
  }

  auto prober = testbed_->make_prober(testbed_->vps().front()->host, 200.0);
  MidarConfig config;
  config.shard_size = 64;
  const auto aliases = run_midar(prober, candidates, config);

  // Every inferred alias pair must be a true pair (no false positives
  // against ground truth); and at least some true sets are recovered.
  std::size_t true_pairs = 0, false_pairs = 0;
  for (const auto& set : aliases.sets()) {
    for (std::size_t i = 0; i + 1 < set.size(); ++i) {
      const auto truth = topology.aliases_of(set[i]);
      if (std::find(truth.begin(), truth.end(), set[i + 1]) != truth.end()) {
        ++true_pairs;
      } else {
        ++false_pairs;
      }
    }
  }
  EXPECT_GT(true_pairs, 0u);
  EXPECT_EQ(false_pairs, 0u);
}

TEST_F(MeasureTest, ReclassificationAddsOnlyCandidateDestinations) {
  const auto candidates = reclassification_candidates(*campaign_);
  const auto midar_input = midar_candidate_addresses(*campaign_);
  EXPECT_FALSE(midar_input.empty());

  auto prober = testbed_->make_prober(testbed_->vps().front()->host, 200.0);
  MidarConfig midar_config;
  midar_config.shard_size = 128;
  midar_config.max_addresses = 4000;
  const auto aliases = run_midar(prober, midar_input, midar_config);

  const auto result = reclassify(*testbed_, *campaign_, aliases);
  for (std::size_t d : result.via_alias) {
    EXPECT_TRUE(campaign_->rr_responsive(d));
    EXPECT_FALSE(campaign_->rr_reachable(d));
  }
  for (std::size_t d : result.via_quoted) {
    EXPECT_TRUE(campaign_->rr_responsive(d));
    EXPECT_FALSE(campaign_->rr_reachable(d));
    // Exclusive buckets.
    EXPECT_EQ(std::find(result.via_alias.begin(), result.via_alias.end(),
                        d), result.via_alias.end());
  }
  // The UDP path should prove at least one no-self-stamp destination.
  EXPECT_GT(result.udp_probes_sent, 0u);
}

TEST_F(MeasureTest, AsStampingAuditFindsMostAsesAlwaysStamp) {
  AsStampingConfig config;
  config.max_dests_per_vp = 60;
  const auto result = audit_as_stamping(*testbed_, *campaign_, config);
  ASSERT_GT(result.pairs_compared, 0u);
  ASSERT_GT(result.total_ases(), 0u);
  // The overwhelming majority of transit ASes stamp every time.
  EXPECT_GT(static_cast<double>(result.always()) /
                static_cast<double>(result.total_ases()),
            0.80);
  EXPECT_EQ(result.always() + result.sometimes() + result.never(),
            result.total_ases());
}

TEST_F(MeasureTest, RateLimitStudyFindsHigherLossAtHigherRate) {
  RateLimitConfig config;
  config.sample_size = 300;
  const auto result = rate_limit_study(*testbed_, *campaign_, config);
  ASSERT_FALSE(result.rows.empty());
  std::uint64_t low_total = 0, high_total = 0;
  for (const auto& row : result.rows) {
    low_total += row.responses_low;
    high_total += row.responses_high;
  }
  EXPECT_LE(high_total, low_total);  // faster probing never helps
}

TEST_F(MeasureTest, TtlStudyShowsTheTradeoff) {
  TtlStudyConfig config;
  config.per_vp_per_class = 60;
  const auto result = ttl_study(*testbed_, *campaign_, config);
  ASSERT_FALSE(result.rows.empty());

  const auto* low = result.row_for(3);
  const auto* high = result.row_for(64);
  ASSERT_NE(low, nullptr);
  ASSERT_NE(high, nullptr);
  // At TTL 3 nearly nothing in range answers; at TTL 64 nearly everything
  // previously reachable does.
  EXPECT_LT(low->near_reply_rate(), 0.35);
  EXPECT_GT(high->near_reply_rate(), 0.60);
  // Far destinations answer much less at mid TTLs than at 64.
  const auto* mid = result.row_for(10);
  if (mid != nullptr && mid->far_sent > 10) {
    EXPECT_LT(mid->far_reply_rate(), high->far_reply_rate() + 1e-9);
  }
}

TEST_F(MeasureTest, CloudStudyProducesCdfsForEveryProvider) {
  CloudStudyConfig config;
  config.max_reachable_dests = 120;
  config.max_responsive_dests = 120;
  const auto result = cloud_study(*testbed_, *campaign_, config);
  ASSERT_EQ(result.providers.size(), testbed_->topology().clouds().size());
  EXPECT_FALSE(result.mlab_to_reachable.empty());
  for (const auto& provider : result.providers) {
    EXPECT_FALSE(provider.to_reachable.empty())
        << provider.name << " produced no reachable samples";
    // Hop counts are positive and bounded by the traceroute TTL cap.
    EXPECT_GE(provider.to_reachable.min(), 1.0);
    EXPECT_LE(provider.to_reachable.max(), 40.0);
  }
}

TEST_F(MeasureTest, Epoch2011ReachesFewerDestinations) {
  TestbedConfig config;
  config.topo_params = topo::TopologyParams::test_scale();
  config.topo_params.seed = 5;
  config.epoch = topo::Epoch::k2011;
  Testbed old_testbed{testbed_->topology_ptr(), testbed_->behaviors_ptr(),
                      config};
  const auto old_campaign = Campaign::run(old_testbed);

  std::vector<std::size_t> vps_2016(campaign_->num_vps());
  std::vector<std::size_t> vps_2011(old_campaign.num_vps());
  for (std::size_t v = 0; v < vps_2016.size(); ++v) vps_2016[v] = v;
  for (std::size_t v = 0; v < vps_2011.size(); ++v) vps_2011[v] = v;

  const auto resp_2016 = campaign_->rr_responsive_indices();
  const auto resp_2011 = old_campaign.rr_responsive_indices();
  const double frac_2016 =
      fraction_within(*campaign_, vps_2016, resp_2016, 9);
  const double frac_2011 =
      fraction_within(old_campaign, vps_2011, resp_2011, 9);
  EXPECT_LT(frac_2011, frac_2016);
}

TEST_F(MeasureTest, Figure1SeriesAreWellFormedCdfs) {
  const auto mlab = vp_indices_of_platform(*campaign_, topo::Platform::kMLab);
  const auto greedy = greedy_vp_selection(
      *campaign_, mlab, campaign_->rr_reachable_indices(), 10);
  const auto figure = figure1(*campaign_, greedy);
  ASSERT_GE(figure.series().size(), 2u);
  for (const auto& series : figure.series()) {
    ASSERT_EQ(series.points.size(), 9u) << series.label;
    double prev = 0.0;
    for (const auto& [x, y] : series.points) {
      EXPECT_GE(y, prev) << series.label;  // CDFs are monotone
      EXPECT_LE(y, 1.0);
      prev = y;
    }
  }
  // The full M-Lab set dominates any greedy subset pointwise.
  const auto& all_mlab = figure.series().front();
  for (const auto& series : figure.series()) {
    if (series.label == "1 M-Lab site") {
      for (std::size_t i = 0; i < series.points.size(); ++i) {
        EXPECT_LE(series.points[i].second, all_mlab.points[i].second + 1e-9);
      }
    }
  }
}

TEST_F(MeasureTest, Figure5SeriesCoverEveryProbedTtl) {
  TtlStudyConfig config;
  config.per_vp_per_class = 30;
  const auto result = ttl_study(*testbed_, *campaign_, config);
  const auto figure = figure5(result);
  ASSERT_EQ(figure.series().size(), 2u);
  EXPECT_EQ(figure.series()[0].points.size(), result.rows.size());
  EXPECT_EQ(figure.series()[1].points.size(), result.rows.size());
}

TEST_F(MeasureTest, VpResponseFigureEndsAtOne) {
  const auto figure = vp_response_figure(*campaign_);
  ASSERT_EQ(figure.series().size(), 1u);
  ASSERT_FALSE(figure.series()[0].points.empty());
  EXPECT_NEAR(figure.series()[0].points.back().second, 1.0, 1e-9);
}

TEST_F(MeasureTest, VpResponseCountsRevealEdgeFiltering) {
  const auto counts = responding_vp_counts(*campaign_);
  ASSERT_FALSE(counts.empty());
  // Destinations rarely respond to a strict minority of VPs: filtering is
  // edge-dominated, so most respond to most VPs.
  const double frac = fraction_answering_more_than(
      *campaign_, static_cast<int>(campaign_->num_vps() * 2 / 3));
  EXPECT_GT(frac, 0.5);
}

// ------------------------------------------------------------- faults
// These run LAST (gtest preserves declaration order): a settled probe's
// flow key folds in the network's running send count, so tests that push
// extra traffic through the shared testbed must not run before the
// deterministic studies above.

/// Installs a fault plan on the shared network and clears it again even
/// when an ASSERT bails out of the test body early.
class FaultPlanGuard {
 public:
  FaultPlanGuard(sim::Network& net, const sim::FaultParams& params)
      : net_(net) {
    net_.set_fault_plan(sim::FaultPlan{params});
  }
  ~FaultPlanGuard() { net_.set_fault_plan(sim::FaultPlan{}); }
  FaultPlanGuard(const FaultPlanGuard&) = delete;
  FaultPlanGuard& operator=(const FaultPlanGuard&) = delete;

 private:
  sim::Network& net_;
};

TEST_F(MeasureTest, MidarUnderFaultsLosesPairsButNeverInventsThem) {
  // Same candidate set as the clean MIDAR test: interfaces of multi-
  // interface routers plus singleton host addresses.
  const auto& topology = testbed_->topology();
  std::vector<net::IPv4Address> candidates;
  int router_sets = 0;
  for (topo::RouterId id = 0; id < topology.routers().size() &&
                              router_sets < 12; ++id) {
    const auto interfaces = topology.router_interfaces(id);
    if (interfaces.size() < 3) continue;
    candidates.insert(candidates.end(), interfaces.begin(), interfaces.end());
    ++router_sets;
  }
  ASSERT_GT(router_sets, 3);
  for (std::size_t i = 0; i < 30; ++i) {
    candidates.push_back(
        topology.host_at(topology.destinations()[i]).address);
  }

  // Kill a few probes outright and add capture-point noise: lost or
  // delayed samples may cost the estimation stage candidates (false
  // negatives), but the Monotonic Bounds Test must never pair addresses
  // that do not share a counter.
  const auto before = testbed_->network().fault_counters().total();
  sim::FaultParams faults;
  faults.checksum_corrupt = 0.004;
  faults.duplicate_reply = 0.30;
  faults.reorder_reply = 0.10;
  faults.reorder_delay_s = 0.05;  // jitter, not a different epoch
  faults.seed = 0xA11A5;
  FaultPlanGuard guard{testbed_->network(), faults};

  auto prober = testbed_->make_prober(testbed_->vps().front()->host, 200.0);
  MidarConfig config;
  config.shard_size = 64;
  const auto aliases = run_midar(prober, candidates, config);

  std::size_t true_pairs = 0, false_pairs = 0;
  for (const auto& set : aliases.sets()) {
    for (std::size_t i = 0; i + 1 < set.size(); ++i) {
      const auto truth = topology.aliases_of(set[i]);
      if (std::find(truth.begin(), truth.end(), set[i + 1]) != truth.end()) {
        ++true_pairs;
      } else {
        ++false_pairs;
      }
    }
  }
  EXPECT_GT(true_pairs, 0u);
  EXPECT_EQ(false_pairs, 0u);
  EXPECT_GT(testbed_->network().fault_counters().total(), before);
}

TEST_F(MeasureTest, AliasRecoveryUnderFaultsOnlyFindsTrueAliasStampers) {
  // The §3.3 false-negative recovery under fire: destinations that
  // stamped an alias (host_stamps_alias behaviour) are recovered via
  // MIDAR even when faults eat some of the probes — and every recovery
  // must be genuine. A destination recovered by the alias test must
  // actually own aliases in the ground-truth topology; faulted evidence
  // may shrink the recovered set but never redirects it.
  const auto& topology = testbed_->topology();
  const auto midar_input = midar_candidate_addresses(*campaign_);
  ASSERT_FALSE(midar_input.empty());

  const auto before = testbed_->network().fault_counters().total();
  sim::FaultParams faults = sim::FaultParams::uniform(0.01);
  faults.seed = 0x5E7B;
  FaultPlanGuard guard{testbed_->network(), faults};

  auto prober = testbed_->make_prober(testbed_->vps().front()->host, 200.0);
  MidarConfig midar_config;
  midar_config.shard_size = 128;
  midar_config.max_addresses = 4000;
  const auto aliases = run_midar(prober, midar_input, midar_config);
  const auto result = reclassify(*testbed_, *campaign_, aliases);

  for (std::size_t d : result.via_alias) {
    EXPECT_TRUE(campaign_->rr_responsive(d));
    EXPECT_FALSE(campaign_->rr_reachable(d));
    // Ground truth: only hosts that really own alias addresses can be
    // recovered through the alias path.
    EXPECT_FALSE(
        topology.host_aliases(campaign_->destinations()[d]).empty())
        << "dest " << d << " recovered via alias but owns no aliases";
  }
  for (std::size_t d : result.via_quoted) {
    EXPECT_TRUE(campaign_->rr_responsive(d));
    EXPECT_FALSE(campaign_->rr_reachable(d));
    EXPECT_EQ(std::find(result.via_alias.begin(), result.via_alias.end(),
                        d), result.via_alias.end());
  }
  EXPECT_GT(testbed_->network().fault_counters().total(), before);
}

TEST(TestbedFootprint, DefaultScaleOracleHoldsOnlyItsEpochsSources) {
  // The default-scale 2016 world: 141 VPs, the probe host and three cloud
  // probe hosts are the oracle's sources. With every VP of both epochs as
  // a source (404 hosts), the same oracle held 54.9 MiB.
  const Testbed testbed{TestbedConfig{}};
  EXPECT_LE(testbed.oracle().memory_bytes(), std::size_t{21} << 20);
}

}  // namespace
}  // namespace rr::measure

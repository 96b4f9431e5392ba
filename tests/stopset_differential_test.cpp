// Differential harness for redundancy-aware probing: wherever the
// methodology does not depend on redundant probes, analysis outputs with
// stop sets ON must be byte-identical to the classic full-probing run.
// The comparisons run on an ideal world (every stochastic nuisance
// disabled) because off-vs-on runs necessarily send *different* probe
// streams — in a lossy world the extra/elided sends shift loss draws and
// the comparison would measure noise, not the stop-set contract.
// Tier 2 — several campaigns and censuses per case.
#include <gtest/gtest.h>

#include <vector>

#include "measure/campaign.h"
#include "measure/testbed.h"
#include "measure/trace_census.h"
#include "measure/ttl_study.h"

namespace rr::measure {
namespace {

/// Every stochastic nuisance disabled: responses, stamping, and routing
/// are pure functions of the topology, so off-vs-on differences can only
/// come from the stop sets themselves.
sim::BehaviorParams ideal_behaviors() {
  sim::BehaviorParams p;
  p.host_ping_responsive = {1.0, 1.0, 1.0, 1.0};
  p.as_dark = {0.0, 0.0, 0.0, 0.0};
  p.host_drops_rr = {0.0, 0.0, 0.0, 0.0};
  p.host_strips_rr = {0.0, 0.0, 0.0, 0.0};
  p.host_no_self_stamp = 0.0;
  p.host_stamps_alias = 0.0;
  p.host_responds_udp = 1.0;
  p.as_filters_edge = {0.0, 0.0, 0.0, 0.0};
  p.as_filters_transit = 0.0;
  p.as_never_stamps = 0.0;
  p.as_sometimes_stamps = 0.0;
  p.router_hidden = 0.0;
  p.router_anonymous = 0.0;
  p.router_responds_ping = 1.0;
  p.router_rate_limited = 0.0;
  p.strict_limited_vps = 0;
  p.base_loss = 0.0;
  p.options_extra_loss = 0.0;
  return p;
}

measure::TestbedConfig ideal_config() {
  measure::TestbedConfig config;
  config.topo_params = topo::TopologyParams::test_scale();
  config.topo_params.seed = 31337;
  config.behavior_params = ideal_behaviors();
  return config;
}

TEST(StopSetDifferential, CensusInterfaceDiscoveryIsIdenticalOffVsOn) {
  // The census's redundancy-independent analysis output is the
  // *interface* set: a forward stop elides a path suffix whose
  // interfaces the seeding trace already recorded, and a backward stop
  // fires on an interface this VP has already recorded — in an ideal
  // world the sorted union must hash identically off-vs-on.
  //
  // The *link* set is NOT in that subset: backward stopping is
  // Doubletree's documented approximation — the skipped low-TTL chain
  // toward a new target can differ from the chain the local fact was
  // learned on, so a handful of lateral adjacencies go unobserved. The
  // test pins that loss to a bound instead of pretending it is zero.
  // `reached` is likewise redundancy-dependent by construction: a
  // forward stop truncates the trace before the echo could be seen.
  TraceCensusConfig config;
  config.per_vp_dests = 48;

  measure::Testbed off_bed{ideal_config()};
  config.use_stop_sets = false;
  const auto off = run_trace_census(off_bed, config);

  measure::Testbed on_bed{ideal_config()};
  config.use_stop_sets = true;
  const auto on = run_trace_census(on_bed, config);

  EXPECT_EQ(on.interfaces, off.interfaces);
  EXPECT_EQ(on.interface_hash, off.interface_hash);
  EXPECT_LE(on.links, off.links);
  EXPECT_GE(static_cast<double>(on.links),
            0.98 * static_cast<double>(off.links))
      << "backward-approximation link loss should stay marginal";
  EXPECT_GT(on.reached, 0u);
  EXPECT_LE(on.reached, off.reached);
  EXPECT_LT(on.probes_sent, off.probes_sent)
      << "the differential is vacuous if nothing was saved";
}

TEST(StopSetDifferential, Figure5RowsAreByteIdenticalOffVsOn) {
  // The TTL study's synthesized outcomes are exact in an ideal world: a
  // near destination stamped at slot s answers iff ttl >= s, a far one
  // expires through TTL 9 and answers at 64 — precisely the facts the
  // stop set encodes. Row contents must not change by a single count.
  TtlStudyConfig study_config;
  study_config.per_vp_per_class = 40;

  measure::Testbed off_bed{ideal_config()};
  const auto off_campaign = Campaign::run(off_bed);
  study_config.use_stop_sets = false;
  const auto off = ttl_study(off_bed, off_campaign, study_config);

  measure::Testbed on_bed{ideal_config()};
  const auto on_campaign = Campaign::run(on_bed);
  study_config.use_stop_sets = true;
  const auto on = ttl_study(on_bed, on_campaign, study_config);

  ASSERT_EQ(on.rows.size(), off.rows.size());
  for (std::size_t i = 0; i < on.rows.size(); ++i) {
    const auto& a = on.rows[i];
    const auto& b = off.rows[i];
    EXPECT_EQ(a.ttl, b.ttl);
    EXPECT_EQ(a.near_sent, b.near_sent) << "ttl " << b.ttl;
    EXPECT_EQ(a.near_replied, b.near_replied) << "ttl " << b.ttl;
    EXPECT_EQ(a.near_expired, b.near_expired) << "ttl " << b.ttl;
    EXPECT_EQ(a.far_sent, b.far_sent) << "ttl " << b.ttl;
    EXPECT_EQ(a.far_replied, b.far_replied) << "ttl " << b.ttl;
    EXPECT_EQ(a.far_expired, b.far_expired) << "ttl " << b.ttl;
  }
  EXPECT_GT(on.stats.probes_saved, 0u) << "the study must actually save";
  EXPECT_EQ(off.stats.probes_saved, 0u);
}

}  // namespace
}  // namespace rr::measure

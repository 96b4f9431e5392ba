// Failure-injection suites: extreme behaviour assignments must produce the
// exact aggregate outcomes the model promises (everything filters -> no RR
// anywhere; nobody stamps -> empty options; everyone anonymous -> silent
// traceroutes; etc.). These pin down the simulator's causal structure.
#include <gtest/gtest.h>

#include <algorithm>

#include "measure/campaign.h"
#include "measure/testbed.h"
#include "probe/prober.h"

namespace rr::sim {
namespace {

measure::TestbedConfig base_config(std::uint64_t seed = 91) {
  measure::TestbedConfig config;
  config.topo_params = topo::TopologyParams::test_scale();
  config.topo_params.seed = seed;
  return config;
}

/// A behaviour parameter set with every stochastic nuisance disabled:
/// everything responds, nothing filters, drops, hides or rate-limits.
BehaviorParams ideal_behaviors() {
  BehaviorParams p;
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

TEST(FailureInjection, IdealWorldAnswersEverything) {
  auto config = base_config();
  config.behavior_params = ideal_behaviors();
  measure::Testbed testbed{config};
  auto prober = testbed.make_prober(testbed.vps().front()->host, 1000.0);

  const auto& topology = testbed.topology();
  int rr_replies = 0;
  const std::size_t n = std::min<std::size_t>(
      topology.destinations().size(), 300);
  for (std::size_t i = 0; i < n; ++i) {
    const auto target =
        topology.host_at(topology.destinations()[i]).address;
    const auto r = prober.probe(probe::ProbeSpec::ping_rr(target));
    ASSERT_EQ(r.kind, probe::ResponseKind::kEchoReply)
        << "lossless world must answer " << target.to_string();
    ASSERT_TRUE(r.rr_option_in_reply);
    ++rr_replies;
    // With universal stamping the option can only be non-full if the
    // total path was shorter than nine hops.
    if (r.rr_free_slots > 0) {
      EXPECT_LT(r.rr_recorded.size(), 9u);
    }
  }
  EXPECT_EQ(rr_replies, static_cast<int>(n));
}

TEST(FailureInjection, UniversalEdgeFilteringKillsRrButNotPing) {
  auto config = base_config();
  config.behavior_params = ideal_behaviors();
  config.behavior_params.as_filters_edge = {1.0, 1.0, 1.0, 1.0};
  measure::Testbed testbed{config};
  auto prober = testbed.make_prober(testbed.vps().front()->host, 1000.0);

  const auto& topology = testbed.topology();
  for (std::size_t i = 0; i < 100; ++i) {
    const auto target =
        topology.host_at(topology.destinations()[i]).address;
    EXPECT_EQ(prober.probe(probe::ProbeSpec::ping(target)).kind,
              probe::ResponseKind::kEchoReply);
    EXPECT_EQ(prober.probe(probe::ProbeSpec::ping_rr(target)).kind,
              probe::ResponseKind::kNone);
  }
}

TEST(FailureInjection, NobodyStampsMeansEmptyOptions) {
  auto config = base_config();
  config.behavior_params = ideal_behaviors();
  config.behavior_params.as_never_stamps = 1.0;
  config.behavior_params.host_no_self_stamp = 1.0;
  measure::Testbed testbed{config};
  auto prober = testbed.make_prober(testbed.vps().front()->host, 1000.0);
  const auto& topology = testbed.topology();
  for (std::size_t i = 0; i < 100; ++i) {
    const auto target =
        topology.host_at(topology.destinations()[i]).address;
    const auto r = prober.probe(probe::ProbeSpec::ping_rr(target));
    ASSERT_EQ(r.kind, probe::ResponseKind::kEchoReply);
    ASSERT_TRUE(r.rr_option_in_reply);  // option copied, just never filled
    EXPECT_TRUE(r.rr_recorded.empty());
    EXPECT_EQ(r.rr_free_slots, 9);
  }
}

TEST(FailureInjection, AnonymousRoutersSilenceTraceroute) {
  auto config = base_config();
  config.behavior_params = ideal_behaviors();
  config.behavior_params.router_anonymous = 1.0;
  measure::Testbed testbed{config};
  auto prober = testbed.make_prober(testbed.vps().front()->host, 1000.0);
  const auto& topology = testbed.topology();
  const auto target = topology.host_at(topology.destinations()[4]).address;
  const auto trace = prober.traceroute(target, 25, 1);
  // The destination itself still answers the final echo.
  ASSERT_TRUE(trace.reached);
  for (std::size_t h = 0; h + 1 < trace.hops.size(); ++h) {
    EXPECT_FALSE(trace.hops[h].responded);
  }
}

TEST(FailureInjection, HiddenRoutersShortenTtlDistanceButStillStamp) {
  // With every router hidden, no TTL is ever decremented: a TTL-1 ping-RR
  // sails through and the reply still records the whole path.
  auto config = base_config();
  config.behavior_params = ideal_behaviors();
  config.behavior_params.router_hidden = 1.0;
  measure::Testbed testbed{config};
  auto prober = testbed.make_prober(testbed.vps().front()->host, 1000.0);
  const auto& topology = testbed.topology();
  const auto target = topology.host_at(topology.destinations()[9]).address;
  probe::ProbeSpec spec = probe::ProbeSpec::ping_rr(target, /*ttl=*/1);
  const auto r = prober.probe(spec);
  ASSERT_EQ(r.kind, probe::ResponseKind::kEchoReply);
  EXPECT_TRUE(r.rr_option_in_reply);
  EXPECT_FALSE(r.rr_recorded.empty());
}

TEST(FailureInjection, StrippingHostsAnswerWithoutTheOption) {
  auto config = base_config();
  config.behavior_params = ideal_behaviors();
  config.behavior_params.host_strips_rr = {1.0, 1.0, 1.0, 1.0};
  measure::Testbed testbed{config};
  auto prober = testbed.make_prober(testbed.vps().front()->host, 1000.0);
  const auto& topology = testbed.topology();
  for (std::size_t i = 0; i < 60; ++i) {
    const auto target =
        topology.host_at(topology.destinations()[i]).address;
    const auto r = prober.probe(probe::ProbeSpec::ping_rr(target));
    ASSERT_EQ(r.kind, probe::ResponseKind::kEchoReply);
    EXPECT_FALSE(r.rr_option_in_reply);
  }
}

TEST(FailureInjection, AliasStampersNeverRecordTheProbedAddress) {
  auto config = base_config();
  config.behavior_params = ideal_behaviors();
  config.behavior_params.host_stamps_alias = 1.0;
  config.topo_params.host_alias_fraction = 1.0;  // every host multi-addressed
  measure::Testbed testbed{config};
  const auto& topology = testbed.topology();
  // Scan from every VP: only destinations reached with free slots allow
  // the assertion, and at test scale any single VP sees few of those.
  int checked = 0;
  for (const auto* vp : testbed.vps()) {
    auto prober = testbed.make_prober(vp->host, 1000.0);
    for (std::size_t i = 0;
         i < topology.destinations().size() && checked < 12; i += 3) {
      const topo::HostId dest = topology.destinations()[i];
      const auto target = topology.host_at(dest).address;
      const auto r = prober.probe(probe::ProbeSpec::ping_rr(target));
      ASSERT_EQ(r.kind, probe::ResponseKind::kEchoReply);
      if (!r.rr_option_in_reply || r.rr_recorded.size() >= 9) continue;
      // Arrived with slots free, so the device stamped — but an alias.
      EXPECT_EQ(std::find(r.rr_recorded.begin(), r.rr_recorded.end(),
                          target),
                r.rr_recorded.end());
      const auto aliases = topology.host_aliases(dest);
      const bool alias_present = std::any_of(
          aliases.begin(), aliases.end(), [&](const auto& alias) {
            return std::find(r.rr_recorded.begin(), r.rr_recorded.end(),
                             alias) != r.rr_recorded.end();
          });
      EXPECT_TRUE(alias_present);
      ++checked;
    }
    if (checked >= 12) break;
  }
  EXPECT_GT(checked, 3);
}

TEST(FailureInjection, TtlLimitedProbesAlwaysExpireInIdealWorld) {
  auto config = base_config();
  config.behavior_params = ideal_behaviors();
  measure::Testbed testbed{config};
  auto prober = testbed.make_prober(testbed.vps().front()->host, 1000.0);
  const auto& topology = testbed.topology();
  for (std::size_t i = 0; i < 40; ++i) {
    const auto target =
        topology.host_at(topology.destinations()[i]).address;
    const auto r =
        prober.probe(probe::ProbeSpec::ping_rr(target, /*ttl=*/1));
    // Either the error comes back (normal) or the destination is one hop
    // away (impossible here: hosts hang below at least one router).
    ASSERT_EQ(r.kind, probe::ResponseKind::kTtlExceeded);
    EXPECT_TRUE(r.quoted_rr_present);
    EXPECT_TRUE(r.quoted_rr.empty());  // expired before the first stamp
    EXPECT_EQ(r.quoted_rr_free_slots, 9);
  }
}

TEST(FailureInjection, CampaignUnderIdealBehaviorIsFullyResponsive) {
  auto config = base_config();
  config.behavior_params = ideal_behaviors();
  measure::Testbed testbed{config};
  measure::CampaignConfig campaign_config;
  campaign_config.destination_stride = 4;  // keep the test fast
  const auto campaign = measure::Campaign::run(testbed, campaign_config);
  for (std::size_t d = 0; d < campaign.num_destinations(); ++d) {
    EXPECT_TRUE(campaign.ping_responsive(d));
    EXPECT_TRUE(campaign.rr_responsive(d));
  }
}

TEST(FailureInjection, LossOnlyWorldDegradesGracefully) {
  auto config = base_config();
  config.behavior_params = ideal_behaviors();
  config.behavior_params.base_loss = 0.05;  // brutal 5% per hop
  measure::Testbed testbed{config};
  auto prober = testbed.make_prober(testbed.vps().front()->host, 1000.0);
  const auto& topology = testbed.topology();
  int answered = 0;
  const int probes = 200;
  for (int i = 0; i < probes; ++i) {
    const auto target = topology
                            .host_at(topology.destinations()[
                                static_cast<std::size_t>(i) %
                                topology.destinations().size()])
                            .address;
    if (prober.probe(probe::ProbeSpec::ping(target)).responded()) {
      ++answered;
    }
  }
  EXPECT_GT(answered, probes / 4);  // not dead
  EXPECT_LT(answered, probes);     // but visibly lossy
}

}  // namespace
}  // namespace rr::sim

// Edge cases across modules: empty sets, strides, reset semantics,
// determinism guarantees the toolkit promises in its documentation.
#include <gtest/gtest.h>

#include "data/dataset.h"
#include "measure/campaign.h"
#include "measure/classify.h"
#include "measure/reachability.h"
#include "measure/testbed.h"
#include "packet/datagram.h"

namespace rr {
namespace {

measure::TestbedConfig tiny_config(std::uint64_t seed) {
  measure::TestbedConfig config;
  config.topo_params = topo::TopologyParams::test_scale();
  config.topo_params.seed = seed;
  return config;
}

TEST(NetworkReset, IdenticalTrafficReplaysIdentically) {
  auto config = tiny_config(1212);
  measure::Testbed testbed{config};
  const auto& topology = testbed.topology();
  const topo::HostId src = testbed.vps().front()->host;

  auto run_once = [&]() {
    testbed.network().reset();
    sim::SendContext ctx;
    std::vector<int> outcomes;
    for (std::size_t i = 0; i < 200; ++i) {
      const auto probe = pkt::make_ping(
          topology.host_at(src).address,
          topology.host_at(topology.destinations()[i]).address,
          7, static_cast<std::uint16_t>(i), 64, 9);
      auto bytes = *probe.serialize();
      const auto delivery =
          testbed.network().send_settled(src, bytes, i * 0.05, ctx);
      outcomes.push_back(delivery ? static_cast<int>(delivery->bytes.size())
                                  : -1);
    }
    return outcomes;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(NetworkCounters, ResetClearsEverything) {
  auto config = tiny_config(77);
  measure::Testbed testbed{config};
  const auto& topology = testbed.topology();
  const topo::HostId src = testbed.vps().front()->host;
  const auto probe = pkt::make_ping(
      topology.host_at(src).address,
      topology.host_at(topology.destinations()[0]).address, 7, 1, 64, 9);
  auto bytes = *probe.serialize();
  sim::SendContext ctx;
  (void)testbed.network().send_settled(src, bytes, 0.0, ctx);
  EXPECT_GT(testbed.network().counters().sent, 0u);
  testbed.network().reset();
  EXPECT_EQ(testbed.network().counters().sent, 0u);
  EXPECT_EQ(testbed.network().counters().responses, 0u);
}

TEST(CampaignStride, SubsamplesDeterministically) {
  auto config = tiny_config(909);
  measure::Testbed testbed{config};
  measure::CampaignConfig full_config;
  measure::CampaignConfig strided_config;
  strided_config.destination_stride = 3;
  const auto strided = measure::Campaign::run(testbed, strided_config);
  const std::size_t all =
      testbed.topology().destinations().size();
  EXPECT_EQ(strided.num_destinations(), (all + 2) / 3);
  // Destination k of the strided campaign is destination 3k of the world.
  for (std::size_t d = 0; d < strided.num_destinations(); d += 7) {
    EXPECT_EQ(strided.destinations()[d],
              testbed.topology().destinations()[3 * d]);
  }
}

TEST(Reachability, EmptySetsAreHandled) {
  auto config = tiny_config(31);
  measure::Testbed testbed{config};
  measure::CampaignConfig campaign_config;
  campaign_config.destination_stride = 5;
  const auto campaign = measure::Campaign::run(testbed, campaign_config);

  const std::vector<std::size_t> no_vps;
  const std::vector<std::size_t> no_dests;
  EXPECT_DOUBLE_EQ(
      measure::fraction_within(campaign, no_vps,
                               campaign.rr_responsive_indices(), 9), 0.0);
  EXPECT_DOUBLE_EQ(measure::fraction_within(campaign, {0}, no_dests, 9),
                   0.0);
  const auto cdf =
      measure::closest_vp_distance_cdf(campaign, no_vps, no_dests);
  EXPECT_TRUE(cdf.empty());
  const auto greedy =
      measure::greedy_vp_selection(campaign, no_vps, no_dests, 5);
  EXPECT_TRUE(greedy.chosen_vps.empty());
}

TEST(Classify, ThresholdEdges) {
  auto config = tiny_config(31);
  measure::Testbed testbed{config};
  measure::CampaignConfig campaign_config;
  campaign_config.destination_stride = 5;
  const auto campaign = measure::Campaign::run(testbed, campaign_config);
  // Nobody can answer more VPs than exist.
  EXPECT_DOUBLE_EQ(measure::fraction_answering_more_than(
                       campaign, static_cast<int>(campaign.num_vps())),
                   0.0);
  // Everyone RR-responsive answers more than zero VPs... minus one.
  EXPECT_DOUBLE_EQ(measure::fraction_answering_more_than(campaign, 0), 1.0);
}

TEST(Dataset, EmptyCampaignRoundTrips) {
  data::CampaignDataset dataset;
  dataset.description = "empty";
  const auto bytes = dataset.serialize();
  const auto parsed = data::CampaignDataset::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, dataset);
  EXPECT_EQ(parsed->num_vps(), 0u);
  const auto table = parsed->response_table();
  EXPECT_EQ(table.by_ip[0].probed, 0u);
}

TEST(Campaign, MinDistanceOverEmptySubsetIsZero) {
  auto config = tiny_config(31);
  measure::Testbed testbed{config};
  measure::CampaignConfig campaign_config;
  campaign_config.destination_stride = 10;
  const auto campaign = measure::Campaign::run(testbed, campaign_config);
  for (std::size_t d = 0; d < campaign.num_destinations(); ++d) {
    EXPECT_EQ(campaign.min_rr_distance(d, {}), 0);
  }
}

}  // namespace
}  // namespace rr

// End-to-end pins for the compiled forwarding plane: a campaign's frozen
// dataset must keep the content hash it had when campaign paths still
// came from the sharded path cache + stitcher (the pins below are that
// run's hashes), at any thread count and, for a fixed block size, in
// streaming mode too. The table itself is checked hop for hop against
// the stitcher in tests/routing_test.cpp.

#include <gtest/gtest.h>

#include <cstdint>

#include "data/dataset.h"
#include "measure/campaign.h"
#include "measure/testbed.h"

namespace rr {
namespace {

using measure::Campaign;
using measure::CampaignConfig;
using measure::Testbed;
using measure::TestbedConfig;

std::uint64_t campaign_hash(Testbed& testbed, const CampaignConfig& config) {
  const Campaign campaign = Campaign::run(testbed, config);
  return data::CampaignDataset::from_campaign(campaign, "fib-equivalence")
      .content_hash();
}

Testbed make_testbed() {
  TestbedConfig config;
  config.topo_params = topo::TopologyParams::test_scale();
  config.topo_params.seed = 20170331;
  return Testbed{config};
}

TEST(FibEquivalence, DatasetHashIdenticalAcrossFibAndThreads) {
  Testbed testbed = make_testbed();
  // The single-threaded path-cache campaign's hash on this world.
  constexpr std::uint64_t kPin = 0xa08d147ef6fe5877;
  for (const int threads : {1, 4}) {
    CampaignConfig campaign_config;
    campaign_config.threads = threads;
    EXPECT_EQ(campaign_hash(testbed, campaign_config), kPin)
        << "threads=" << threads;
  }
}

TEST(FibEquivalence, StreamingHashIdenticalAcrossFibAndThreads) {
  Testbed testbed = make_testbed();
  // A block size smaller than the destination count, so the campaign
  // actually iterates several blocks (test_scale yields a few hundred
  // destinations). The pin is the path-cache campaign's hash at this
  // block size.
  constexpr std::size_t kBlock = 64;
  constexpr std::uint64_t kPin = 0x1ff238ccefad9a94;
  for (const int threads : {1, 4}) {
    CampaignConfig campaign_config;
    campaign_config.threads = threads;
    campaign_config.stream_block = kBlock;
    EXPECT_EQ(campaign_hash(testbed, campaign_config), kPin)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace rr

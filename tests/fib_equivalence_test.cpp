// End-to-end pins for the compiled forwarding plane: a campaign's frozen
// dataset must keep the content hash it had when campaign paths still
// came from the sharded path cache + stitcher (the pins below are that
// run's hashes), at any thread count and, for a fixed block size, in
// streaming mode too. The table itself is checked hop for hop against
// the stitcher in tests/routing_test.cpp. The pinned hashes also hold
// the campaign's overlapped execution (each chunk's token replay beside
// the next chunk's probe streams) to the serial replay it replaced.

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

std::uint64_t dataset_hash(const Campaign& campaign) {
  return data::CampaignDataset::from_campaign(campaign, "fib-equivalence")
      .content_hash();
}

std::uint64_t campaign_hash(Testbed& testbed, const CampaignConfig& config) {
  return dataset_hash(Campaign::run(testbed, config));
}

/// FNV-1a over every destination's recorded RR union. The dataset hash
/// leaves the unions out, so a sighting lost between a chunk's replay and
/// its block's union fold would not show in it.
std::uint64_t union_hash(const Campaign& campaign) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 0x100000001b3ULL;
  };
  for (std::size_t d = 0; d < campaign.num_destinations(); ++d) {
    const auto& addresses = campaign.recorded_union(d);
    mix(addresses.size());
    for (const auto address : addresses) mix(address.value());
  }
  return hash;
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

TEST(FibEquivalence, MultiChunkStreamingHashIdenticalAcrossThreads) {
  Testbed testbed = make_testbed();
  ASSERT_GT(testbed.topology().destinations().size(), 300u);
  // 150 = 64 + 64 + 22 steps: every block runs several chunks and a
  // ragged last one, so a replay overlaps the next chunk's probe streams
  // inside a block, and each block drains its last replay before the
  // next block's table swap. The blocks of 64 above run one chunk each.
  // The pins are the hashes of the campaign whose replay ran after each
  // chunk's probe streams, never beside them.
  constexpr std::size_t kBlock = 150;
  constexpr std::uint64_t kPin = 0xc0072ea1fa4e9bbc;
  constexpr std::uint64_t kUnionPin = 0x14b7460bb97a9dae;
  for (const int threads : {1, 2, 8}) {
    CampaignConfig campaign_config;
    campaign_config.threads = threads;
    campaign_config.stream_block = kBlock;
    const Campaign campaign = Campaign::run(testbed, campaign_config);
    EXPECT_EQ(dataset_hash(campaign), kPin) << "threads=" << threads;
    EXPECT_EQ(union_hash(campaign), kUnionPin) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace rr

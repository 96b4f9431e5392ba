// The parallel campaign executor's contract: campaign contents are
// bit-for-bit identical at any worker-thread count, because all probe
// randomness is counter-based and the only shared mutable state (router
// token buckets) is replayed serially in a canonical order.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "measure/campaign.h"
#include "measure/testbed.h"
#include "sim/token_bucket.h"

namespace rr::measure {
namespace {

// --------------------------------------------------------------- buckets

// The property the deferred-replay phase relies on: a bucket's outcome
// sequence is a pure function of the ordered sequence of consume times it
// is fed — replaying the same series after reset() reproduces it exactly.
TEST(TokenBucketOrdering, ReplayOfSameTimeSeriesIsIdentical) {
  const std::vector<double> times = {0.0,  0.01, 0.02, 0.02, 0.05, 0.04,
                                     0.30, 0.31, 0.32, 1.00, 1.00, 1.50};
  sim::TokenBucket bucket{/*rate_per_s=*/10.0, /*burst=*/2.0};
  std::vector<bool> first;
  for (double t : times) first.push_back(bucket.try_consume(t));

  bucket.reset();
  std::vector<bool> second;
  for (double t : times) second.push_back(bucket.try_consume(t));

  EXPECT_EQ(first, second);
  // Sanity: the series actually exercises both outcomes, including a
  // backwards-time step (0.05 then 0.04) that must not refill.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

// Consumes at non-decreasing virtual times drain burst then track the
// refill rate; a backwards timestamp neither refills nor crashes.
TEST(TokenBucketOrdering, VirtualTimeSemantics) {
  sim::TokenBucket bucket{/*rate_per_s=*/1.0, /*burst=*/2.0};
  EXPECT_TRUE(bucket.try_consume(0.0));   // burst token 1
  EXPECT_TRUE(bucket.try_consume(0.0));   // burst token 2
  EXPECT_FALSE(bucket.try_consume(0.0));  // empty
  EXPECT_FALSE(bucket.try_consume(0.5));  // half a token refilled
  // 0.5s later a full token has accumulated (0.5 + 0.5).
  EXPECT_TRUE(bucket.try_consume(1.0));
  // Backwards time: no refill happened, bucket stays empty.
  EXPECT_FALSE(bucket.try_consume(0.2));
}

// -------------------------------------------------------------- campaign

void expect_identical(const Campaign& a, const Campaign& b) {
  ASSERT_EQ(a.num_vps(), b.num_vps());
  ASSERT_EQ(a.num_destinations(), b.num_destinations());
  for (std::size_t d = 0; d < a.num_destinations(); ++d) {
    EXPECT_EQ(a.ping_responsive(d), b.ping_responsive(d)) << "dest " << d;
    EXPECT_EQ(a.recorded_union(d), b.recorded_union(d)) << "dest " << d;
    EXPECT_EQ(a.rr_responsive(d), b.rr_responsive(d)) << "dest " << d;
    EXPECT_EQ(a.responding_vp_count(d), b.responding_vp_count(d))
        << "dest " << d;
    for (std::size_t v = 0; v < a.num_vps(); ++v) {
      ASSERT_EQ(a.at(v, d), b.at(v, d)) << "vp " << v << " dest " << d;
    }
  }
}

TEST(CampaignDeterminism, ContentsIdenticalAcrossThreadCounts) {
  TestbedConfig config;
  config.topo_params = topo::TopologyParams::test_scale();
  config.topo_params.seed = 7;
  Testbed testbed{config};

  CampaignConfig campaign_config;
  campaign_config.threads = 1;
  const Campaign serial = Campaign::run(testbed, campaign_config);
  const sim::NetCounters serial_counters = testbed.network().counters();

  campaign_config.threads = 4;
  const Campaign parallel = Campaign::run(testbed, campaign_config);
  const sim::NetCounters parallel_counters = testbed.network().counters();

  expect_identical(serial, parallel);

  // Aggregate simulator counters come out identical too: the replay phase
  // substitutes exactly the counters a serial run would have produced.
  EXPECT_EQ(serial_counters.sent, parallel_counters.sent);
  EXPECT_EQ(serial_counters.delivered, parallel_counters.delivered);
  EXPECT_EQ(serial_counters.responses, parallel_counters.responses);
  EXPECT_EQ(serial_counters.dropped_loss, parallel_counters.dropped_loss);
  EXPECT_EQ(serial_counters.dropped_filter,
            parallel_counters.dropped_filter);
  EXPECT_EQ(serial_counters.dropped_rate_limit,
            parallel_counters.dropped_rate_limit);
  EXPECT_EQ(serial_counters.dropped_ttl, parallel_counters.dropped_ttl);
  EXPECT_EQ(serial_counters.dropped_unroutable,
            parallel_counters.dropped_unroutable);
  EXPECT_EQ(serial_counters.ttl_errors, parallel_counters.ttl_errors);
  EXPECT_EQ(serial_counters.port_unreachables,
            parallel_counters.port_unreachables);

  // A third thread count, for good measure.
  campaign_config.threads = 2;
  const Campaign two = Campaign::run(testbed, campaign_config);
  expect_identical(serial, two);
}

// A FaultPlan with every rate at zero must be indistinguishable from no
// plan at all: fault draws key on their own purpose space and a zero rate
// never consumes randomness, so contents AND counters stay bit-identical
// at every thread count.
TEST(CampaignDeterminism, ZeroFaultPlanIsBitIdenticalToBaseline) {
  TestbedConfig config;
  config.topo_params = topo::TopologyParams::test_scale();
  config.topo_params.seed = 7;
  Testbed testbed{config};

  CampaignConfig baseline_config;
  baseline_config.threads = 1;
  const Campaign baseline = Campaign::run(testbed, baseline_config);
  const sim::NetCounters baseline_counters = testbed.network().counters();

  CampaignConfig zero_fault_config;
  zero_fault_config.faults = sim::FaultParams{};  // all rates zero
  for (const int threads : {1, 2, 4}) {
    zero_fault_config.threads = threads;
    const Campaign with_plan = Campaign::run(testbed, zero_fault_config);
    expect_identical(baseline, with_plan);
    const sim::NetCounters c = testbed.network().counters();
    EXPECT_EQ(baseline_counters.sent, c.sent) << threads << " threads";
    EXPECT_EQ(baseline_counters.responses, c.responses)
        << threads << " threads";
    EXPECT_EQ(baseline_counters.dropped_rate_limit, c.dropped_rate_limit)
        << threads << " threads";
    EXPECT_EQ(testbed.network().fault_counters().total(), 0u);
  }
}

// Fault injection preserves the determinism contract: a faulted campaign's
// contents are also bit-identical at any thread count (every fault draw is
// a pure function of the probe, and storm windows are stateless).
TEST(CampaignDeterminism, FaultedContentsIdenticalAcrossThreadCounts) {
  TestbedConfig config;
  config.topo_params = topo::TopologyParams::test_scale();
  config.topo_params.seed = 7;
  Testbed testbed{config};

  CampaignConfig campaign_config;
  campaign_config.faults = sim::FaultParams::uniform(0.05);
  campaign_config.threads = 1;
  const Campaign serial = Campaign::run(testbed, campaign_config);
  EXPECT_GT(testbed.network().fault_counters().total(), 0u)
      << "the 5% plan must actually inject faults for this test to bite";
  const sim::NetCounters serial_counters = testbed.network().counters();

  for (const int threads : {2, 4}) {
    campaign_config.threads = threads;
    const Campaign parallel = Campaign::run(testbed, campaign_config);
    expect_identical(serial, parallel);
    const sim::NetCounters c = testbed.network().counters();
    EXPECT_EQ(serial_counters.sent, c.sent) << threads << " threads";
    EXPECT_EQ(serial_counters.delivered, c.delivered)
        << threads << " threads";
    EXPECT_EQ(serial_counters.responses, c.responses)
        << threads << " threads";
    EXPECT_EQ(serial_counters.dropped_rate_limit, c.dropped_rate_limit)
        << threads << " threads";
  }
}

// End-to-end freeze of the tentpole contract: the *frozen dataset bytes* —
// not just in-memory contents — are identical when both the testbed (its
// oracle build) and the campaign run at 1, 2, or 8 worker threads, and
// that holds for every streaming block size. (Different block sizes
// produce different datasets by design — block-major probe order — so the
// hash is compared within a block size, never across.)
TEST(CampaignDeterminism, DatasetHashIdenticalAcrossThreadsPerStreamBlock) {
  for (const std::size_t stream_block : {std::size_t{0}, std::size_t{7}}) {
    std::uint64_t reference = 0;
    bool have_reference = false;
    for (const int threads : {1, 2, 8}) {
      TestbedConfig config;
      config.topo_params = topo::TopologyParams::test_scale();
      config.topo_params.seed = 7;
      config.threads = threads;
      Testbed testbed{config};

      CampaignConfig campaign_config;
      campaign_config.threads = threads;
      campaign_config.stream_block = stream_block;
      auto campaign = Campaign::run(testbed, campaign_config);
      const std::uint64_t hash =
          data::CampaignDataset::from_campaign(std::move(campaign),
                                               "thread-identity probe")
              .content_hash();
      if (!have_reference) {
        reference = hash;
        have_reference = true;
      } else {
        EXPECT_EQ(reference, hash)
            << threads << " threads, stream_block " << stream_block;
      }
    }
  }
}

TEST(CampaignDeterminism, RateLimitersActuallyFire) {
  // The determinism guarantee would be vacuous if the small world never
  // exercised the deferred-bucket path; make sure the campaign above
  // polices some options traffic.
  TestbedConfig config;
  config.topo_params = topo::TopologyParams::test_scale();
  config.topo_params.seed = 7;
  Testbed testbed{config};

  CampaignConfig campaign_config;
  campaign_config.threads = 4;
  (void)Campaign::run(testbed, campaign_config);
  EXPECT_GT(testbed.network().counters().dropped_rate_limit, 0u);
}

}  // namespace
}  // namespace rr::measure

// Batched-dataplane differential conformance harness.
//
// probe_batch > 1 drives the campaign's ping-RR exchanges through the SoA
// batch kernel (sim::walk_batch_pipeline + Network::send_batch) instead of
// one scalar probe_into per destination, and claims *bit-identity* with
// the scalar path — not statistical similarity. This harness proves it by
// running whole campaigns on the same frozen world and comparing frozen
// datasets (content_hash plus full equality) and the aggregate network
// counters: batched-vs-scalar at fault rates {0, 1%, 10%} x worker
// threads {1, 2, 8}, and ragged batch widths. A bucket-contention world,
// where mid-probe token kills are routine, checks that the serial pass-B
// replay keeps the campaign thread-invariant exactly where it does its
// work.
//
// When this file fails, tests/pipeline_differential_test.cpp (scalar
// engine pins) and tests/element_test.cpp (per-element specs) say which
// layer diverged.
#include <gtest/gtest.h>

#include <cstdint>

#include "data/dataset.h"
#include "measure/campaign.h"
#include "measure/testbed.h"
#include "sim/fault.h"
#include "sim/network.h"

namespace rr::measure {
namespace {

class BatchDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TestbedConfig config;
    config.topo_params = topo::TopologyParams::test_scale();
    config.topo_params.seed = 1701;
    testbed_ = new Testbed{config};
  }
  static void TearDownTestSuite() {
    delete testbed_;
    testbed_ = nullptr;
  }

  struct Run {
    data::CampaignDataset dataset;
    sim::NetCounters counters;
  };

  static Run run_campaign(Testbed& testbed, int probe_batch,
                          double fault_rate, int threads) {
    CampaignConfig config;
    config.threads = threads;
    config.probe_batch = probe_batch;
    if (fault_rate > 0.0) {
      config.faults = sim::FaultParams::uniform(fault_rate);
    }
    Campaign campaign = Campaign::run(testbed, config);
    return Run{
        data::CampaignDataset::from_campaign(std::move(campaign), "batch"),
        testbed.network().counters()};
  }

  /// The aggregate counters are part of the contract too: the batched
  /// engine must charge every drop to the same cause the scalar one does.
  static void expect_runs_equal(const Run& candidate, const Run& reference) {
    EXPECT_EQ(candidate.dataset.content_hash(),
              reference.dataset.content_hash());
    EXPECT_EQ(candidate.dataset, reference.dataset);
    EXPECT_EQ(candidate.counters, reference.counters);
  }

  /// One scalar reference (probe_batch 1, single-threaded — the exact
  /// per-probe path the batch kernel replaced) against the batched engine
  /// at every thread count. Batched runs agreeing with the same reference
  /// also proves they agree with each other.
  static void expect_batched_agrees(double fault_rate) {
    const Run scalar = run_campaign(*testbed_, 1, fault_rate, 1);
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(testing::Message()
                   << "fault_rate " << fault_rate << " threads " << threads);
      const Run batched = run_campaign(*testbed_, 16, fault_rate, threads);
      expect_runs_equal(batched, scalar);
    }
  }

  static Testbed* testbed_;
};

Testbed* BatchDifferentialTest::testbed_ = nullptr;

TEST_F(BatchDifferentialTest, BatchedBitIdenticalWithoutFaults) {
  expect_batched_agrees(0.0);
}

TEST_F(BatchDifferentialTest, BatchedBitIdenticalAtOnePercentFaults) {
  expect_batched_agrees(0.01);
}

TEST_F(BatchDifferentialTest, BatchedBitIdenticalAtTenPercentFaults) {
  expect_batched_agrees(0.10);
}

/// Widths that never divide the per-chunk probe count exercise the ragged
/// tail batch (live mask with fewer slots than kMaxProbes) on every chunk.
TEST_F(BatchDifferentialTest, RaggedBatchWidthsBitIdentical) {
  const Run scalar = run_campaign(*testbed_, 1, 0.0, 1);
  for (const int width : {3, 7}) {
    SCOPED_TRACE(testing::Message() << "probe_batch " << width);
    const Run batched = run_campaign(*testbed_, width, 0.0, 2);
    expect_runs_equal(batched, scalar);
  }
}

/// Thread invariance where mid-probe kills are routine: every router
/// polices its options slow path with a 1-2 pps bucket, so nearly every
/// ping-RR dies at a failed consume and every chunk holds kills that
/// suppress the same probe's later consumes. That is where the serial
/// replay's early break and killed_counters reconstruct what a
/// single-threaded live run would have counted — and the result must not
/// depend on how pass A was spread across workers.
TEST_F(BatchDifferentialTest, ReplayThreadInvariantUnderContention) {
  TestbedConfig config;
  config.topo_params = topo::TopologyParams::test_scale();
  config.topo_params.seed = 1701;
  config.behavior_params.router_rate_limited = 1.0;
  config.behavior_params.generous_limit_pps_min = 1;
  config.behavior_params.generous_limit_pps_max = 2;
  Testbed contended{config};

  const Run reference = run_campaign(contended, 16, 0.0, 1);
  // The contended world must actually police — if buckets never killed
  // here, the test world went stale, not the code.
  EXPECT_GT(reference.counters.dropped_rate_limit, 0u);
  for (const int threads : {2, 8}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    expect_runs_equal(run_campaign(contended, 16, 0.0, threads), reference);
  }
}

}  // namespace
}  // namespace rr::measure

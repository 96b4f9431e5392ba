// Batched-send differential conformance harness.
//
// Network::send_batch (driven by Prober::probe_batch_into, the campaign's
// ping-RR path) claims that every slot's exchange is *bit-identical* to a
// scalar send_reusing of the same probe — not statistically similar. The
// send-level differential below proves it probe by probe: every
// ProbeResult field (reply IP-IDs aside), every NetCounters field and the
// whole deferred-replay trace, at fault rates {0, 1%, 10%} and batch
// widths {1, 3, 7, 16}, over a probe mix that reaches every branch of
// send_batch — host targets of each probe type, TTL expiry in transit,
// unroutable targets, and probed router interfaces. A bucket-contention
// world, where mid-probe token kills are routine, checks that the serial
// pass-B replay keeps the campaign thread-invariant exactly where it does
// its work.
//
// When this file fails, tests/pipeline_differential_test.cpp (campaign
// pins) and tests/element_test.cpp (per-element specs) say which layer
// diverged.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "measure/campaign.h"
#include "measure/testbed.h"
#include "probe/prober.h"
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

  static Run run_campaign(Testbed& testbed, int threads) {
    CampaignConfig config;
    config.threads = threads;
    Campaign campaign = Campaign::run(testbed, config);
    return Run{
        data::CampaignDataset::from_campaign(std::move(campaign), "batch"),
        testbed.network().counters()};
  }

  static void expect_runs_equal(const Run& candidate, const Run& reference) {
    EXPECT_EQ(candidate.dataset.content_hash(),
              reference.dataset.content_hash());
    EXPECT_EQ(candidate.dataset, reference.dataset);
    EXPECT_EQ(candidate.counters, reference.counters);
  }

  static Testbed* testbed_;
};

Testbed* BatchDifferentialTest::testbed_ = nullptr;

/// Every ProbeResult field except reply_ip_id: device IP-ID counters
/// count global sends by design (sim/network.h), so the batched and
/// scalar runs of one probe draw different IDs.
void expect_same_result(const probe::ProbeResult& batched,
                        const probe::ProbeResult& scalar) {
  EXPECT_EQ(batched.target, scalar.target);
  EXPECT_EQ(batched.type, scalar.type);
  EXPECT_EQ(batched.kind, scalar.kind);
  EXPECT_EQ(batched.responder, scalar.responder);
  EXPECT_EQ(batched.rr_option_in_reply, scalar.rr_option_in_reply);
  EXPECT_EQ(batched.rr_recorded, scalar.rr_recorded);
  EXPECT_EQ(batched.rr_free_slots, scalar.rr_free_slots);
  EXPECT_EQ(batched.ts_option_in_reply, scalar.ts_option_in_reply);
  EXPECT_EQ(batched.ts_entries, scalar.ts_entries);
  EXPECT_EQ(batched.ts_overflow, scalar.ts_overflow);
  EXPECT_EQ(batched.quoted_rr_present, scalar.quoted_rr_present);
  EXPECT_EQ(batched.quoted_rr, scalar.quoted_rr);
  EXPECT_EQ(batched.quoted_rr_free_slots, scalar.quoted_rr_free_slots);
  EXPECT_EQ(batched.send_time, scalar.send_time);
  EXPECT_EQ(batched.rtt, scalar.rtt);
}

void expect_same_trace(const sim::ProbeTrace& batched,
                       const sim::ProbeTrace& scalar) {
  ASSERT_EQ(batched.events.size(), scalar.events.size());
  for (std::size_t e = 0; e < batched.events.size(); ++e) {
    EXPECT_EQ(batched.events[e].router, scalar.events[e].router);
    EXPECT_EQ(batched.events[e].time, scalar.events[e].time);
    EXPECT_EQ(batched.events[e].reply_leg, scalar.events[e].reply_leg);
  }
  EXPECT_EQ(batched.counted_delivered, scalar.counted_delivered);
  EXPECT_EQ(batched.counted_response, scalar.counted_response);
  EXPECT_EQ(batched.counted_ttl_error, scalar.counted_ttl_error);
  EXPECT_EQ(batched.counted_port_unreachable,
            scalar.counted_port_unreachable);
  EXPECT_EQ(batched.doomed, scalar.doomed);
  EXPECT_EQ(batched.doom_charged_loss, scalar.doom_charged_loss);
  EXPECT_EQ(batched.doom_after_events, scalar.doom_after_events);
}

/// Probe mix reaching every send_batch branch: host targets of every
/// probe type, TTL-limited probes that expire in transit, probed router
/// interfaces (plain and RR), runs of one target — a traceroute's
/// four-TTL window and a repeated ping, whose slots reuse or copy their
/// neighbour's forward path — and one unassigned address.
std::vector<probe::ProbeSpec> probe_mix(const topo::Topology& topology) {
  const auto dests = topology.destinations();
  const auto routers = topology.routers();
  std::vector<probe::ProbeSpec> mix;
  for (std::size_t i = 0; i < 64; ++i) {
    const net::IPv4Address host =
        topology.host_at(dests[(i * 37) % dests.size()]).address;
    const net::IPv4Address iface =
        routers[(i * 53) % routers.size()].interfaces.front();
    const auto short_ttl = static_cast<std::uint8_t>(2 + i % 5);
    switch (i % 8) {
      case 0: mix.push_back(probe::ProbeSpec::ping_rr(host)); break;
      case 1: mix.push_back(probe::ProbeSpec::ping(host)); break;
      case 2: mix.push_back(probe::ProbeSpec::ping_rr_udp(host)); break;
      case 3: mix.push_back(probe::ProbeSpec::ping_ts(host)); break;
      case 4: mix.push_back(probe::ProbeSpec::ping_rr(host, short_ttl)); break;
      case 5: {
        probe::ProbeSpec spec = probe::ProbeSpec::ping(host);
        spec.ttl = short_ttl;
        mix.push_back(spec);
        break;
      }
      case 6: mix.push_back(probe::ProbeSpec::ping_rr(iface)); break;
      case 7: mix.push_back(probe::ProbeSpec::ping(iface)); break;
    }
  }
  const net::IPv4Address traced =
      topology.host_at(dests[dests.size() / 2]).address;
  for (std::uint8_t ttl = 1; ttl <= 4; ++ttl) {
    probe::ProbeSpec spec = probe::ProbeSpec::ping(traced);
    spec.ttl = ttl;
    mix.push_back(spec);
  }
  mix.push_back(probe::ProbeSpec::ping(traced));
  mix.push_back(probe::ProbeSpec::ping(traced));
  mix.push_back(probe::ProbeSpec::ping_rr(net::IPv4Address(203, 0, 113, 7)));
  return mix;
}

/// Prober::probe_batch_into slot k against probe_into on a fresh prober
/// with the same source: both probers start at the same clock and
/// sequence number, so each probe leaves at the same virtual time with
/// the same bytes, and the two runs must agree on everything the probe
/// observes and everything the serial replay reads.
TEST_F(BatchDifferentialTest, BatchSlotsMatchScalarProbes) {
  sim::Network& net = testbed_->network();
  const std::vector<probe::ProbeSpec> mix = probe_mix(testbed_->topology());
  const topo::HostId src = testbed_->vps().front()->host;

  for (const double fault_rate : {0.0, 0.01, 0.10}) {
    net.set_fault_plan(sim::FaultPlan{sim::FaultParams::uniform(fault_rate)});

    std::vector<probe::ProbeResult> scalar(mix.size());
    std::vector<sim::SendContext> scalar_ctx(mix.size());
    auto reference = testbed_->make_prober(src);
    for (std::size_t i = 0; i < mix.size(); ++i) {
      reference.probe_into(mix[i], &scalar_ctx[i], scalar[i]);
    }
    if (fault_rate == 0.0) {
      // The mix must reach every branch — if one went silent, the test
      // world went stale, not the code.
      int echo = 0, ttl_exceeded = 0, port_unreachable = 0, router_echo = 0;
      for (std::size_t i = 0; i < mix.size(); ++i) {
        const probe::ProbeResult& r = scalar[i];
        echo += r.kind == probe::ResponseKind::kEchoReply;
        ttl_exceeded += r.kind == probe::ResponseKind::kTtlExceeded;
        port_unreachable += r.kind == probe::ResponseKind::kPortUnreachable;
        router_echo += i % 8 >= 6 && r.kind == probe::ResponseKind::kEchoReply;
      }
      EXPECT_GT(echo, 0);
      EXPECT_GT(ttl_exceeded, 0);
      EXPECT_GT(port_unreachable, 0);
      EXPECT_GT(router_echo, 0);
      EXPECT_EQ(scalar_ctx.back().counters.dropped_unroutable, 1u);
    }

    for (const std::size_t width : {1u, 3u, 7u, 16u}) {
      SCOPED_TRACE(testing::Message()
                   << "fault_rate " << fault_rate << " width " << width);
      auto batched_prober = testbed_->make_prober(src);
      std::vector<probe::ProbeResult> batched(width);
      std::vector<sim::SendContext> ctxs(width);
      for (std::size_t i0 = 0; i0 < mix.size(); i0 += width) {
        const std::size_t m = std::min(width, mix.size() - i0);
        for (std::size_t k = 0; k < m; ++k) {
          ctxs[k].counters = sim::NetCounters{};
        }
        batched_prober.probe_batch_into(
            std::span<const probe::ProbeSpec>{mix.data() + i0, m},
            std::span<sim::SendContext>{ctxs.data(), m},
            std::span<probe::ProbeResult>{batched.data(), m});
        for (std::size_t k = 0; k < m; ++k) {
          SCOPED_TRACE(testing::Message() << "probe " << i0 + k << ": "
                                          << scalar[i0 + k].to_string());
          expect_same_result(batched[k], scalar[i0 + k]);
          expect_same_trace(ctxs[k].trace, scalar_ctx[i0 + k].trace);
          EXPECT_EQ(ctxs[k].counters, scalar_ctx[i0 + k].counters);
        }
      }
    }
  }
  net.set_fault_plan(sim::FaultPlan{});
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

  const Run reference = run_campaign(contended, 1);
  // The contended world must actually police — if buckets never killed
  // here, the test world went stale, not the code.
  EXPECT_GT(reference.counters.dropped_rate_limit, 0u);
  for (const int threads : {2, 8}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    expect_runs_equal(run_campaign(contended, threads), reference);
  }
}

}  // namespace
}  // namespace rr::measure

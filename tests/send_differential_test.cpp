// Send-context differential conformance harness.
//
// Every caller that sends many probes reuses one sim::SendContext across
// them: a campaign VP's ping-RR stream, a traceroute's TTL windows, a ping
// sweep. The context carries state from send to send — the forward path
// its scratch holds (reused when the next send has the same host pair),
// the reply scratch and reverse-path scratch, the trace's event buffer —
// and none of it may leak into an outcome. The send-level differential
// below proves it probe by probe: one reused context against a fresh
// context per probe must agree on every ProbeResult field (reply IP-IDs
// aside), every NetCounters field and the whole deferred-replay trace, at
// fault rates {0, 1%, 10%}, over a probe mix that reaches every branch of
// Network::send_reusing — host targets of each probe type, TTL expiry in
// transit, unroutable targets, probed router interfaces, and runs of one
// target whose sends reuse the held forward path. A bucket-contention
// world, where mid-probe token kills are routine, checks that the serial
// pass-B replay keeps the campaign thread-invariant exactly where it does
// its work.
//
// When this file fails, tests/pipeline_differential_test.cpp (campaign
// pins) and tests/element_test.cpp (per-element specs) say which layer
// diverged.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "measure/campaign.h"
#include "measure/testbed.h"
#include "probe/prober.h"
#include "sim/fault.h"
#include "sim/network.h"

namespace rr::measure {
namespace {

class SendDifferentialTest : public ::testing::Test {
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
        data::CampaignDataset::from_campaign(std::move(campaign), "send"),
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

Testbed* SendDifferentialTest::testbed_ = nullptr;

/// Every ProbeResult field except reply_ip_id: device IP-ID counters
/// count global sends by design (sim/network.h), so two runs of one probe
/// draw different IDs.
void expect_same_result(const probe::ProbeResult& reused,
                        const probe::ProbeResult& fresh) {
  EXPECT_EQ(reused.target, fresh.target);
  EXPECT_EQ(reused.type, fresh.type);
  EXPECT_EQ(reused.kind, fresh.kind);
  EXPECT_EQ(reused.responder, fresh.responder);
  EXPECT_EQ(reused.rr_option_in_reply, fresh.rr_option_in_reply);
  EXPECT_EQ(reused.rr_recorded, fresh.rr_recorded);
  EXPECT_EQ(reused.rr_free_slots, fresh.rr_free_slots);
  EXPECT_EQ(reused.ts_option_in_reply, fresh.ts_option_in_reply);
  EXPECT_EQ(reused.ts_entries, fresh.ts_entries);
  EXPECT_EQ(reused.ts_overflow, fresh.ts_overflow);
  EXPECT_EQ(reused.quoted_rr_present, fresh.quoted_rr_present);
  EXPECT_EQ(reused.quoted_rr, fresh.quoted_rr);
  EXPECT_EQ(reused.quoted_rr_free_slots, fresh.quoted_rr_free_slots);
  EXPECT_EQ(reused.send_time, fresh.send_time);
  EXPECT_EQ(reused.rtt, fresh.rtt);
}

void expect_same_trace(const sim::ProbeTrace& reused,
                       const sim::ProbeTrace& fresh) {
  ASSERT_EQ(reused.events.size(), fresh.events.size());
  for (std::size_t e = 0; e < reused.events.size(); ++e) {
    EXPECT_EQ(reused.events[e].router, fresh.events[e].router);
    EXPECT_EQ(reused.events[e].time, fresh.events[e].time);
    EXPECT_EQ(reused.events[e].reply_leg, fresh.events[e].reply_leg);
  }
  EXPECT_EQ(reused.counted_delivered, fresh.counted_delivered);
  EXPECT_EQ(reused.counted_response, fresh.counted_response);
  EXPECT_EQ(reused.counted_ttl_error, fresh.counted_ttl_error);
  EXPECT_EQ(reused.counted_port_unreachable,
            fresh.counted_port_unreachable);
  EXPECT_EQ(reused.doomed, fresh.doomed);
  EXPECT_EQ(reused.doom_charged_loss, fresh.doom_charged_loss);
  EXPECT_EQ(reused.doom_after_events, fresh.doom_after_events);
}

/// Probe mix reaching every send_reusing branch: host targets of every
/// probe type, TTL-limited probes that expire in transit, probed router
/// interfaces (plain and RR), runs of one target — a traceroute's
/// four-TTL window and a repeated ping, whose sends on a reused context
/// reuse the forward path it holds — and one unassigned address.
std::vector<probe::ProbeSpec> probe_mix(const topo::Topology& topology) {
  const auto dests = topology.destinations();
  const auto routers = topology.routers();
  std::vector<probe::ProbeSpec> mix;
  for (std::size_t i = 0; i < 64; ++i) {
    const net::IPv4Address host =
        topology.host_at(dests[(i * 37) % dests.size()]).address;
    const net::IPv4Address iface =
        routers[(i * 53) % routers.size()].loopback;
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

/// The mix through one reused SendContext against a fresh context per
/// probe. Both probers start at the same clock and sequence number, so
/// each probe leaves at the same virtual time with the same bytes, and
/// the two runs must agree on everything the probe observes and
/// everything the serial replay reads. The reused context's counters are
/// cleared before each probe, as the campaign's pass A clears them, and
/// it carries its state across fault rates too.
TEST_F(SendDifferentialTest, ReusedContextMatchesFreshContexts) {
  sim::Network& net = testbed_->network();
  const std::vector<probe::ProbeSpec> mix = probe_mix(testbed_->topology());
  const topo::HostId src = testbed_->vps().front()->host;
  sim::SendContext reused_ctx;

  for (const double fault_rate : {0.0, 0.01, 0.10}) {
    SCOPED_TRACE(testing::Message() << "fault_rate " << fault_rate);
    net.set_fault_plan(sim::FaultPlan{sim::FaultParams::uniform(fault_rate)});

    std::vector<probe::ProbeResult> fresh(mix.size());
    std::vector<sim::SendContext> fresh_ctx(mix.size());
    auto reference = testbed_->make_prober(src);
    for (std::size_t i = 0; i < mix.size(); ++i) {
      reference.probe_into(mix[i], &fresh_ctx[i], fresh[i]);
    }
    if (fault_rate == 0.0) {
      // The mix must reach every branch — if one went silent, the test
      // world went stale, not the code.
      int echo = 0, ttl_exceeded = 0, port_unreachable = 0, router_echo = 0;
      for (std::size_t i = 0; i < mix.size(); ++i) {
        const probe::ProbeResult& r = fresh[i];
        echo += r.kind == probe::ResponseKind::kEchoReply;
        ttl_exceeded += r.kind == probe::ResponseKind::kTtlExceeded;
        port_unreachable += r.kind == probe::ResponseKind::kPortUnreachable;
        router_echo += i % 8 >= 6 && r.kind == probe::ResponseKind::kEchoReply;
      }
      EXPECT_GT(echo, 0);
      EXPECT_GT(ttl_exceeded, 0);
      EXPECT_GT(port_unreachable, 0);
      EXPECT_GT(router_echo, 0);
      EXPECT_EQ(fresh_ctx.back().counters.dropped_unroutable, 1u);
    }

    auto prober = testbed_->make_prober(src);
    probe::ProbeResult reused;
    for (std::size_t i = 0; i < mix.size(); ++i) {
      SCOPED_TRACE(testing::Message()
                   << "probe " << i << ": " << fresh[i].to_string());
      reused_ctx.counters = sim::NetCounters{};
      prober.probe_into(mix[i], &reused_ctx, reused);
      expect_same_result(reused, fresh[i]);
      expect_same_trace(reused_ctx.trace, fresh_ctx[i].trace);
      EXPECT_EQ(reused_ctx.counters, fresh_ctx[i].counters);
    }
  }
  net.set_fault_plan(sim::FaultPlan{});
}

/// Thread invariance where mid-probe kills are routine: every router
/// polices its options slow path with a 1-2 pps bucket, so nearly every
/// ping-RR dies at a failed consume and every chunk holds kills that
/// suppress the same probe's later consumes. That is where
/// Network::settle's early break and kill rule reconstruct what a walk
/// that met the empty buckets live would have counted — and the result
/// must not depend on how pass A was spread across workers.
TEST_F(SendDifferentialTest, ReplayThreadInvariantUnderContention) {
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

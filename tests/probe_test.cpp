// The scamper-like prober: pacing, probe construction, response parsing,
// traceroute mechanics.
#include <gtest/gtest.h>

#include <algorithm>

#include "measure/testbed.h"
#include "probe/prober.h"

namespace rr::probe {
namespace {

class ProbeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    measure::TestbedConfig config;
    config.topo_params = topo::TopologyParams::test_scale();
    config.topo_params.seed = 33;
    testbed_ = new measure::Testbed{config};
  }
  static void TearDownTestSuite() {
    delete testbed_;
    testbed_ = nullptr;
  }

  static topo::HostId vp_host() {
    return testbed_->vps().front()->host;
  }
  static net::IPv4Address dest_address(std::size_t i) {
    return testbed_->topology().host_at(
        testbed_->topology().destinations()[i]).address;
  }

  static measure::Testbed* testbed_;
};

measure::Testbed* ProbeTest::testbed_ = nullptr;

TEST_F(ProbeTest, ClockAdvancesAtConfiguredRate) {
  auto prober = testbed_->make_prober(vp_host(), 20.0);
  EXPECT_DOUBLE_EQ(prober.clock(), 0.0);
  (void)prober.probe(ProbeSpec::ping(dest_address(0)));
  EXPECT_DOUBLE_EQ(prober.clock(), 0.05);
  (void)prober.probe(ProbeSpec::ping(dest_address(1)));
  EXPECT_DOUBLE_EQ(prober.clock(), 0.10);
}

TEST_F(ProbeTest, PingGetsEchoReplyFromResponsiveDest) {
  auto prober = testbed_->make_prober(vp_host(), 100.0);
  int replies = 0;
  const std::size_t n =
      std::min<std::size_t>(testbed_->topology().destinations().size(), 200);
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = prober.probe(ProbeSpec::ping(dest_address(i)));
    if (r.kind == ResponseKind::kEchoReply) {
      ++replies;
      EXPECT_EQ(r.responder, dest_address(i));
      EXPECT_GT(r.rtt, 0.0);
      EXPECT_FALSE(r.rr_option_in_reply);  // plain ping carries no option
    }
  }
  // Roughly three quarters of destinations answer ping.
  EXPECT_GT(replies, static_cast<int>(n / 2));
  EXPECT_EQ(prober.mismatched(), 0u);
}

TEST_F(ProbeTest, PingRrRecordsRoute) {
  auto prober = testbed_->make_prober(vp_host(), 100.0);
  int with_option = 0, with_dest_stamp = 0;
  const std::size_t n =
      std::min<std::size_t>(testbed_->topology().destinations().size(), 300);
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = prober.probe(ProbeSpec::ping_rr(dest_address(i)));
    if (r.kind != ResponseKind::kEchoReply || !r.rr_option_in_reply) continue;
    ++with_option;
    EXPECT_LE(r.rr_recorded.size(), 9u);
    EXPECT_EQ(static_cast<int>(r.rr_recorded.size()) + r.rr_free_slots, 9);
    if (std::find(r.rr_recorded.begin(), r.rr_recorded.end(),
                  dest_address(i)) != r.rr_recorded.end()) {
      ++with_dest_stamp;
    }
  }
  EXPECT_GT(with_option, 0);
  EXPECT_GT(with_dest_stamp, 0);
}

TEST_F(ProbeTest, PingTsRecordsAddressTimestampPairs) {
  auto prober = testbed_->make_prober(vp_host(), 100.0);
  int with_ts = 0, overflowed = 0;
  const std::size_t n =
      std::min<std::size_t>(testbed_->topology().destinations().size(), 300);
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = prober.probe(ProbeSpec::ping_ts(dest_address(i)));
    if (r.kind != ResponseKind::kEchoReply || !r.ts_option_in_reply) continue;
    ++with_ts;
    EXPECT_LE(r.ts_entries.size(), 4u);  // the option area caps TS at four
    if (r.ts_overflow > 0) ++overflowed;
    // Timestamps are non-decreasing along the forward path.
    for (std::size_t k = 1; k < r.ts_entries.size(); ++k) {
      EXPECT_GE(r.ts_entries[k].second, r.ts_entries[k - 1].second);
    }
  }
  EXPECT_GT(with_ts, 0);
  // Most paths are longer than four hops: overflow should be common —
  // the wire-format reason the paper prefers RR's nine slots.
  EXPECT_GT(overflowed, with_ts / 2);
}

TEST_F(ProbeTest, UdpProbeElicitsPortUnreachable) {
  auto prober = testbed_->make_prober(vp_host(), 100.0);
  int unreachables = 0;
  const std::size_t n =
      std::min<std::size_t>(testbed_->topology().destinations().size(), 300);
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = prober.probe(ProbeSpec::ping_rr_udp(dest_address(i)));
    if (r.kind == ResponseKind::kPortUnreachable) {
      ++unreachables;
      EXPECT_TRUE(r.quoted_rr_present);
      EXPECT_EQ(static_cast<int>(r.quoted_rr.size()) +
                    r.quoted_rr_free_slots, 9);
    }
  }
  EXPECT_GT(unreachables, 0);
}

TEST_F(ProbeTest, TtlLimitedProbeYieldsTimeExceeded) {
  auto prober = testbed_->make_prober(vp_host(), 100.0);
  int exceeded = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    const auto r = prober.probe(ProbeSpec::ping_rr(dest_address(i), 2));
    if (r.kind == ResponseKind::kTtlExceeded) {
      ++exceeded;
      EXPECT_TRUE(r.quoted_rr_present);
      // Expired two hops out: at most 2 forward stamps in the quote.
      EXPECT_LE(r.quoted_rr.size(), 2u);
    }
  }
  EXPECT_GT(exceeded, 10);
}

TEST_F(ProbeTest, TracerouteReachesRespondingDestination) {
  auto prober = testbed_->make_prober(vp_host(), 200.0);
  int reached = 0;
  for (std::size_t i = 0; i < 60 && reached < 5; ++i) {
    const auto trace = prober.traceroute(dest_address(i), 30, 2);
    if (!trace.reached) continue;
    ++reached;
    EXPECT_GT(trace.hop_count(), 1);
    EXPECT_EQ(trace.hops.back().kind, ResponseKind::kEchoReply);
    EXPECT_EQ(trace.hops.back().address, dest_address(i));
    // Intermediate responding hops are routers, not the destination.
    for (std::size_t h = 0; h + 1 < trace.hops.size(); ++h) {
      if (!trace.hops[h].responded) continue;
      EXPECT_EQ(trace.hops[h].kind, ResponseKind::kTtlExceeded);
      EXPECT_NE(trace.hops[h].address, dest_address(i));
    }
  }
  EXPECT_GE(reached, 5);
}

TEST_F(ProbeTest, TracerouteHopsAreMonotoneTtl) {
  auto prober = testbed_->make_prober(vp_host(), 200.0);
  const auto trace = prober.traceroute(dest_address(2), 20, 1);
  for (std::size_t h = 0; h < trace.hops.size(); ++h) {
    EXPECT_EQ(trace.hops[h].ttl, static_cast<int>(h) + 1);
  }
}

TEST_F(ProbeTest, TracerouteIntoReusedResultMatchesFreshTraces) {
  // Two probers on one source and clock send identical probe streams: one
  // fills a fresh result per trace, the other reuses one result. Every
  // trace must match, and each trace's tally must count its own probes.
  auto fresh_prober = testbed_->make_prober(vp_host(), 200.0);
  auto reusing_prober = testbed_->make_prober(vp_host(), 200.0);
  TracerouteResult reused;
  int reached = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    SCOPED_TRACE(testing::Message() << "trace " << i);
    sim::NetCounters fresh_tally;
    sim::NetCounters reused_tally;
    TraceOptions options;
    options.counters = &fresh_tally;
    const TracerouteResult fresh =
        fresh_prober.traceroute(dest_address(i), options);
    options.counters = &reused_tally;
    reusing_prober.traceroute_into(dest_address(i), options, reused);
    reached += fresh.reached;
    EXPECT_EQ(reused.target, fresh.target);
    EXPECT_EQ(reused.reached, fresh.reached);
    EXPECT_EQ(reused.probes_sent, fresh.probes_sent);
    ASSERT_EQ(reused.hops.size(), fresh.hops.size());
    for (std::size_t h = 0; h < fresh.hops.size(); ++h) {
      EXPECT_EQ(reused.hops[h].ttl, fresh.hops[h].ttl);
      EXPECT_EQ(reused.hops[h].responded, fresh.hops[h].responded);
      EXPECT_EQ(reused.hops[h].address, fresh.hops[h].address);
      EXPECT_EQ(reused.hops[h].kind, fresh.hops[h].kind);
    }
    EXPECT_EQ(reused_tally, fresh_tally);
    EXPECT_EQ(reused_tally.sent, reused.probes_sent);
  }
  EXPECT_GT(reached, 0);
}

TEST_F(ProbeTest, ResultsAreDeterministicAcrossRuns) {
  // Two fresh networks with identical seeds produce identical outcomes.
  measure::TestbedConfig config;
  config.topo_params = topo::TopologyParams::test_scale();
  config.topo_params.seed = 77;
  measure::Testbed a{config}, b{config};
  auto pa = a.make_prober(a.vps().front()->host, 50.0);
  auto pb = b.make_prober(b.vps().front()->host, 50.0);
  for (std::size_t i = 0; i < 100; ++i) {
    const auto da = a.topology().host_at(a.topology().destinations()[i]).address;
    const auto db = b.topology().host_at(b.topology().destinations()[i]).address;
    ASSERT_EQ(da, db);
    const auto ra = pa.probe(ProbeSpec::ping_rr(da));
    const auto rb = pb.probe(ProbeSpec::ping_rr(db));
    EXPECT_EQ(ra.kind, rb.kind);
    EXPECT_EQ(ra.rr_recorded, rb.rr_recorded);
  }
}

}  // namespace
}  // namespace rr::probe

// Behaviour assignment and the packet-walking network simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "packet/datagram.h"
#include "packet/mutate.h"
#include "packet/wire.h"
#include "routing/oracle.h"
#include "sim/behavior.h"
#include "sim/network.h"
#include "sim/token_bucket.h"
#include "topology/generator.h"

namespace rr::sim {
namespace {

// ------------------------------------------------------------ TokenBucket

TEST(TokenBucket, AllowsBurstThenPolices) {
  TokenBucket bucket{10.0, 5.0};
  int allowed = 0;
  for (int i = 0; i < 20; ++i) {
    if (bucket.try_consume(0.0)) ++allowed;
  }
  EXPECT_EQ(allowed, 5);  // burst exhausted at t=0
}

TEST(TokenBucket, RefillsOverTime) {
  TokenBucket bucket{10.0, 5.0};
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bucket.try_consume(0.0));
  EXPECT_FALSE(bucket.try_consume(0.0));
  EXPECT_TRUE(bucket.try_consume(0.2));   // 2 tokens refilled
  EXPECT_TRUE(bucket.try_consume(0.2));
  EXPECT_FALSE(bucket.try_consume(0.2));
}

TEST(TokenBucket, SustainedRateMatchesConfig) {
  TokenBucket bucket{50.0, 10.0};
  int allowed = 0;
  const int probes = 1000;
  for (int i = 0; i < probes; ++i) {
    if (bucket.try_consume(i * 0.01)) ++allowed;  // offered 100 pps
  }
  // ~50 pps over 10 seconds => ~500 allowed (plus the burst).
  EXPECT_NEAR(allowed, 510, 30);
}

TEST(TokenBucket, ZeroRateMeansUnpoliced) {
  TokenBucket bucket{0.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.try_consume(0.0));
}

TEST(TokenBucket, ToleratesBackwardsTime) {
  TokenBucket bucket{10.0, 2.0};
  EXPECT_TRUE(bucket.try_consume(5.0));
  EXPECT_TRUE(bucket.try_consume(1.0));  // time regressed; no refill, no crash
  EXPECT_FALSE(bucket.try_consume(1.0));
}

// -------------------------------------------------------------- Behaviors

class SimTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = topo::generate_test_topology(33);
    BehaviorParams params;
    behaviors_ = std::make_shared<Behaviors>(topo_, params);
    std::vector<topo::AsId> sources;
    for (const auto& vp : topo_->vantage_points()) {
      sources.push_back(topo_->host_at(vp.host).as_id);
    }
    sources.push_back(topo_->host_at(topo_->probe_host()).as_id);
    oracle_ = new route::RoutingOracle{topo_, topo::Epoch::k2016, sources};
  }
  static void TearDownTestSuite() {
    delete oracle_;
    oracle_ = nullptr;
    behaviors_.reset();
    topo_.reset();
  }

  void SetUp() override {
    network_ = std::make_unique<Network>(topo_, behaviors_, *oracle_,
                                         NetParams{});
  }

  /// A destination whose behaviour satisfies `pred`, for deterministic
  /// white-box scenarios.
  topo::HostId find_dest(
      const std::function<bool(topo::HostId)>& pred) const {
    for (const topo::HostId id : topo_->destinations()) {
      if (pred(id)) return id;
    }
    return topo::kNoHost;
  }

  /// Sends a ping(+RR) from the first VP host and returns the parsed reply.
  std::optional<pkt::Datagram> ping_from_vp(topo::HostId dst, int rr_slots,
                                            std::uint8_t ttl = 64) {
    const topo::HostId src = topo_->vantage_points().front().host;
    const auto probe =
        pkt::make_ping(topo_->host_at(src).address,
                       topo_->host_at(dst).address, 100, 1, ttl, rr_slots);
    auto bytes = probe.serialize();
    if (!bytes) return std::nullopt;
    SendContext ctx;
    const auto delivery = network_->send_settled(src, *bytes, 0.0, ctx);
    if (!delivery) return std::nullopt;
    return pkt::Datagram::parse(delivery->bytes);
  }

  static std::shared_ptr<const topo::Topology> topo_;
  static std::shared_ptr<Behaviors> behaviors_;
  static route::RoutingOracle* oracle_;
  std::unique_ptr<Network> network_;
};

std::shared_ptr<const topo::Topology> SimTest::topo_;
std::shared_ptr<Behaviors> SimTest::behaviors_;
route::RoutingOracle* SimTest::oracle_ = nullptr;

TEST_F(SimTest, BehaviorAssignmentIsDeterministic) {
  Behaviors again{topo_, BehaviorParams{}};
  for (topo::HostId id = 0; id < topo_->hosts().size(); id += 11) {
    EXPECT_EQ(again.host(id).ping_responsive,
              behaviors_->host(id).ping_responsive);
    EXPECT_EQ(again.host(id).rr_handling, behaviors_->host(id).rr_handling);
  }
  for (topo::RouterId id = 0; id < topo_->routers().size(); id += 11) {
    EXPECT_EQ(again.router(id).stamps, behaviors_->router(id).stamps);
  }
}

TEST_F(SimTest, PingResponsiveHostAnswersEcho) {
  const auto dst = find_dest([&](topo::HostId id) {
    return behaviors_->host(id).ping_responsive;
  });
  ASSERT_NE(dst, topo::kNoHost);
  // Loss is rare but nonzero; try a few times.
  for (int attempt = 0; attempt < 5; ++attempt) {
    const auto reply = ping_from_vp(dst, 0);
    if (!reply) continue;
    EXPECT_EQ(reply->header.source, topo_->host_at(dst).address);
    ASSERT_NE(reply->icmp(), nullptr);
    EXPECT_EQ(reply->icmp()->type, pkt::IcmpType::kEchoReply);
    return;
  }
  FAIL() << "no reply in 5 attempts";
}

TEST_F(SimTest, UnresponsiveHostStaysSilent) {
  const auto dst = find_dest([&](topo::HostId id) {
    return !behaviors_->host(id).ping_responsive;
  });
  ASSERT_NE(dst, topo::kNoHost);
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_FALSE(ping_from_vp(dst, 0).has_value());
  }
}

TEST_F(SimTest, RecordRouteReplyCarriesStamps) {
  // Find a copying destination in a non-filtering AS near the VP.
  const topo::HostId src_host = topo_->vantage_points().front().host;
  const topo::AsId src_as = topo_->host_at(src_host).as_id;
  ASSERT_FALSE(behaviors_->as_behavior(src_as).filters_edge)
      << "test VP sits behind an option filter; pick another seed";

  bool found_any = false;
  for (const topo::HostId dst : topo_->destinations()) {
    const auto& hb = behaviors_->host(dst);
    const auto& ab = behaviors_->as_behavior(topo_->host_at(dst).as_id);
    if (!hb.ping_responsive || hb.rr_handling != RrHandling::kCopy ||
        ab.filters_edge) {
      continue;
    }
    const auto reply = ping_from_vp(dst, 9);
    if (!reply) continue;
    const auto* rr = reply->header.record_route();
    if (rr == nullptr) continue;
    found_any = true;
    EXPECT_GT(rr->recorded.size(), 0u);
    // Every recorded address must be a real assigned address.
    for (const auto& addr : rr->recorded) {
      EXPECT_TRUE(topo_->owner_of(addr).has_value())
          << addr.to_string() << " is not an assigned address";
    }
    break;
  }
  EXPECT_TRUE(found_any);
}

TEST_F(SimTest, SelfStampingDestinationAppearsInHeader) {
  const topo::HostId src_host = topo_->vantage_points().front().host;
  int reachable_seen = 0;
  for (const topo::HostId dst : topo_->destinations()) {
    const auto& hb = behaviors_->host(dst);
    if (!hb.ping_responsive || hb.rr_handling != RrHandling::kCopy ||
        !hb.stamps_self || hb.stamp_address != topo_->host_at(dst).address) {
      continue;
    }
    const auto reply = ping_from_vp(dst, 9);
    if (!reply) continue;
    const auto* rr = reply->header.record_route();
    if (rr == nullptr) continue;
    const auto& recorded = rr->recorded;
    const auto it = std::find(recorded.begin(), recorded.end(),
                              topo_->host_at(dst).address);
    if (it != recorded.end()) {
      ++reachable_seen;
      // Everything before the destination's stamp is a router egress on
      // the forward path.
      for (auto jt = recorded.begin(); jt != it; ++jt) {
        const auto owner = topo_->owner_of(*jt);
        ASSERT_TRUE(owner.has_value());
        EXPECT_EQ(owner->kind, topo::AddressOwner::Kind::kRouter);
      }
    }
    if (reachable_seen >= 3) break;
  }
  EXPECT_GE(reachable_seen, 1) << "no destination proved RR-reachable";
  (void)src_host;
}

TEST_F(SimTest, TtlExpiryProducesTimeExceededWithQuotedRr) {
  // TTL 1 expires at the very first router; the quote must carry the RR
  // option (still empty — stamping happens after the TTL check).
  const auto dst = topo_->destinations()[0];
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto reply = ping_from_vp(dst, 9, /*ttl=*/1);
    if (!reply) continue;  // anonymous first hop or loss
    ASSERT_NE(reply->icmp(), nullptr);
    EXPECT_EQ(reply->icmp()->type, pkt::IcmpType::kTimeExceeded);
    const auto* body = reply->icmp()->error_body();
    ASSERT_NE(body, nullptr);
    const auto quoted = pkt::Ipv4Header::parse(body->quoted_datagram);
    ASSERT_TRUE(quoted.has_value());
    EXPECT_EQ(quoted->ttl, 0);
    ASSERT_NE(quoted->record_route(), nullptr);
    return;
  }
  GTEST_SKIP() << "first-hop router is anonymous for this seed";
}

TEST_F(SimTest, UdpProbeGetsPortUnreachableWithQuote) {
  const topo::HostId src = topo_->vantage_points().front().host;
  for (const topo::HostId dst : topo_->destinations()) {
    const auto& hb = behaviors_->host(dst);
    const auto& ab = behaviors_->as_behavior(topo_->host_at(dst).as_id);
    if (!hb.ping_responsive || !hb.responds_udp || ab.filters_edge ||
        hb.rr_handling == RrHandling::kDrop) {
      continue;
    }
    const auto probe = pkt::make_udp_probe(
        topo_->host_at(src).address, topo_->host_at(dst).address, 40000,
        33435, 64, 9);
    auto bytes = probe.serialize();
    ASSERT_TRUE(bytes.has_value());
    SendContext ctx;
    const auto delivery = network_->send_settled(src, *bytes, 0.0, ctx);
    if (!delivery) continue;
    const auto reply = pkt::Datagram::parse(delivery->bytes);
    ASSERT_TRUE(reply.has_value());
    ASSERT_NE(reply->icmp(), nullptr);
    EXPECT_EQ(reply->icmp()->type, pkt::IcmpType::kDestUnreachable);
    EXPECT_EQ(reply->icmp()->code, pkt::kCodePortUnreachable);
    const auto* error_body = reply->icmp()->error_body();
    ASSERT_NE(error_body, nullptr);
    const auto quoted = pkt::Ipv4Header::parse(error_body->quoted_datagram);
    ASSERT_TRUE(quoted.has_value());
    // The quote reflects the datagram as it arrived: forward stamps only.
    ASSERT_NE(quoted->record_route(), nullptr);
    return;
  }
  FAIL() << "no UDP-responsive destination answered";
}

TEST_F(SimTest, EdgeFilteringBlocksOptionsButNotPlainPings) {
  // A destination in an edge-filtering AS answers ping but not ping-RR.
  const auto dst = find_dest([&](topo::HostId id) {
    const auto& hb = behaviors_->host(id);
    const auto& ab = behaviors_->as_behavior(topo_->host_at(id).as_id);
    return hb.ping_responsive && ab.filters_edge &&
           hb.rr_handling == RrHandling::kCopy;
  });
  if (dst == topo::kNoHost) GTEST_SKIP() << "no filtered dest in this seed";

  bool ping_ok = false;
  for (int attempt = 0; attempt < 5 && !ping_ok; ++attempt) {
    ping_ok = ping_from_vp(dst, 0).has_value();
  }
  EXPECT_TRUE(ping_ok);
  for (int attempt = 0; attempt < 5; ++attempt) {
    EXPECT_FALSE(ping_from_vp(dst, 9).has_value());
  }
}

TEST_F(SimTest, RateLimiterDropsFastOptionsTraffic) {
  // Saturate one policed router via a strict-limited VP if present.
  const auto& strict = behaviors_->strict_limited_vp_indices();
  if (strict.empty()) GTEST_SKIP() << "no strict-limited VP in this seed";
  const auto& vp = topo_->vantage_points()[strict.front()];
  const topo::HostId src = vp.host;

  // Find any destination that answers ping-RR from this VP at slow rate.
  SendContext ctx;
  topo::HostId dst = topo::kNoHost;
  for (const topo::HostId candidate : topo_->destinations()) {
    const auto probe = pkt::make_ping(topo_->host_at(src).address,
                                      topo_->host_at(candidate).address, 7,
                                      1, 64, 9);
    auto bytes = probe.serialize();
    const auto delivery = network_->send_settled(src, *bytes, 1000.0, ctx);
    if (delivery) {
      dst = candidate;
      break;
    }
  }
  if (dst == topo::kNoHost) GTEST_SKIP() << "VP cannot probe RR at all";

  // Now probe at 200 pps: most probes must be policed.
  network_->reset();
  int answered = 0;
  const int probes = 200;
  for (int i = 0; i < probes; ++i) {
    const auto probe = pkt::make_ping(
        topo_->host_at(src).address, topo_->host_at(dst).address, 7,
        static_cast<std::uint16_t>(i + 2), 64, 9);
    auto bytes = probe.serialize();
    if (network_->send_settled(src, *bytes, i * 0.005, ctx)) {
      ++answered;
    } else {
      // A policed exchange hands its storage back for the next probe.
      EXPECT_FALSE(bytes->empty());
    }
  }
  EXPECT_LT(answered, probes / 2);
  EXPECT_GT(network_->counters().dropped_rate_limit, 0u);
}

TEST_F(SimTest, CountersTrackTraffic) {
  network_->reset();
  const auto dst = topo_->destinations()[1];
  (void)ping_from_vp(dst, 0);
  EXPECT_EQ(network_->counters().sent, 1u);
}

/// One SendContext alternating between two networks over one topology
/// (2011 and 2016 routing) and between a host and a router interface: its
/// forward scratch must hold each send's own path every time — the
/// network's PathStitcher::host_path for a host — never a path kept from
/// the other network or from a router-target send.
TEST_F(SimTest, ReusedContextGetsEachNetworksOwnPath) {
  std::vector<topo::AsId> sources;
  for (const auto& vp : topo_->vantage_points()) {
    sources.push_back(topo_->host_at(vp.host).as_id);
  }
  route::RoutingOracle oracle_2011{topo_, topo::Epoch::k2011, sources};
  Network net_2011{topo_, behaviors_, oracle_2011, NetParams{}};
  Network& net_2016 = *network_;

  // A destination whose router path differs between the epochs, so a
  // path kept from the other network would show.
  const topo::HostId src = topo_->vantage_points().front().host;
  std::vector<route::PathHop> path_2011, path_2016;
  const auto same_routers = [](const std::vector<route::PathHop>& a,
                               const std::vector<route::PathHop>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const route::PathHop& x, const route::PathHop& y) {
                        return x.router == y.router;
                      });
  };
  const topo::HostId dst = find_dest([&](topo::HostId id) {
    return net_2011.stitcher().host_path(src, id, path_2011) &&
           net_2016.stitcher().host_path(src, id, path_2016) &&
           !same_routers(path_2011, path_2016);
  });
  ASSERT_NE(dst, topo::kNoHost);
  const topo::RouterId router = path_2016[path_2016.size() / 2].router;

  struct Send {
    Network* net;
    bool to_host;
  };
  const Send sends[] = {
      {&net_2011, true},  {&net_2016, true},  {&net_2016, true},
      {&net_2016, false}, {&net_2016, true},  {&net_2011, true},
      {&net_2011, false}, {&net_2011, true},  {&net_2011, true},
      {&net_2016, false}, {&net_2011, true},  {&net_2016, true},
  };
  SendContext ctx;
  std::vector<std::uint8_t> bytes;
  std::vector<route::PathHop> expected;
  double time = 0.0;
  for (const Send& send : sends) {
    const bool is_2011 = send.net == &net_2011;
    SCOPED_TRACE(testing::Message() << (is_2011 ? "2011 " : "2016 ")
                                    << (send.to_host ? "host" : "router"));
    const net::IPv4Address target =
        send.to_host ? topo_->host_at(dst).address
                     : topo_->router_interfaces(router).back();
    pkt::build_ping(bytes, topo_->host_at(src).address, target, 100, 1, 64,
                    0);
    (void)send.net->send_reusing(src, bytes, time, ctx);
    time += 1.0;
    ASSERT_TRUE(send.to_host
                    ? send.net->stitcher().host_path(src, dst, expected)
                    : send.net->stitcher().host_to_router_path(src, router,
                                                               expected));
    const std::vector<route::PathHop>& got = ctx.fwd_path.hops;
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t h = 0; h < got.size(); ++h) {
      EXPECT_EQ(got[h].router, expected[h].router) << "hop " << h;
      EXPECT_EQ(got[h].ingress, expected[h].ingress) << "hop " << h;
      EXPECT_EQ(got[h].egress, expected[h].egress) << "hop " << h;
    }
  }
}

TEST_F(SimTest, RepliesUseDeviceIpIds) {
  // Two pings to the same responsive destination: IP-IDs must advance.
  const auto dst = find_dest([&](topo::HostId id) {
    return behaviors_->host(id).ping_responsive;
  });
  ASSERT_NE(dst, topo::kNoHost);
  std::vector<std::uint16_t> ids;
  for (int i = 0; i < 6 && ids.size() < 2; ++i) {
    const auto reply = ping_from_vp(dst, 0);
    if (reply) ids.push_back(reply->header.identification);
  }
  ASSERT_GE(ids.size(), 2u);
  EXPECT_NE(ids[0], ids[1]);
}

}  // namespace
}  // namespace rr::sim

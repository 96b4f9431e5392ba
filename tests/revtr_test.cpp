// Reverse Traceroute: spoofed-probe mechanics and end-to-end reverse-path
// measurement, validated against the simulator's own reverse-path ground
// truth (which the measurement never sees).
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "packet/datagram.h"
#include "revtr/reverse_traceroute.h"

namespace rr::revtr {
namespace {

class RevTrTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    measure::TestbedConfig config;
    config.topo_params = topo::TopologyParams::test_scale();
    config.topo_params.seed = 555;
    // Keep the mechanism tests deterministic: no loss, no filters.
    config.behavior_params.base_loss = 0.0;
    config.behavior_params.options_extra_loss = 0.0;
    config.behavior_params.as_filters_edge = {0, 0, 0, 0};
    config.behavior_params.as_filters_transit = 0.0;
    config.behavior_params.host_drops_rr = {0, 0, 0, 0};
    config.behavior_params.host_strips_rr = {0, 0, 0, 0};
    config.behavior_params.host_ping_responsive = {1, 1, 1, 1};
    config.behavior_params.as_dark = {0, 0, 0, 0};
    config.behavior_params.host_no_self_stamp = 0.0;
    config.behavior_params.host_stamps_alias = 0.0;
    config.behavior_params.as_never_stamps = 0.0;
    config.behavior_params.as_sometimes_stamps = 0.0;
    config.behavior_params.router_hidden = 0.0;
    config.behavior_params.router_anonymous = 0.0;
    config.behavior_params.router_rate_limited = 0.0;
    config.behavior_params.strict_limited_vps = 0;
    testbed_ = new measure::Testbed{config};
    campaign_ = new measure::Campaign{measure::Campaign::run(*testbed_)};
  }
  static void TearDownTestSuite() {
    delete campaign_;
    delete testbed_;
  }

  static measure::Testbed* testbed_;
  static measure::Campaign* campaign_;
};

measure::Testbed* RevTrTest::testbed_ = nullptr;
measure::Campaign* RevTrTest::campaign_ = nullptr;

TEST_F(RevTrTest, SpoofedProbeIsDeliveredToTheNamedSource) {
  // A probe injected at VP A but naming VP B's address gets its reply
  // delivered to B, not A.
  const auto vps = testbed_->vps();
  ASSERT_GE(vps.size(), 2u);
  const topo::HostId injector = vps[0]->host;
  const topo::HostId named = vps[1]->host;
  const auto& topology = testbed_->topology();

  const auto target = topology.host_at(topology.destinations()[0]).address;
  const auto probe = pkt::make_ping(topology.host_at(named).address, target,
                                    0x9999, 1, 64, 9);
  auto bytes = *probe.serialize();
  sim::SendContext ctx;
  const auto delivery =
      testbed_->network().send_settled(injector, bytes, 0.0, ctx);
  ASSERT_TRUE(delivery.has_value());
  EXPECT_EQ(delivery->receiver, named);
  const auto reply = pkt::Datagram::parse(delivery->bytes);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->header.destination, topology.host_at(named).address);
}

TEST_F(RevTrTest, SpoofingAnUnownedAddressGetsNothing) {
  const topo::HostId injector = testbed_->vps()[0]->host;
  const auto& topology = testbed_->topology();
  const auto target = topology.host_at(topology.destinations()[0]).address;
  const auto probe = pkt::make_ping(net::IPv4Address(203, 0, 113, 7), target,
                                    1, 1, 64, 9);
  auto bytes = *probe.serialize();
  sim::SendContext ctx;
  EXPECT_FALSE(testbed_->network()
                   .send_settled(injector, bytes, 0.0, ctx)
                   .has_value());
}

TEST_F(RevTrTest, MeasuresReversePathsForReachableDestinations) {
  ReverseTraceroute revtr{*testbed_, campaign_};
  const auto& topology = testbed_->topology();
  const topo::HostId source = testbed_->vps().front()->host;

  int measured = 0, with_rr_hops = 0;
  for (std::size_t d = 0;
       d < campaign_->num_destinations() && measured < 20; d += 7) {
    if (!campaign_->rr_responsive(d)) continue;
    const auto target =
        topology.host_at(campaign_->destinations()[d]).address;
    const auto path = revtr.measure(target, source);
    if (!path.complete) continue;
    ++measured;
    if (path.measured_hops() > 0) ++with_rr_hops;

    // Every RR-derived hop must be a real router interface on a device
    // lying on some path; at minimum it must be an assigned address.
    for (const auto& hop : path.hops) {
      EXPECT_TRUE(topology.owner_of(hop.address).has_value())
          << hop.address.to_string();
    }
    // No duplicate hop addresses.
    std::unordered_set<std::uint32_t> seen;
    for (const auto& hop : path.hops) {
      EXPECT_TRUE(seen.insert(hop.address.value()).second);
    }
  }
  EXPECT_GE(measured, 10);
  EXPECT_GT(with_rr_hops, 0);
}

TEST_F(RevTrTest, ReverseHopsLieOnTheTrueReversePath) {
  // Ground-truth check: RR-derived reverse hops must be routers whose
  // egress addresses appear on the stitched destination->source path.
  ReverseTraceroute revtr{*testbed_, campaign_};
  const auto& topology = testbed_->topology();
  const topo::HostId source = testbed_->vps().front()->host;

  int verified_paths = 0;
  for (std::size_t d = 0;
       d < campaign_->num_destinations() && verified_paths < 8; d += 3) {
    if (!campaign_->rr_reachable(d)) continue;
    const topo::HostId dest_host = campaign_->destinations()[d];
    const auto target = topology.host_at(dest_host).address;
    const auto path = revtr.measure(target, source);
    if (path.measured_hops() == 0) continue;

    // True reverse path (router ids) from the simulator's stitcher.
    std::vector<route::PathHop> truth;
    ASSERT_TRUE(testbed_->network().stitcher().host_path(dest_host, source,
                                                         truth));
    std::unordered_set<std::uint32_t> truth_routers;
    for (const auto& hop : truth) truth_routers.insert(hop.router);

    for (const auto& hop : path.hops) {
      if (hop.source != HopSource::kSpoofedRr) continue;
      const auto owner = topology.owner_of(hop.address);
      ASSERT_TRUE(owner.has_value());
      ASSERT_EQ(owner->kind, topo::AddressOwner::Kind::kRouter);
      EXPECT_TRUE(truth_routers.contains(owner->id))
          << "hop " << hop.address.to_string()
          << " is not on the true reverse path";
    }
    ++verified_paths;
  }
  EXPECT_GE(verified_paths, 5);
}

TEST_F(RevTrTest, MultiSegmentMeasurementStitchesDistantPaths) {
  // Destinations more than 8 hops from every VP need several spoofed
  // segments; confirm the iteration advances and terminates.
  RevTrConfig config;
  config.allow_symmetric_fallback = false;
  ReverseTraceroute revtr{*testbed_, campaign_, config};
  const auto& topology = testbed_->topology();
  const topo::HostId source = testbed_->vps().front()->host;

  int multi_segment = 0;
  for (std::size_t d = 0; d < campaign_->num_destinations(); d += 2) {
    if (!campaign_->rr_responsive(d)) continue;
    const auto target =
        topology.host_at(campaign_->destinations()[d]).address;
    const auto path = revtr.measure(target, source);
    EXPECT_LE(path.segments_used, ReverseTraceroute::kMaxSegments);
    if (path.complete && path.segments_used >= 2) {
      ++multi_segment;
      if (multi_segment >= 2) break;
    }
  }
  // At least some destinations in a small world need >1 segment; if none
  // did, the mechanism still terminated cleanly on all of them.
  SUCCEED();
}

TEST_F(RevTrTest, StitchingUnderMissingAndForgedStampsStaysSound) {
  // Faults erase stamps mid-path (truncation, storms) and forge others
  // (garbling, byzantine stampers). Stitching must still terminate within
  // its segment budget, and every RR-derived hop it reports must be either
  // an injected class-E forgery — which analysis can always recognise —
  // or an honest router that really lies on the destination's reverse
  // path. A fault may starve the measurement; it must never reroute it.
  sim::FaultParams faults;
  faults.rr_truncate = 0.04;
  faults.rr_garble = 0.08;
  faults.byzantine_stamp = 0.08;
  faults.storm = 0.05;
  faults.seed = 0xBADF;
  testbed_->network().set_fault_plan(sim::FaultPlan{faults});

  RevTrConfig config;
  config.allow_symmetric_fallback = false;
  ReverseTraceroute revtr{*testbed_, campaign_, config};
  const auto& topology = testbed_->topology();
  const topo::HostId source = testbed_->vps().front()->host;

  int attempted = 0, with_hops = 0;
  for (std::size_t d = 0;
       d < campaign_->num_destinations() && attempted < 12; d += 3) {
    if (!campaign_->rr_reachable(d)) continue;
    const topo::HostId dest_host = campaign_->destinations()[d];
    const auto target = topology.host_at(dest_host).address;
    const auto path = revtr.measure(target, source);
    ++attempted;
    EXPECT_LE(path.segments_used, ReverseTraceroute::kMaxSegments);
    if (path.measured_hops() == 0) continue;
    ++with_hops;

    std::vector<route::PathHop> truth;
    const bool have_truth = testbed_->network().stitcher().host_path(
        dest_host, source, truth);
    if (!have_truth) {
      ADD_FAILURE() << "no ground-truth reverse path for dest " << d;
      continue;
    }
    std::unordered_set<std::uint32_t> truth_routers;
    for (const auto& hop : truth) truth_routers.insert(hop.router);

    for (const auto& hop : path.hops) {
      if (hop.source != HopSource::kSpoofedRr) continue;
      const bool class_e =
          (hop.address.value() & 0xF0000000u) == 0xF0000000u;
      if (class_e) continue;  // a forged stamp, never a plausible router
      const auto owner = topology.owner_of(hop.address);
      if (!owner.has_value() ||
          owner->kind != topo::AddressOwner::Kind::kRouter) {
        ADD_FAILURE() << "hop " << hop.address.to_string()
                      << " is neither class E nor a router interface";
        continue;
      }
      EXPECT_TRUE(truth_routers.contains(owner->id))
          << "hop " << hop.address.to_string()
          << " is not on the true reverse path of dest " << d;
    }
  }
  EXPECT_GE(attempted, 5);
  EXPECT_GT(with_hops, 0);
  EXPECT_GT(testbed_->network().fault_counters().total(), 0u);
  testbed_->network().set_fault_plan(sim::FaultPlan{});
}

TEST_F(RevTrTest, FallbackMarksAssumedHops) {
  // With spoofed segments disabled (zero VP tries), everything falls back
  // to the symmetric-traceroute assumption and is labelled as such.
  RevTrConfig config;
  config.vps_to_try = 0;
  ReverseTraceroute revtr{*testbed_, campaign_, config};
  const auto& topology = testbed_->topology();
  const topo::HostId source = testbed_->vps().front()->host;
  const auto target = topology.host_at(campaign_->destinations()[1]).address;
  const auto path = revtr.measure(target, source);
  ASSERT_TRUE(path.complete);
  EXPECT_GT(path.hops.size(), 0u);
  for (const auto& hop : path.hops) {
    EXPECT_EQ(hop.source, HopSource::kAssumedSymmetric);
  }
}

}  // namespace
}  // namespace rr::revtr

// The testbed's routing oracle serves only its own epoch's probers, and
// every layer reports the bytes it holds.
//
// A testbed's oracle takes as sources the hosts its studies send from:
// the epoch's VPs, the plain-ping probe host and the cloud probe hosts.
// A query from any other AS (the other epoch's VPs) still gets the
// engine's path, from a tree computed on demand, so the narrower source
// set changes no answer and no probe outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "measure/campaign.h"
#include "measure/testbed.h"
#include "probe/prober.h"
#include "sim/token_bucket.h"

namespace rr::measure {
namespace {

using route::RouteTree;
using topo::AsId;
using topo::HostId;

/// The hosts a testbed of `epoch` sends from: the epoch's VPs, the probe
/// host and the cloud probe hosts.
std::vector<HostId> prober_hosts(const topo::Topology& topo,
                                 topo::Epoch epoch) {
  std::vector<HostId> hosts;
  for (const auto* vp : topo.vantage_points_in(epoch)) {
    hosts.push_back(vp->host);
  }
  hosts.push_back(topo.probe_host());
  for (const auto& cloud : topo.clouds()) hosts.push_back(cloud.probe_host);
  return hosts;
}

std::vector<AsId> ases_of(const topo::Topology& topo,
                          const std::vector<HostId>& hosts) {
  std::vector<AsId> ases;
  for (const HostId host : hosts) ases.push_back(topo.host_at(host).as_id);
  std::sort(ases.begin(), ases.end());
  ases.erase(std::unique(ases.begin(), ases.end()), ases.end());
  return ases;
}

/// VP hosts of the other epoch whose AS is not a source of this one.
std::vector<HostId> other_epoch_vps(const topo::Topology& topo,
                                    topo::Epoch epoch) {
  const auto sources = ases_of(topo, prober_hosts(topo, epoch));
  std::vector<HostId> hosts;
  for (const auto& vp : topo.vantage_points()) {
    const bool in_epoch =
        epoch == topo::Epoch::k2016 ? vp.exists_in_2016 : vp.exists_in_2011;
    if (!in_epoch && !std::binary_search(sources.begin(), sources.end(),
                                         topo.host_at(vp.host).as_id)) {
      hosts.push_back(vp.host);
    }
  }
  return hosts;
}

/// One topology with a 2011 and a 2016 testbed over it.
class PerEpochOracle : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TestbedConfig config;
    config.topo_params = topo::TopologyParams::test_scale();
    config.epoch = topo::Epoch::k2011;
    tb2011_ = new Testbed{config};
    config.epoch = topo::Epoch::k2016;
    tb2016_ = new Testbed{tb2011_->topology_ptr(), tb2011_->behaviors_ptr(),
                          config};
  }
  static void TearDownTestSuite() {
    delete tb2016_;
    tb2016_ = nullptr;
    delete tb2011_;
    tb2011_ = nullptr;
  }

  static Testbed* tb2011_;
  static Testbed* tb2016_;
};

Testbed* PerEpochOracle::tb2011_ = nullptr;
Testbed* PerEpochOracle::tb2016_ = nullptr;

TEST_F(PerEpochOracle, EveryAnswerMatchesTheEngine) {
  for (const Testbed* testbed : {tb2011_, tb2016_}) {
    const auto& topo = testbed->topology();
    const auto& oracle = testbed->oracle();
    const auto sources = ases_of(topo, prober_hosts(topo, testbed->epoch()));
    const auto others =
        ases_of(topo, other_epoch_vps(topo, testbed->epoch()));
    ASSERT_FALSE(others.empty());
    const std::size_t n = topo.ases().size();
    for (AsId dst = 0; dst < n; ++dst) {
      const RouteTree tree = oracle.engine().compute_tree(dst);
      for (const auto& froms : {sources, others}) {
        for (const AsId src : froms) {
          ASSERT_EQ(oracle.as_path(src, dst), tree.as_path_from(src))
              << "forward " << src << " -> " << dst;
        }
      }
    }
    // Reverse paths toward every source, from every AS.
    for (const AsId source : sources) {
      const RouteTree tree = oracle.engine().compute_tree(source);
      for (AsId from = 0; from < n; ++from) {
        ASSERT_EQ(oracle.as_path(from, source), tree.as_path_from(from))
            << "reverse " << from << " -> " << source;
      }
    }
  }
}

TEST_F(PerEpochOracle, OtherEpochVpsProbeAsWithEveryVpAsASource) {
  // The oracle every testbed built before sources were per epoch: every
  // VP of both epochs, the probe host and the cloud probe hosts.
  for (const Testbed* testbed : {tb2011_, tb2016_}) {
    const auto& topo = testbed->topology();
    std::vector<HostId> wide_hosts = prober_hosts(topo, topo::Epoch::k2011);
    for (const HostId host : prober_hosts(topo, topo::Epoch::k2016)) {
      wide_hosts.push_back(host);
    }
    const route::RoutingOracle wide{testbed->topology_ptr(),
                                    testbed->epoch(),
                                    ases_of(topo, wide_hosts)};
    sim::Network wide_net{testbed->topology_ptr(), testbed->behaviors_ptr(),
                          wide};
    sim::Network narrow_net{testbed->topology_ptr(),
                            testbed->behaviors_ptr(), testbed->oracle()};
    EXPECT_LT(testbed->oracle().memory_bytes(), wide.memory_bytes());

    // Traceroutes from the other epoch's VPs (non-sources now) and from
    // this epoch's own: the same hops, hop for hop, on both networks.
    std::vector<HostId> senders = other_epoch_vps(topo, testbed->epoch());
    ASSERT_FALSE(senders.empty());
    senders.push_back(testbed->vps().front()->host);
    const auto dests = topo.destinations();
    for (const HostId sender : senders) {
      probe::Prober narrow{narrow_net, sender};
      probe::Prober broad{wide_net, sender};
      for (std::size_t i = 0; i < dests.size(); i += 97) {
        const auto target = topo.host_at(dests[i]).address;
        const auto got = narrow.traceroute(target, 30);
        const auto want = broad.traceroute(target, 30);
        EXPECT_EQ(got.reached, want.reached);
        EXPECT_EQ(got.probes_sent, want.probes_sent);
        ASSERT_EQ(got.hops.size(), want.hops.size());
        for (std::size_t h = 0; h < got.hops.size(); ++h) {
          EXPECT_EQ(got.hops[h].ttl, want.hops[h].ttl);
          EXPECT_EQ(got.hops[h].responded, want.hops[h].responded);
          EXPECT_EQ(got.hops[h].kind, want.hops[h].kind);
          EXPECT_EQ(got.hops[h].address, want.hops[h].address);
        }
      }
    }
    EXPECT_EQ(narrow_net.counters(), wide_net.counters());
  }
}

TEST_F(PerEpochOracle, HoldsOnlyItsOwnSources) {
  // Per source AS the oracle pins one tree (a RouteEntry per AS) and keeps
  // one path offset per destination. Beyond that it holds the adjacency,
  // the per-AS stub, slot and pinned-tree tables, one arena per 256
  // destinations and the source list (as many slots as the testbed passed
  // hosts, at most twice that after growth).
  for (const Testbed* testbed : {tb2011_, tb2016_}) {
    const auto& topo = testbed->topology();
    const auto& oracle = testbed->oracle();
    const std::size_t n = topo.ases().size();
    const auto hosts = prober_hosts(topo, testbed->epoch());
    const std::size_t sources = ases_of(topo, hosts).size();
    const std::size_t per_source =
        sizeof(RouteTree) +
        n * (sizeof(route::RouteEntry) + sizeof(std::uint32_t));
    const std::size_t fixed =
        oracle.engine().memory_bytes() + oracle.arena_bytes() +
        n * (sizeof(AsId) + sizeof(std::uint32_t) + sizeof(void*)) +
        (n + 255) / 256 * sizeof(std::vector<AsId>);
    const std::size_t bound = fixed + sources * per_source;
    EXPECT_GE(oracle.memory_bytes(), bound + hosts.size() * sizeof(AsId));
    EXPECT_LE(oracle.memory_bytes(),
              bound + 2 * hosts.size() * sizeof(AsId));
  }
}

// --------------------------------------------------------- memory_bytes

TEST(LayerMemory, TestbedSumsItsLayers) {
  TestbedConfig config;
  config.topo_params = topo::TopologyParams::test_scale();
  Testbed testbed{config};
  const auto& topo = testbed.topology();
  const std::size_t routers = topo.routers().size();
  const std::size_t hosts = topo.hosts().size();

  // The network: per router a bucket, a HopRow and an IP-ID counter, per
  // host an IP-ID counter (no compiled FIB is installed between phases).
  const sim::Network& net = testbed.network();
  EXPECT_EQ(net.memory_bytes(),
            routers * (sizeof(sim::TokenBucket) + sizeof(sim::HopRow) +
                       sizeof(std::uint32_t)) +
                hosts * sizeof(std::uint32_t));

  // The behaviour tables: one entry per host, router and AS, an IP-ID
  // velocity per device and the strict-limited VP list.
  const sim::Behaviors& behaviors = testbed.behaviors();
  EXPECT_EQ(behaviors.memory_bytes(),
            hosts * (sizeof(sim::HostBehavior) + sizeof(double)) +
                routers * (sizeof(sim::RouterBehavior) + sizeof(double)) +
                topo.ases().size() * sizeof(sim::AsBehavior) +
                behaviors.strict_limited_vp_indices().capacity() *
                    sizeof(std::size_t));

  EXPECT_EQ(testbed.memory_bytes(),
            topo.memory_bytes() + behaviors.memory_bytes() +
                testbed.oracle().memory_bytes() + net.memory_bytes());
}

TEST(LayerMemory, CampaignCountsTheMatrixAndTheUnions) {
  TestbedConfig config;
  config.topo_params = topo::TopologyParams::test_scale();
  Testbed testbed{config};
  Campaign campaign = Campaign::run(testbed);
  std::size_t unions = 0;
  std::size_t sightings = 0;
  for (std::size_t d = 0; d < campaign.num_destinations(); ++d) {
    unions += campaign.recorded_union(d).capacity();
    sightings += campaign.recorded_union(d).size();
  }
  ASSERT_GT(sightings, 0u);
  const std::size_t union_bytes =
      campaign.num_destinations() * sizeof(std::vector<net::IPv4Address>) +
      unions * sizeof(net::IPv4Address);
  EXPECT_EQ(campaign.memory_bytes(),
            campaign.num_vps() * campaign.num_destinations() *
                    sizeof(RrObservation) +
                union_bytes);
  // Freezing moves the matrix out; the unions stay.
  const auto matrix = campaign.take_observations();
  EXPECT_EQ(campaign.memory_bytes(), union_bytes);
}

}  // namespace
}  // namespace rr::measure

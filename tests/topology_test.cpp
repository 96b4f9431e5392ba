// Generator invariants: the produced Internet must be structurally sound
// before any routing or probing happens on top of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <unordered_set>

#include "topology/generator.h"

namespace rr::topo {
namespace {

class TopologyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { owner_ = generate_test_topology(7); }
  static std::shared_ptr<const Topology> owner_;
};

std::shared_ptr<const Topology> TopologyTest::owner_;

TEST_F(TopologyTest, GenerationIsDeterministic) {
  const auto again = generate_test_topology(7);
  EXPECT_EQ(again->summary(), owner_->summary());
  ASSERT_EQ(again->hosts().size(), owner_->hosts().size());
  for (std::size_t i = 0; i < again->hosts().size(); i += 37) {
    EXPECT_EQ(again->hosts()[i].address, owner_->hosts()[i].address);
  }
}

TEST_F(TopologyTest, DifferentSeedsDiffer) {
  const auto other = generate_test_topology(8);
  bool any_diff = other->hosts().size() != owner_->hosts().size();
  for (std::size_t i = 0; !any_diff && i < other->hosts().size() &&
                          i < owner_->hosts().size();
       ++i) {
    any_diff = other->hosts()[i].address != owner_->hosts()[i].address;
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(TopologyTest, EveryAsHasAtLeastOnePrefixAndCoreRouter) {
  for (const auto& as : owner_->ases()) {
    EXPECT_FALSE(as.core.empty());
    EXPECT_FALSE(as.hosts.empty());
  }
}

TEST_F(TopologyTest, TierDepthsAreConsistent) {
  int tier1 = 0;
  for (const auto& as : owner_->ases()) {
    if (as.tier == AsTier::kTier1) {
      ++tier1;
      EXPECT_EQ(as.depth, 1);
    }
    if (as.tier == AsTier::kStub && !as.cloud) {
      EXPECT_GE(as.depth, 2);
    }
  }
  EXPECT_EQ(tier1, TopologyParams::test_scale().num_tier1);
}

TEST_F(TopologyTest, NonTier1AsesHaveProviders) {
  for (AsId id = 0; id < owner_->ases().size(); ++id) {
    const auto& as = owner_->as_at(id);
    if (as.tier == AsTier::kTier1) continue;
    bool has_upward_provider = false;
    for (LinkId link_id : as.links) {
      const auto& link = owner_->link_at(link_id);
      if (link.kind == LinkKind::kCustomerProvider && link.a == id &&
          owner_->as_at(link.b).depth < as.depth) {
        has_upward_provider = true;
      }
    }
    // Multihoming may add lateral providers, but at least one provider
    // must sit strictly higher, so customer routes reach the core.
    EXPECT_TRUE(has_upward_provider) << "AS " << id << " has no uplink";
  }
}

TEST_F(TopologyTest, LinksAreUniquePerAsPairAndIndexed) {
  std::set<std::pair<AsId, AsId>> seen;
  for (LinkId id = 0; id < owner_->links().size(); ++id) {
    const auto& link = owner_->link_at(id);
    const auto key = std::minmax(link.a, link.b);
    EXPECT_TRUE(seen.insert(key).second) << "duplicate link";
    const auto found = owner_->link_between(link.a, link.b);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, id);
    EXPECT_EQ(owner_->link_between(link.b, link.a), found);
  }
}

TEST_F(TopologyTest, LinkRoutersBelongToTheRightAs) {
  for (const auto& link : owner_->links()) {
    EXPECT_EQ(owner_->router_at(link.router_a).as_id, link.a);
    EXPECT_EQ(owner_->router_at(link.router_b).as_id, link.b);
    EXPECT_NE(link.addr_a, link.addr_b);
  }
}

TEST_F(TopologyTest, AllAssignedAddressesAreUniqueAndOwned) {
  std::unordered_set<std::uint32_t> seen;
  for (RouterId id = 0; id < owner_->routers().size(); ++id) {
    for (const auto& addr : owner_->router_interfaces(id)) {
      EXPECT_TRUE(seen.insert(addr.value()).second)
          << "duplicate address " << addr.to_string();
      const auto owner = owner_->owner_of(addr);
      ASSERT_TRUE(owner.has_value());
      EXPECT_EQ(owner->kind, AddressOwner::Kind::kRouter);
      EXPECT_EQ(owner->id, id);
    }
  }
  for (HostId id = 0; id < owner_->hosts().size(); ++id) {
    const auto& host = owner_->host_at(id);
    EXPECT_TRUE(seen.insert(host.address.value()).second);
    for (const auto& alias : owner_->host_aliases(id)) {
      EXPECT_TRUE(seen.insert(alias.value()).second);
    }
  }
}

TEST_F(TopologyTest, MemoryCoversEveryTable) {
  const Topology& t = *owner_;
  // What the public views show: the entity tables at their sizes, each
  // AS's lists at their capacities, and the interface, alias and access
  // chain runs with one offset each per router or host.
  std::size_t viewed = t.ases().size_bytes() + t.routers().size_bytes() +
                       t.hosts().size_bytes() + t.links().size_bytes() +
                       t.vantage_points().size_bytes() +
                       t.clouds().size_bytes() +
                       t.destinations().size_bytes() +
                       t.router_as_ids().size_bytes();
  for (const auto& as : t.ases()) {
    viewed += as.links.capacity() * sizeof(LinkId) +
              as.routers.capacity() * sizeof(RouterId) +
              as.core.capacity() * sizeof(RouterId) +
              as.hosts.capacity() * sizeof(HostId);
  }
  std::size_t addresses = 0;
  for (RouterId id = 0; id < t.routers().size(); ++id) {
    addresses += t.router_interfaces(id).size();
    viewed += t.router_interfaces(id).size_bytes() +
              t.access_chain(id).size_bytes() + 2 * sizeof(std::uint32_t);
  }
  for (HostId id = 0; id < t.hosts().size(); ++id) {
    const auto aliases = t.host_aliases(id);
    addresses += 1 + aliases.size();
    viewed += (aliases.empty() ? 0 : aliases.size_bytes() + 4) +
              sizeof(std::uint32_t);
  }
  // The owner runs: a 4-byte owner per address, and one run offset per
  // /24 block of the plan.
  std::size_t blocks = 0;
  for (std::uint32_t base = 0x1000'0000u;
       t.as_of_address(net::IPv4Address{base}); base += 256) {
    ++blocks;
  }
  viewed += addresses * 4 + blocks * sizeof(std::uint32_t);
  EXPECT_GE(t.memory_bytes(), viewed);
  // The rest is growth slack, each block's AS, the per-epoch VP lists and
  // the link table.
  EXPECT_LE(t.memory_bytes(), 2 * viewed);
}

TEST_F(TopologyTest, AddressToAsMappingCoversInfraAndHosts) {
  for (const auto& link : owner_->links()) {
    EXPECT_EQ(owner_->as_of_address(link.addr_a), link.a);
    EXPECT_EQ(owner_->as_of_address(link.addr_b), link.b);
  }
  for (const HostId id : owner_->destinations()) {
    const auto& host = owner_->host_at(id);
    EXPECT_EQ(owner_->as_of_address(host.address), host.as_id);
  }
}

TEST_F(TopologyTest, AliasGroundTruthIsSymmetric) {
  for (RouterId id = 0; id < owner_->routers().size(); id += 7) {
    const auto interfaces = owner_->router_interfaces(id);
    if (interfaces.size() < 2) continue;
    const auto set_a = owner_->aliases_of(interfaces[0]);
    const auto set_b = owner_->aliases_of(interfaces[1]);
    EXPECT_TRUE(std::equal(set_a.begin(), set_a.end(), set_b.begin(),
                           set_b.end()));
    EXPECT_GE(set_a.size(), 2u);
  }
}

TEST_F(TopologyTest, DestinationsHaveAccessChains) {
  for (const HostId id : owner_->destinations()) {
    const auto& host = owner_->host_at(id);
    const auto chain = owner_->access_chain(host.access_router);
    ASSERT_FALSE(chain.empty());
    EXPECT_EQ(chain.back(), host.access_router);
    // Chain head hangs off a core router of the same AS.
    const auto& as = owner_->as_at(host.as_id);
    EXPECT_NE(std::find(as.core.begin(), as.core.end(), chain.front()),
              as.core.end());
  }
}

TEST_F(TopologyTest, VantagePointCountsMatchParams) {
  const auto params = TopologyParams::test_scale();
  int mlab2016 = 0, plab2016 = 0, mlab2011 = 0, plab2011 = 0;
  for (const auto& vp : owner_->vantage_points()) {
    if (vp.platform == Platform::kMLab) {
      if (vp.exists_in_2016) ++mlab2016;
      if (vp.exists_in_2011) ++mlab2011;
    }
    if (vp.platform == Platform::kPlanetLab) {
      if (vp.exists_in_2016) ++plab2016;
      if (vp.exists_in_2011) ++plab2011;
    }
  }
  EXPECT_EQ(mlab2016, params.mlab_sites_2016);
  EXPECT_EQ(plab2016, params.planetlab_sites_2016);
  EXPECT_EQ(mlab2011, params.mlab_sites_2011);
  EXPECT_EQ(plab2011, params.planetlab_sites_2011);
}

TEST_F(TopologyTest, CloudProvidersExistAndAreFlat) {
  const auto params = TopologyParams::test_scale();
  ASSERT_EQ(owner_->clouds().size(),
            static_cast<std::size_t>(params.num_cloud_providers));
  for (const auto& cloud : owner_->clouds()) {
    const auto& as = owner_->as_at(cloud.as_id);
    EXPECT_TRUE(as.cloud);
    EXPECT_NE(cloud.probe_host, kNoHost);
    // Broad peering: clouds should have many more links than a stub.
    EXPECT_GT(as.links.size(), 3u);
  }
}

TEST_F(TopologyTest, ProbeHostExists) {
  ASSERT_NE(owner_->probe_host(), kNoHost);
  const auto& host = owner_->host_at(owner_->probe_host());
  EXPECT_FALSE(owner_->access_chain(host.access_router).empty());
}

TEST_F(TopologyTest, PeeringGrowsBetweenEpochs) {
  std::size_t links2011 = 0, links2016 = 0;
  for (const auto& link : owner_->links()) {
    if (link.exists_in(Epoch::k2011)) ++links2011;
    if (link.exists_in(Epoch::k2016)) ++links2016;
  }
  EXPECT_EQ(links2016, owner_->links().size());
  EXPECT_LT(links2011, links2016);  // the flattening
}

TEST(TopologyScale, PaperScaleShapeMatchesTable1) {
  // Generate at a reduced paper-like scale and verify the per-type AS mix
  // and prefix means are near Table 1's.
  TopologyParams params = TopologyParams::paper_scale();
  params.num_ases = 1000;
  params.planetlab_sites_2011 = 40;
  const auto topo = Generator{params}.generate();

  std::array<int, kNumAsTypes> as_count{};
  std::array<int, kNumAsTypes> prefix_count{};
  for (const auto& as : topo->ases()) {
    ++as_count[static_cast<std::size_t>(as.type)];
    prefix_count[static_cast<std::size_t>(as.type)] +=
        static_cast<int>(as.hosts.size());
  }
  EXPECT_NEAR(as_count[0] / 1000.0, 0.383, 0.03);
  EXPECT_NEAR(as_count[1] / 1000.0, 0.480, 0.03);
  // Mean prefixes per AS: transit/access ~19.6, enterprise ~2.5.
  EXPECT_NEAR(prefix_count[0] / static_cast<double>(as_count[0]), 19.6, 5.0);
  EXPECT_NEAR(prefix_count[1] / static_cast<double>(as_count[1]), 2.5, 1.0);
}

}  // namespace
}  // namespace rr::topo

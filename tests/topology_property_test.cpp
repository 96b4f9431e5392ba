// Generator properties across seeds and scales: structural invariants that
// must hold for ANY generated world, not just the fixture seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <unordered_set>

#include "topology/generator.h"
#include "world_fingerprint.h"

namespace rr::topo {
namespace {

using golden::fnv;

class GeneratedWorld : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override { topo_ = generate_test_topology(GetParam()); }
  std::shared_ptr<const Topology> topo_;
};

TEST_P(GeneratedWorld, ProviderGraphIsAcyclic) {
  // Kahn's algorithm over customer->provider edges: a cycle would make
  // route propagation ill-defined.
  const std::size_t n = topo_->ases().size();
  std::vector<int> out_degree(n, 0);  // providers per AS
  std::vector<std::vector<AsId>> customers(n);
  for (const auto& link : topo_->links()) {
    if (link.kind != LinkKind::kCustomerProvider) continue;
    ++out_degree[link.a];
    customers[link.b].push_back(link.a);
  }
  std::queue<AsId> ready;
  for (AsId as = 0; as < n; ++as) {
    if (out_degree[as] == 0) ready.push(as);
  }
  std::size_t processed = 0;
  while (!ready.empty()) {
    const AsId top = ready.front();
    ready.pop();
    ++processed;
    for (AsId customer : customers[top]) {
      if (--out_degree[customer] == 0) ready.push(customer);
    }
  }
  EXPECT_EQ(processed, n) << "customer/provider cycle detected";
}

TEST_P(GeneratedWorld, EveryRouterHasItsLoopbackFirst) {
  for (RouterId id = 0; id < topo_->routers().size(); ++id) {
    const auto interfaces = topo_->router_interfaces(id);
    ASSERT_FALSE(interfaces.empty());
    EXPECT_EQ(interfaces.front(), topo_->router_at(id).loopback);
  }
}

/// Every destination's aliases share its /24, and every address of a
/// destination and every VP, probe and cloud probe host maps to its own AS
/// through as_of_address. Returns how many of the measurement hosts (VP,
/// probe and cloud) hold an address outside their AS's first
/// infrastructure block (the /24 of its first core router's loopback),
/// i.e. were placed after the AS rolled over to a later one.
std::size_t expect_hosts_in_their_prefix(const Topology& topo) {
  for (const HostId id : topo.destinations()) {
    const auto& host = topo.host_at(id);
    const auto block = net::Prefix::slash24_of(host.address);
    EXPECT_EQ(topo.as_of_address(host.address), host.as_id);
    for (const auto& alias : topo.host_aliases(id)) {
      EXPECT_TRUE(block.contains(alias))
          << alias.to_string() << " outside " << block.to_string();
      EXPECT_EQ(topo.as_of_address(alias), host.as_id);
    }
  }
  std::vector<HostId> probers{topo.probe_host()};
  for (const auto& vp : topo.vantage_points()) probers.push_back(vp.host);
  for (const auto& cloud : topo.clouds()) probers.push_back(cloud.probe_host);
  std::size_t rolled_over = 0;
  for (const HostId id : probers) {
    const auto& host = topo.host_at(id);
    EXPECT_EQ(topo.as_of_address(host.address), host.as_id)
        << host.address.to_string();
    const RouterId first_core = topo.as_at(host.as_id).core.front();
    const auto first_block =
        net::Prefix::slash24_of(topo.router_at(first_core).loopback);
    if (!first_block.contains(host.address)) ++rolled_over;
  }
  return rolled_over;
}

TEST_P(GeneratedWorld, HostAddressesLiveInTheirPrefix) {
  expect_hosts_in_their_prefix(*topo_);
}

TEST(PaperScaleWorld, HostAddressesLiveInTheirPrefix) {
  // The default-scale world places measurement hosts in ASes that have
  // already moved past their first infrastructure block (6 VPs and every
  // cloud probe host at the default seed); the test-scale worlds above
  // may never do so.
  const auto topo = Generator{TopologyParams::paper_scale()}.generate();
  EXPECT_GT(expect_hosts_in_their_prefix(*topo), 0u);
}

TEST_P(GeneratedWorld, AccessChainsStayInsideTheirAs) {
  for (const HostId id : topo_->destinations()) {
    const auto& host = topo_->host_at(id);
    for (const RouterId router : topo_->access_chain(host.access_router)) {
      EXPECT_EQ(topo_->router_at(router).as_id, host.as_id);
    }
  }
}

TEST_P(GeneratedWorld, PrefixBlocksNeverOverlap) {
  // Every destination /24 and infra chunk maps to exactly one AS;
  // sampling addresses across blocks must agree with host ownership.
  for (std::size_t i = 0; i < topo_->destinations().size(); i += 11) {
    const auto& host = topo_->host_at(topo_->destinations()[i]);
    for (const std::uint64_t offset : {0ULL, 1ULL, 128ULL, 255ULL}) {
      const auto as = topo_->as_of_address(
          net::Prefix::slash24_of(host.address).address_at(offset));
      ASSERT_TRUE(as.has_value());
      EXPECT_EQ(*as, host.as_id);
    }
  }
}

TEST_P(GeneratedWorld, VantagePointsHaveDistinctHostsAndSites) {
  std::unordered_set<HostId> hosts;
  std::unordered_set<std::string> sites;
  for (const auto& vp : topo_->vantage_points()) {
    EXPECT_TRUE(hosts.insert(vp.host).second);
    EXPECT_TRUE(sites.insert(vp.site).second);
    EXPECT_TRUE(vp.exists_in_2011 || vp.exists_in_2016);
  }
}

TEST_P(GeneratedWorld, MlabSitsShallowerThanPlanetLab) {
  // Averaged over sites, M-Lab hosts hang closer to their AS core than
  // PlanetLab campus hosts — the placement asymmetry behind Figure 1.
  double mlab_depth = 0, plab_depth = 0;
  int mlab = 0, plab = 0;
  for (const auto& vp : topo_->vantage_points()) {
    const auto& host = topo_->host_at(vp.host);
    const auto chain = topo_->access_chain(host.access_router);
    const double depth = static_cast<double>(chain.size());
    if (vp.platform == Platform::kMLab) {
      mlab_depth += depth;
      ++mlab;
    } else if (vp.platform == Platform::kPlanetLab) {
      plab_depth += depth;
      ++plab;
    }
  }
  ASSERT_GT(mlab, 0);
  ASSERT_GT(plab, 0);
  EXPECT_LT(mlab_depth / mlab, plab_depth / plab);
}

TEST_P(GeneratedWorld, StubBorderIsItsCoreRouter) {
  for (const auto& link : topo_->links()) {
    for (const auto& [as, router] :
         {std::pair{link.a, link.router_a}, std::pair{link.b, link.router_b}}) {
      const auto& info = topo_->as_at(as);
      if (info.tier == AsTier::kStub) {
        EXPECT_EQ(router, info.core.front());
      } else {
        // Transit ASes terminate every link on a dedicated border.
        EXPECT_TRUE(topo_->router_at(router).is_border);
      }
    }
  }
}

TEST_P(GeneratedWorld, CloudsPeerFarMoreThanOrdinaryContent) {
  double cloud_links = 0, content_links = 0;
  int clouds = 0, contents = 0;
  for (const auto& as : topo_->ases()) {
    if (as.cloud) {
      cloud_links += static_cast<double>(as.links.size());
      ++clouds;
    } else if (as.type == AsType::kContent && as.tier == AsTier::kStub) {
      content_links += static_cast<double>(as.links.size());
      ++contents;
    }
  }
  ASSERT_GT(clouds, 0);
  ASSERT_GT(contents, 0);
  EXPECT_GT(cloud_links / clouds, 3.0 * content_links / contents);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedWorld,
                         ::testing::Values(1, 2, 3, 42, 20160924));

// ------------------------------------------------------- golden worlds

/// The test-scale world at seed 20160924 fingerprints to the digest the
/// parent build printed, when the generator still expanded its records on
/// a thread pool and an open-addressed index answered owner_of (pinned
/// then at 1, 2 and 8 threads alike).
TEST(WorldFingerprint, TestScaleMatchesTheParent) {
  constexpr std::uint64_t kTestScaleFingerprint = 0x4fe38ebb59f8d674ULL;
  TopologyParams params = TopologyParams::test_scale();
  params.seed = 20160924;
  const auto topo = Generator{params}.generate();
  EXPECT_EQ(golden::world_fingerprint(*topo), kTestScaleFingerprint);
}

/// The stitch-path lookups answer exactly what the generator recorded, on
/// WorldFingerprint's test-scale world: every link is found from both
/// ends, sampled non-adjacent pairs find nothing, the access chains hash
/// to the digest the generator's chain map produced (pinned when that map
/// still answered access_chain), and every router's interface run and
/// every host's alias run hash to the digest pinned when each Router and
/// Host still carried its own address vector.
TEST(Topology, FlatLookupsMatchTheLinkTable) {
  constexpr std::uint64_t kChainDigest = 0xc6bd0d0c97de2f20ULL;
  constexpr std::uint64_t kRunDigest = 0xbf3dd693c158b07dULL;
  TopologyParams params = TopologyParams::test_scale();
  params.seed = 20160924;
  const auto topo = Generator{params}.generate();
  for (LinkId id = 0; id < topo->links().size(); ++id) {
    const AsLink& link = topo->link_at(id);
    EXPECT_EQ(topo->link_between(link.a, link.b), id);
    EXPECT_EQ(topo->link_between(link.b, link.a), id);
  }
  const std::size_t n = topo->ases().size();
  int non_adjacent = 0;
  for (AsId a = 0; a < n; a += 3) {
    for (AsId b = 0; b < n; b += 7) {
      const auto& links = topo->as_at(a).links;
      const bool adjacent =
          std::any_of(links.begin(), links.end(), [&](LinkId id) {
            return topo->link_at(id).other(a) == b;
          });
      if (adjacent) continue;
      ++non_adjacent;
      EXPECT_EQ(topo->link_between(a, b), std::nullopt) << a << "-" << b;
    }
  }
  EXPECT_GT(non_adjacent, 100);

  std::uint64_t chains = 0xcbf29ce484222325ULL;
  std::uint64_t runs = 0xcbf29ce484222325ULL;
  for (RouterId r = 0; r < topo->routers().size(); ++r) {
    const auto chain = topo->access_chain(r);
    chains = fnv(chains, chain.size());
    for (const RouterId hop : chain) chains = fnv(chains, hop);
    const auto interfaces = topo->router_interfaces(r);
    runs = fnv(runs, interfaces.size());
    for (const auto addr : interfaces) runs = fnv(runs, addr.value());
  }
  for (HostId h = 0; h < topo->hosts().size(); ++h) {
    const auto aliases = topo->host_aliases(h);
    runs = fnv(runs, aliases.size());
    for (const auto addr : aliases) runs = fnv(runs, addr.value());
  }
  EXPECT_EQ(chains, kChainDigest);
  EXPECT_EQ(runs, kRunDigest);
}

}  // namespace
}  // namespace rr::topo

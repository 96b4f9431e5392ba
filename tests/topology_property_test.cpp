// Generator properties across seeds and scales: structural invariants that
// must hold for ANY generated world, not just the fixture seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <unordered_set>

#include "topology/generator.h"

namespace rr::topo {
namespace {

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
    const auto& router = topo_->router_at(id);
    ASSERT_FALSE(router.interfaces.empty());
    EXPECT_EQ(router.interfaces.front(), router.loopback);
  }
}

TEST_P(GeneratedWorld, HostAddressesLiveInTheirPrefix) {
  for (const HostId id : topo_->destinations()) {
    const auto& host = topo_->host_at(id);
    EXPECT_TRUE(host.prefix.contains(host.address));
    for (const auto& alias : host.aliases) {
      EXPECT_TRUE(host.prefix.contains(alias));
    }
  }
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
  // Every destination /24 and infra chunk maps to exactly one AS via LPM;
  // sampling addresses across blocks must agree with host ownership.
  for (std::size_t i = 0; i < topo_->destinations().size(); i += 11) {
    const auto& host = topo_->host_at(topo_->destinations()[i]);
    for (const std::uint64_t offset : {0ULL, 1ULL, 128ULL, 255ULL}) {
      const auto as = topo_->as_of_address(host.prefix.address_at(offset));
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

// ------------------------------------------------- thread-count identity

std::uint64_t fnv(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (i * 8)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t fnv_str(std::uint64_t hash, const std::string& s) {
  hash = fnv(hash, s.size());
  for (const char c : s) hash = fnv(hash, static_cast<std::uint8_t>(c));
  return hash;
}

/// Hashes every observable structure of a generated world, including the
/// compiled forwarding plane (flat LPM answers, alias arena views, the
/// address index): if any byte of the generation or freeze depended on the
/// worker count, some field below would differ.
std::uint64_t world_fingerprint(const Topology& topo) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& as : topo.ases()) {
    h = fnv(h, as.asn);
    h = fnv(h, static_cast<std::uint64_t>(as.type));
    h = fnv(h, static_cast<std::uint64_t>(as.tier));
    h = fnv(h, as.depth);
    h = fnv(h, (std::uint64_t{as.colo_presence} << 1) | as.cloud);
    h = fnv(h, as.internal_hops);
    for (const LinkId link : as.links) h = fnv(h, link);
    for (const RouterId r : as.routers) h = fnv(h, r);
    for (const RouterId r : as.core) h = fnv(h, r);
    for (const HostId host : as.hosts) h = fnv(h, host);
    h = fnv(h, as.infra_prefix.base().value());
    h = fnv(h, as.infra_prefix.length());
  }
  for (const auto& router : topo.routers()) {
    h = fnv(h, router.as_id);
    h = fnv(h, router.loopback.value());
    h = fnv(h, router.is_border);
    for (const auto addr : router.interfaces) h = fnv(h, addr.value());
    // Compiled services must agree with the structures: device ownership
    // and the ground-truth alias view of the loopback.
    const auto owner = topo.owner_of(router.loopback);
    h = fnv(h, owner ? static_cast<std::uint64_t>(owner->kind) + 1 : 0);
    h = fnv(h, owner ? owner->id : kNoRouter);
    for (const auto addr : topo.aliases_of(router.loopback)) {
      h = fnv(h, addr.value());
    }
  }
  for (const auto& host : topo.hosts()) {
    h = fnv(h, host.as_id);
    h = fnv(h, host.access_router);
    h = fnv(h, host.address.value());
    h = fnv(h, host.prefix.base().value());
    h = fnv(h, host.prefix.length());
    for (const auto addr : host.aliases) h = fnv(h, addr.value());
    for (const auto addr : topo.aliases_of(host.address)) {
      h = fnv(h, addr.value());
    }
    const auto as = topo.as_of_address(host.address);
    h = fnv(h, as ? std::uint64_t{*as} + 1 : 0);
    for (const RouterId r : topo.access_chain(host.access_router)) {
      h = fnv(h, r);
    }
  }
  for (const auto& link : topo.links()) {
    h = fnv(h, link.a);
    h = fnv(h, link.b);
    h = fnv(h, static_cast<std::uint64_t>(link.kind));
    h = fnv(h, link.exists_in_2011);
    h = fnv(h, link.router_a);
    h = fnv(h, link.router_b);
    h = fnv(h, link.addr_a.value());
    h = fnv(h, link.addr_b.value());
  }
  for (const auto& vp : topo.vantage_points()) {
    h = fnv(h, vp.host);
    h = fnv(h, static_cast<std::uint64_t>(vp.platform));
    h = fnv_str(h, vp.site);
    h = fnv(h, (std::uint64_t{vp.exists_in_2011} << 1) | vp.exists_in_2016);
  }
  for (const Epoch epoch : {Epoch::k2011, Epoch::k2016}) {
    for (const auto* vp : topo.vantage_points_in(epoch)) {
      h = fnv(h, vp->host);
    }
  }
  for (const auto& cloud : topo.clouds()) {
    h = fnv_str(h, cloud.name);
    h = fnv(h, cloud.as_id);
    h = fnv(h, cloud.probe_host);
  }
  for (const HostId dest : topo.destinations()) h = fnv(h, dest);
  h = fnv(h, topo.probe_host());
  return h;
}

// The tentpole contract of the parallel world build: generation and the
// compile() freeze are bit-identical at every worker-thread count. A
// failure here means some materialize/compile shard leaked its schedule
// into the output.
TEST(GeneratorThreads, WorldBitIdenticalAcrossThreadCounts) {
  std::uint64_t reference = 0;
  bool have_reference = false;
  for (const int threads : {1, 2, 8}) {
    TopologyParams params = TopologyParams::test_scale();
    params.seed = 20160924;
    params.threads = threads;
    Generator generator{params};
    const auto topo = generator.generate();
    const std::uint64_t fingerprint = world_fingerprint(*topo);
    if (!have_reference) {
      reference = fingerprint;
      have_reference = true;
    } else {
      EXPECT_EQ(reference, fingerprint)
          << "world differs at " << threads << " threads";
    }
  }
}

/// The stitch-path lookups compile() flattens answer exactly what the
/// generator recorded, on GeneratorThreads' world at every thread count:
/// every link is found from both ends, sampled non-adjacent pairs find
/// nothing, each router's interface run is its interface list, and the
/// access chains hash to the digest the generator's chain map produced
/// (pinned when that map still answered access_chain).
TEST(Topology, FlatLookupsMatchTheLinkTable) {
  constexpr std::uint64_t kChainDigest = 0xc6bd0d0c97de2f20ULL;
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    TopologyParams params = TopologyParams::test_scale();
    params.seed = 20160924;
    params.threads = threads;
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
    for (RouterId r = 0; r < topo->routers().size(); ++r) {
      const auto chain = topo->access_chain(r);
      chains = fnv(chains, chain.size());
      for (const RouterId hop : chain) chains = fnv(chains, hop);
      const auto& interfaces = topo->router_at(r).interfaces;
      const auto run = topo->router_interfaces(r);
      EXPECT_TRUE(std::equal(run.begin(), run.end(), interfaces.begin(),
                             interfaces.end()))
          << "router " << r;
    }
    EXPECT_EQ(chains, kChainDigest);
  }
}

}  // namespace
}  // namespace rr::topo

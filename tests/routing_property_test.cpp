// Parameterized routing properties across seeds and epochs: universal
// reachability, valley-freedom, loop-freedom, oracle/engine agreement,
// and stitching invariants on worlds the fixture tests never saw.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <type_traits>
#include <unordered_set>

#include "routing/oracle.h"
#include "routing/stitcher.h"
#include "topology/generator.h"

namespace rr::route {
namespace {

// gtest prints a param without operator<< as its raw bytes, and ctest names
// each case after that dump. The explicit zero tail fills what would be
// padding, so no stack or heap garbage leaks into the case names.
struct WorldParam {
  std::uint64_t seed;
  topo::Epoch epoch;
  std::array<std::uint8_t, 7> zero_tail{};
};
static_assert(std::has_unique_object_representations_v<WorldParam>,
              "WorldParam must have no padding bytes");

class RoutedWorld : public ::testing::TestWithParam<WorldParam> {
 protected:
  void SetUp() override {
    topo_ = topo::generate_test_topology(GetParam().seed);
    engine_ = std::make_unique<BgpEngine>(topo_, GetParam().epoch);
  }
  std::shared_ptr<const topo::Topology> topo_;
  std::unique_ptr<BgpEngine> engine_;
};

TEST_P(RoutedWorld, AllPairsReachable) {
  const std::size_t n = topo_->ases().size();
  for (topo::AsId dst = 0; dst < n; dst += 13) {
    const RouteTree tree = engine_->compute_tree(dst);
    for (topo::AsId src = 0; src < n; ++src) {
      ASSERT_TRUE(tree.reachable_from(src))
          << "src " << src << " dst " << dst;
    }
  }
}

TEST_P(RoutedWorld, PathsAreSimpleAndEndpointCorrect) {
  const std::size_t n = topo_->ases().size();
  for (topo::AsId dst = 3; dst < n; dst += 17) {
    const RouteTree tree = engine_->compute_tree(dst);
    for (topo::AsId src = 0; src < n; src += 7) {
      const auto path = tree.as_path_from(src);
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.front(), src);
      EXPECT_EQ(path.back(), dst);
      std::unordered_set<topo::AsId> unique(path.begin(), path.end());
      EXPECT_EQ(unique.size(), path.size());
      EXPECT_LE(path.size(), 14u);  // hierarchy depth bounds path length
    }
  }
}

TEST_P(RoutedWorld, CustomerRoutePreferredWheneverOneExists) {
  const RouteTree tree = engine_->compute_tree(1);
  for (topo::AsId src = 0; src < topo_->ases().size(); ++src) {
    const auto& entry = tree.entry(src);
    if (entry.route_class == RouteClass::kCustomer ||
        entry.route_class == RouteClass::kSelf) {
      continue;
    }
    for (topo::AsId customer : engine_->customers_of(src)) {
      const auto cls = tree.entry(customer).route_class;
      EXPECT_NE(cls, RouteClass::kCustomer);
      EXPECT_NE(cls, RouteClass::kSelf);
    }
  }
}

TEST_P(RoutedWorld, OracleAgreesWithEngineOnEveryQueryKind) {
  std::vector<topo::AsId> sources{1, 4, 8, 15};
  RoutingOracle oracle{topo_, GetParam().epoch, sources};
  for (topo::AsId dst = 0; dst < topo_->ases().size(); dst += 9) {
    const RouteTree tree = engine_->compute_tree(dst);
    for (topo::AsId src : sources) {  // precomputed-forward queries
      EXPECT_EQ(oracle.as_path(src, dst), tree.as_path_from(src));
    }
  }
  const RouteTree to_source = engine_->compute_tree(4);
  for (topo::AsId src = 0; src < topo_->ases().size(); src += 11) {
    // pinned-reverse queries
    EXPECT_EQ(oracle.as_path(src, 4), to_source.as_path_from(src));
  }
}

TEST_P(RoutedWorld, StitchedPathsFollowTheAsPath) {
  std::vector<topo::AsId> sources;
  for (const auto& vp : topo_->vantage_points()) {
    sources.push_back(topo_->host_at(vp.host).as_id);
  }
  RoutingOracle oracle{topo_, GetParam().epoch, sources};
  PathStitcher stitcher{topo_, oracle};

  const auto vps = topo_->vantage_points_in(GetParam().epoch);
  ASSERT_FALSE(vps.empty());
  const topo::HostId src = vps.front()->host;
  for (std::size_t i = 0; i < topo_->destinations().size(); i += 41) {
    const topo::HostId dst = topo_->destinations()[i];
    std::vector<PathHop> hops;
    ASSERT_TRUE(stitcher.host_path(src, dst, hops));

    // AS sequence of the router path == the BGP AS path (contiguous).
    std::vector<topo::AsId> as_seq;
    for (const auto& hop : hops) {
      const topo::AsId as = topo_->router_at(hop.router).as_id;
      if (as_seq.empty() || as_seq.back() != as) as_seq.push_back(as);
    }
    const auto as_path = oracle.as_path(topo_->host_at(src).as_id,
                                        topo_->host_at(dst).as_id);
    EXPECT_EQ(as_seq, as_path);
  }
}

TEST_P(RoutedWorld, StitchedHopAddressesBelongToTheirRouters) {
  std::vector<topo::AsId> sources;
  for (const auto& vp : topo_->vantage_points()) {
    sources.push_back(topo_->host_at(vp.host).as_id);
  }
  RoutingOracle oracle{topo_, GetParam().epoch, sources};
  PathStitcher stitcher{topo_, oracle};
  const auto vps = topo_->vantage_points_in(GetParam().epoch);
  ASSERT_FALSE(vps.empty());
  for (const auto* vp : vps) {
    for (std::size_t i = 0; i < topo_->destinations().size(); i += 97) {
      std::vector<PathHop> hops;
      if (!stitcher.host_path(vp->host, topo_->destinations()[i], hops)) {
        continue;
      }
      for (const auto& hop : hops) {
        const auto ingress_owner = topo_->owner_of(hop.ingress);
        const auto egress_owner = topo_->owner_of(hop.egress);
        ASSERT_TRUE(ingress_owner.has_value());
        ASSERT_TRUE(egress_owner.has_value());
        EXPECT_EQ(ingress_owner->id, hop.router);
        EXPECT_EQ(egress_owner->id, hop.router);
      }
    }
  }
}

TEST_P(RoutedWorld, EpochsOnlyRemoveEdgesNeverAdd) {
  // Every 2011 adjacency is also a 2016 adjacency.
  BgpEngine old_engine{topo_, topo::Epoch::k2011};
  BgpEngine new_engine{topo_, topo::Epoch::k2016};
  for (topo::AsId as = 0; as < topo_->ases().size(); ++as) {
    for (topo::AsId peer : old_engine.peers_of(as)) {
      const auto& peers2016 = new_engine.peers_of(as);
      EXPECT_NE(std::find(peers2016.begin(), peers2016.end(), peer),
                peers2016.end());
    }
    EXPECT_LE(old_engine.providers_of(as).size(),
              new_engine.providers_of(as).size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndEpochs, RoutedWorld,
    ::testing::Values(WorldParam{11, topo::Epoch::k2016},
                      WorldParam{12, topo::Epoch::k2016},
                      WorldParam{13, topo::Epoch::k2016},
                      WorldParam{11, topo::Epoch::k2011},
                      WorldParam{14, topo::Epoch::k2011}));

}  // namespace
}  // namespace rr::route

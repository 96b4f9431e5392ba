// Oracle cache behaviour and stitcher buffer reuse under churn.
#include <gtest/gtest.h>

#include "routing/oracle.h"
#include "routing/stitcher.h"
#include "topology/generator.h"

namespace rr::route {
namespace {

class OracleCache : public ::testing::Test {
 protected:
  void SetUp() override {
    topo_ = topo::generate_test_topology(61);
    oracle_ = std::make_unique<RoutingOracle>(topo_, topo::Epoch::k2016,
                                              std::vector<AsId>{0, 1});
  }
  std::shared_ptr<const topo::Topology> topo_;
  std::unique_ptr<RoutingOracle> oracle_;
};

TEST_F(OracleCache, FallbackAnswersStayCorrectUnderEviction) {
  // Query far more distinct fallback destinations than the cache holds;
  // answers must stay identical to fresh computations.
  BgpEngine engine{topo_, topo::Epoch::k2016};
  const std::size_t n = topo_->ases().size();
  for (int round = 0; round < 2; ++round) {
    for (AsId dst = 2; dst < n; dst += 1) {
      const auto got = oracle_->as_path(dst % 7 + 2, dst);
      const auto want =
          engine.compute_tree(dst).as_path_from(dst % 7 + 2);
      ASSERT_EQ(got, want) << "dst " << dst << " round " << round;
    }
  }
}

TEST_F(OracleCache, ReachableAgreesWithPathEmptiness) {
  for (AsId src = 0; src < topo_->ases().size(); src += 9) {
    for (AsId dst = 0; dst < topo_->ases().size(); dst += 13) {
      EXPECT_EQ(oracle_->reachable(src, dst),
                src == dst || !oracle_->as_path(src, dst).empty());
    }
  }
}

TEST_F(OracleCache, SelfPathIsSingleton) {
  for (AsId as = 0; as < topo_->ases().size(); as += 17) {
    EXPECT_EQ(oracle_->as_path(as, as), std::vector<AsId>{as});
  }
}

/// Hop-for-hop equality: router, ingress and egress.
void expect_same_hops(const std::vector<PathHop>& got,
                      const std::vector<PathHop>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].router, want[i].router) << "hop " << i;
    EXPECT_EQ(got[i].ingress, want[i].ingress) << "hop " << i;
    EXPECT_EQ(got[i].egress, want[i].egress) << "hop " << i;
  }
}

TEST_F(OracleCache, StitcherScratchReuseIsSafe) {
  // Interleave the three stitching entry points through one stitcher; the
  // per-thread AS-path storage they share must never corrupt results.
  PathStitcher stitcher{topo_, *oracle_};
  const auto vps = topo_->vantage_points();
  ASSERT_GE(vps.size(), 2u);
  const topo::HostId a = vps[0].host;
  const topo::HostId b = vps[1].host;
  const topo::HostId dest = topo_->destinations()[5];

  std::vector<PathHop> first, again;
  ASSERT_TRUE(stitcher.host_path(a, dest, first));
  std::vector<PathHop> other;
  (void)stitcher.host_path(b, dest, other);
  std::vector<PathHop> router_out;
  (void)stitcher.router_path(first.back().router, a, router_out);
  ASSERT_TRUE(stitcher.host_path(a, dest, again));
  expect_same_hops(again, first);

  // Every entry point assembles in the caller's vector: stitching into
  // one that still holds a different, longer path must give exactly what
  // a stitch into an empty vector gives.
  std::vector<PathHop> longest, hops;
  for (const topo::HostId d : topo_->destinations()) {
    if (stitcher.host_path(b, d, hops) && hops.size() > longest.size()) {
      longest = hops;
    }
  }
  const RouterId mid = first[first.size() / 2].router;
  const auto check_reuse = [&](const char* entry, const auto& stitch) {
    SCOPED_TRACE(entry);
    std::vector<PathHop> fresh;
    ASSERT_TRUE(stitch(fresh));
    ASSERT_LT(fresh.size(), longest.size());
    std::vector<PathHop> used = longest;
    ASSERT_TRUE(stitch(used));
    expect_same_hops(used, fresh);
  };
  check_reuse("host_path", [&](std::vector<PathHop>& out) {
    return stitcher.host_path(a, dest, out);
  });
  check_reuse("router_path", [&](std::vector<PathHop>& out) {
    return stitcher.router_path(mid, a, out);
  });
  check_reuse("host_to_router_path", [&](std::vector<PathHop>& out) {
    return stitcher.host_to_router_path(a, mid, out);
  });
}

}  // namespace
}  // namespace rr::route

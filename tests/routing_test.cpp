// BGP policy routing and router-level path stitching.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <unordered_set>

#include "routing/bgp.h"
#include "routing/fib.h"
#include "routing/oracle.h"
#include "routing/stitcher.h"
#include "topology/generator.h"
#include "util/thread_pool.h"

namespace rr::route {
namespace {

class RoutingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = topo::generate_test_topology(21);
    engine_ = new BgpEngine{topo_, topo::Epoch::k2016};
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
    topo_.reset();
  }

  static std::shared_ptr<const topo::Topology> topo_;
  static BgpEngine* engine_;
};

std::shared_ptr<const topo::Topology> RoutingTest::topo_;
BgpEngine* RoutingTest::engine_ = nullptr;

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// FNV-1a over the eight little-endian bytes of `value`.
std::uint64_t fnv(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (i * 8)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

bool is_valley_free(const BgpEngine& engine, const std::vector<AsId>& path) {
  // Classify each step, then check the up* [flat]? down* shape.
  enum Step { kUp, kFlat, kDown };
  std::vector<Step> steps;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const AsId from = path[i];
    const AsId to = path[i + 1];
    const auto& providers = engine.providers_of(from);
    const auto& customers = engine.customers_of(from);
    const auto& peers = engine.peers_of(from);
    if (std::find(providers.begin(), providers.end(), to) != providers.end()) {
      steps.push_back(kUp);
    } else if (std::find(customers.begin(), customers.end(), to) !=
               customers.end()) {
      steps.push_back(kDown);
    } else if (std::find(peers.begin(), peers.end(), to) != peers.end()) {
      steps.push_back(kFlat);
    } else {
      return false;  // non-adjacent step
    }
  }
  int phase = 0;  // 0 = climbing, 1 = after flat, 2 = descending
  for (Step s : steps) {
    switch (s) {
      case kUp:
        if (phase != 0) return false;
        break;
      case kFlat:
        if (phase != 0) return false;
        phase = 1;
        break;
      case kDown:
        phase = 2;
        break;
    }
  }
  return true;
}

TEST_F(RoutingTest, EveryAsReachesEveryOtherAs) {
  // The generated hierarchy guarantees universal reachability via
  // provider chains and the tier-1 clique.
  const std::size_t n = topo_->ases().size();
  for (AsId dst = 0; dst < n; dst += 7) {
    const RouteTree tree = engine_->compute_tree(dst);
    for (AsId src = 0; src < n; ++src) {
      EXPECT_TRUE(tree.reachable_from(src))
          << "AS " << src << " cannot reach AS " << dst;
    }
  }
}

TEST_F(RoutingTest, PathsAreValleyFree) {
  const std::size_t n = topo_->ases().size();
  for (AsId dst = 0; dst < n; dst += 11) {
    const RouteTree tree = engine_->compute_tree(dst);
    for (AsId src = 0; src < n; src += 5) {
      const auto path = tree.as_path_from(src);
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.front(), src);
      EXPECT_EQ(path.back(), dst);
      EXPECT_TRUE(is_valley_free(*engine_, path))
          << "valley in path from " << src << " to " << dst;
      // No loops.
      std::unordered_set<AsId> seen(path.begin(), path.end());
      EXPECT_EQ(seen.size(), path.size());
    }
  }
}

TEST_F(RoutingTest, PrefersCustomerOverPeerOverProvider) {
  const std::size_t n = topo_->ases().size();
  int checked = 0;
  for (AsId dst = 0; dst < n && checked < 500; dst += 3) {
    const RouteTree tree = engine_->compute_tree(dst);
    for (AsId src = 0; src < n && checked < 500; src += 3) {
      if (src == dst) continue;
      const auto& entry = tree.entry(src);
      if (entry.route_class != RouteClass::kPeer &&
          entry.route_class != RouteClass::kProvider) {
        continue;
      }
      // If the chosen route is peer/provider there must be no customer
      // route: no customer of src may have any route that reaches dst
      // going strictly down. Verify against the tree's customer BFS
      // indirectly: a customer-learned route would have been preferred.
      for (AsId customer : engine_->customers_of(src)) {
        const auto& sub = tree.entry(customer);
        EXPECT_FALSE(sub.route_class == RouteClass::kCustomer ||
                     sub.route_class == RouteClass::kSelf)
            << "AS " << src << " should have taken the customer route via "
            << customer;
      }
      ++checked;
    }
  }
}

TEST_F(RoutingTest, RouteLengthMatchesPathLength) {
  const RouteTree tree = engine_->compute_tree(3);
  for (AsId src = 0; src < topo_->ases().size(); src += 13) {
    const auto path = tree.as_path_from(src);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.size(), tree.entry(src).length + 1u);
  }
}

TEST_F(RoutingTest, Epoch2011HasFewerPeerEdges) {
  BgpEngine old_engine{topo_, topo::Epoch::k2011};
  std::size_t peers_2011 = 0, peers_2016 = 0;
  for (AsId as = 0; as < topo_->ases().size(); ++as) {
    peers_2011 += old_engine.peers_of(as).size();
    peers_2016 += engine_->peers_of(as).size();
  }
  EXPECT_LT(peers_2011, peers_2016);
}

TEST_F(RoutingTest, OracleMatchesEngine) {
  std::vector<AsId> sources{0, 5, 9};
  RoutingOracle oracle{topo_, topo::Epoch::k2016, sources};
  for (AsId dst = 0; dst < topo_->ases().size(); dst += 17) {
    const RouteTree tree = engine_->compute_tree(dst);
    for (AsId src : sources) {
      EXPECT_EQ(oracle.as_path(src, dst), tree.as_path_from(src));
    }
  }
  // Reverse direction (dst is a source) uses pinned trees.
  const RouteTree to5 = engine_->compute_tree(5);
  for (AsId src = 0; src < topo_->ases().size(); src += 23) {
    EXPECT_EQ(oracle.as_path(src, 5), to5.as_path_from(src));
  }
  // Fallback path (neither endpoint a source).
  const RouteTree to7 = engine_->compute_tree(7);
  EXPECT_EQ(oracle.as_path(11, 7), to7.as_path_from(11));
  EXPECT_EQ(oracle.as_path(3, 3), std::vector<AsId>{3});
}

/// Golden pins for the route trees: one FNV-1a digest per (world seed,
/// epoch) over every destination's full RouteEntry array, captured from
/// the engine that sorted each provider-phase bucket by (parent, as)
/// before draining it. Every tie-break the selection makes lands in these
/// bytes, so a drain order that settles an AS at another length or with
/// another same-length parent changes a digest.
TEST(RouteTreePins, EveryTreeMatchesTheParent) {
  struct Pin {
    std::uint64_t seed;
    topo::Epoch epoch;
    std::uint64_t digest;
  };
  constexpr Pin kPins[] = {
      {21, topo::Epoch::k2011, 0xa705ca834fa1c356ULL},
      {21, topo::Epoch::k2016, 0xabecf79bd66c084dULL},
      {7, topo::Epoch::k2011, 0x6d91fdacc361751cULL},
      {7, topo::Epoch::k2016, 0x79c4a8033ee9d7fcULL},
  };
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(testing::Message()
                 << "seed " << pin.seed << " epoch "
                 << (pin.epoch == topo::Epoch::k2011 ? 2011 : 2016));
    const auto topology = topo::generate_test_topology(pin.seed);
    const BgpEngine engine{topology, pin.epoch};
    TreeScratch scratch;
    std::uint64_t digest = kFnvBasis;
    for (AsId dst = 0; dst < topology->ases().size(); ++dst) {
      engine.compute_tree_into(dst, scratch);
      for (const RouteEntry& entry : scratch.entries) {
        digest = fnv(digest, entry.next_hop);
        digest = fnv(digest, entry.length);
        digest = fnv(digest, static_cast<std::uint64_t>(entry.route_class));
      }
    }
    EXPECT_EQ(digest, pin.digest);
  }
}

class StitcherTest : public RoutingTest {
 protected:
  void SetUp() override {
    std::vector<AsId> sources;
    for (const auto& vp : topo_->vantage_points()) {
      sources.push_back(topo_->host_at(vp.host).as_id);
    }
    oracle_ = std::make_unique<RoutingOracle>(topo_, topo::Epoch::k2016,
                                              sources);
    stitcher_ = std::make_unique<PathStitcher>(topo_, *oracle_);
  }
  std::unique_ptr<RoutingOracle> oracle_;
  std::unique_ptr<PathStitcher> stitcher_;
};

TEST_F(StitcherTest, ForwardPathIsContiguousAndDuplicateFree) {
  const auto vps = topo_->vantage_points();
  ASSERT_FALSE(vps.empty());
  const topo::HostId src = vps.front().host;
  for (std::size_t i = 0; i < topo_->destinations().size(); i += 29) {
    const topo::HostId dst = topo_->destinations()[i];
    std::vector<PathHop> hops;
    ASSERT_TRUE(stitcher_->host_path(src, dst, hops));
    ASSERT_FALSE(hops.empty());
    // First hop is in the source AS, last in the destination AS.
    EXPECT_EQ(topo_->router_at(hops.front().router).as_id,
              topo_->host_at(src).as_id);
    EXPECT_EQ(topo_->router_at(hops.back().router).as_id,
              topo_->host_at(dst).as_id);
    for (std::size_t h = 0; h + 1 < hops.size(); ++h) {
      EXPECT_NE(hops[h].router, hops[h + 1].router);
    }
    // Each hop's egress address belongs to the hop's router.
    for (const auto& hop : hops) {
      const auto owner = topo_->owner_of(hop.egress);
      ASSERT_TRUE(owner.has_value());
      EXPECT_EQ(owner->id, hop.router);
    }
  }
}

TEST_F(StitcherTest, CrossAsHopsUseLinkAddresses) {
  const topo::HostId src = topo_->vantage_points().front().host;
  const topo::HostId dst = topo_->destinations()[3];
  std::vector<PathHop> hops;
  ASSERT_TRUE(stitcher_->host_path(src, dst, hops));
  for (std::size_t h = 0; h + 1 < hops.size(); ++h) {
    const auto as_a = topo_->router_at(hops[h].router).as_id;
    const auto as_b = topo_->router_at(hops[h + 1].router).as_id;
    if (as_a == as_b) continue;
    const auto link_id = topo_->link_between(as_a, as_b);
    ASSERT_TRUE(link_id.has_value());
    const auto& link = topo_->link_at(*link_id);
    EXPECT_EQ(hops[h].egress, link.a == as_a ? link.addr_a : link.addr_b);
    EXPECT_EQ(hops[h + 1].ingress,
              link.a == as_b ? link.addr_a : link.addr_b);
  }
}

TEST_F(StitcherTest, ForwardAndReversePathsMayDiffer) {
  // Policy routing is asymmetric; at least some pairs must demonstrate it.
  const auto vps = topo_->vantage_points();
  int asymmetric = 0, total = 0;
  for (std::size_t v = 0; v < vps.size(); ++v) {
    const topo::HostId src = vps[v].host;
    for (std::size_t i = 0; i < topo_->destinations().size(); i += 61) {
      const topo::HostId dst = topo_->destinations()[i];
      std::vector<PathHop> fwd, rev;
      if (!stitcher_->host_path(src, dst, fwd)) continue;
      if (!stitcher_->host_path(dst, src, rev)) continue;
      ++total;
      std::vector<topo::RouterId> fwd_routers, rev_routers;
      for (const auto& hop : fwd) fwd_routers.push_back(hop.router);
      for (const auto& hop : rev) rev_routers.push_back(hop.router);
      std::reverse(rev_routers.begin(), rev_routers.end());
      if (fwd_routers != rev_routers) ++asymmetric;
    }
  }
  EXPECT_GT(total, 10);
  EXPECT_GT(asymmetric, 0);
}

TEST_F(StitcherTest, RouterPathStartsAfterOrigin) {
  // Errors originate mid-path: the emitting router is excluded.
  const topo::HostId src = topo_->vantage_points().front().host;
  const topo::HostId dst = topo_->destinations()[5];
  std::vector<PathHop> fwd;
  ASSERT_TRUE(stitcher_->host_path(src, dst, fwd));
  ASSERT_GT(fwd.size(), 2u);
  const topo::RouterId mid = fwd[fwd.size() / 2].router;
  std::vector<PathHop> back;
  ASSERT_TRUE(stitcher_->router_path(mid, src, back));
  ASSERT_FALSE(back.empty());
  EXPECT_NE(back.front().router, mid);
  EXPECT_EQ(topo_->router_at(back.back().router).as_id,
            topo_->host_at(src).as_id);
}

TEST_F(StitcherTest, HostToRouterPathEndsAtTarget) {
  const topo::HostId src = topo_->vantage_points().front().host;
  const topo::RouterId target = topo_->as_at(5).core.front();
  std::vector<PathHop> hops;
  ASSERT_TRUE(stitcher_->host_to_router_path(src, target, hops));
  ASSERT_FALSE(hops.empty());
  EXPECT_EQ(hops.back().router, target);
}

TEST_F(StitcherTest, DeterministicStitching) {
  const topo::HostId src = topo_->vantage_points().front().host;
  const topo::HostId dst = topo_->destinations()[7];
  std::vector<PathHop> a, b;
  ASSERT_TRUE(stitcher_->host_path(src, dst, a));
  ASSERT_TRUE(stitcher_->host_path(src, dst, b));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].router, b[i].router);
    EXPECT_EQ(a[i].egress, b[i].egress);
    EXPECT_EQ(a[i].ingress, b[i].ingress);
  }
}

std::uint64_t hash_path(std::uint64_t digest, bool routable,
                        const std::vector<PathHop>& hops) {
  digest = fnv(digest, routable);
  if (!routable) return digest;
  digest = fnv(digest, hops.size());
  for (const PathHop& hop : hops) {
    digest = fnv(digest, hop.router);
    digest = fnv(digest, hop.ingress.value());
    digest = fnv(digest, hop.egress.value());
  }
  return digest;
}

/// Golden pin for the stitcher: every VP -> destination host path, and
/// every router path from one of that path's routers back to the VP (the
/// Time-Exceeded reply route), hop for hop with both addresses. Captured
/// when the link, access-chain and interface lookups still went through
/// the generator's hash maps and the routers' own interface lists.
TEST_F(StitcherTest, EveryVpPathMatchesTheParent) {
  constexpr std::uint64_t kDigest = 0x76facab2ce0d7a70ULL;
  std::uint64_t digest = kFnvBasis;
  std::vector<PathHop> fwd, back;
  std::size_t router_paths = 0;
  for (const auto& vp : topo_->vantage_points()) {
    for (const topo::HostId dst : topo_->destinations()) {
      const bool routable = stitcher_->host_path(vp.host, dst, fwd);
      digest = hash_path(digest, routable, fwd);
      if (!routable) continue;
      for (const PathHop& hop : fwd) {
        digest = hash_path(digest,
                           stitcher_->router_path(hop.router, vp.host, back),
                           back);
        ++router_paths;
      }
    }
  }
  EXPECT_GT(router_paths, 10000u);
  EXPECT_EQ(digest, kDigest);
}

/// The compiled forwarding table answers exactly what the stitcher
/// would: for every (source, block destination) pair, both directions
/// match host_path hop for hop, with hit vs unroutable agreeing. A host
/// outside the compiled rows misses (the Network then asks its path
/// cache). Holds whether the rows were stitched on the calling thread or
/// across a worker pool.
TEST_F(StitcherTest, CompiledFibMatchesStitcherHopForHop) {
  std::vector<topo::HostId> sources;
  for (const auto& vp : topo_->vantage_points()) sources.push_back(vp.host);
  if (topo_->probe_host() != topo::kNoHost) {
    sources.push_back(topo_->probe_host());
  }
  ASSERT_GE(sources.size(), 2u);
  const topo::HostId outsider = sources.front();
  sources.erase(sources.begin());
  const std::span<const topo::HostId> block = topo_->destinations();
  util::ThreadPool pool(4);
  for (util::ThreadPool* build_pool :
       std::array<util::ThreadPool*, 2>{nullptr, &pool}) {
    SCOPED_TRACE(build_pool == nullptr ? "serial build" : "pooled build");
    const auto fib = CompiledFib::build(*stitcher_, sources, block, build_pool);

    std::vector<PathHop> expected, got;
    const auto expect_same = [&](CompiledFib::Lookup lookup, bool routable) {
      ASSERT_NE(lookup, CompiledFib::Lookup::kMiss);
      ASSERT_EQ(lookup == CompiledFib::Lookup::kHit, routable);
      if (!routable) return;
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t h = 0; h < got.size(); ++h) {
        EXPECT_EQ(got[h].router, expected[h].router);
        EXPECT_EQ(got[h].ingress, expected[h].ingress);
        EXPECT_EQ(got[h].egress, expected[h].egress);
      }
    };
    for (const topo::HostId src : sources) {
      for (const topo::HostId dst : block) {
        SCOPED_TRACE(testing::Message() << "src " << src << " dst " << dst);
        const bool fwd_ok = stitcher_->host_path(src, dst, expected);
        expect_same(fib->forward(src, dst, got), fwd_ok);
        const bool rev_ok = stitcher_->host_path(dst, src, expected);
        expect_same(fib->reverse(dst, src, got), rev_ok);
      }
    }
    EXPECT_EQ(fib->forward(outsider, block.front(), got),
              CompiledFib::Lookup::kMiss);
    EXPECT_EQ(fib->reverse(block.front(), outsider, got),
              CompiledFib::Lookup::kMiss);
  }
}

}  // namespace
}  // namespace rr::route

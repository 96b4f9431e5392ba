// Golden pins for routing at the default scale (5,200 ASes): the 2016 and
// 2011 testbeds' oracles, over one world. RouteTreePins holds every tree
// of the test-scale worlds; these hold what a default-scale census reads
// from the oracle, at the scale its sweep was confined to the sources'
// provider closure. Both digests were captured on the engine that drained
// Dial buckets over every AS for every destination.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "measure/testbed.h"

namespace rr::measure {
namespace {

using route::RouteEntry;
using route::RouteTree;
using topo::AsId;

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// FNV-1a over the eight little-endian bytes of `value`.
std::uint64_t fnv(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (i * 8)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t fnv_path(std::uint64_t digest, const std::vector<AsId>& path) {
  digest = fnv(digest, path.size());
  for (const AsId as : path) digest = fnv(digest, as);
  return digest;
}

/// The testbed's source ASes, sorted and unique: its epoch's VPs, the
/// probe host and the cloud probe hosts.
std::vector<AsId> source_ases(const Testbed& testbed) {
  const topo::Topology& topo = testbed.topology();
  std::vector<AsId> ases;
  for (const auto* vp : testbed.vps()) {
    ases.push_back(topo.host_at(vp->host).as_id);
  }
  ases.push_back(topo.host_at(topo.probe_host()).as_id);
  for (const auto& cloud : topo.clouds()) {
    ases.push_back(topo.host_at(cloud.probe_host).as_id);
  }
  std::sort(ases.begin(), ases.end());
  ases.erase(std::unique(ases.begin(), ases.end()), ases.end());
  return ases;
}

/// The default world (TopologyParams::paper_scale(), default seed) under
/// both epochs' testbeds.
class DefaultScaleRoutingPins : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TestbedConfig config;
    config.epoch = topo::Epoch::k2016;
    tb2016_ = new Testbed{config};
    config.epoch = topo::Epoch::k2011;
    tb2011_ = new Testbed{tb2016_->topology_ptr(), tb2016_->behaviors_ptr(),
                          config};
  }
  static void TearDownTestSuite() {
    delete tb2011_;
    tb2011_ = nullptr;
    delete tb2016_;
    tb2016_ = nullptr;
  }

  static Testbed* tb2016_;
  static Testbed* tb2011_;
};

Testbed* DefaultScaleRoutingPins::tb2016_ = nullptr;
Testbed* DefaultScaleRoutingPins::tb2011_ = nullptr;

/// Every source AS's path to every destination AS: the paths the sweep
/// stores and the stub lemma derives.
TEST_F(DefaultScaleRoutingPins, EverySourcePathMatchesTheParent) {
  struct Pin {
    const Testbed* testbed;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {tb2016_, 0x7ffc47e2f12ffb40ULL},
      {tb2011_, 0x7c039ad0990ce483ULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.testbed->epoch() == topo::Epoch::k2016 ? "2016"
                                                            : "2011");
    const auto& oracle = pin.testbed->oracle();
    const std::size_t n = pin.testbed->topology().ases().size();
    const auto sources = source_ases(*pin.testbed);
    ASSERT_GT(sources.size(), 100u);
    std::uint64_t digest = kFnvBasis;
    for (const AsId src : sources) {
      for (AsId dst = 0; dst < n; ++dst) {
        digest = fnv_path(digest, oracle.as_path(src, dst));
      }
    }
    EXPECT_EQ(digest, pin.digest) << std::hex << "0x" << digest;
  }
}

/// Every entry of the trees the oracle pins toward each source AS (one
/// full tree per source), and every AS's reverse path the oracle answers
/// from them.
TEST_F(DefaultScaleRoutingPins, EveryPinnedTreeMatchesTheParent) {
  struct Pin {
    const Testbed* testbed;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {tb2016_, 0x814f474c56db6b9eULL},
      {tb2011_, 0x970c3f7fa9e3bd8bULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.testbed->epoch() == topo::Epoch::k2016 ? "2016"
                                                            : "2011");
    const auto& oracle = pin.testbed->oracle();
    const std::size_t n = pin.testbed->topology().ases().size();
    std::uint64_t digest = kFnvBasis;
    for (const AsId source : source_ases(*pin.testbed)) {
      const RouteTree tree = oracle.engine().compute_tree(source);
      for (AsId as = 0; as < n; ++as) {
        const RouteEntry& entry = tree.entry(as);
        digest = fnv(digest, entry.next_hop);
        digest = fnv(digest, entry.length);
        digest = fnv(digest, static_cast<std::uint64_t>(entry.route_class));
        digest = fnv_path(digest, oracle.as_path(as, source));
      }
    }
    EXPECT_EQ(digest, pin.digest) << std::hex << "0x" << digest;
  }
}

}  // namespace
}  // namespace rr::measure

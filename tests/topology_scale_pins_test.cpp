// Golden pin for the generator at the default scale (5,200 ASes): the
// world TopologyParams::paper_scale() builds at its default seed,
// fingerprinted as WorldFingerprint.TestScaleMatchesTheParent fingerprints
// the test-scale world. The digest was captured on the parent build, when
// the generator still expanded its records on a thread pool and an
// open-addressed index answered owner_of.
#include <gtest/gtest.h>

#include "topology/generator.h"
#include "world_fingerprint.h"

namespace rr::topo {
namespace {

TEST(WorldFingerprint, DefaultScaleMatchesTheParent) {
  constexpr std::uint64_t kDefaultScaleFingerprint = 0x27cbafd3a927b976ULL;
  const auto topo = Generator{TopologyParams::paper_scale()}.generate();
  EXPECT_EQ(golden::world_fingerprint(*topo), kDefaultScaleFingerprint);
}

}  // namespace
}  // namespace rr::topo

// Property tests and golden pins for the topology's flat address
// services: a generated topology's address-to-AS and owner answers over
// every /24 block of its plan, its alias views and its per-epoch VP lists
// must answer what the generator recorded.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "topology/generator.h"

namespace rr {
namespace {

std::uint64_t fnv(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (i * 8)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(CompiledTopology, FlatServicesMatchReferenceStructures) {
  const auto topo =
      topo::Generator{topo::TopologyParams::test_scale()}.generate();

  // as_of_address at both ends of every /24 block of the address plan,
  // of the block just below it and of the first block past it, and at
  // both ends of the address space. The digest and the block count were
  // pinned when a longest-prefix-match trie over the plan answered.
  constexpr std::uint64_t kAsDigest = 0xcddad19eed672d05ULL;
  constexpr std::size_t kPlanBlocks = 1006;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto stamp = [&](std::uint32_t addr) {
    const auto as = topo->as_of_address(net::IPv4Address{addr});
    digest = fnv(digest, as ? std::uint64_t{*as} + 1 : 0);
  };
  stamp(0);
  stamp(0xffff'ffffu);
  std::uint32_t base = 0x1000'0000u - 256;  // the block below 16.0.0.0
  stamp(base);
  stamp(base + 255);
  std::size_t blocks = 0;
  for (base = 0x1000'0000u; topo->as_of_address(net::IPv4Address{base});
       base += 256) {
    stamp(base);
    stamp(base + 255);
    ++blocks;
  }
  stamp(base);
  stamp(base + 255);
  EXPECT_EQ(blocks, kPlanBlocks);
  EXPECT_EQ(digest, kAsDigest);

  // owner_of / aliases_of: alias views must contain the queried address
  // and agree with the owning device's interface or alias run.
  for (topo::RouterId r = 0; r < topo->routers().size(); ++r) {
    const auto interfaces = topo->router_interfaces(r);
    for (const auto& addr : interfaces) {
      const auto owner = topo->owner_of(addr);
      ASSERT_TRUE(owner.has_value());
      EXPECT_EQ(owner->kind, topo::AddressOwner::Kind::kRouter);
      EXPECT_EQ(owner->id, r);
      const auto aliases = topo->aliases_of(addr);
      EXPECT_EQ(aliases.data(), interfaces.data());
      EXPECT_EQ(aliases.size(), interfaces.size());
    }
  }
  std::size_t with_aliases = 0;
  for (topo::HostId h = 0; h < topo->hosts().size(); ++h) {
    const net::IPv4Address address = topo->host_at(h).address;
    const auto extra = topo->host_aliases(h);
    const auto aliases = topo->aliases_of(address);
    ASSERT_EQ(aliases.size(), 1 + extra.size());
    EXPECT_EQ(aliases.front(), address);
    EXPECT_TRUE(std::equal(extra.begin(), extra.end(), aliases.begin() + 1));
    for (const auto& alias : extra) {
      EXPECT_EQ(topo->aliases_of(alias).data(), aliases.data());
    }
    if (!extra.empty()) ++with_aliases;
  }
  EXPECT_GT(with_aliases, 0u);  // the corpus exercised the arena path

  // Unassigned address: no owner, empty alias view.
  const net::IPv4Address unassigned{1};  // 0.0.0.1 precedes the address plan
  EXPECT_FALSE(topo->owner_of(unassigned).has_value());
  EXPECT_TRUE(topo->aliases_of(unassigned).empty());

  // vantage_points_in: the precompiled lists against a direct filter.
  for (const topo::Epoch epoch : {topo::Epoch::k2011, topo::Epoch::k2016}) {
    const auto compiled = topo->vantage_points_in(epoch);
    std::vector<const topo::VantagePoint*> reference;
    for (const auto& vp : topo->vantage_points()) {
      const bool exists =
          epoch == topo::Epoch::k2011 ? vp.exists_in_2011 : vp.exists_in_2016;
      if (exists) reference.push_back(&vp);
    }
    ASSERT_EQ(compiled.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(compiled[i], reference[i]);
    }
  }
}

/// owner_of over all 256 addresses of every /24 block of the test-scale
/// plan, of the block below 16.0.0.0 and of the first block past the
/// plan: a miss, or the owner's kind and id. The digest and the number of
/// owned addresses were pinned when an open-addressed hash index over
/// every assigned address answered.
TEST(CompiledTopology, OwnerOfMatchesTheParentOverEveryBlock) {
  constexpr std::uint64_t kOwnerDigest = 0xd45c8e443d3e6509ULL;
  constexpr std::size_t kOwnedAddresses = 3459;
  const auto topo =
      topo::Generator{topo::TopologyParams::test_scale()}.generate();
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t owned = 0;
  const auto stamp_block = [&](std::uint32_t base) {
    for (std::uint32_t offset = 0; offset < 256; ++offset) {
      const auto owner = topo->owner_of(net::IPv4Address{base + offset});
      digest = fnv(digest, owner ? static_cast<std::uint64_t>(owner->kind) + 1
                                 : 0);
      if (!owner) continue;
      digest = fnv(digest, owner->id);
      ++owned;
    }
  };
  stamp_block(0x1000'0000u - 256);
  std::uint32_t base = 0x1000'0000u;
  for (; topo->as_of_address(net::IPv4Address{base}); base += 256) {
    stamp_block(base);
  }
  stamp_block(base);
  EXPECT_EQ(owned, kOwnedAddresses);
  EXPECT_EQ(digest, kOwnerDigest);
}

}  // namespace
}  // namespace rr

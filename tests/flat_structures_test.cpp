// Property tests for the topology's flat address services: AddressIndex
// must agree with std::unordered_map on randomized corpora, and a
// generated topology's address-to-AS table, owner index, alias views and
// per-epoch VP lists must answer what the generator recorded.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <vector>

#include "topology/address_index.h"
#include "topology/generator.h"
#include "util/rng.h"

namespace rr {
namespace {

std::uint64_t fnv(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (i * 8)) & 0xff;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(AddressIndex, MatchesHashMapOnRandomCorpora) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng{seed * 0x51c0ffeeULL};
    topo::AddressIndex index;
    std::unordered_map<std::uint32_t, topo::AddressOwner> reference;
    const std::size_t n =
        100 + static_cast<std::size_t>(rng.next_below(3000));
    std::vector<std::uint32_t> keys;
    for (std::size_t i = 0; i < n; ++i) {
      // Small key space so replacements actually happen; always include
      // key 0 (the index's empty-slot sentinel) in the corpus.
      const std::uint32_t key =
          i == 0 ? 0u : static_cast<std::uint32_t>(rng.next_below(4096)) *
                            (static_cast<std::uint32_t>(rng()) | 1u);
      const topo::AddressOwner owner{
          rng.chance(0.5) ? topo::AddressOwner::Kind::kHost
                          : topo::AddressOwner::Kind::kRouter,
          static_cast<std::uint32_t>(rng.next_below(0x7fffffffu))};
      index.insert(net::IPv4Address{key}, owner);
      reference[key] = owner;
      keys.push_back(key);
    }
    ASSERT_EQ(index.size(), reference.size());
    for (const std::uint32_t key : keys) {
      const auto got = index.find(net::IPv4Address{key});
      ASSERT_TRUE(got.has_value()) << key;
      EXPECT_EQ(*got, reference.at(key)) << key;
    }
    for (std::size_t i = 0; i < 2000; ++i) {
      const std::uint32_t key = static_cast<std::uint32_t>(rng());
      const auto got = index.find(net::IPv4Address{key});
      const auto it = reference.find(key);
      ASSERT_EQ(got.has_value(), it != reference.end()) << key;
      if (got) {
        EXPECT_EQ(*got, it->second) << key;
      }
    }
  }
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

}  // namespace
}  // namespace rr

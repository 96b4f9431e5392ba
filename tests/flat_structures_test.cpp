// Property tests for the compiled forwarding plane's flat structures:
// FlatLpm must agree with LpmTrie and AddressIndex with
// std::unordered_map on randomized corpora, including the edges a DIR-24-8
// layout can get wrong (/0 defaults, /32 leaves, overlapping prefixes,
// addresses outside every granule), plus spot checks that a generated
// topology's compiled services match its reference structures.

#include <gtest/gtest.h>

#include <optional>
#include <unordered_map>
#include <vector>

#include "netbase/flat_lpm.h"
#include "netbase/lpm_trie.h"
#include "topology/address_index.h"
#include "topology/generator.h"
#include "util/rng.h"

namespace rr {
namespace {

using net::IPv4Address;
using net::Prefix;

/// Probe set for one corpus: boundary addresses of every inserted prefix
/// plus uniform random addresses (which mostly miss).
std::vector<IPv4Address> probe_addresses(
    const std::vector<Prefix>& prefixes, util::Rng& rng, std::size_t extra) {
  std::vector<IPv4Address> out;
  for (const auto& prefix : prefixes) {
    const std::uint32_t base = prefix.base().value();
    const std::uint32_t span =
        prefix.length() == 0
            ? 0xffffffffu
            : static_cast<std::uint32_t>(
                  (std::uint64_t{1} << (32 - prefix.length())) - 1);
    out.push_back(IPv4Address{base});
    out.push_back(IPv4Address{base + span});          // broadcast end
    out.push_back(IPv4Address{base + span / 2});      // interior
    out.push_back(IPv4Address{base - 1});             // just below (wraps ok)
    out.push_back(IPv4Address{base + span + 1});      // just above (wraps ok)
  }
  for (std::size_t i = 0; i < extra; ++i) {
    out.push_back(IPv4Address{static_cast<std::uint32_t>(rng())});
  }
  return out;
}

void expect_equivalent(const net::LpmTrie<std::uint32_t>& trie,
                       const net::FlatLpm<std::uint32_t>& flat,
                       const std::vector<IPv4Address>& probes) {
  ASSERT_EQ(flat.size(), trie.size());
  for (const IPv4Address addr : probes) {
    const std::uint32_t* expected = trie.lookup(addr);
    const std::uint32_t* got = flat.lookup(addr);
    ASSERT_EQ(expected != nullptr, got != nullptr) << addr.to_string();
    if (expected != nullptr) {
      EXPECT_EQ(*expected, *got) << addr.to_string();
    }
    const auto expected_prefix = trie.lookup_prefix(addr);
    const auto got_prefix = flat.lookup_prefix(addr);
    ASSERT_EQ(expected_prefix.has_value(), got_prefix.has_value())
        << addr.to_string();
    if (expected_prefix) {
      EXPECT_EQ(expected_prefix->first, got_prefix->first)
          << addr.to_string();
      EXPECT_EQ(expected_prefix->second, got_prefix->second)
          << addr.to_string();
    }
  }
}

TEST(FlatLpm, MatchesTrieOnRandomCorpora) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng{seed * 0x9e3779b9ULL};
    net::LpmTrie<std::uint32_t> trie;
    std::vector<Prefix> prefixes;
    const std::size_t n = 50 + static_cast<std::size_t>(rng.next_below(400));
    for (std::size_t i = 0; i < n; ++i) {
      // Lengths biased toward the interesting bands: around the /24
      // granule boundary and the extremes.
      static constexpr std::uint8_t kLengths[] = {8,  12, 16, 20, 22, 23,
                                                  24, 25, 26, 28, 30, 31,
                                                  32, 0};
      const std::uint8_t length =
          kLengths[rng.next_below(std::size(kLengths))];
      const Prefix prefix{IPv4Address{static_cast<std::uint32_t>(rng())},
                          length};
      trie.insert(prefix, static_cast<std::uint32_t>(i));
      prefixes.push_back(prefix);
    }
    const net::FlatLpm<std::uint32_t> flat{trie};
    expect_equivalent(trie, flat, probe_addresses(prefixes, rng, 2000));
  }
}

TEST(FlatLpm, OverlappingPrefixStack) {
  // Nested prefixes over one /8: every length from /8 to /32 covering the
  // same address, so each probe depth picks a different winner.
  net::LpmTrie<std::uint32_t> trie;
  std::vector<Prefix> prefixes;
  const std::uint32_t base = 0x0a000000u;  // 10.0.0.0
  for (std::uint8_t length = 8; length <= 32; ++length) {
    const Prefix prefix{IPv4Address{base}, length};
    trie.insert(prefix, length);
    prefixes.push_back(prefix);
  }
  const net::FlatLpm<std::uint32_t> flat{trie};
  util::Rng rng{7};
  expect_equivalent(trie, flat, probe_addresses(prefixes, rng, 500));
  // The fully-covered address matches the /32; a sibling matches the /31...
  EXPECT_EQ(*flat.lookup(IPv4Address{base}), 32u);
  EXPECT_EQ(*flat.lookup(IPv4Address{base + 1}), 31u);
  EXPECT_EQ(*flat.lookup(IPv4Address{base + 2}), 30u);
  // ...and an address outside the /8 misses entirely.
  EXPECT_EQ(flat.lookup(IPv4Address{0x0b000000u}), nullptr);
}

TEST(FlatLpm, DefaultRouteAnswersEverything) {
  net::LpmTrie<std::uint32_t> trie;
  trie.insert(Prefix{IPv4Address{0}, 0}, 777u);
  trie.insert(Prefix{IPv4Address{0xc0a80000u}, 16}, 42u);  // 192.168/16
  const net::FlatLpm<std::uint32_t> flat{trie};
  // Inside the covered granule range, outside it, and at both ends of the
  // address space: the /0 must answer wherever the /16 does not.
  EXPECT_EQ(*flat.lookup(IPv4Address{0xc0a80101u}), 42u);
  EXPECT_EQ(*flat.lookup(IPv4Address{0x00000000u}), 777u);
  EXPECT_EQ(*flat.lookup(IPv4Address{0xffffffffu}), 777u);
  EXPECT_EQ(*flat.lookup(IPv4Address{0x08080808u}), 777u);
  const auto hit = flat.lookup_prefix(IPv4Address{0x08080808u});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->first, (Prefix{IPv4Address{0}, 0}));
}

TEST(FlatLpm, EmptyTableMissesEverything) {
  const net::LpmTrie<std::uint32_t> trie;
  const net::FlatLpm<std::uint32_t> flat{trie};
  EXPECT_TRUE(flat.empty());
  EXPECT_EQ(flat.lookup(IPv4Address{0x01020304u}), nullptr);
  EXPECT_FALSE(flat.lookup_prefix(IPv4Address{0}).has_value());
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

  // as_of_address: the compiled flat table against the build trie, over
  // every assigned host address plus random probes.
  util::Rng rng{2016};
  for (const auto& host : topo->hosts()) {
    const auto flat = topo->as_of_address(host.address);
    const std::uint32_t* reference = topo->address_trie().lookup(host.address);
    ASSERT_TRUE(flat.has_value());
    ASSERT_NE(reference, nullptr);
    EXPECT_EQ(*flat, *reference);
  }
  for (std::size_t i = 0; i < 20000; ++i) {
    const net::IPv4Address addr{static_cast<std::uint32_t>(rng())};
    const auto flat = topo->as_of_address(addr);
    const std::uint32_t* reference = topo->address_trie().lookup(addr);
    ASSERT_EQ(flat.has_value(), reference != nullptr) << addr.to_string();
    if (flat) {
      EXPECT_EQ(*flat, *reference);
    }
  }

  // owner_of / aliases_of: alias views must contain the queried address
  // and agree with the owning device's interface list.
  for (const auto& router : topo->routers()) {
    for (const auto& addr : router.interfaces) {
      const auto owner = topo->owner_of(addr);
      ASSERT_TRUE(owner.has_value());
      EXPECT_EQ(owner->kind, topo::AddressOwner::Kind::kRouter);
      const auto aliases = topo->aliases_of(addr);
      EXPECT_EQ(aliases.size(), router.interfaces.size());
    }
  }
  std::size_t with_aliases = 0;
  for (const auto& host : topo->hosts()) {
    const auto aliases = topo->aliases_of(host.address);
    ASSERT_EQ(aliases.size(), 1 + host.aliases.size());
    EXPECT_EQ(aliases.front(), host.address);
    if (!host.aliases.empty()) ++with_aliases;
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

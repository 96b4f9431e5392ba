// Doubletree stop sets (measure/stopset.h): key packing, the concurrent
// StopSet structure, the DoubletreeGate policy, and the gated traceroute
// engine's window invariance. Tier 1 — everything here runs on a
// test-scale world or no world at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <unordered_set>
#include <vector>

#include "measure/stopset.h"
#include "measure/testbed.h"
#include "probe/prober.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rr::measure {
namespace {

net::IPv4Address addr(std::uint32_t v) { return net::IPv4Address{v}; }

// ------------------------------------------------------------------ keys

TEST(StopSetKeys, DistinctFactsYieldDistinctKeys) {
  // The 58-bit packing is lossless and the mix is bijective, so a dense
  // grid of facts across all four kinds must produce all-distinct,
  // never-zero keys.
  std::unordered_set<std::uint64_t> keys;
  std::size_t count = 0;
  for (std::uint32_t i = 0; i < 64; ++i) {
    const auto iface = addr(0x0A000001 + i);
    // Distinct /24 per iteration: path/reach facts key on the destination
    // *prefix*, so same-/24 destinations would (correctly) collapse.
    const auto dest = addr(0xC0A80001 + (i << 8));
    for (int ttl = 1; ttl <= 32; ++ttl) {
      keys.insert(local_stop_key(iface, ttl));
      keys.insert(path_point_key(dest, ttl));
      keys.insert(reach_point_key(dest, ttl));
      count += 3;
    }
    for (std::uint32_t p = 0; p < 16; ++p) {
      keys.insert(global_stop_key(iface, addr(0x0B000000 + (p << 8))));
      ++count;
    }
  }
  EXPECT_EQ(keys.size(), count);
  EXPECT_EQ(keys.count(0), 0u) << "0 is the empty-slot sentinel";
}

TEST(StopSetKeys, GlobalKeyGroupsBySlash24) {
  const auto iface = addr(0x0B0B0B01);
  EXPECT_EQ(stopset_prefix_of(addr(0xC0A80123)), addr(0xC0A80100));
  EXPECT_EQ(global_stop_key(iface, addr(0xC0A80101)),
            global_stop_key(iface, addr(0xC0A801FE)));
  EXPECT_NE(global_stop_key(iface, addr(0xC0A80101)),
            global_stop_key(iface, addr(0xC0A80201)));
}

// --------------------------------------------------------------- StopSet

TEST(StopSet, InsertThenContains) {
  StopSet set(1024);
  const auto k1 = local_stop_key(addr(0x0A000001), 3);
  const auto k2 = local_stop_key(addr(0x0A000001), 4);
  EXPECT_FALSE(set.contains(k1));
  EXPECT_TRUE(set.insert(k1));
  EXPECT_TRUE(set.contains(k1));
  EXPECT_FALSE(set.contains(k2));
  EXPECT_FALSE(set.insert(k1)) << "duplicate insert reports not-new";
  EXPECT_EQ(set.size(), 1u);
}

TEST(StopSet, CommitCountsOnlyNewKeys) {
  StopSet set(1024);
  util::ThreadPool pool(2);
  std::vector<std::uint64_t> keys;
  for (int t = 1; t <= 10; ++t) {
    keys.push_back(local_stop_key(addr(0x0A0000FF), t));
  }
  keys.push_back(keys.front());  // one duplicate
  const std::span<const std::uint64_t> batch = keys;
  EXPECT_EQ(set.commit({&batch, 1}, pool), 10u);
  EXPECT_EQ(set.size(), 10u);
}

TEST(StopSet, BatchCommitMatchesInOrderInserts) {
  // A set small enough to overflow, so which keys a full stripe rejects
  // depends on insert order: the stripe-parallel commit must reject the
  // same ones as inserting every batch's keys in order on one thread.
  // Keys repeat within and across batches, and two commits stand in for
  // two census rounds.
  util::Rng rng(0x5eed);
  std::vector<std::vector<std::uint64_t>> batches(24);
  std::vector<std::uint64_t> all;
  for (auto& batch : batches) {
    const std::size_t size = rng.next_below(400);
    for (std::size_t i = 0; i < size; ++i) {
      const bool repeat = !all.empty() && rng.next_below(8) == 0;
      const std::uint64_t key =
          repeat ? all[rng.next_below(all.size())]
                 : util::mix64(all.size() + 1) | 1;
      batch.push_back(key);
      all.push_back(key);
    }
  }
  const std::size_t split = batches.size() / 2;

  StopSet serial(1);
  std::size_t serial_new = 0;
  for (const auto& batch : batches) {
    for (const std::uint64_t key : batch) serial_new += serial.insert(key);
  }
  ASSERT_GT(serial.overflows(), 0u) << "the set must overflow to matter";

  const std::vector<std::span<const std::uint64_t>> spans(batches.begin(),
                                                          batches.end());
  const std::span<const std::span<const std::uint64_t>> rounds[] = {
      std::span(spans).first(split), std::span(spans).subspan(split)};
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    util::ThreadPool pool(threads);
    StopSet batched(1);
    std::size_t batched_new = 0;
    for (const auto round : rounds) batched_new += batched.commit(round, pool);
    EXPECT_EQ(batched_new, serial_new);
    EXPECT_EQ(batched.size(), serial.size());
    EXPECT_EQ(batched.overflows(), serial.overflows());
    std::size_t mismatches = 0;
    for (const std::uint64_t key : all) {
      mismatches += batched.contains(key) != serial.contains(key);
    }
    for (std::uint64_t i = 1; i <= 1000; ++i) {
      const std::uint64_t absent = util::mix64(0xAB5E000000000000ULL + i);
      mismatches += batched.contains(absent) != serial.contains(absent);
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

TEST(StopSet, SaturationRejectsWithoutFalsePositives) {
  // A deliberately tiny set: most inserts overflow, but membership stays
  // exact — an absent fact just means the probe is sent.
  StopSet set(1);
  std::vector<std::uint64_t> accepted;
  for (std::uint64_t i = 1; i <= 50000; ++i) {
    const std::uint64_t key = util::mix64(i);
    if (key == 0) continue;
    if (set.insert(key)) accepted.push_back(key);
  }
  EXPECT_GT(set.overflows(), 0u);
  EXPECT_EQ(set.size(), accepted.size());
  for (const auto key : accepted) EXPECT_TRUE(set.contains(key));
  for (std::uint64_t i = 100001; i <= 101000; ++i) {
    const std::uint64_t key = util::mix64(i);
    if (key != 0) {
      EXPECT_FALSE(set.contains(key));
    }
  }
}

TEST(StopSet, SizedToTwiceTheExpectation) {
  // Each stripe gets ceil(2 * expected / kStripes) slots, at least 64, and
  // takes keys up to 3/4 load, so a set holds its expectation with room
  // for the stripes' uneven shares. The sizes are the census's: a local
  // set at quick and default scale, and the default-scale global set.
  EXPECT_EQ(StopSet(1).capacity(), StopSet::kStripes * 64);
  for (const std::size_t expected :
       {std::size_t{4160}, std::size_t{6144}, std::size_t{100000},
        std::size_t{1052672}}) {
    SCOPED_TRACE(testing::Message() << expected << " keys expected");
    StopSet set(expected);
    EXPECT_GE(set.capacity(), 2 * expected);
    EXPECT_LE(set.capacity(), 2 * expected + StopSet::kStripes);
    const auto dest = addr(0xC0A80100);
    for (std::uint32_t i = 0; i < expected; ++i) {
      set.insert(global_stop_key(addr(0x0A000000 + i), dest));
    }
    EXPECT_EQ(set.overflows(), 0u);
    EXPECT_EQ(set.size(), expected);
  }
}

TEST(StopSet, ConcurrentInsertersAndReaders) {
  // The census shape: many writers on disjoint fact streams, lock-free
  // readers racing them. Everything a writer inserted must be visible
  // after the join, and readers must never see a torn/false key.
  constexpr int kWriters = 8;
  constexpr std::uint64_t kPerWriter = 4000;
  StopSet set(kWriters * kPerWriter);
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&set, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        set.insert(util::mix64((static_cast<std::uint64_t>(w) << 32) | (i + 1)));
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&set] {
      // Reader lane: keys from a range no writer produces — must stay
      // absent throughout (no false positives under concurrency).
      for (std::uint64_t i = 0; i < 20000; ++i) {
        ASSERT_FALSE(set.contains(util::mix64(0xDEAD000000000000ULL + i)));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(set.overflows(), 0u);
  std::size_t present = 0;
  for (int w = 0; w < kWriters; ++w) {
    for (std::uint64_t i = 0; i < kPerWriter; ++i) {
      present += set.contains(
          util::mix64((static_cast<std::uint64_t>(w) << 32) | (i + 1)));
    }
  }
  EXPECT_EQ(present, kWriters * kPerWriter);
  EXPECT_EQ(set.size(), kWriters * kPerWriter);
}

// --------------------------------------------------------- DoubletreeGate

TEST(DoubletreeGate, BackwardStopAfterLocalFact) {
  StopSet local(256), global(256);
  DoubletreeGate gate(local, global);
  const auto iface = addr(0x0A010101);

  EXPECT_EQ(gate.begin(addr(0xC0A80101)), DoubletreeGate::kFirstHop);
  EXPECT_FALSE(gate.stop_backward(iface, 4)) << "no fact yet";
  gate.record(iface, 4);
  EXPECT_TRUE(gate.stop_backward(iface, 4)) << "fact recorded this trace";
  EXPECT_FALSE(gate.stop_backward(iface, 3)) << "TTL is part of the fact";
  EXPECT_GT(gate.stats().checks, 0u);
  EXPECT_GT(gate.stats().hits, 0u);
}

/// Commits the gate's queued global facts in order, as the census does
/// between rounds.
void commit_pending(DoubletreeGate& gate, StopSet& global) {
  for (const std::uint64_t key : gate.pending_global()) global.insert(key);
  gate.pending_global().clear();
}

TEST(DoubletreeGate, ForwardStopRequiresGlobalFactForSamePrefix) {
  StopSet local(256), global(256);
  DoubletreeGate gate(local, global);
  const auto iface = addr(0x0A010101);

  gate.begin(addr(0xC0A80105));
  EXPECT_FALSE(gate.stop_forward(iface));
  gate.record(iface, 6);  // queues (iface, 192.168.1.0/24)
  commit_pending(gate, global);

  gate.begin(addr(0xC0A80142));  // same /24, different host
  EXPECT_TRUE(gate.stop_forward(iface))
      << "a fact about the /24 covers every host in it";

  gate.begin(addr(0xC0A80242));  // different /24
  EXPECT_FALSE(gate.stop_forward(iface));
}

TEST(DoubletreeGate, DeferredModeBuffersGlobalFacts) {
  StopSet local(256), global(256);
  DoubletreeGate gate(local, global);
  gate.begin(addr(0xC0A80105));
  gate.record(addr(0x0A010101), 6);
  EXPECT_EQ(global.size(), 0u) << "nothing visible before the commit";
  ASSERT_EQ(gate.pending_global().size(), 1u);
  commit_pending(gate, global);
  EXPECT_EQ(global.size(), 1u);
  gate.begin(addr(0xC0A80142));
  EXPECT_TRUE(gate.stop_forward(addr(0x0A010101)));
}

// ------------------------------------------------- gated traceroute engine

measure::TestbedConfig deterministic_config() {
  measure::TestbedConfig config;
  config.topo_params = topo::TopologyParams::test_scale();
  config.topo_params.seed = 4242;
  auto& p = config.behavior_params;
  p.host_ping_responsive = {1.0, 1.0, 1.0, 1.0};
  p.as_dark = {0.0, 0.0, 0.0, 0.0};
  p.router_hidden = 0.0;
  p.router_anonymous = 0.0;
  p.router_responds_ping = 1.0;
  p.router_rate_limited = 0.0;
  p.base_loss = 0.0;
  p.options_extra_loss = 0.0;
  return config;
}

TEST(GatedTraceroute, WindowWidthDoesNotChangeTheTrace) {
  // In a deterministic world the windowed forward sweep must find the
  // trace a one-probe-at-a-time TTL sweep finds — windowing only groups
  // sends. The reference is written out here with probe_into: TTL 1
  // upward, each silent TTL retried, stopping at the destination's echo.
  constexpr int kMaxTtl = 30;
  constexpr int kAttempts = 2;
  measure::Testbed testbed{deterministic_config()};
  const auto& topology = testbed.topology();
  const topo::HostId vp = testbed.vps().front()->host;
  const std::size_t n = std::min<std::size_t>(
      topology.destinations().size(), 20);
  for (std::size_t i = 0; i < n; ++i) {
    const auto target = topology.host_at(topology.destinations()[i]).address;
    auto windowed = testbed.make_prober(vp, 1000.0);
    const auto trace = windowed.traceroute(target, kMaxTtl, kAttempts);

    auto scalar = testbed.make_prober(vp, 1000.0);
    sim::SendContext ctx;
    probe::ProbeResult result;
    std::vector<probe::TracerouteHop> hops;
    bool reached = false;
    for (int ttl = 1; ttl <= kMaxTtl && !reached; ++ttl) {
      probe::TracerouteHop hop;
      hop.ttl = ttl;
      for (int attempt = 0; attempt < kAttempts && !hop.responded; ++attempt) {
        probe::ProbeSpec spec = probe::ProbeSpec::ping(target);
        spec.ttl = static_cast<std::uint8_t>(ttl);
        scalar.probe_into(spec, &ctx, result);
        if (!result.responded()) continue;
        hop.responded = true;
        hop.address = result.responder;
        hop.kind = result.kind;
      }
      reached = hop.responded && hop.kind == probe::ResponseKind::kEchoReply;
      hops.push_back(hop);
    }

    ASSERT_EQ(trace.reached, reached) << target.to_string();
    ASSERT_EQ(trace.hops.size(), hops.size()) << target.to_string();
    for (std::size_t h = 0; h < hops.size(); ++h) {
      EXPECT_EQ(trace.hops[h].ttl, hops[h].ttl);
      EXPECT_EQ(trace.hops[h].responded, hops[h].responded);
      EXPECT_EQ(trace.hops[h].address, hops[h].address);
      EXPECT_EQ(trace.hops[h].kind, hops[h].kind);
    }
  }
}

TEST(GatedTraceroute, SecondTraceToSamePrefixStopsEarlyAndSendsFewer) {
  measure::Testbed testbed{deterministic_config()};
  const auto& topology = testbed.topology();
  auto prober = testbed.make_prober(testbed.vps().front()->host, 1000.0);

  StopSet local(4096), global(4096);
  DoubletreeGate gate(local, global);
  probe::TraceOptions options;
  options.gate = &gate;

  // Find a destination the VP actually reaches beyond kFirstHop.
  for (std::size_t i = 0; i < topology.destinations().size(); ++i) {
    const auto target = topology.host_at(topology.destinations()[i]).address;
    const auto first = prober.traceroute(target, options);
    commit_pending(gate, global);
    if (!first.reached || first.hop_count() <= DoubletreeGate::kFirstHop) {
      continue;
    }
    const auto second = prober.traceroute(target, options);
    EXPECT_LT(second.probes_sent, first.probes_sent)
        << "redundant re-trace must cost less";
    EXPECT_TRUE(second.forward_stop_ttl > 0 || second.backward_stop_ttl > 0)
        << "some stop rule must have fired";
    return;
  }
  GTEST_SKIP() << "no destination beyond kFirstHop at test scale";
}

TEST(GatedTraceroute, UngatedTraceMatchesLegacyEngine) {
  // The TraceOptions engine with no gate is the legacy traceroute: same
  // contiguous hop list, same reached flag.
  measure::Testbed testbed{deterministic_config()};
  const auto& topology = testbed.topology();
  const std::size_t n = std::min<std::size_t>(
      topology.destinations().size(), 10);
  for (std::size_t i = 0; i < n; ++i) {
    const auto target = topology.host_at(topology.destinations()[i]).address;
    auto prober_a = testbed.make_prober(testbed.vps().front()->host, 1000.0);
    auto prober_b = testbed.make_prober(testbed.vps().front()->host, 1000.0);
    const auto legacy = prober_a.traceroute(target, 30, 2);
    probe::TraceOptions options;
    const auto fresh = prober_b.traceroute(target, options);
    ASSERT_EQ(fresh.reached, legacy.reached);
    ASSERT_EQ(fresh.hops.size(), legacy.hops.size());
    for (std::size_t h = 0; h < fresh.hops.size(); ++h) {
      EXPECT_EQ(fresh.hops[h].address, legacy.hops[h].address);
      EXPECT_EQ(fresh.hops[h].ttl, legacy.hops[h].ttl);
    }
  }
}

}  // namespace
}  // namespace rr::measure

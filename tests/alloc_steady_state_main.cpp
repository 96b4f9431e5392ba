// Steady-state allocation harness for the probe hot path.
//
// Replaces the global allocator with a counting shim, warms a prober and
// its network context on a fixed destination sweep, and then asserts two
// properties the zero-copy refactor promises:
//
//   1. zero steady-state allocations: a warmed-up serial probe exchange
//      (build -> walk -> reply -> parse) performs no heap allocation at
//      all — every buffer (probe datagram, reply scratch, hop-list
//      scratches, result vectors, trace events) is recycled, on every
//      path the network stitches: host to host, a router's Time-Exceeded
//      error back to the prober, and host to router interface and back —
//      and so does a traceroute's TTL sweep, whose probes reuse and copy
//      one forward path;
//   2. flat growth counters: Prober::buffer_growths() and the context's
//      ReplyScratch growths stop moving once the largest probe/reply
//      geometry has been seen, and two identical campaigns report
//      identical CampaignAllocStats.
//
// This is a standalone binary (not gtest) because the allocator override
// must own the whole process: linking a test framework that allocates on
// its own schedule would make "zero allocations between two points" racy
// against framework bookkeeping.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

static std::atomic<std::uint64_t> g_allocations{0};

namespace {
void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* counted_alloc_aligned(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size ? size : 1) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#include <algorithm>
#include <array>
#include <memory>
#include <span>

#include "measure/campaign.h"
#include "measure/testbed.h"
#include "probe/prober.h"
#include "probe/types.h"
#include "sim/network.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                        \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                        \
    }                                                                      \
  } while (0)

#define CHECK_EQ_U64(a, b)                                                  \
  do {                                                                      \
    const std::uint64_t va = (a), vb = (b);                                 \
    if (va != vb) {                                                         \
      std::fprintf(stderr, "FAIL %s:%d: %s (%llu) != %s (%llu)\n", __FILE__, \
                   __LINE__, #a, static_cast<unsigned long long>(va), #b,   \
                   static_cast<unsigned long long>(vb));                    \
      ++g_failures;                                                         \
    }                                                                       \
  } while (0)

void steady_state_prober_test(rr::measure::Testbed& testbed) {
  auto prober = testbed.make_prober(testbed.vps().front()->host, 20.0);
  rr::sim::SendContext ctx;
  rr::probe::ProbeResult result;

  const auto& topology = testbed.topology();
  const auto routers = topology.routers();
  const std::size_t n =
      std::min<std::size_t>(topology.destinations().size(), 64);

  struct SweepCounts {
    std::uint64_t matched = 0;        // host pings and ping-RRs answered
    std::uint64_t ttl_exceeded = 0;   // router errors (router_path back)
    std::uint64_t router_echoes = 0;  // router interfaces answering
  };
  // Four exchanges per destination, one per way the network resolves a
  // path: host to host both ways (ping-RR and ping), a ping whose TTL of
  // 2-6 expires mid-path so a router's Time-Exceeded error is stitched
  // back along router_path, and a ping to a router interface, stitched
  // host_to_router_path out and router_path back.
  const auto sweep = [&] {
    SweepCounts counts;
    for (std::size_t i = 0; i < n; ++i) {
      const auto target =
          topology.host_at(topology.destinations()[i]).address;
      prober.probe_into(rr::probe::ProbeSpec::ping_rr(target), &ctx, result);
      if (result.kind != rr::probe::ResponseKind::kNone) ++counts.matched;
      prober.probe_into(rr::probe::ProbeSpec::ping(target), &ctx, result);
      if (result.kind != rr::probe::ResponseKind::kNone) ++counts.matched;

      rr::probe::ProbeSpec short_ttl = rr::probe::ProbeSpec::ping(target);
      short_ttl.ttl = static_cast<std::uint8_t>(2 + i % 5);
      prober.probe_into(short_ttl, &ctx, result);
      if (result.kind == rr::probe::ResponseKind::kTtlExceeded) {
        ++counts.ttl_exceeded;
      }

      const auto iface = routers[(i * 53) % routers.size()].interfaces.front();
      prober.probe_into(rr::probe::ProbeSpec::ping(iface), &ctx, result);
      if (result.kind == rr::probe::ResponseKind::kEchoReply) {
        ++counts.router_echoes;
      }
    }
    return counts;
  };

  // Two warm-up sweeps: the first grows every reusable buffer (probe
  // datagram, reply and hop-list scratches, the stitcher's per-thread
  // AS-path storage) to its steady geometry; the second confirms the
  // clock-dependent state (bucket refills) allocates nothing new either.
  sweep();
  sweep();

  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t buffer_growths_before = prober.buffer_growths();
  const std::uint64_t scratch_growths_before = ctx.scratch.growths;

  const SweepCounts counts = sweep();

  const std::uint64_t allocated =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;
  std::printf("steady-state sweep: %zu exchanges, %llu host responses, "
              "%llu ttl-exceeded, %llu router echoes, "
              "%llu heap allocations\n",
              4 * n, static_cast<unsigned long long>(counts.matched),
              static_cast<unsigned long long>(counts.ttl_exceeded),
              static_cast<unsigned long long>(counts.router_echoes),
              static_cast<unsigned long long>(allocated));
  CHECK_EQ_U64(allocated, 0);
  CHECK_EQ_U64(prober.buffer_growths(), buffer_growths_before);
  CHECK_EQ_U64(ctx.scratch.growths, scratch_growths_before);
  // The sweep must be exercising real exchanges of every kind.
  CHECK(counts.matched > n / 2);
  CHECK(counts.ttl_exceeded > 0);
  CHECK(counts.router_echoes > 0);
}

void steady_state_batch_test(rr::measure::Testbed& testbed) {
  // Same promise as the scalar sweep, for the batched walk: once the
  // per-slot buffers, contexts, and result vectors have seen the largest
  // probe/reply geometry, a full probe_batch_into round trip (build ->
  // batched walks -> parse) allocates nothing.
  auto prober = testbed.make_prober(testbed.vps().back()->host, 20.0);
  constexpr std::size_t kBatch = rr::sim::WalkBatch::kMaxProbes;
  std::array<rr::sim::SendContext, kBatch> ctxs;
  std::array<rr::probe::ProbeResult, kBatch> results;
  std::array<rr::probe::ProbeSpec, kBatch> specs;

  const auto& topology = testbed.topology();
  const std::size_t n =
      std::min<std::size_t>(topology.destinations().size(), 64);

  const auto sweep_once = [&] {
    std::uint64_t matched = 0;
    for (std::size_t i = 0; i < n; i += kBatch) {
      const std::size_t m = std::min(kBatch, n - i);
      for (std::size_t k = 0; k < m; ++k) {
        const auto target =
            topology.host_at(topology.destinations()[i + k]).address;
        specs[k] = rr::probe::ProbeSpec::ping_rr(target);
      }
      prober.probe_batch_into(
          std::span<const rr::probe::ProbeSpec>{specs.data(), m},
          std::span<rr::sim::SendContext>{ctxs.data(), m},
          std::span<rr::probe::ProbeResult>{results.data(), m});
      for (std::size_t k = 0; k < m; ++k) {
        if (results[k].kind != rr::probe::ResponseKind::kNone) ++matched;
      }
    }
    return matched;
  };

  sweep_once();
  sweep_once();

  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t buffer_growths_before = prober.buffer_growths();

  const std::uint64_t matched = sweep_once();

  const std::uint64_t allocated =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;
  std::printf("steady-state batch sweep: %zu exchanges, %llu responses, "
              "%llu heap allocations\n",
              n, static_cast<unsigned long long>(matched),
              static_cast<unsigned long long>(allocated));
  CHECK_EQ_U64(allocated, 0);
  CHECK_EQ_U64(prober.buffer_growths(), buffer_growths_before);
  CHECK(matched > n / 2);
}

void steady_state_trace_test(rr::measure::Testbed& testbed) {
  // A traceroute's probe pattern, as Prober::traceroute sends it: forward
  // windows of four TTLs to one destination through probe_batch_into,
  // whose slots copy or reuse one stitched forward path, then scalar
  // probes back down toward TTL 1 on the first window context (the
  // Doubletree backward sweep). The sweep drives the probe calls itself
  // because traceroute() returns a fresh hop list per trace.
  auto prober = testbed.make_prober(testbed.vps()[1]->host, 20.0);
  constexpr std::size_t kWindow = 4;
  std::array<rr::sim::SendContext, kWindow> ctxs;
  std::array<rr::probe::ProbeResult, kWindow> results;
  std::array<rr::probe::ProbeSpec, kWindow> specs;

  const auto& topology = testbed.topology();
  const std::size_t n =
      std::min<std::size_t>(topology.destinations().size(), 32);

  struct TraceCounts {
    std::uint64_t reached = 0;       // traces that drew an echo reply
    std::uint64_t ttl_exceeded = 0;  // hops that answered
  };
  const auto sweep = [&] {
    TraceCounts counts;
    for (std::size_t i = 0; i < n; ++i) {
      const auto target =
          topology.host_at(topology.destinations()[i]).address;
      bool reached = false;
      for (int base = 1; base <= 16 && !reached; base += kWindow) {
        for (std::size_t k = 0; k < kWindow; ++k) {
          specs[k] = rr::probe::ProbeSpec::ping(target);
          specs[k].ttl = static_cast<std::uint8_t>(base + k);
        }
        prober.probe_batch_into(specs, ctxs, results);
        for (const auto& result : results) {
          reached |= result.kind == rr::probe::ResponseKind::kEchoReply;
          if (result.kind == rr::probe::ResponseKind::kTtlExceeded) {
            ++counts.ttl_exceeded;
          }
        }
      }
      if (reached) ++counts.reached;
      for (int ttl = 3; ttl >= 1; --ttl) {
        rr::probe::ProbeSpec spec = rr::probe::ProbeSpec::ping(target);
        spec.ttl = static_cast<std::uint8_t>(ttl);
        prober.probe_into(spec, &ctxs[0], results[0]);
        if (results[0].kind == rr::probe::ResponseKind::kTtlExceeded) {
          ++counts.ttl_exceeded;
        }
      }
    }
    return counts;
  };

  sweep();
  sweep();

  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t buffer_growths_before = prober.buffer_growths();

  const TraceCounts counts = sweep();

  const std::uint64_t allocated =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;
  std::printf("steady-state trace sweep: %zu traces, %llu reached, "
              "%llu ttl-exceeded, %llu heap allocations\n",
              n, static_cast<unsigned long long>(counts.reached),
              static_cast<unsigned long long>(counts.ttl_exceeded),
              static_cast<unsigned long long>(allocated));
  CHECK_EQ_U64(allocated, 0);
  CHECK_EQ_U64(prober.buffer_growths(), buffer_growths_before);
  CHECK(counts.reached > n / 2);
  CHECK(counts.ttl_exceeded > n);
}

void campaign_alloc_stats_test(rr::measure::Testbed& testbed) {
  rr::measure::CampaignConfig config;
  config.threads = 1;
  config.destination_stride = 8;

  const auto first = rr::measure::Campaign::run(testbed, config);
  const auto second = rr::measure::Campaign::run(testbed, config);
  const auto& a = first.alloc_stats();
  const auto& b = second.alloc_stats();

  std::printf("campaign alloc stats: %llu streams, %llu buffer growths, "
              "%llu scratch growths\n",
              static_cast<unsigned long long>(a.probe_streams),
              static_cast<unsigned long long>(a.probe_buffer_growths),
              static_cast<unsigned long long>(a.reply_scratch_growths));

  // Identical runs must report identical telemetry (growth is a pure
  // function of the probe stream), and growth must be bounded by a small
  // per-stream constant: each stream's buffers only grow while climbing
  // to the largest probe/reply geometry, never per probe.
  CHECK_EQ_U64(a.probe_streams, b.probe_streams);
  CHECK_EQ_U64(a.probe_buffer_growths, b.probe_buffer_growths);
  CHECK_EQ_U64(a.reply_scratch_growths, b.reply_scratch_growths);
  CHECK(a.probe_streams > 0);
  CHECK(a.probe_buffers >= a.probe_streams);
  CHECK(a.probe_buffer_growths <= a.probe_buffers * 8);
  CHECK(a.reply_scratch_growths <= a.probe_buffers * 8);
}

}  // namespace

int main() {
  rr::measure::TestbedConfig config;
  config.topo_params = rr::topo::TopologyParams::test_scale();
  config.topo_params.seed = 33;
  config.threads = 1;
  auto testbed = std::make_unique<rr::measure::Testbed>(config);

  steady_state_prober_test(*testbed);
  steady_state_batch_test(*testbed);
  steady_state_trace_test(*testbed);
  campaign_alloc_stats_test(*testbed);

  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("alloc steady-state test passed\n");
  return 0;
}

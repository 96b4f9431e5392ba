// Steady-state allocation harness for the probe hot path.
//
// Replaces the global allocator with a counting shim, warms a prober and
// its network context on a fixed destination sweep, and then asserts two
// properties the zero-copy refactor promises:
//
//   1. zero steady-state allocations: a warmed-up probe exchange
//      (build -> walk -> reply -> parse) performs no heap allocation at
//      all — every buffer (probe datagram, reply scratch, hop-list
//      scratches, result vectors, trace events) is recycled, on every
//      path the network stitches: host to host, a router's Time-Exceeded
//      error back to the prober, and host to router interface and back,
//      whether the caller's context carries the send or the prober
//      settles it at once on its own, policed exchanges included — and so
//      does a whole traceroute
//      (Prober::traceroute_into into a reused result), whose probes share
//      one context and its forward path;
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
#include <memory>

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
  // host_to_router_path out and router_path back. `send_ctx` is passed
  // straight to probe_into: the caller's context, or nullptr to settle
  // each probe at once on the prober's own context.
  const auto sweep = [&](rr::probe::Prober& prober,
                         rr::sim::SendContext* send_ctx) {
    SweepCounts counts;
    for (std::size_t i = 0; i < n; ++i) {
      const auto target =
          topology.host_at(topology.destinations()[i]).address;
      prober.probe_into(rr::probe::ProbeSpec::ping_rr(target), send_ctx,
                        result);
      if (result.kind != rr::probe::ResponseKind::kNone) ++counts.matched;
      prober.probe_into(rr::probe::ProbeSpec::ping(target), send_ctx, result);
      if (result.kind != rr::probe::ResponseKind::kNone) ++counts.matched;

      rr::probe::ProbeSpec short_ttl = rr::probe::ProbeSpec::ping(target);
      short_ttl.ttl = static_cast<std::uint8_t>(2 + i % 5);
      prober.probe_into(short_ttl, send_ctx, result);
      if (result.kind == rr::probe::ResponseKind::kTtlExceeded) {
        ++counts.ttl_exceeded;
      }

      const auto iface = routers[(i * 53) % routers.size()].loopback;
      prober.probe_into(rr::probe::ProbeSpec::ping(iface), send_ctx, result);
      if (result.kind == rr::probe::ResponseKind::kEchoReply) {
        ++counts.router_echoes;
      }
    }
    return counts;
  };

  // Returns the probes the token buckets policed in the measured sweep.
  const auto check_steady = [&](rr::probe::Prober& prober,
                                rr::sim::SendContext* send_ctx,
                                const char* label) {
    // Two warm-up sweeps: the first grows every reusable buffer (probe
    // datagram, reply and hop-list scratches, the stitcher's per-thread
    // AS-path storage) to its steady geometry; the second confirms the
    // clock-dependent state (bucket refills) allocates nothing new either.
    sweep(prober, send_ctx);
    sweep(prober, send_ctx);

    const std::uint64_t allocations_before =
        g_allocations.load(std::memory_order_relaxed);
    const std::uint64_t buffer_growths_before = prober.buffer_growths();
    const std::uint64_t scratch_growths_before = ctx.scratch.growths;
    const std::uint64_t policed_before =
        testbed.network().counters().dropped_rate_limit;

    const SweepCounts counts = sweep(prober, send_ctx);

    const std::uint64_t allocated =
        g_allocations.load(std::memory_order_relaxed) - allocations_before;
    const std::uint64_t policed =
        testbed.network().counters().dropped_rate_limit - policed_before;
    std::printf("steady-state %s sweep: %zu exchanges, %llu host responses, "
                "%llu ttl-exceeded, %llu router echoes, %llu policed, "
                "%llu heap allocations\n",
                label, 4 * n, static_cast<unsigned long long>(counts.matched),
                static_cast<unsigned long long>(counts.ttl_exceeded),
                static_cast<unsigned long long>(counts.router_echoes),
                static_cast<unsigned long long>(policed),
                static_cast<unsigned long long>(allocated));
    // No allocation also means the prober's own reply scratch, which
    // settled probes use, grew no further.
    CHECK_EQ_U64(allocated, 0);
    CHECK_EQ_U64(prober.buffer_growths(), buffer_growths_before);
    CHECK_EQ_U64(ctx.scratch.growths, scratch_growths_before);
    // The sweep must be exercising real exchanges of every kind.
    CHECK(counts.matched > n / 2);
    CHECK(counts.ttl_exceeded > 0);
    CHECK(counts.router_echoes > 0);
    return policed;
  };

  auto prober = testbed.make_prober(testbed.vps().front()->host, 20.0);
  check_steady(prober, &ctx, "context");

  // Settled probes from the VP behind a strict source-proximate limiter,
  // at a rate it polices: a policed exchange hands its storage back for
  // the next probe, so the kill path allocates nothing either.
  const auto& strict = testbed.behaviors().strict_limited_vp_indices();
  CHECK(!strict.empty());
  if (strict.empty()) return;
  auto policed_prober = testbed.make_prober(
      testbed.topology().vantage_points()[strict.front()].host, 100.0);
  CHECK(check_steady(policed_prober, nullptr, "settled") > 0);
}

/// A gate that starts every trace at TTL 4 and never stops it, so each
/// trace runs both Doubletree sweeps (forward windows from TTL 4, then
/// TTLs 3..1) without a stop set's own bookkeeping.
class SplitGate final : public rr::probe::TraceGate {
 public:
  int begin(rr::net::IPv4Address) override { return 4; }
  bool stop_forward(rr::net::IPv4Address) override { return false; }
  bool stop_backward(rr::net::IPv4Address, int) override { return false; }
  void record(rr::net::IPv4Address, int) override {}
};

void steady_state_trace_test(rr::measure::Testbed& testbed) {
  // Whole traceroutes through traceroute_into, reusing one result: the
  // forward sweep's four-TTL windows and the backward sweep's single TTLs
  // all run on the prober's trace context, whose forward path is stitched
  // once per trace, and the hop list keeps its capacity across traces.
  auto prober = testbed.make_prober(testbed.vps()[1]->host, 20.0);
  SplitGate gate;
  rr::sim::NetCounters sink;
  rr::probe::TraceOptions options;
  options.max_ttl = 16;
  options.gate = &gate;
  options.counters = &sink;
  rr::probe::TracerouteResult trace;

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
      prober.traceroute_into(target, options, trace);
      if (trace.reached) ++counts.reached;
      for (const auto& hop : trace.hops) {
        if (hop.kind == rr::probe::ResponseKind::kTtlExceeded) {
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
  CHECK(a.probe_buffer_growths <= a.probe_streams * 8);
  CHECK(a.reply_scratch_growths <= a.probe_streams * 8);
}

}  // namespace

int main() {
  rr::measure::TestbedConfig config;
  config.topo_params = rr::topo::TopologyParams::test_scale();
  config.topo_params.seed = 33;
  config.threads = 1;
  auto testbed = std::make_unique<rr::measure::Testbed>(config);

  steady_state_prober_test(*testbed);
  steady_state_trace_test(*testbed);
  campaign_alloc_stats_test(*testbed);

  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("alloc steady-state test passed\n");
  return 0;
}

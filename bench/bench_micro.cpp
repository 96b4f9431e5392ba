// Microbenchmarks for the toolkit's primitives (google-benchmark): probe
// build and inspection, in-place RR stamping, address-to-AS lookups, BGP
// route-tree computation, and full simulated probes. Not a paper artifact,
// but the numbers justify the harness's ability to replay census-scale
// studies.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench/telemetry.h"
#include "measure/testbed.h"
#include "packet/view.h"
#include "packet/wire.h"
#include "probe/prober.h"
#include "routing/bgp.h"
#include "sim/pipeline.h"
#include "topology/generator.h"
#include "util/rng.h"

namespace {

using namespace rr;

/// A nine-slot RR ping, as the census sends it.
std::vector<std::uint8_t> rr_ping() {
  std::vector<std::uint8_t> bytes;
  pkt::build_ping(bytes, net::IPv4Address(1, 2, 3, 4),
                  net::IPv4Address(5, 6, 7, 8), 9, 1, 64, 9);
  return bytes;
}

void BM_PingBuild(benchmark::State& state) {
  std::vector<std::uint8_t> bytes;
  for (auto _ : state) {
    pkt::build_ping(bytes, net::IPv4Address(1, 2, 3, 4),
                    net::IPv4Address(5, 6, 7, 8), 9, 1, 64, 9);
    benchmark::DoNotOptimize(bytes.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PingBuild);

void BM_PingInspect(benchmark::State& state) {
  const auto bytes = rr_ping();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pkt::inspect_datagram(bytes));
  }
}
BENCHMARK(BM_PingInspect);

void BM_RrStampAndTtl(benchmark::State& state) {
  const auto original = rr_ping();
  std::vector<std::uint8_t> bytes;
  for (auto _ : state) {
    bytes = original;
    pkt::Ipv4HeaderView view{bytes};
    view.decrement_ttl();
    view.rr_stamp(net::IPv4Address(10, 0, 0, 1));
    benchmark::DoNotOptimize(bytes.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RrStampAndTtl);

// --- the per-hop walk -------------------------------------------------------
// Nine stamping hops on one RR ping: the per-packet cost the dataplane pays
// at every simulated hop.

constexpr int kWalkHops = 9;

/// The element-pipeline walk over the nine stamping hops, exercising
/// what sim::walk_hops runs per hop: a HopRow load, a run list word from
/// the personality bank, and the run_hop interpreter (here executing the
/// fused TTL+stamp element — the fault-free stamping personality the
/// census spends most of its time in). Rows are indexed by hop rather
/// than through a path spine, the shape the 177 ns ceiling and the
/// committed reference were measured with.
void walk_with_pipeline(std::vector<std::uint8_t>& bytes,
                        const sim::PackedRunList* bank,
                        const sim::ElementSet& es, const sim::HopRow* rows,
                        sim::NetCounters* counters) {
  pkt::Ipv4HeaderView view{bytes};
  sim::HopContext ctx;
  ctx.view = &view;
  ctx.bytes = bytes;
  ctx.has_options = view.has_options();
  ctx.counters = counters;
  double now = 0.0;
  for (int hop = 0; hop < kWalkHops; ++hop) {
    now += 0.0005;
    const sim::HopRow row = rows[hop];
    ctx.router = static_cast<topo::RouterId>(hop);
    ctx.egress = net::IPv4Address(10, 0, 0, static_cast<std::uint8_t>(hop));
    ctx.as_id = row.as_id;
    ctx.hop = static_cast<std::size_t>(hop);
    ctx.now = now;
    if (sim::run_hop(bank[row.flags], es, ctx) !=
        sim::HopVerdict::kContinue) {
      return;
    }
  }
}

std::shared_ptr<const topo::Topology> bench_topology() {
  static auto topo = [] {
    topo::TopologyParams params = topo::TopologyParams::paper_scale();
    params.num_ases = 1000;
    params.colo_fraction = 0.25;
    params.planetlab_sites_2011 = 60;
    return topo::Generator{params}.generate();
  }();
  return topo;
}

/// Topology::as_of_address, the address-to-AS map the AS-stamping audit
/// and the cloud study run over every recorded and traceroute address, on
/// any byte of randomly drawn destination /24s.
void BM_AsOfAddress(benchmark::State& state) {
  const auto topo = bench_topology();
  const auto dests = topo->destinations();
  util::Rng rng{1};
  std::vector<net::IPv4Address> addrs(4096);
  for (auto& addr : addrs) {
    const topo::Host& host = topo->host_at(dests[rng.next_below(dests.size())]);
    addr = host.prefix.address_at(rng.next_below(256));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo->as_of_address(addrs[i++ % addrs.size()]));
  }
}
BENCHMARK(BM_AsOfAddress);

void BM_BgpRouteTree(benchmark::State& state) {
  route::BgpEngine engine{bench_topology(), topo::Epoch::k2016};
  topo::AsId dest = 0;
  const auto n = bench_topology()->ases().size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.compute_tree(dest));
    dest = static_cast<topo::AsId>((dest + 17) % n);
  }
}
BENCHMARK(BM_BgpRouteTree)->Unit(benchmark::kMicrosecond);

void BM_SimulatedPingRr(benchmark::State& state) {
  static auto testbed = [] {
    measure::TestbedConfig config;
    config.topo_params = topo::TopologyParams::paper_scale();
    config.topo_params.num_ases = 1000;
    config.topo_params.colo_fraction = 0.25;
    config.topo_params.planetlab_sites_2011 = 60;
    return new measure::Testbed{config};
  }();
  auto prober = testbed->make_prober(testbed->vps().front()->host, 1e9);
  const auto dests = testbed->topology().destinations();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto target =
        testbed->topology().host_at(dests[i % dests.size()]).address;
    benchmark::DoNotOptimize(
        prober.probe(probe::ProbeSpec::ping_rr(target)));
    ++i;
  }
}
BENCHMARK(BM_SimulatedPingRr)->Unit(benchmark::kMicrosecond);

void BM_SimulatedPingRrReuse(benchmark::State& state) {
  static auto testbed = [] {
    measure::TestbedConfig config;
    config.topo_params = topo::TopologyParams::paper_scale();
    config.topo_params.num_ases = 1000;
    config.topo_params.colo_fraction = 0.25;
    config.topo_params.planetlab_sites_2011 = 60;
    return new measure::Testbed{config};
  }();
  auto prober = testbed->make_prober(testbed->vps().front()->host, 1e9);
  sim::SendContext ctx;
  probe::ProbeResult result;
  const auto dests = testbed->topology().destinations();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto target =
        testbed->topology().host_at(dests[i % dests.size()]).address;
    prober.probe_into(probe::ProbeSpec::ping_rr(target), &ctx, result);
    benchmark::DoNotOptimize(result);
    ++i;
  }
}
BENCHMARK(BM_SimulatedPingRrReuse)->Unit(benchmark::kMicrosecond);

/// Best-of-k repetitions of `sample()`: shared-VM noise (steal time,
/// frequency dips) only ever adds time, so the minimum is the robust
/// estimator — a single perturbed sample must not move it.
template <typename Sample>
double min_over_reps(Sample&& sample) {
  constexpr int kReps = 5;
  double best = sample();
  for (int rep = 1; rep < kReps; ++rep) {
    best = std::min(best, sample());
  }
  return best;
}

/// Wall-clock nanoseconds per iteration of `body(bytes)` where each
/// iteration starts from a fresh copy of `original`.
template <typename Body>
double time_loop_ns(const std::vector<std::uint8_t>& original, Body&& body) {
  std::vector<std::uint8_t> bytes;
  constexpr int kIters = 300000;
  for (int i = 0; i < kIters / 10; ++i) {  // warm-up
    bytes = original;
    body(bytes);
  }
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    bytes = original;
    body(bytes);
    benchmark::DoNotOptimize(bytes);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::nano>(elapsed).count() / kIters;
}

}  // namespace

int main(int argc, char** argv) {
  rr::bench::Telemetry telemetry{"micro"};
  telemetry.phase("benchmarks");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  telemetry.phase("walk_timing");
  const auto original = rr_ping();
  const double reset_ns =
      min_over_reps([&] { return time_loop_ns(original, [](auto&) {}); });
  // The compiled element pipeline over the nine hops: the run table is the
  // fault-free compilation (loss gates elided, trusted stamping), rows are
  // the plain stamping personality. Gated ≤ 177 ns by
  // check_bench_regression.sh, what the hand-inlined view walk cost when
  // the interpreter replaced it.
  const rr::sim::RunTable table =
      rr::sim::compile_run_table(rr::sim::PipelineConfig{});
  const rr::sim::ElementSet elements{};
  rr::sim::NetCounters counters;
  rr::sim::HopRow rows[kWalkHops];
  for (auto& row : rows) row.flags = rr::sim::HopRow::kStamps;
  const rr::sim::PackedRunList* bank =
      table.data() + rr::sim::HopRow::kNumPersonalities;
  const double pipeline_ns = min_over_reps([&] {
    return time_loop_ns(original,
                        [&](auto& bytes) {
                          walk_with_pipeline(bytes, bank, elements, rows,
                                             &counters);
                        }) -
           reset_ns;
  });
  telemetry.value("walk_reset_ns", reset_ns);
  telemetry.value("walk_pipeline_ns", pipeline_ns);
  std::printf("walk (9 stamping hops): pipeline %.1f ns\n", pipeline_ns);
  return 0;
}

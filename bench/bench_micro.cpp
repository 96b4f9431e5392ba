// Microbenchmarks for the toolkit's primitives (google-benchmark): probe
// build and inspection, in-place RR stamping, address-to-AS lookups, BGP
// route-tree computation, and full simulated probes. Not a paper artifact,
// but the numbers justify the harness's ability to replay census-scale
// studies.
#include <benchmark/benchmark.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <limits>

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
    addr = net::Prefix::slash24_of(host.address)
               .address_at(rng.next_below(256));
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

/// Wall-clock nanoseconds per iteration of `body(bytes)` over `iters`
/// iterations, each starting from a fresh copy of `original`.
template <typename Body>
double time_loop_ns(const std::vector<std::uint8_t>& original, int iters,
                    Body&& body) {
  std::vector<std::uint8_t> bytes;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    bytes = original;
    body(bytes);
    benchmark::DoNotOptimize(bytes);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::nano>(elapsed).count() / iters;
}

/// The walk gate's estimator. Shared-VM noise only ever adds time, and it
/// comes two ways: slow windows that can last seconds, longer than any
/// one repetition, and a vCPU whose physical core a busy neighbour
/// shares, which slows every round run on it (2x on a 4-vCPU VM) for as
/// long as the scheduler keeps the thread there. So the walk is timed in
/// many short rounds, grouped in spells spread across the whole run (one
/// before the google-benchmark suite and one after each benchmark), each
/// spell pinned to the next CPU the process may run on: the minimum per
/// loop over every round is the cost on the quietest CPU in the quietest
/// window any round hit. Each round times the buffer reset alone and the
/// reset plus the walk, back to back; the walk's cost is the difference
/// of the two minima.
class WalkTiming {
 public:
  WalkTiming()
      : original_(rr_ping()),
        table_(sim::compile_run_table(sim::PipelineConfig{})),
        bank_(table_.data() + sim::HopRow::kNumPersonalities) {
    for (auto& row : rows_) row.flags = sim::HopRow::kStamps;
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
      }
    }
  }
  // bank_ points into table_.
  WalkTiming(const WalkTiming&) = delete;
  WalkTiming& operator=(const WalkTiming&) = delete;

  /// One spell on the next allowed CPU (the process's affinity is
  /// restored after it): a warm-up loop, then kRounds rounds.
  void spell() {
    const auto start = std::chrono::steady_clock::now();
    if (!cpus_.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[spells_ % cpus_.size()], &one);
      (void)sched_setaffinity(0, sizeof one, &one);
    }
    (void)time_loop_ns(original_, kIters, [&](auto& bytes) { walk(bytes); });
    for (int round = 0; round < kRounds; ++round) {
      reset_ns_ = std::min(
          reset_ns_, time_loop_ns(original_, kIters, [](auto&) {}));
      walk_ns_ = std::min(walk_ns_, time_loop_ns(original_, kIters,
                                                 [&](auto& bytes) {
                                                   walk(bytes);
                                                 }));
    }
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof allowed_, &allowed_);
    ++spells_;
    seconds_ += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  }

  [[nodiscard]] double reset_ns() const noexcept { return reset_ns_; }
  [[nodiscard]] double pipeline_ns() const noexcept {
    return walk_ns_ - reset_ns_;
  }
  /// Wall time spent in spells.
  [[nodiscard]] double seconds() const noexcept { return seconds_; }

 private:
  static constexpr int kRounds = 48;
  static constexpr int kIters = 4096;

  void walk(std::vector<std::uint8_t>& bytes) {
    walk_with_pipeline(bytes, bank_, elements_, rows_, &counters_);
  }

  std::vector<std::uint8_t> original_;
  // The fault-free compilation (loss gates elided, trusted stamping);
  // rows are the plain stamping personality.
  sim::RunTable table_;
  const sim::PackedRunList* bank_;
  sim::ElementSet elements_{};
  sim::NetCounters counters_;
  sim::HopRow rows_[kWalkHops];
  cpu_set_t allowed_;       // the process's affinity at construction
  std::vector<int> cpus_;   // its CPUs; empty if it could not be read
  std::size_t spells_ = 0;
  double reset_ns_ = std::numeric_limits<double>::infinity();
  double walk_ns_ = std::numeric_limits<double>::infinity();
  double seconds_ = 0.0;
};

/// The default display reporter (which honours --benchmark_format), plus
/// a walk spell after each benchmark reports.
class SpellReporter : public benchmark::BenchmarkReporter {
 public:
  explicit SpellReporter(WalkTiming& walk)
      : display_(*benchmark::CreateDefaultDisplayReporter()), walk_(walk) {}

  bool ReportContext(const Context& context) override {
    return display_.ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& reports) override {
    display_.ReportRuns(reports);
    walk_.spell();
  }
  void Finalize() override { display_.Finalize(); }

 private:
  benchmark::BenchmarkReporter& display_;  // the library's own instance
  WalkTiming& walk_;
};

}  // namespace

int main(int argc, char** argv) {
  rr::bench::Telemetry telemetry{"micro"};
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The compiled element pipeline over the nine hops, gated <= 177 ns by
  // check_bench_regression.sh, what the hand-inlined view walk cost when
  // the interpreter replaced it.
  WalkTiming walk;
  SpellReporter reporter{walk};
  const auto start = std::chrono::steady_clock::now();
  walk.spell();
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const double total = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  telemetry.phase_seconds("benchmarks", total - walk.seconds());
  telemetry.phase_seconds("walk_timing", walk.seconds());
  telemetry.value("walk_reset_ns", walk.reset_ns());
  telemetry.value("walk_pipeline_ns", walk.pipeline_ns());
  std::printf("walk (9 stamping hops): pipeline %.1f ns\n",
              walk.pipeline_ns());
  return 0;
}

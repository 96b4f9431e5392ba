// Shared scaffolding for the bench binaries that regenerate the paper's
// tables and figures.
//
// Scale knobs (environment variables; numeric ones parse strictly — see
// env_uint):
//   RROPT_ASES  — AS count of the generated Internet, at least 100
//                 (default 5200, i.e. one tenth of the paper's 51,920-AS
//                 census).
//   RROPT_SEED  — world seed (default: the paper's RouteViews date).
//   RROPT_QUICK — if set (any value), shrink to a fast smoke-test scale.
//   RROPT_THREADS — campaign worker threads (default: all cores; results
//                 are identical at any thread count).
//
// Every bench prints a "paper vs measured" block so EXPERIMENTS.md can be
// regenerated by running the bench directory, and writes machine-readable
// timings and headline values to BENCH_<name>.json (see telemetry.h).
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "bench/telemetry.h"
#include "measure/campaign.h"
#include "measure/testbed.h"
#include "util/log.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace rr::bench {

/// A numeric RROPT_* knob, parsed strictly (util::parse_uint): nullopt when
/// unset. A malformed or out-of-range value exits 1 with the parser's
/// message instead of silently running a different experiment — a prefix
/// parse would run RROPT_STREAM_BLOCK=8k as 8-destination blocks.
inline std::optional<std::uint64_t> env_uint(
    const char* name, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const char* text = std::getenv(name);
  if (text == nullptr) return std::nullopt;
  try {
    return util::parse_uint(text, name, min, max);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(1);
  }
}

inline topo::TopologyParams scaled_topo_params() {
  topo::TopologyParams params = topo::TopologyParams::paper_scale();
  if (const auto ases =
          env_uint("RROPT_ASES", 100, std::numeric_limits<int>::max())) {
    params.num_ases = static_cast<int>(*ases);
  }
  if (std::getenv("RROPT_QUICK") != nullptr) {
    params.num_ases = 800;
    params.planetlab_sites_2011 = 60;
  }
  if (const auto seed = env_uint("RROPT_SEED")) params.seed = *seed;
  // Keep VP pools satisfiable at small scales: the absolute number of
  // colo sites must stay >= the M-Lab site count.
  if (params.num_ases < 5200) {
    params.colo_fraction =
        std::min(0.30, 0.06 * 5200.0 / std::max(params.num_ases, 1));
  }
  return params;
}

inline measure::TestbedConfig bench_config(
    topo::Epoch epoch = topo::Epoch::k2016) {
  measure::TestbedConfig config;
  config.topo_params = scaled_topo_params();
  config.epoch = epoch;
  return config;
}

/// Builds the bench's testbed three times, records the median build time
/// as the "world" phase and returns the last build. A quick world builds
/// in a few tens of milliseconds, too short for one sample to hold the
/// regression gate's 25% band. Each build is released before the next,
/// so the peak resident set is one world's.
inline measure::Testbed build_world(Telemetry& telemetry,
                                    const measure::TestbedConfig& config) {
  using Clock = std::chrono::steady_clock;
  std::array<double, 3> seconds{};
  std::optional<measure::Testbed> testbed;
  for (double& s : seconds) {
    testbed.reset();
    const auto start = Clock::now();
    testbed.emplace(config);
    s = std::chrono::duration<double>(Clock::now() - start).count();
  }
  std::sort(seconds.begin(), seconds.end());
  telemetry.phase_seconds("world", seconds[1]);
  return std::move(*testbed);
}

inline double mib(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Records what each layer of the testbed holds, in MiB (the layers'
/// memory_bytes()), beside the process's peak resident set.
inline void record_layer_memory(Telemetry& telemetry,
                                const measure::Testbed& testbed) {
  telemetry.value("topology_mib", mib(testbed.topology().memory_bytes()));
  telemetry.value("behaviors_mib", mib(testbed.behaviors().memory_bytes()));
  telemetry.value("oracle_mib", mib(testbed.oracle().memory_bytes()));
  telemetry.value("network_mib", mib(testbed.network().memory_bytes()));
  telemetry.value("testbed_mib", mib(testbed.memory_bytes()));
}

/// Records the knobs every bench shares: topology scale and the resolved
/// campaign thread count.
inline void record_world(Telemetry& telemetry,
                         const measure::Testbed& testbed) {
  telemetry.value("ases", testbed.topology().ases().size());
  telemetry.value("hosts", testbed.topology().hosts().size());
  telemetry.value("routers", testbed.topology().routers().size());
  telemetry.value("vps", testbed.vps().size());
  telemetry.value("threads", util::resolve_thread_count(testbed.threads()));
}

/// One line of paper-vs-measured comparison.
inline void report(const std::string& what, const std::string& paper,
                   const std::string& measured) {
  std::printf("  %-58s paper: %-14s measured: %s\n", what.c_str(),
              paper.c_str(), measured.c_str());
}

inline void heading(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace rr::bench

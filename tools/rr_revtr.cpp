// rr-revtr: measure reverse paths with spoofed Record Route pings.
//
//   rr-revtr [--ases N] [--seed S] [--count K] [--no-fallback]
//
// Runs a campaign to build the vantage-point atlas, then reverse-
// traceroutes K destinations back to the best RR-capable vantage point.
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "measure/campaign.h"
#include "revtr/reverse_traceroute.h"
#include "util/flags.h"

using namespace rr;

int main(int argc, char** argv) try {
  const auto flags = util::Flags::parse(argc, argv);
  if (flags.has("help")) {
    std::printf(
        "usage: rr-revtr [--ases N] [--seed S] [--count K] "
        "[--no-fallback]\n");
    return 0;
  }

  // Read and range-check every flag before the world is built.
  measure::TestbedConfig config;
  config.topo_params.num_ases = static_cast<int>(
      flags.get_int("ases", 400, 100, std::numeric_limits<int>::max()));
  config.topo_params.seed = flags.get_uint("seed", 60613);
  config.topo_params.colo_fraction = std::min(
      0.30, 0.06 * 5200.0 / std::max(config.topo_params.num_ases, 1));
  const auto count = static_cast<std::size_t>(flags.get_int("count", 5, 0));
  const bool allow_fallback = !flags.has("no-fallback");
  measure::Testbed testbed{config};

  std::fprintf(stderr, "building vantage-point atlas...\n");
  const auto campaign = measure::Campaign::run(testbed);

  // Best RR-capable source, judged from the campaign itself.
  std::size_t best_vp = 0, best_score = 0;
  for (std::size_t v = 0; v < campaign.num_vps(); ++v) {
    std::size_t score = 0;
    for (std::size_t d = 0; d < campaign.num_destinations(); d += 5) {
      if (campaign.at(v, d).rr_responsive()) ++score;
    }
    if (score > best_score) {
      best_score = score;
      best_vp = v;
    }
  }
  const topo::HostId source = campaign.vps()[best_vp]->host;
  std::printf("source: %s (%s)\n\n", campaign.vps()[best_vp]->site.c_str(),
              testbed.topology().host_at(source).address.to_string().c_str());

  revtr::RevTrConfig revtr_config;
  revtr_config.allow_symmetric_fallback = allow_fallback;
  revtr::ReverseTraceroute revtr{testbed, &campaign, revtr_config};

  std::size_t shown = 0;
  for (std::size_t d = 0; d < campaign.num_destinations() && shown < count;
       d += 3) {
    if (!campaign.rr_responsive(d)) continue;
    const auto target = testbed.topology()
                            .host_at(campaign.destinations()[d])
                            .address;
    const auto path = revtr.measure(target, source);
    ++shown;
    std::printf("%s -> us: %s (%d segments, %zu RR hops)\n",
                target.to_string().c_str(),
                path.complete ? "complete" : path.failure.c_str(),
                path.segments_used, path.measured_hops());
    for (std::size_t i = 0; i < path.hops.size(); ++i) {
      std::printf("  %2zu. %-15s [%s]\n", i + 1,
                  path.hops[i].address.to_string().c_str(),
                  to_string(path.hops[i].source));
    }
    std::printf("\n");
  }
  return 0;
} catch (const std::invalid_argument& e) {
  // A malformed or out-of-range flag (util::Flags) or RROPT_THREADS.
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}

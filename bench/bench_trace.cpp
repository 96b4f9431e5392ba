// Trace census probing cost: the Doubletree stop-set win (§ redundancy-
// aware probing). Runs the traceroute companion census twice — classic
// full traces, then with the concurrent local/global stop sets — and
// reports the honest probe reduction 1 - sent_on / sent_off along with
// the topology coverage both runs discovered. The reduction is the
// number the regression guard gates (RROPT_STOPSET_REDUCTION, default
// 0.40): if stop sets stop paying for themselves the suite fails before
// a paper-scale census quietly doubles in cost.
//
// Scale knobs: RROPT_QUICK shrinks the per-VP destination sample;
// RROPT_TRACE_DESTS overrides it; RROPT_THREADS as everywhere else.
#include <cstdio>
#include <cstring>

#include "bench/common.h"
#include "measure/trace_census.h"

using namespace rr;

int main() {
  bench::heading("trace census: Doubletree stop-set probing cost");
  bench::Telemetry telemetry{"trace"};
  telemetry.phase("world");
  auto config = bench::bench_config();
  measure::Testbed testbed{config};
  bench::record_world(telemetry, testbed);
  std::printf("world: %s\n", testbed.topology().summary().c_str());

  measure::TraceCensusConfig census;
  census.per_vp_dests = 512;
  if (std::getenv("RROPT_QUICK") != nullptr) census.per_vp_dests = 128;
  if (const auto dests = bench::env_uint("RROPT_TRACE_DESTS")) {
    census.per_vp_dests = static_cast<std::size_t>(*dests);
  }

  telemetry.phase("census_off");
  census.use_stop_sets = false;
  const auto off = measure::run_trace_census(testbed, census);

  telemetry.phase("census_on");
  census.use_stop_sets = true;
  const auto on = measure::run_trace_census(testbed, census);

  telemetry.phase("analysis");
  const double reduction =
      off.probes_sent > 0
          ? 1.0 - static_cast<double>(on.probes_sent) /
                      static_cast<double>(off.probes_sent)
          : 0.0;
  const double iface_coverage =
      off.interfaces > 0 ? static_cast<double>(on.interfaces) /
                               static_cast<double>(off.interfaces)
                         : 1.0;
  const double link_coverage =
      off.links > 0
          ? static_cast<double>(on.links) / static_cast<double>(off.links)
          : 1.0;

  std::printf("\n  %llu traces x %zu dests/VP, %llu reached\n",
              static_cast<unsigned long long>(on.traces),
              census.per_vp_dests,
              static_cast<unsigned long long>(on.reached));
  std::printf("  probes: %llu without stop sets, %llu with "
              "(%.1f%% reduction)\n",
              static_cast<unsigned long long>(off.probes_sent),
              static_cast<unsigned long long>(on.probes_sent),
              100.0 * reduction);
  std::printf("  stop sets: %llu local / %llu global keys, "
              "hit rate %.1f%%, %llu backward slots skipped, "
              "%llu overflows\n",
              static_cast<unsigned long long>(on.local_keys),
              static_cast<unsigned long long>(on.global_keys),
              100.0 * on.stats.hit_rate(),
              static_cast<unsigned long long>(on.probes_saved),
              static_cast<unsigned long long>(on.stopset_overflows));
  std::printf("  coverage: %llu/%llu interfaces (%.1f%%), "
              "%llu/%llu links (%.1f%%)\n",
              static_cast<unsigned long long>(on.interfaces),
              static_cast<unsigned long long>(off.interfaces),
              100.0 * iface_coverage,
              static_cast<unsigned long long>(on.links),
              static_cast<unsigned long long>(off.links),
              100.0 * link_coverage);

  bench::heading("headline probing cost");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * reduction);
  bench::report("probe reduction from stop sets", ">=40%", buf);
  std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * iface_coverage);
  bench::report("interface coverage retained", "~100%", buf);

  char hex[32];
  telemetry.value("probes_sent", on.probes_sent);
  telemetry.value("probes_saved", on.probes_saved);
  telemetry.value("probes_sent_baseline", off.probes_sent);
  telemetry.value("stopset_hit_rate", on.stats.hit_rate());
  telemetry.value("stopset_reduction", reduction);
  telemetry.value("stopset_local_keys", on.local_keys);
  telemetry.value("stopset_global_keys", on.global_keys);
  telemetry.value("stopset_overflows", on.stopset_overflows);
  telemetry.value("trace_interfaces", on.interfaces);
  telemetry.value("trace_links", on.links);
  telemetry.value("interface_coverage", iface_coverage);
  telemetry.value("link_coverage", link_coverage);
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(on.schedule_hash));
  telemetry.value("trace_schedule_hash", std::string(hex));
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(on.interface_hash));
  telemetry.value("trace_interface_hash", std::string(hex));
  return 0;
}

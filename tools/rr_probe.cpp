// rr-probe: interactive probing against a generated world — the scamper of
// this toolkit.
//
//   rr-probe [--ases N] [--seed S] [--vp SITE] [--count K] [--pps R]
//            [--type ping|rr|udp|trace] [--ttl T] [--target a.b.c.d]
//            [--json]
//
// Without --target, probes the first K destinations of the world.
#include <cstdio>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>

#include "data/jsonl.h"
#include "measure/testbed.h"
#include "probe/prober.h"
#include "util/flags.h"

using namespace rr;

int main(int argc, char** argv) try {
  const auto flags = util::Flags::parse(argc, argv);
  if (flags.has("help")) {
    std::printf(
        "usage: rr-probe [--ases N] [--seed S] [--vp SITE] [--count K]\n"
        "                [--pps R] [--type ping|rr|udp|trace] [--ttl T]\n"
        "                [--target a.b.c.d] [--json]\n");
    return 0;
  }

  // Read and range-check every flag before the world is built: a bad
  // value exits 1 with "error: --<flag>: ..." (util::Flags).
  measure::TestbedConfig config;
  config.topo_params.num_ases = static_cast<int>(
      flags.get_int("ases", 600, 100, std::numeric_limits<int>::max()));
  config.topo_params.seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 20160924));
  config.topo_params.colo_fraction = std::min(
      0.30, 0.06 * 5200.0 / std::max(config.topo_params.num_ases, 1));
  const std::string vp_site = flags.get("vp");
  // The smallest positive double keeps the send interval 1/pps finite.
  const double pps =
      flags.get_double("pps", 20.0, std::numeric_limits<double>::min());
  std::optional<net::IPv4Address> only_target;
  if (flags.has("target")) {
    only_target = net::IPv4Address::parse(flags.get("target"));
    if (!only_target) {
      throw std::invalid_argument("--target: expected a dotted quad, got '" +
                                  flags.get("target") + "'");
    }
  }
  const auto count =
      static_cast<std::size_t>(flags.get_int("count", 10, 0));
  const std::string type =
      flags.get_choice("type", "rr", {"ping", "rr", "udp", "trace"});
  const auto ttl = static_cast<std::uint8_t>(flags.get_int("ttl", 64, 1, 255));
  const bool json = flags.has("json");

  measure::Testbed testbed{config};
  const auto& topology = testbed.topology();

  // Pick the vantage point.
  const topo::VantagePoint* vp = testbed.vps().front();
  for (const auto* candidate : testbed.vps()) {
    if (!vp_site.empty() ? candidate->site == vp_site
                         : candidate->platform == topo::Platform::kMLab) {
      vp = candidate;
      break;
    }
  }
  auto prober = testbed.make_prober(vp->host, pps);
  std::fprintf(stderr, "probing from %s (%s)\n", vp->site.c_str(),
               prober.source_address().to_string().c_str());

  // Targets.
  std::vector<net::IPv4Address> targets;
  if (only_target) {
    targets.push_back(*only_target);
  } else {
    for (std::size_t i = 0; i < count && i < topology.destinations().size();
         ++i) {
      targets.push_back(topology.host_at(topology.destinations()[i]).address);
    }
  }

  for (const auto& target : targets) {
    if (type == "trace") {
      const auto trace = prober.traceroute(target, 30);
      std::printf("traceroute to %s (%s)\n", target.to_string().c_str(),
                  trace.reached ? "reached" : "incomplete");
      for (const auto& hop : trace.hops) {
        std::printf(" %2d  %s\n", hop.ttl,
                    hop.responded ? hop.address.to_string().c_str() : "*");
      }
      continue;
    }

    probe::ProbeSpec spec = probe::ProbeSpec::ping(target);
    if (type == "rr") spec = probe::ProbeSpec::ping_rr(target, ttl);
    if (type == "udp") spec = probe::ProbeSpec::ping_rr_udp(target);
    spec.ttl = ttl;
    const auto result = prober.probe(spec);
    if (json) {
      data::write_probe_line(std::cout, result, vp->site);
      continue;
    }
    std::printf("%s\n", result.to_string().c_str());
  }

  for (const auto& key : flags.unused()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", key.c_str());
  }
  return 0;
} catch (const std::invalid_argument& e) {
  // A malformed or out-of-range flag (util::Flags) or RROPT_THREADS.
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}

// rr-probe: interactive probing against a generated world — the scamper of
// this toolkit.
//
//   rr-probe [--ases N] [--seed S] [--vp SITE] [--count K]
//            [--type ping|rr|udp|trace] [--ttl T] [--target a.b.c.d]
//            [--json]
//
// Without --target, probes the first K destinations of the world.
#include <cstdio>
#include <iostream>
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
        "                [--type ping|rr|udp|trace] [--ttl T]\n"
        "                [--target a.b.c.d] [--json]\n");
    return 0;
  }

  measure::TestbedConfig config;
  config.topo_params.num_ases =
      static_cast<int>(flags.get_int("ases", 600));
  config.topo_params.seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 20160924));
  config.topo_params.colo_fraction = std::min(
      0.30, 0.06 * 5200.0 / std::max(config.topo_params.num_ases, 1));
  measure::Testbed testbed{config};
  const auto& topology = testbed.topology();

  // Pick the vantage point.
  const std::string vp_site = flags.get("vp");
  const topo::VantagePoint* vp = testbed.vps().front();
  for (const auto* candidate : testbed.vps()) {
    if (!vp_site.empty() ? candidate->site == vp_site
                         : candidate->platform == topo::Platform::kMLab) {
      vp = candidate;
      break;
    }
  }
  auto prober = testbed.make_prober(vp->host, flags.get_double("pps", 20.0));
  std::fprintf(stderr, "probing from %s (%s)\n", vp->site.c_str(),
               prober.source_address().to_string().c_str());

  // Targets.
  std::vector<net::IPv4Address> targets;
  if (flags.has("target")) {
    const auto parsed = net::IPv4Address::parse(flags.get("target"));
    if (!parsed) {
      std::fprintf(stderr, "error: bad --target\n");
      return 1;
    }
    targets.push_back(*parsed);
  } else {
    const auto count = static_cast<std::size_t>(flags.get_int("count", 10));
    for (std::size_t i = 0; i < count && i < topology.destinations().size();
         ++i) {
      targets.push_back(topology.host_at(topology.destinations()[i]).address);
    }
  }

  const std::string type = flags.get("type", "rr");
  const auto ttl = static_cast<std::uint8_t>(flags.get_int("ttl", 64));
  const bool json = flags.has("json");

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
  // A malformed numeric flag or RROPT_THREADS (util::parse_int).
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}

// rr-study: run a full measurement campaign on a generated Internet and
// freeze it into a dataset file.
//
//   rr-study [--scale paper] [--ases N] [--seed S] [--epoch 2011|2016]
//            [--stride K] [--pps R] [--stream-block B]
//            [--mem-budget-mib M] [--fault-plan SPEC] [--out study.rrds]
//
// The dataset can then be re-analyzed offline with rr-analyze.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>

#include "data/dataset.h"
#include "measure/classify.h"
#include "measure/testbed.h"
#include "sim/fault.h"
#include "util/flags.h"
#include "util/strings.h"

using namespace rr;

int main(int argc, char** argv) try {
  const auto flags = util::Flags::parse(argc, argv);
  if (flags.has("help")) {
    std::printf(
        "usage: rr-study [--scale paper] [--ases N] [--seed S]\n"
        "                [--epoch 2011|2016] [--stride K] [--pps R]\n"
        "                [--threads T] [--stream-block B]\n"
        "                [--fault-plan SPEC] [--out FILE.rrds]\n"
        "  --scale paper\n"
        "               census-scale world (~510k destination prefixes,\n"
        "               141 VPs); overrides --ases\n"
        "  --threads T  campaign worker threads, T >= 0 (0 = RROPT_THREADS\n"
        "               or all cores; results are identical at any value)\n"
        "  --stream-block B\n"
        "               streaming campaign: process destinations in blocks\n"
        "               of B with a per-block forwarding table (0 = one\n"
        "               block over the whole census)\n"
        "  --mem-budget-mib M\n"
        "               size the streaming block from a per-block resident\n"
        "               memory budget instead (overridden by an explicit\n"
        "               --stream-block; note the resolved block size shapes\n"
        "               dataset contents)\n"
        "  --fault-plan SPEC\n"
        "               deterministic fault injection: 'none', a uniform\n"
        "               rate ('0.01'), or knobs ('rr_garble=0.1,storm=0.05,\n"
        "               seed=7'); see sim/fault.h for every knob\n");
    return 0;
  }

  // Read and range-check every flag before the world is built: a bad
  // value exits 1 with "error: --<flag>: ..." (util::Flags).
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  measure::TestbedConfig config;
  const std::string scale = flags.get("scale", "");
  if (scale == "paper") {
    config.topo_params = topo::TopologyParams::census_scale();
  } else if (!scale.empty()) {
    std::fprintf(stderr, "error: unknown --scale '%s'\n", scale.c_str());
    return 1;
  } else {
    config.topo_params.num_ases =
        static_cast<int>(flags.get_int("ases", 1200, 100, kIntMax));
  }
  config.topo_params.seed = flags.get_uint("seed", 20160924);
  if (config.topo_params.num_ases < 5200) {
    config.topo_params.colo_fraction = std::min(
        0.30, 0.06 * 5200.0 / std::max(config.topo_params.num_ases, 1));
  }
  const std::string epoch = flags.get_choice("epoch", "2016", {"2011", "2016"});
  config.epoch = epoch == "2011" ? topo::Epoch::k2011 : topo::Epoch::k2016;

  measure::CampaignConfig campaign_config;
  campaign_config.destination_stride =
      static_cast<int>(flags.get_int("stride", 1, 1, kIntMax));
  // The smallest positive double keeps the send interval 1/pps finite.
  campaign_config.vp_pps =
      flags.get_double("pps", 20.0, std::numeric_limits<double>::min());
  campaign_config.threads =
      static_cast<int>(flags.get_int("threads", 0, 0, kIntMax));
  const std::int64_t budget = flags.get_int("mem-budget-mib", 0, 0);
  const std::int64_t stream_block = flags.get_int("stream-block", 0, 0);
  const bool explicit_block = flags.has("stream-block");
  const std::string fault_spec = flags.get("fault-plan", "none");
  const auto faults = sim::parse_fault_plan(fault_spec);
  if (!faults) {
    std::fprintf(stderr, "error: bad --fault-plan '%s'\n", fault_spec.c_str());
    return 1;
  }
  campaign_config.faults = *faults;
  const std::string out_path = flags.get("out", "study.rrds");

  measure::Testbed testbed{config};
  std::fprintf(stderr, "world: %s\n", testbed.topology().summary().c_str());

  if (budget > 0) {
    // Adaptive streaming: size the block from a per-block memory budget.
    // The resolved size shapes dataset contents (block-major probe order),
    // so budget runs only hash-compare at equal resolved sizes.
    campaign_config.stream_block =
        measure::CampaignConfig::stream_block_for_budget(
            static_cast<std::size_t>(budget),
            testbed.topology().vantage_points().size());
    std::fprintf(stderr, "mem budget %lld MiB -> stream block %zu\n",
                 static_cast<long long>(budget), campaign_config.stream_block);
  }
  if (explicit_block) {
    campaign_config.stream_block = static_cast<std::size_t>(stream_block);
  }
  if (faults->any()) {
    std::fprintf(stderr, "%s\n", sim::to_string(*faults).c_str());
  }
  auto campaign = measure::Campaign::run(testbed, campaign_config);
  if (faults->any()) {
    const auto& injected = testbed.network().fault_counters();
    std::fprintf(stderr, "injected faults: %llu total\n",
                 static_cast<unsigned long long>(injected.total()));
  }

  const auto table = measure::build_response_table(campaign);
  std::printf("probed %s destinations from %zu VPs\n",
              util::with_commas(table.by_ip[0].probed).c_str(),
              campaign.num_vps());
  std::printf("ping-responsive: %s (%s)\n",
              util::with_commas(table.by_ip[0].ping_responsive).c_str(),
              util::percent(table.by_ip[0].ping_rate()).c_str());
  std::printf("RR-responsive:   %s (%s; %s of ping-responsive)\n",
              util::with_commas(table.by_ip[0].rr_responsive).c_str(),
              util::percent(table.by_ip[0].rr_rate()).c_str(),
              util::percent(table.by_ip[0].rr_over_ping()).c_str());

  // Move the observation matrix into the dataset — at census scale the
  // copy would transiently double the largest allocation in the run.
  const auto dataset = data::CampaignDataset::from_campaign(
      std::move(campaign), "rr-study epoch=" + epoch);
  if (!dataset.save(out_path)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("dataset written to %s (%zu VPs x %zu destinations)\n",
              out_path.c_str(), dataset.num_vps(),
              dataset.num_destinations());
  // Stable fingerprint for cross-run equivalence checks (different
  // --threads must print the same hash).
  std::printf("dataset hash: %016llx\n",
              static_cast<unsigned long long>(dataset.content_hash()));

  for (const auto& key : flags.unused()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", key.c_str());
  }
  return 0;
} catch (const std::invalid_argument& e) {
  // A malformed or out-of-range flag (util::Flags) or RROPT_THREADS.
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}

// Paper-scale campaign: the full ~510k-prefix census probed from 141 VPs,
// run in streaming mode so resident path state stays bounded by the block
// size rather than the census. Reports the Table 1 headline rates, the
// dataset content hash (so the run is comparable across machines and
// configurations), and the process memory high-water mark.
//
// Scale knobs: RROPT_QUICK shrinks to smoke-test scale (CI runs every
// bench binary that way); RROPT_STREAM_BLOCK overrides the block size;
// RROPT_THREADS as everywhere else. Writes BENCH_full.json.
#include <cstdio>
#include <cstring>

#include "bench/common.h"
#include "data/dataset.h"
#include "measure/classify.h"

using namespace rr;

int main() {
  bench::heading("paper-scale campaign (streaming)");
  bench::Telemetry telemetry{"full"};
  telemetry.phase("world");

  measure::TestbedConfig config;
  config.topo_params = topo::TopologyParams::census_scale();
  if (const char* seed = std::getenv("RROPT_SEED")) {
    config.topo_params.seed = std::strtoull(seed, nullptr, 10);
  }
  if (std::getenv("RROPT_QUICK") != nullptr) {
    // CI smoke: same streaming code path, toy scale.
    config.topo_params = bench::scaled_topo_params();
  }
  measure::Testbed testbed{config};
  bench::record_world(telemetry, testbed);
  std::printf("world: %s\n", testbed.topology().summary().c_str());

  measure::CampaignConfig campaign_config;
  campaign_config.stream_block = 8192;
  if (const char* budget = std::getenv("RROPT_MEM_BUDGET_MIB")) {
    // Adaptive sizing: derive the block from a per-block memory budget.
    // The resolved size shapes dataset contents (block-major probe
    // order), so budget runs are only hash-comparable at equal resolved
    // sizes — the default stays pinned at 8192 for the flagship hash.
    campaign_config.stream_block = measure::CampaignConfig::
        stream_block_for_budget(std::strtoull(budget, nullptr, 10),
                                testbed.topology().vantage_points().size());
  }
  if (const char* block = std::getenv("RROPT_STREAM_BLOCK")) {
    campaign_config.stream_block =
        static_cast<std::size_t>(std::strtoull(block, nullptr, 10));
  }

  telemetry.phase("campaign");
  auto campaign = measure::Campaign::run(testbed, campaign_config);

  telemetry.phase("analysis");
  const auto table = measure::build_response_table(campaign);
  // Move (not copy) the ~300 MB observation matrix into the dataset; the
  // table above is already built and only derived summaries are read past
  // this point.
  const auto dataset = data::CampaignDataset::from_campaign(
      std::move(campaign), "bench_full census-scale streaming campaign");
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(dataset.content_hash()));

  bench::heading("census headline rates");
  bench::report("destinations probed", "511,119",
                util::with_commas(campaign.num_destinations()));
  bench::report("IPs ping-responsive", "77%",
                util::percent(table.by_ip[0].ping_rate()));
  bench::report("IPs RR-responsive", "58%",
                util::percent(table.by_ip[0].rr_rate()));
  bench::report("ping-responsive IPs also RR-responsive", "75%",
                util::percent(table.by_ip[0].rr_over_ping()));

  const double rss = bench::peak_rss_mib();
  const auto& phases = campaign.phase_stats();
  std::printf("\n  stream block: %zu destinations, peak RSS: %.0f MiB\n",
              campaign_config.stream_block, rss);
  std::printf("  dataset hash: %s\n", hash);
  std::printf("  campaign phases: pass A %.2fs, pass B %.2fs "
              "(serial fraction %.1f%%)\n",
              phases.pass_a_seconds, phases.pass_b_seconds,
              100.0 * phases.serial_fraction());

  telemetry.value("destinations", campaign.num_destinations());
  telemetry.value("stream_block", campaign_config.stream_block);
  telemetry.value("ping_rate_by_ip", table.by_ip[0].ping_rate());
  telemetry.value("rr_rate_by_ip", table.by_ip[0].rr_rate());
  telemetry.value("rr_over_ping_by_ip", table.by_ip[0].rr_over_ping());
  telemetry.value("peak_rss_mib", rss);
  telemetry.value("dataset_hash", std::string(hash));
  telemetry.value("campaign_pass_a_s", phases.pass_a_seconds);
  telemetry.value("campaign_pass_b_s", phases.pass_b_seconds);
  telemetry.value("campaign_serial_fraction", phases.serial_fraction());
  telemetry.value("probes_sent", phases.probes_sent);
  return 0;
}

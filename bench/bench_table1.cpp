// Regenerates Table 1: response rates for pings with and without the
// Record Route option, by IP address and by AS, split by CAIDA AS type.
// Also prints the §3.2 VP-response distribution (the paper's "roughly 80%
// of destinations that responded to at least one VP responded to over 90").
#include <cstdio>
#include <iostream>

#include "analysis/table.h"
#include "bench/common.h"
#include "measure/classify.h"
#include "measure/figures.h"

using namespace rr;

namespace {

const char* kTypeNames[] = {"Total", "Transit/Access", "Enterprise",
                            "Content", "Unknown"};

void print_side(const char* label,
                const std::array<measure::ResponseCounts,
                                 1 + topo::kNumAsTypes>& side) {
  analysis::TextTable table({label, "Total", "Transit/Access", "Enterprise",
                             "Content", "Unknown"});
  std::vector<std::string> probed{"All Probed"}, ping{"Ping Responsive"},
      rr{"RR-Responsive"};
  for (std::size_t i = 0; i < side.size(); ++i) {
    probed.push_back(analysis::count_cell(side[i].probed, 1.0));
    ping.push_back(
        analysis::count_cell(side[i].ping_responsive, side[i].ping_rate()));
    rr.push_back(analysis::count_cell(side[i].rr_responsive,
                                      side[i].rr_rate()));
  }
  table.add_row(probed);
  table.add_row(ping);
  table.add_row(rr);
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::heading("Table 1: ping vs ping-RR response rates");
  bench::Telemetry telemetry{"table1"};
  measure::Testbed testbed =
      bench::build_world(telemetry, bench::bench_config());
  bench::record_world(telemetry, testbed);
  telemetry.phase("campaign");
  const auto campaign = measure::Campaign::run(testbed);
  telemetry.phase("analysis");
  telemetry.value("destinations", campaign.num_destinations());
  bench::record_layer_memory(telemetry, testbed);
  telemetry.value("campaign_mib", bench::mib(campaign.memory_bytes()));
  const auto& phases = campaign.phase_stats();
  telemetry.value("campaign_pass_a_s", phases.pass_a_seconds);
  telemetry.value("campaign_pass_b_s", phases.pass_b_seconds);
  telemetry.value("campaign_fib_s", phases.fib_seconds);
  telemetry.value("campaign_serial_fraction", phases.serial_fraction());
  telemetry.value("campaign_block_fib_mib",
                  bench::mib(phases.peak_block_fib_bytes));
  telemetry.value("campaign_block_sightings_mib",
                  bench::mib(phases.peak_block_sighting_bytes));
  telemetry.value("probes_sent", phases.probes_sent);
  const auto table = measure::build_response_table(campaign);

  std::printf("world: %s\n\n", testbed.topology().summary().c_str());
  print_side("By IP", table.by_ip);
  std::printf("\n");
  print_side("By AS", table.by_as);

  bench::heading("headline ratios");
  bench::report("ping-responsive IPs also RR-responsive", "75%",
                util::percent(table.by_ip[0].rr_over_ping()));
  bench::report("ping-responsive ASes also RR-responsive", "82%",
                util::percent(table.by_as[0].rr_over_ping()));
  bench::report("IPs ping-responsive", "77%",
                util::percent(table.by_ip[0].ping_rate()));
  bench::report("IPs RR-responsive", "58%",
                util::percent(table.by_ip[0].rr_rate()));
  for (int t = 0; t < topo::kNumAsTypes; ++t) {
    const auto& row = table.by_ip[static_cast<std::size_t>(t + 1)];
    const char* paper[] = {"76%", "68%", "77%", "82%"};
    bench::report(std::string("RR/ping ratio, ") + kTypeNames[t + 1],
                  paper[t], util::percent(row.rr_over_ping()));
  }

  bench::heading("per-destination VP response counts (§3.2)");
  const double frac90 = measure::fraction_answering_more_than(
      campaign, static_cast<int>(campaign.num_vps() * 90 / 141));
  bench::report(
      "RR-responsive dests answering >90/141 VPs (scaled threshold)",
      "~80%", util::percent(frac90));
  const auto figure = measure::vp_response_figure(campaign);
  figure.write_csv("vp_responses.csv");
  std::printf("  (full distribution written to vp_responses.csv)\n");

  telemetry.value("ping_rate_by_ip", table.by_ip[0].ping_rate());
  telemetry.value("rr_rate_by_ip", table.by_ip[0].rr_rate());
  telemetry.value("rr_over_ping_by_ip", table.by_ip[0].rr_over_ping());
  telemetry.value("frac_answering_90", frac90);
  return 0;
}

// rr-analyze: offline analysis of a frozen dataset produced by rr-study.
//
//   rr-analyze study.rrds [--within N]
//   rr-analyze baseline.rrds --diff faulted.rrds
//
// Prints Table 1 and the reachability summary without touching the
// simulator — only the published data. With --diff, compares a baseline
// dataset against one measured under a fault plan and checks the paper's
// classification invariants: faults can only remove evidence (no
// destination gains ping/RR responsiveness or reachability) and Table 1
// row sums stay conserved. Exits 2 on any violation.
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "analysis/table.h"
#include "data/dataset.h"
#include "util/flags.h"
#include "util/strings.h"

using namespace rr;

namespace {

/// Per-type rows must add up to the Total row for every Table 1 column.
bool table_conserved(const measure::ResponseTable& table, const char* label) {
  bool ok = true;
  const auto check = [&](const auto& rows, const char* axis) {
    std::size_t probed = 0, ping = 0, rr = 0;
    for (std::size_t i = 1; i < rows.size(); ++i) {
      probed += rows[i].probed;
      ping += rows[i].ping_responsive;
      rr += rows[i].rr_responsive;
    }
    if (probed != rows[0].probed || ping != rows[0].ping_responsive ||
        rr != rows[0].rr_responsive) {
      std::fprintf(stderr,
                   "DIFF VIOLATION: %s %s rows do not sum to the total\n",
                   label, axis);
      ok = false;
    }
  };
  check(table.by_ip, "by-IP");
  check(table.by_as, "by-AS");
  return ok;
}

int run_diff(const data::CampaignDataset& base,
             const data::CampaignDataset& faulted) {
  if (base.num_vps() != faulted.num_vps() ||
      base.num_destinations() != faulted.num_destinations()) {
    std::fprintf(stderr, "error: datasets have different shapes\n");
    return 1;
  }
  for (std::size_t d = 0; d < base.num_destinations(); ++d) {
    if (base.destinations[d].address != faulted.destinations[d].address) {
      std::fprintf(stderr, "error: destination lists differ at index %zu\n",
                   d);
      return 1;
    }
  }

  if (base.observations == faulted.observations &&
      base.destinations == faulted.destinations) {
    std::printf("datasets are bit-identical (%zu VPs x %zu destinations)\n",
                base.num_vps(), base.num_destinations());
    return 0;
  }

  // Monotonicity: an added fault can suppress or corrupt a response but
  // never conjure one, so every per-destination classification may only
  // move toward "less reachable".
  std::size_t ping_gained = 0, rr_resp_gained = 0, rr_reach_gained = 0;
  std::size_t ping_lost = 0, rr_resp_lost = 0, rr_reach_lost = 0;
  for (std::size_t d = 0; d < base.num_destinations(); ++d) {
    const bool base_ping = base.destinations[d].ping_responsive != 0;
    const bool fault_ping = faulted.destinations[d].ping_responsive != 0;
    if (!base_ping && fault_ping) ++ping_gained;
    if (base_ping && !fault_ping) ++ping_lost;
    if (!base.rr_responsive(d) && faulted.rr_responsive(d)) ++rr_resp_gained;
    if (base.rr_responsive(d) && !faulted.rr_responsive(d)) ++rr_resp_lost;
    if (!base.rr_reachable(d) && faulted.rr_reachable(d)) ++rr_reach_gained;
    if (base.rr_reachable(d) && !faulted.rr_reachable(d)) ++rr_reach_lost;
  }
  std::printf("classification drift (baseline -> faulted):\n"
              "  ping-responsive: -%zu +%zu\n"
              "  RR-responsive:   -%zu +%zu\n"
              "  RR-reachable:    -%zu +%zu\n",
              ping_lost, ping_gained, rr_resp_lost, rr_resp_gained,
              rr_reach_lost, rr_reach_gained);

  bool ok = true;
  if (ping_gained + rr_resp_gained + rr_reach_gained > 0) {
    std::fprintf(stderr,
                 "DIFF VIOLATION: faults added reachability evidence\n");
    ok = false;
  }
  ok &= table_conserved(base.response_table(), "baseline");
  ok &= table_conserved(faulted.response_table(), "faulted");
  std::printf("%s\n", ok ? "invariants hold" : "INVARIANTS VIOLATED");
  return ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) try {
  const auto flags = util::Flags::parse(argc, argv);
  if (flags.positional().empty() || flags.has("help")) {
    std::printf(
        "usage: rr-analyze FILE.rrds [--within N]\n"
        "       rr-analyze BASELINE.rrds --diff FAULTED.rrds\n");
    return flags.has("help") ? 0 : 1;
  }
  const auto dataset = data::CampaignDataset::load(flags.positional()[0]);
  if (!dataset) {
    std::fprintf(stderr, "error: cannot load %s (missing or corrupt)\n",
                 flags.positional()[0].c_str());
    return 1;
  }

  if (flags.has("diff")) {
    const std::string other_path = flags.get("diff", "");
    const auto other = data::CampaignDataset::load(other_path);
    if (!other) {
      std::fprintf(stderr, "error: cannot load %s (missing or corrupt)\n",
                   other_path.c_str());
      return 1;
    }
    return run_diff(*dataset, *other);
  }
  std::printf("dataset: %s\n%zu VPs, %s destinations\n\n",
              dataset->description.c_str(), dataset->num_vps(),
              util::with_commas(dataset->num_destinations()).c_str());

  static const char* kTypeNames[] = {"Total", "Transit/Access", "Enterprise",
                                     "Content", "Unknown"};
  const auto table = dataset->response_table();
  analysis::TextTable text({"By IP", "probed", "ping", "ping-RR",
                            "RR/ping"});
  for (std::size_t i = 0; i < table.by_ip.size(); ++i) {
    text.add_row({kTypeNames[i],
                  util::with_commas(table.by_ip[i].probed),
                  util::percent(table.by_ip[i].ping_rate()),
                  util::percent(table.by_ip[i].rr_rate()),
                  util::percent(table.by_ip[i].rr_over_ping())});
  }
  text.print(std::cout);

  const int limit = static_cast<int>(flags.get_int("within", 9));
  std::size_t responsive = 0, within = 0;
  for (std::size_t d = 0; d < dataset->num_destinations(); ++d) {
    if (!dataset->rr_responsive(d)) continue;
    ++responsive;
    const int dist = dataset->min_rr_distance(d);
    if (dist > 0 && dist <= limit) ++within;
  }
  std::printf("\nRR-responsive destinations within %d RR hops of a VP: "
              "%s of %s (%s)\n",
              limit, util::with_commas(within).c_str(),
              util::with_commas(responsive).c_str(),
              util::percent(responsive ? double(within) / double(responsive)
                                       : 0.0).c_str());
  return 0;
} catch (const std::invalid_argument& e) {
  // A malformed numeric flag or RROPT_THREADS (util::parse_int).
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}

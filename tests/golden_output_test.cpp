// Golden-file regression for the seed-default headline outputs: the Table 1
// text rendering and the Figure 1 series blocks for the test-scale world,
// plus the trace census's and the settled studies' hashes and counts
// pinned in place.
// Any change to topology generation, probing, classification, or figure
// rendering that shifts these bytes fails here first — with a readable diff
// instead of a distant assertion.
//
// To regenerate after an intentional change:
//   RROPT_UPDATE_GOLDEN=1 ./build/tests/test_golden_output
// then review the diff of tests/golden/*.txt like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/table.h"
#include "measure/campaign.h"
#include "measure/classify.h"
#include "measure/figures.h"
#include "measure/ratelimit.h"
#include "measure/reachability.h"
#include "measure/testbed.h"
#include "measure/trace_census.h"
#include "measure/ttl_study.h"
#include "util/strings.h"

namespace rr::measure {
namespace {

std::string golden_path(const char* name) {
  return std::string{RROPT_GOLDEN_DIR} + "/" + name;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void check_golden(const char* name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (std::getenv("RROPT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out{path, std::ios::binary};
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << actual;
    SUCCEED() << "updated " << path;
    return;
  }
  const auto expected = read_file(path);
  ASSERT_TRUE(expected.has_value())
      << path << " missing; run with RROPT_UPDATE_GOLDEN=1 to create it";
  EXPECT_EQ(*expected, actual)
      << "golden mismatch for " << name
      << "; if intentional, regenerate with RROPT_UPDATE_GOLDEN=1 and "
         "review the diff";
}

class GoldenOutputTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TestbedConfig config;
    config.topo_params = topo::TopologyParams::test_scale();
    testbed_ = new Testbed{config};
    campaign_ = new Campaign{Campaign::run(*testbed_)};
  }
  static void TearDownTestSuite() {
    delete campaign_;
    campaign_ = nullptr;
    delete testbed_;
    testbed_ = nullptr;
  }

  static Testbed* testbed_;
  static Campaign* campaign_;
};

Testbed* GoldenOutputTest::testbed_ = nullptr;
Campaign* GoldenOutputTest::campaign_ = nullptr;

TEST_F(GoldenOutputTest, Table1MatchesGoldenFile) {
  static const char* kTypeNames[] = {"Total", "Transit/Access", "Enterprise",
                                     "Content", "Unknown"};
  const auto table = build_response_table(*campaign_);

  std::ostringstream out;
  const auto render = [&](const char* axis, const auto& rows) {
    analysis::TextTable text({axis, "probed", "ping", "ping-RR", "RR/ping"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
      text.add_row({kTypeNames[i], util::with_commas(rows[i].probed),
                    util::percent(rows[i].ping_rate()),
                    util::percent(rows[i].rr_rate()),
                    util::percent(rows[i].rr_over_ping())});
    }
    out << text.to_string();
  };
  render("By IP", table.by_ip);
  out << "\n";
  render("By AS", table.by_as);
  check_golden("table1.txt", out.str());
}

TEST_F(GoldenOutputTest, Figure1MatchesGoldenFile) {
  const auto mlab =
      vp_indices_of_platform(*campaign_, topo::Platform::kMLab);
  const auto reachable = campaign_->rr_reachable_indices();
  const auto greedy = greedy_vp_selection(*campaign_, mlab, reachable, 10);

  const auto figure = figure1(*campaign_, greedy);
  std::ostringstream out;
  figure.print(out);
  check_golden("figure1.txt", out.str());
}

// ------------------------------------------------------ trace census pins
//
// The trace census on the default test-scale world, once with stop sets
// on and once with them off. stopset_determinism_test holds the schedule
// equal across thread counts; these pins also catch a change that moves
// it at every thread count alike. Only a change to what the census
// probes or discovers may move them; the stop sets' sizing and slot
// layout may not.

struct CensusPin {
  std::uint64_t schedule_hash;
  std::uint64_t interface_hash;
  std::uint64_t link_hash;
  std::uint64_t probes_sent;
  std::uint64_t probes_saved;
  std::uint64_t traces;
  std::uint64_t reached;
};

void expect_census_pin(bool use_stop_sets, const CensusPin& want) {
  TestbedConfig world;
  world.topo_params = topo::TopologyParams::test_scale();
  Testbed testbed{world};
  TraceCensusConfig config;  // every destination, from every VP
  config.use_stop_sets = use_stop_sets;
  const auto got = run_trace_census(testbed, config);
  EXPECT_EQ(got.schedule_hash, want.schedule_hash);
  EXPECT_EQ(got.interface_hash, want.interface_hash);
  EXPECT_EQ(got.link_hash, want.link_hash);
  EXPECT_EQ(got.probes_sent, want.probes_sent);
  EXPECT_EQ(got.probes_saved, want.probes_saved);
  EXPECT_EQ(got.traces, want.traces);
  EXPECT_EQ(got.reached, want.reached);
  EXPECT_EQ(got.stopset_overflows, 0u);
}

TEST(TraceCensusPins, StopSetsOn) {
  expect_census_pin(true, {0x997214644324d3f1, 0x5b5801ed255e2a68,
                           0x21d798559924ed8b, 91631, 36112, 12404, 967});
}

TEST(TraceCensusPins, StopSetsOff) {
  expect_census_pin(false, {0x4bcca39e7703bd77, 0x5b5801ed255e2a68,
                            0xed264b682300f7f9, 271771, 0, 12404, 9588});
}

// ---------------------------------------------------- settled-path pins
//
// The rate-limit and TTL studies send each probe alone and settle it
// against the token buckets before the next one leaves, so their rows
// and the network's counters pin the settled path, CoPP kills included:
// the rate-limit study's 100 pps pass polices many of its probes. A
// settled send's flow key folds in the network's running send count, so
// every outcome depends on all earlier sends; the test builds its own
// world and runs the campaign first instead of sharing a testbed.

std::uint64_t fnv_fold(std::uint64_t hash, std::uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    hash ^= (value >> (b * 8)) & 0xff;
    hash *= 1099511628211ULL;
  }
  return hash;
}

void expect_counters(const sim::NetCounters& got,
                     const sim::NetCounters& want) {
  EXPECT_EQ(got.sent, want.sent);
  EXPECT_EQ(got.delivered, want.delivered);
  EXPECT_EQ(got.responses, want.responses);
  EXPECT_EQ(got.dropped_loss, want.dropped_loss);
  EXPECT_EQ(got.dropped_filter, want.dropped_filter);
  EXPECT_EQ(got.dropped_rate_limit, want.dropped_rate_limit);
  EXPECT_EQ(got.dropped_ttl, want.dropped_ttl);
  EXPECT_EQ(got.dropped_unroutable, want.dropped_unroutable);
  EXPECT_EQ(got.ttl_errors, want.ttl_errors);
  EXPECT_EQ(got.port_unreachables, want.port_unreachables);
}

TEST(SettledPathPins, RateLimitThenTtlStudy) {
  TestbedConfig world;
  world.topo_params = topo::TopologyParams::test_scale();
  Testbed testbed{world};
  const Campaign campaign = Campaign::run(testbed);
  const sim::Network& net = testbed.network();

  RateLimitConfig rate_config;
  rate_config.sample_size = 2000;
  const auto rate = rate_limit_study(testbed, campaign, rate_config);
  std::uint64_t rate_hash = 1469598103934665603ULL;
  for (const auto& row : rate.rows) {
    rate_hash = fnv_fold(rate_hash, row.vp_index);
    rate_hash = fnv_fold(rate_hash, row.responses_low);
    rate_hash = fnv_fold(rate_hash, row.responses_high);
  }
  EXPECT_EQ(rate.rows.size(), 12u);
  EXPECT_EQ(rate.excluded_vps, 2u);
  EXPECT_EQ(rate.probed_destinations, 562u);
  EXPECT_EQ(rate_hash, 0xd6ecd4ce83a754acULL);
  EXPECT_GT(net.counters().dropped_rate_limit, 0u);  // the kill path ran
  expect_counters(net.counters(), {.sent = 7868,
                                   .delivered = 6043,
                                   .responses = 5727,
                                   .dropped_loss = 470,
                                   .dropped_filter = 1118,
                                   .dropped_rate_limit = 553,
                                   .dropped_ttl = 0,
                                   .dropped_unroutable = 0,
                                   .ttl_errors = 0,
                                   .port_unreachables = 0});

  const auto ttl = ttl_study(testbed, campaign);
  std::uint64_t ttl_hash = 1469598103934665603ULL;
  for (const auto& row : ttl.rows) {
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(row.ttl), row.near_sent,
          row.near_replied, row.near_expired, row.far_sent, row.far_replied,
          row.far_expired}) {
      ttl_hash = fnv_fold(ttl_hash, v);
    }
  }
  EXPECT_EQ(ttl.rows.size(), 22u);
  EXPECT_EQ(ttl.stats.probes_sent, 885u);
  EXPECT_EQ(ttl.stats.probes_saved, 1851u);
  EXPECT_EQ(ttl_hash, 0x1339a09602ac6709ULL);
  expect_counters(net.counters(), {.sent = 8753,
                                   .delivered = 6670,
                                   .responses = 6529,
                                   .dropped_loss = 519,
                                   .dropped_filter = 1118,
                                   .dropped_rate_limit = 586,
                                   .dropped_ttl = 1,
                                   .dropped_unroutable = 0,
                                   .ttl_errors = 189,
                                   .port_unreachables = 0});
}

}  // namespace
}  // namespace rr::measure

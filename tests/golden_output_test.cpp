// Golden-file regression for the seed-default headline outputs: the Table 1
// text rendering and the Figure 1 series blocks for the test-scale world,
// plus the trace census's hashes and counts pinned in place.
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
#include "measure/reachability.h"
#include "measure/testbed.h"
#include "measure/trace_census.h"
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

}  // namespace
}  // namespace rr::measure

// Differential harness: the same campaign run under a fault plan must obey
// the paper's classification invariants relative to the no-fault baseline.
//
//   * zero-fault plan -> bit-identical results (dataset-level equality);
//   * any plan -> faults only *remove* evidence: no destination gains
//     ping responsiveness, RR responsiveness, or RR reachability;
//   * addresses that appear in RR records only under faults are provably
//     bogus (0.0.0.0 from truncation, class E from garbling/byzantine
//     stamps) — a fault can never plant a plausible hop;
//   * Table 1 row sums stay conserved, and the simulator's aggregate
//     counters stay mutually consistent (every response has a cause).
//
// The same checks back the offline `rr-analyze --diff` mode; this harness
// proves them at fault rates 1% and 10% (the acceptance rates) plus an
// aggressive 25% as margin.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "measure/campaign.h"
#include "measure/classify.h"
#include "measure/testbed.h"
#include "sim/fault.h"

namespace rr::measure {
namespace {

class DifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TestbedConfig config;
    config.topo_params = topo::TopologyParams::test_scale();
    config.topo_params.seed = 1701;
    testbed_ = new Testbed{config};
    baseline_ = new Campaign{Campaign::run(*testbed_)};
  }
  static void TearDownTestSuite() {
    delete baseline_;
    baseline_ = nullptr;
    delete testbed_;
    testbed_ = nullptr;
  }

  static Campaign run_with_rate(double rate) {
    CampaignConfig config;
    config.faults = sim::FaultParams::uniform(rate);
    return Campaign::run(*testbed_, config);
  }

  /// Faults may only move classifications toward "less reachable".
  static void expect_monotone(const Campaign& base, const Campaign& faulted) {
    ASSERT_EQ(base.num_destinations(), faulted.num_destinations());
    for (std::size_t d = 0; d < base.num_destinations(); ++d) {
      EXPECT_FALSE(!base.ping_responsive(d) && faulted.ping_responsive(d))
          << "dest " << d << " gained ping responsiveness under faults";
      EXPECT_FALSE(!base.rr_responsive(d) && faulted.rr_responsive(d))
          << "dest " << d << " gained RR responsiveness under faults";
      EXPECT_FALSE(!base.rr_reachable(d) && faulted.rr_reachable(d))
          << "dest " << d << " gained RR reachability under faults";
    }
  }

  /// Any address recorded only under faults must be provably bogus:
  /// 0.0.0.0 (a truncated record) or class E (garble/byzantine stamps).
  static void expect_no_plausible_planted_addresses(const Campaign& base,
                                                    const Campaign& faulted) {
    for (std::size_t d = 0; d < base.num_destinations(); ++d) {
      const auto& known = base.recorded_union(d);
      for (const auto addr : faulted.recorded_union(d)) {
        if (std::find(known.begin(), known.end(), addr) != known.end()) {
          continue;
        }
        const bool zero = addr.value() == 0;
        const bool class_e = (addr.value() & 0xF0000000u) == 0xF0000000u;
        EXPECT_TRUE(zero || class_e)
            << "dest " << d << ": fault planted plausible address "
            << addr.to_string();
      }
    }
  }

  /// Per-type Table 1 rows must sum to the Total row in every column.
  static void expect_table_conserved(const Campaign& campaign) {
    const auto table = build_response_table(campaign);
    const auto check = [](const auto& rows, const char* axis) {
      std::uint64_t probed = 0, ping = 0, rr = 0;
      for (std::size_t i = 1; i < rows.size(); ++i) {
        probed += rows[i].probed;
        ping += rows[i].ping_responsive;
        rr += rows[i].rr_responsive;
      }
      EXPECT_EQ(probed, rows[0].probed) << axis;
      EXPECT_EQ(ping, rows[0].ping_responsive) << axis;
      EXPECT_EQ(rr, rows[0].rr_responsive) << axis;
    };
    check(table.by_ip, "by-IP");
    check(table.by_as, "by-AS");
  }

  /// Aggregate counter consistency: every outcome is accounted for. Reply
  /// legs share the drop counters with forward legs, so the relations are
  /// inequalities, not equalities.
  static void expect_counters_consistent(const sim::NetCounters& c) {
    EXPECT_LE(c.delivered + c.ttl_errors, c.sent);
    EXPECT_LE(c.responses, c.delivered + c.ttl_errors);
    EXPECT_LE(c.port_unreachables, c.delivered);
    EXPECT_LE(c.sent, c.delivered + c.ttl_errors + c.dropped_loss +
                          c.dropped_filter + c.dropped_rate_limit +
                          c.dropped_ttl + c.dropped_unroutable);
  }

  static Testbed* testbed_;
  static Campaign* baseline_;
};

Testbed* DifferentialTest::testbed_ = nullptr;
Campaign* DifferentialTest::baseline_ = nullptr;

TEST_F(DifferentialTest, ZeroFaultPlanDatasetIsBitIdentical) {
  CampaignConfig config;
  config.faults = sim::FaultParams{};  // explicit plan, all rates zero
  const Campaign with_plan = Campaign::run(*testbed_, config);
  const auto base_ds = data::CampaignDataset::from_campaign(*baseline_, "a");
  auto plan_ds = data::CampaignDataset::from_campaign(with_plan, "a");
  EXPECT_EQ(base_ds, plan_ds);
  EXPECT_EQ(testbed_->network().fault_counters().total(), 0u);
}

TEST_F(DifferentialTest, InvariantsHoldAtOnePercent) {
  const Campaign faulted = run_with_rate(0.01);
  EXPECT_GT(testbed_->network().fault_counters().total(), 0u);
  expect_monotone(*baseline_, faulted);
  expect_no_plausible_planted_addresses(*baseline_, faulted);
  expect_table_conserved(faulted);
  expect_counters_consistent(testbed_->network().counters());
}

TEST_F(DifferentialTest, InvariantsHoldAtTenPercent) {
  const Campaign faulted = run_with_rate(0.10);
  EXPECT_GT(testbed_->network().fault_counters().total(), 0u);
  expect_monotone(*baseline_, faulted);
  expect_no_plausible_planted_addresses(*baseline_, faulted);
  expect_table_conserved(faulted);
  expect_counters_consistent(testbed_->network().counters());
}

TEST_F(DifferentialTest, InvariantsHoldUnderAggressiveFaults) {
  const Campaign faulted = run_with_rate(0.25);
  expect_monotone(*baseline_, faulted);
  expect_no_plausible_planted_addresses(*baseline_, faulted);
  expect_table_conserved(faulted);
  expect_counters_consistent(testbed_->network().counters());
  // At 25% the plan must visibly bite: strictly fewer RR-responsive
  // destinations than baseline (the small world has plenty of them).
  std::size_t base_rr = 0, faulted_rr = 0;
  for (std::size_t d = 0; d < baseline_->num_destinations(); ++d) {
    base_rr += baseline_->rr_responsive(d) ? 1 : 0;
    faulted_rr += faulted.rr_responsive(d) ? 1 : 0;
  }
  EXPECT_LT(faulted_rr, base_rr);
}

// Every fault kind individually preserves monotonicity (catches a kind
// whose violation a uniform mix might statistically mask).
TEST_F(DifferentialTest, EachFaultKindAloneIsMonotone) {
  struct Knob {
    const char* name;
    double sim::FaultParams::* rate;
  };
  const Knob knobs[] = {
      {"rr_truncate", &sim::FaultParams::rr_truncate},
      {"rr_garble", &sim::FaultParams::rr_garble},
      {"checksum_corrupt", &sim::FaultParams::checksum_corrupt},
      {"option_strip", &sim::FaultParams::option_strip},
      {"byzantine_stamp", &sim::FaultParams::byzantine_stamp},
      {"quote_mangle", &sim::FaultParams::quote_mangle},
      {"storm", &sim::FaultParams::storm},
  };
  for (const auto& knob : knobs) {
    SCOPED_TRACE(knob.name);
    CampaignConfig config;
    config.faults.*(knob.rate) = 0.2;
    const Campaign faulted = Campaign::run(*testbed_, config);
    expect_monotone(*baseline_, faulted);
    expect_no_plausible_planted_addresses(*baseline_, faulted);
    expect_table_conserved(faulted);
  }
}

// ----------------------------------------------------- fault plan parsing

TEST(FaultPlanParse, AcceptsNoneUniformAndKnobs) {
  EXPECT_FALSE(sim::parse_fault_plan("none").any());

  const sim::FaultParams uniform = sim::parse_fault_plan("0.01");
  EXPECT_DOUBLE_EQ(uniform.rr_garble, 0.01);
  EXPECT_DOUBLE_EQ(uniform.storm, 0.01);
  EXPECT_EQ(uniform, sim::FaultParams::uniform(0.01));
  EXPECT_EQ(sim::parse_fault_plan("uniform:0.01"), uniform);

  const sim::FaultParams knobs =
      sim::parse_fault_plan("rr_garble=0.1,storm=0.05,seed=7");
  EXPECT_DOUBLE_EQ(knobs.rr_garble, 0.1);
  EXPECT_DOUBLE_EQ(knobs.storm, 0.05);
  EXPECT_EQ(knobs.seed, 7u);
  EXPECT_DOUBLE_EQ(knobs.rr_truncate, 0.0);

  const sim::FaultParams durations =
      sim::parse_fault_plan("storm_period_s=2,reorder_delay_s=0.125");
  EXPECT_DOUBLE_EQ(durations.storm_period_s, 2.0);
  EXPECT_DOUBLE_EQ(durations.reorder_delay_s, 0.125);
}

TEST(FaultPlanParse, RejectsGarbage) {
  for (const char* spec :
       {"1.5", "-0.1", "bogus_knob=0.1", "rr_garble=abc", "rr_garble",
        "uniform:x",
        // NaN fails no `rate < 0 || rate > 1` test, so it must be caught
        // as non-finite.
        "nan", "uniform:nan", "inf",
        // Per-knob rates are range-checked like the uniform rate.
        "rr_garble=1.5", "storm=7", "rr_garble=-0.5", "rr_truncate=nan",
        // Durations must be finite and above zero: a negative reorder
        // delay would deliver a reordered reply early.
        "reorder_delay_s=-1", "reorder_delay_s=0", "storm_period_s=0",
        "storm_period_s=nan", "storm_period_s=inf",
        // Seeds are unsigned.
        "seed=-1", "seed=x"}) {
    SCOPED_TRACE(spec);
    try {
      (void)sim::parse_fault_plan(spec);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string_view{e.what()}.substr(0, 14), "--fault-plan: ")
          << e.what();
    }
  }
}

TEST(FaultPlanParse, InertPlanNeverFires) {
  const sim::FaultPlan plan;  // default constructed
  EXPECT_FALSE(plan.enabled());
  for (std::uint64_t flow = 0; flow < 64; ++flow) {
    EXPECT_FALSE(plan.truncate_rr(flow, 0, 3));
    EXPECT_FALSE(plan.corrupt_checksum(flow, 1, 0));
    EXPECT_FALSE(plan.storm_active(static_cast<topo::RouterId>(flow), 1.0));
  }
}

TEST(FaultPlanParse, DrawsAreDeterministicPureFunctions) {
  const auto params = sim::FaultParams::uniform(0.5);
  const sim::FaultPlan a{params};
  const sim::FaultPlan b{params};
  int fired = 0;
  for (std::uint64_t flow = 0; flow < 256; ++flow) {
    EXPECT_EQ(a.garble_rr(flow, 0, 2), b.garble_rr(flow, 0, 2));
    EXPECT_EQ(a.storm_active(3, 0.7), b.storm_active(3, 0.7));
    fired += a.garble_rr(flow, 0, 2) ? 1 : 0;
  }
  // ~50% rate: both outcomes occur.
  EXPECT_GT(fired, 64);
  EXPECT_LT(fired, 192);

  // Different seeds give different schedules.
  auto reseeded = params;
  reseeded.seed ^= 0xDEAD;
  const sim::FaultPlan c{reseeded};
  int differs = 0;
  for (std::uint64_t flow = 0; flow < 256; ++flow) {
    differs += a.garble_rr(flow, 0, 2) != c.garble_rr(flow, 0, 2) ? 1 : 0;
  }
  EXPECT_GT(differs, 0);
}

TEST(FaultPlanParse, BogusAddressesAreAlwaysClassE) {
  const sim::FaultPlan plan{sim::FaultParams::uniform(0.1)};
  for (std::uint64_t key = 0; key < 4096; ++key) {
    const auto addr = plan.bogus_address(key);
    EXPECT_EQ(addr.value() & 0xF0000000u, 0xF0000000u) << key;
  }
}

}  // namespace
}  // namespace rr::measure

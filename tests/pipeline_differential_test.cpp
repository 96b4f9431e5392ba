// Pipeline conformance pins.
//
// The compiled element dataplane (sim/pipeline.h) is *bit-identical* to
// the branch-forest hop walk it replaced — not statistically similar. The
// pins below are that walk's output on this file's world, captured before
// it was deleted: a whole campaign's frozen dataset content_hash plus
// every NetCounters field, at fault rates {0, 1%, 10%}. The pipeline must
// reproduce them at worker threads {1, 2, 8}. Alongside the pins: a
// randomized element-composition property test — arbitrary valid element
// chains over real packets must preserve the dataplane's conservation
// invariants (TTL monotonicity, option geometry bounds, deferred
// token-bucket event accounting) even for compositions the run-list
// compiler would never emit.
//
// The per-element spec tables live in tests/element_test.cpp; when a pin
// fails, that file says which element diverged. A deliberate behaviour
// change that moves a pin must say so in its change notes: the failure
// message prints the measured row in source form, ready to replace the
// stale one.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "measure/campaign.h"
#include "measure/testbed.h"
#include "packet/view.h"
#include "packet/wire.h"
#include "sim/element.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/pipeline.h"

namespace rr::measure {
namespace {

/// One pinned campaign: the retired branch-forest walk's output on the
/// fixture world (captured at threads 1; it agreed at 2 and 8).
struct CampaignPin {
  double fault_rate = 0.0;
  std::uint64_t content_hash = 0;
  sim::NetCounters counters;
};

constexpr CampaignPin kNoFaults{
    0.0, 0xc9b783d26a6007ff,
    {.sent = 15726, .delivered = 12757, .responses = 8056,
     .dropped_loss = 710, .dropped_filter = 2281, .dropped_rate_limit = 727,
     .dropped_ttl = 0, .dropped_unroutable = 0, .ttl_errors = 0,
     .port_unreachables = 0}};
constexpr CampaignPin kOnePercentFaults{
    0.01, 0x2f9b324d038a61f8,
    {.sent = 15926, .delivered = 10399, .responses = 5869,
     .dropped_loss = 2818, .dropped_filter = 2083, .dropped_rate_limit = 1990,
     .dropped_ttl = 0, .dropped_unroutable = 0, .ttl_errors = 0,
     .port_unreachables = 0}};
constexpr CampaignPin kTenPercentFaults{
    0.10, 0x6fa4d5cfd67108b8,
    {.sent = 16999, .delivered = 2221, .responses = 524,
     .dropped_loss = 9090, .dropped_filter = 1059, .dropped_rate_limit = 5712,
     .dropped_ttl = 0, .dropped_unroutable = 0, .ttl_errors = 0,
     .port_unreachables = 0}};

/// `pin` as source text, for re-pinning from a failure message.
std::string pin_source(const CampaignPin& pin) {
  const sim::NetCounters& c = pin.counters;
  std::ostringstream out;
  out << "{" << pin.fault_rate << ", 0x" << std::hex << pin.content_hash
      << std::dec << ", {.sent = " << c.sent << ", .delivered = "
      << c.delivered << ", .responses = " << c.responses
      << ", .dropped_loss = " << c.dropped_loss << ", .dropped_filter = "
      << c.dropped_filter << ", .dropped_rate_limit = "
      << c.dropped_rate_limit << ", .dropped_ttl = " << c.dropped_ttl
      << ", .dropped_unroutable = " << c.dropped_unroutable
      << ", .ttl_errors = " << c.ttl_errors << ", .port_unreachables = "
      << c.port_unreachables << "}}";
  return out.str();
}

class PipelineDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TestbedConfig config;
    config.topo_params = topo::TopologyParams::test_scale();
    config.topo_params.seed = 1701;
    testbed_ = new Testbed{config};
  }
  static void TearDownTestSuite() {
    delete testbed_;
    testbed_ = nullptr;
  }

  /// The pipeline at every thread count against one pin; runs agreeing
  /// with the same pin also proves they agree with each other. The
  /// counters are part of the pin: the pipeline must charge every drop to
  /// the cause the branch forest charged.
  static void expect_pipeline_matches(const CampaignPin& pin) {
    for (const int threads : {1, 2, 8}) {
      CampaignConfig config;
      config.threads = threads;
      if (pin.fault_rate > 0.0) {
        config.faults = sim::FaultParams::uniform(pin.fault_rate);
      }
      Campaign campaign = Campaign::run(*testbed_, config);
      const CampaignPin measured{
          pin.fault_rate,
          data::CampaignDataset::from_campaign(std::move(campaign), "diff")
              .content_hash(),
          testbed_->network().counters()};
      SCOPED_TRACE(testing::Message() << "threads " << threads
                                      << "; measured pin "
                                      << pin_source(measured));
      EXPECT_EQ(measured.content_hash, pin.content_hash);
      EXPECT_EQ(measured.counters, pin.counters);
    }
  }

  static Testbed* testbed_;
};

Testbed* PipelineDifferentialTest::testbed_ = nullptr;

// The test names keep the claim they were written for: the pipeline and
// the branch-forest walk are bit-identical, now checked against the
// retired engine's pinned output.
TEST_F(PipelineDifferentialTest, EnginesBitIdenticalWithoutFaults) {
  expect_pipeline_matches(kNoFaults);
}

TEST_F(PipelineDifferentialTest, EnginesBitIdenticalAtOnePercentFaults) {
  expect_pipeline_matches(kOnePercentFaults);
}

TEST_F(PipelineDifferentialTest, EnginesBitIdenticalAtTenPercentFaults) {
  expect_pipeline_matches(kTenPercentFaults);
}

TEST_F(PipelineDifferentialTest, InstalledFaultPlanRecompilesRunLists) {
  sim::Network& net = testbed_->network();
  CampaignConfig config;
  config.faults = sim::FaultParams::uniform(0.01);
  (void)Campaign::run(*testbed_, config);
  // A faulted campaign compiles fault elements in (and with them the loss
  // of the trusted-stamp licence)...
  EXPECT_TRUE(net.pipeline().config().faults_enabled);
  const sim::PackedRunList faulted =
      net.pipeline().list(sim::HopRow::kStamps, /*has_options=*/true);
  EXPECT_EQ(sim::run_list_at(faulted, 0), sim::ElementOp::kFaultInject);
  // ...and the next plan-less campaign's install recompiles the table
  // back to the fused fault-free form.
  (void)Campaign::run(*testbed_);
  EXPECT_FALSE(net.pipeline().config().faults_enabled);
  const sim::PackedRunList hot =
      net.pipeline().list(sim::HopRow::kStamps, /*has_options=*/true);
  const std::size_t hot_steps = sim::run_list_size(hot);
  ASSERT_GT(hot_steps, 0u);
  EXPECT_NE(sim::run_list_at(hot, 0), sim::ElementOp::kFaultInject);
  EXPECT_EQ(sim::run_list_at(hot, hot_steps - 1),
            sim::ElementOp::kTtlStampTrusted);
}

// ------------------------------------------- randomized composition property
//
// Arbitrary valid element chains (not just the ones the compiler emits)
// executed over real serialized ping-RR packets. Whatever the chain, the
// dataplane's conservation invariants must hold at every hop:
//
//   * TTL monotonicity: the TTL byte never increases;
//   * option geometry bounds: header length, option offsets, and total
//     length never change mid-walk; RR fill never exceeds capacity; the
//     header re-validates (checksum included) after every hop;
//   * token-bucket accounting: in deferred mode every CoPP consume is
//     recorded with the hop's exact (router, time, leg), times are
//     nondecreasing within the leg, and a hop appends at most the number
//     of gate elements in its chain.

struct ChainPools {
  // With fault elements present, only the fault-aware stamp path is valid.
  static constexpr sim::ElementOp kFaulted[] = {
      sim::ElementOp::kFaultInject, sim::ElementOp::kBaseLoss,
      sim::ElementOp::kSlowPathLoss, sim::ElementOp::kStormGate,
      sim::ElementOp::kCoppGate, sim::ElementOp::kEdgeFilter,
      sim::ElementOp::kTtl, sim::ElementOp::kStamp,
  };
  // Fault-free chains may use the trusted (and fused) fast paths.
  static constexpr sim::ElementOp kTrusted[] = {
      sim::ElementOp::kBaseLoss, sim::ElementOp::kSlowPathLoss,
      sim::ElementOp::kCoppGate, sim::ElementOp::kEdgeFilter,
      sim::ElementOp::kTtl, sim::ElementOp::kStampTrusted,
      sim::ElementOp::kTtlStampTrusted,
  };
};

TEST(PipelineComposition, RandomChainsPreserveConservationInvariants) {
  const sim::FaultPlan plan{sim::FaultParams::uniform(0.2)};
  sim::ElementSet elements;
  elements.fault.plan = &plan;
  elements.storm.plan = &plan;
  elements.stamp.plan = &plan;
  elements.base_loss.probability = 0.2;
  elements.slow_loss.probability = 0.2;

  std::mt19937_64 rng{0x5EED1701};
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    const bool faulted = (rng() & 1) != 0;
    const std::span<const sim::ElementOp> pool =
        faulted ? std::span<const sim::ElementOp>{ChainPools::kFaulted}
                : std::span<const sim::ElementOp>{ChainPools::kTrusted};
    sim::PackedRunList list = 0;
    const std::size_t chain_length = 1 + rng() % 8;
    std::size_t gates = 0;
    for (std::size_t k = 0; k < chain_length; ++k) {
      const sim::ElementOp op = pool[rng() % pool.size()];
      gates += op == sim::ElementOp::kCoppGate ? 1 : 0;
      list = run_list_append(list, op);
    }

    std::vector<std::uint8_t> bytes;
    pkt::build_ping(bytes, net::IPv4Address{10, 0, 0, 1},
                    net::IPv4Address{10, 0, 0, 2}, 7, 1,
                    static_cast<std::uint8_t>(2 + rng() % 62),
                    static_cast<int>(1 + rng() % 9));
    pkt::Ipv4HeaderView view{bytes};
    sim::NetCounters counters;
    sim::FaultCounters fault_counters;
    sim::ProbeTrace trace;
    sim::HopContext ctx;
    ctx.view = &view;
    ctx.bytes = bytes;
    ctx.has_options = true;
    ctx.flow = rng();
    ctx.src_as = 1;
    ctx.dst_as = 2;
    ctx.counters = &counters;
    ctx.fault_counters = &fault_counters;
    ctx.trace = &trace;

    const auto baseline = pkt::inspect_header(bytes);
    ASSERT_TRUE(baseline.has_value());
    const auto rr_capacity = pkt::rr_wire(bytes, baseline->rr_offset).capacity;

    double last_event_time = 0.0;
    for (std::size_t hop = 0; hop < 12; ++hop) {
      ctx.router = static_cast<topo::RouterId>(hop % 4);
      ctx.egress = net::IPv4Address{10, 1, 0,
                                    static_cast<std::uint8_t>(hop + 1)};
      ctx.as_id = static_cast<std::uint32_t>(1 + hop % 3);
      ctx.hop = hop;
      ctx.now = 0.05 * static_cast<double>(hop);

      const std::uint8_t ttl_before = bytes[8];
      const std::size_t events_before = trace.events.size();
      const sim::HopVerdict verdict = run_hop(list, elements, ctx);

      EXPECT_LE(bytes[8], ttl_before) << "TTL increased at hop " << hop;
      const auto info = pkt::inspect_header(bytes);
      ASSERT_TRUE(info.has_value()) << "header invalid after hop " << hop;
      EXPECT_EQ(info->header_bytes, baseline->header_bytes);
      EXPECT_EQ(info->total_length, baseline->total_length);
      // Faults may *remove* the RR option (strip blanks it to NOPs) but
      // nothing may move it or grow it past its capacity.
      if (info->rr_offset != 0) {
        EXPECT_EQ(info->rr_offset, baseline->rr_offset);
        EXPECT_LE(pkt::rr_wire(bytes, info->rr_offset).filled, rr_capacity);
      }

      EXPECT_LE(trace.events.size(), events_before + gates);
      for (std::size_t e = events_before; e < trace.events.size(); ++e) {
        EXPECT_EQ(trace.events[e].router, ctx.router);
        EXPECT_EQ(trace.events[e].time, ctx.now);
        EXPECT_FALSE(trace.events[e].reply_leg);
        EXPECT_GE(trace.events[e].time, last_event_time);
        last_event_time = trace.events[e].time;
      }
      if (verdict != sim::HopVerdict::kContinue) break;
    }
  }
}

}  // namespace
}  // namespace rr::measure

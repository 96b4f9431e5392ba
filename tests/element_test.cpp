// Element-level conformance kit for the dataplane (sim/element.h).
//
// Each behaviour element is exercised in isolation against a hand-built
// HopContext over a real serialized ping-RR buffer — spec tables for the
// verdict/counter/byte effects each element owes the pipeline, independent
// of Network::walk. The run-list compiler (sim/pipeline.h) gets the same
// treatment: exact expected element sequences per personality, including
// every compile-time elision and the TTL+stamp peephole fusion.
//
// The end-to-end claim (whole campaigns reproduce the pinned hashes and
// counters of the retired branch-forest walk) lives in
// tests/pipeline_differential_test.cpp; this file is the unit layer that
// makes a pin failure there debuggable.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "netbase/address.h"
#include "packet/view.h"
#include "packet/wire.h"
#include "sim/behavior.h"
#include "sim/element.h"
#include "sim/fault.h"
#include "sim/pipeline.h"

namespace rr::sim {
namespace {

constexpr net::IPv4Address kSrc{10, 0, 0, 1};
constexpr net::IPv4Address kDst{10, 0, 0, 2};
constexpr net::IPv4Address kEgress{10, 1, 2, 3};

std::vector<std::uint8_t> make_ping_rr(std::uint8_t ttl = 64,
                                       int rr_slots = 9) {
  std::vector<std::uint8_t> out;
  pkt::build_ping(out, kSrc, kDst, /*identifier=*/7, /*sequence=*/1, ttl,
                  rr_slots);
  return out;
}

/// Internet-checksum fold over the IPv4 header; a correct stored checksum
/// makes this 0xFFFF. Independent of the incremental-update code under
/// test, so it catches a delta bug both engines could share.
std::uint16_t header_fold(std::span<const std::uint8_t> bytes) {
  const std::size_t header_bytes = (bytes[0] & 0x0F) * std::size_t{4};
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < header_bytes; i += 2) {
    sum += static_cast<std::uint32_t>(bytes[i]) << 8 | bytes[i + 1];
  }
  while ((sum >> 16) != 0) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(sum);
}

/// A packet + context rig: one leg's HopContext over a fresh buffer and a
/// fresh trace, with per-hop fields filled in as the walk loop would.
struct Rig {
  explicit Rig(std::vector<std::uint8_t> packet)
      : bytes(std::move(packet)), view(bytes) {
    ctx.view = &view;
    ctx.bytes = bytes;
    ctx.has_options = true;
    ctx.flow = 0x1234;
    ctx.src_as = 1;
    ctx.dst_as = 2;
    ctx.counters = &counters;
    ctx.fault_counters = &fault_counters;
    ctx.trace = &trace;
    ctx.router = 3;
    ctx.egress = kEgress;
    ctx.as_id = 5;
    ctx.hop = 2;
    ctx.now = 1.5;
  }

  std::vector<std::uint8_t> bytes;
  pkt::Ipv4HeaderView view;
  NetCounters counters;
  FaultCounters fault_counters;
  ProbeTrace trace;
  HopContext ctx;
};

std::uint64_t drops(const NetCounters& c) {
  return c.dropped_loss + c.dropped_filter + c.dropped_rate_limit +
         c.dropped_ttl + c.dropped_unroutable;
}

// ------------------------------------------------------- run-list packing

TEST(RunList, PacksAppendsAndTerminates) {
  PackedRunList list = 0;
  EXPECT_EQ(run_list_size(list), 0u);
  const ElementOp ops[] = {
      ElementOp::kFaultInject, ElementOp::kBaseLoss, ElementOp::kSlowPathLoss,
      ElementOp::kStormGate,   ElementOp::kCoppGate, ElementOp::kEdgeFilter,
      ElementOp::kTtl,         ElementOp::kStamp,
  };
  for (const ElementOp op : ops) list = run_list_append(list, op);
  ASSERT_EQ(run_list_size(list), std::size(ops));
  for (std::size_t k = 0; k < std::size(ops); ++k) {
    EXPECT_EQ(run_list_at(list, k), ops[k]) << "step " << k;
  }
  EXPECT_EQ(run_list_at(list, std::size(ops)), ElementOp::kEnd);
}

// --------------------------------------------------- compiler spec tables

std::vector<ElementOp> steps(PackedRunList list) {
  std::vector<ElementOp> out;
  for (std::size_t k = 0; k < run_list_size(list); ++k) {
    out.push_back(run_list_at(list, k));
  }
  return out;
}

PackedRunList list_for(const RunTable& table, std::uint8_t flags,
                       bool has_options) {
  return table[(has_options ? HopRow::kNumPersonalities : 0) + flags];
}

TEST(CompileRunTable, FaultFreeZeroLossPersonalities) {
  const RunTable table = compile_run_table(PipelineConfig{});
  using E = ElementOp;
  // Plain packets: the whole slow path is elided; only TTL remains — and
  // not even that for hidden routers.
  EXPECT_EQ(steps(list_for(table, 0, false)), (std::vector<E>{E::kTtl}));
  EXPECT_EQ(steps(list_for(table, HopRow::kHidden, false)),
            (std::vector<E>{}));
  // The census's hottest personality: visible stamping router, options
  // packet, no faults — fused to a single element.
  EXPECT_EQ(steps(list_for(table, HopRow::kStamps, true)),
            (std::vector<E>{E::kTtlStampTrusted}));
  // Hidden stamper: no TTL element, so no fusion partner — trusted stamp.
  EXPECT_EQ(steps(list_for(table, HopRow::kHidden | HopRow::kStamps, true)),
            (std::vector<E>{E::kStampTrusted}));
  // Non-stamping visible router on the options path: just TTL.
  EXPECT_EQ(steps(list_for(table, 0, true)), (std::vector<E>{E::kTtl}));
  // CoPP gate precedes the fused TTL+stamp.
  EXPECT_EQ(
      steps(list_for(table, HopRow::kStamps | HopRow::kRateLimited, true)),
      (std::vector<E>{E::kCoppGate, E::kTtlStampTrusted}));
  // A transit filter shadows the edge filter.
  EXPECT_EQ(steps(list_for(table, HopRow::kFiltersEdge, true)),
            (std::vector<E>{E::kEdgeFilter, E::kTtl}));
  EXPECT_EQ(steps(list_for(
                table, HopRow::kFiltersTransit | HopRow::kFiltersEdge, true)),
            (std::vector<E>{E::kTransitFilter, E::kTtl}));
}

TEST(CompileRunTable, LossGatesCompiledOnlyWhenProbable) {
  PipelineConfig config;
  config.base_loss = 0.01;
  config.options_extra_loss = 0.02;
  const RunTable table = compile_run_table(config);
  using E = ElementOp;
  EXPECT_EQ(steps(list_for(table, 0, false)),
            (std::vector<E>{E::kBaseLoss, E::kTtl}));
  EXPECT_EQ(steps(list_for(table, HopRow::kStamps, true)),
            (std::vector<E>{E::kBaseLoss, E::kSlowPathLoss,
                            E::kTtlStampTrusted}));
}

TEST(CompileRunTable, FaultPlanDisablesTrustAndFusion) {
  PipelineConfig config;
  config.faults_enabled = true;
  const RunTable table = compile_run_table(config);
  using E = ElementOp;
  EXPECT_EQ(steps(list_for(table, 0, false)),
            (std::vector<E>{E::kFaultInject, E::kTtl}));
  EXPECT_EQ(steps(list_for(table, HopRow::kStamps, true)),
            (std::vector<E>{E::kFaultInject, E::kStormGate, E::kTtl,
                            E::kStamp}));
  // The trusted fast paths are licensed by the *absence* of fault
  // elements; no faulted run list may contain them.
  for (const PackedRunList list : table) {
    for (std::size_t k = 0; k < run_list_size(list); ++k) {
      EXPECT_NE(run_list_at(list, k), ElementOp::kStampTrusted);
      EXPECT_NE(run_list_at(list, k), ElementOp::kTtlStampTrusted);
    }
  }
}

TEST(PersonalityFlags, FoldsRouterAndAsBehaviour) {
  RouterBehavior rb;
  AsBehavior ab;
  EXPECT_EQ(personality_flags(rb, ab), HopRow::kStamps);
  rb.stamps = false;
  rb.hidden = true;
  rb.options_rate_pps = 100.0f;
  ab.filters_transit = true;
  ab.filters_edge = true;
  EXPECT_EQ(personality_flags(rb, ab),
            HopRow::kHidden | HopRow::kRateLimited | HopRow::kFiltersTransit |
                HopRow::kFiltersEdge);
}

// ------------------------------------------------------ TTL / loss / filter

TEST(TtlDecrementElement, DecrementsExpiresAndDropsSpent) {
  const TtlDecrementElement ttl;
  {
    Rig rig{make_ping_rr(64)};
    EXPECT_EQ(ttl.process(rig.ctx), HopVerdict::kContinue);
    EXPECT_EQ(rig.bytes[8], 63);
    EXPECT_EQ(header_fold(rig.bytes), 0xFFFF);
    EXPECT_EQ(drops(rig.counters), 0u);
  }
  {
    Rig rig{make_ping_rr(1)};  // expires at this hop: Time-Exceeded
    EXPECT_EQ(ttl.process(rig.ctx), HopVerdict::kExpire);
    EXPECT_EQ(drops(rig.counters), 0u);
  }
  {
    Rig rig{make_ping_rr(1)};  // a doomed packet expires silently
    rig.ctx.doomed = true;
    EXPECT_EQ(ttl.process(rig.ctx), HopVerdict::kDrop);
    EXPECT_EQ(drops(rig.counters), 0u);
  }
  {
    Rig rig{make_ping_rr(0)};  // already spent: anonymous drop
    EXPECT_EQ(ttl.process(rig.ctx), HopVerdict::kDrop);
    EXPECT_EQ(rig.counters.dropped_ttl, 1u);
  }
}

TEST(LossElements, DegenerateRatesAndDoomCharging) {
  BaseLossElement base;
  Rig rig{make_ping_rr()};
  base.probability = 0.0;
  EXPECT_EQ(base.process(rig.ctx), HopVerdict::kContinue);
  base.probability = 1.0;
  EXPECT_EQ(base.process(rig.ctx), HopVerdict::kDrop);
  EXPECT_EQ(rig.counters.dropped_loss, 1u);
  rig.ctx.doomed = true;  // doom already charged its drop at the fault hop
  EXPECT_EQ(base.process(rig.ctx), HopVerdict::kDrop);
  EXPECT_EQ(rig.counters.dropped_loss, 1u);
}

TEST(LossElements, DrawsArePureAndPurposeIndependent) {
  BaseLossElement base;
  base.probability = 0.5;
  SlowPathLossElement slow;
  slow.probability = 0.5;
  Rig a{make_ping_rr()};
  Rig b{make_ping_rr()};
  int base_drops = 0;
  int diverged = 0;
  for (std::uint64_t flow = 0; flow < 256; ++flow) {
    a.ctx.flow = b.ctx.flow = flow;
    a.ctx.doomed = b.ctx.doomed = false;
    const HopVerdict base_a = base.process(a.ctx);
    EXPECT_EQ(base_a, base.process(b.ctx));  // pure function of the key
    base_drops += base_a == HopVerdict::kDrop ? 1 : 0;
    diverged += (base_a == slow.process(a.ctx)) ? 0 : 1;
  }
  EXPECT_GT(base_drops, 64);  // ~50%: both outcomes occur...
  EXPECT_LT(base_drops, 192);
  EXPECT_GT(diverged, 0);  // ...and the two purposes draw independently
}

TEST(FilterElements, TransitAlwaysEdgeOnlyAtEnds) {
  const TransitFilterElement transit;
  const EdgeFilterElement edge;
  Rig rig{make_ping_rr()};
  rig.ctx.as_id = 99;  // neither source nor destination AS
  EXPECT_EQ(edge.process(rig.ctx), HopVerdict::kContinue);
  EXPECT_EQ(transit.process(rig.ctx), HopVerdict::kDrop);
  EXPECT_EQ(rig.counters.dropped_filter, 1u);
  rig.ctx.as_id = rig.ctx.dst_as;
  EXPECT_EQ(edge.process(rig.ctx), HopVerdict::kDrop);
  EXPECT_EQ(rig.counters.dropped_filter, 2u);
  rig.ctx.as_id = rig.ctx.src_as;
  rig.ctx.doomed = true;  // doomed drops are never double-charged
  EXPECT_EQ(edge.process(rig.ctx), HopVerdict::kDrop);
  EXPECT_EQ(rig.counters.dropped_filter, 2u);
}

// ------------------------------------------------------------- CoPP gate

TEST(CoppGateElement, RecordsEveryConsumeAndNeverDrops) {
  const CoppGateElement copp;
  Rig rig{make_ping_rr()};
  const ProbeTrace& trace = rig.trace;
  rig.ctx.leg = 1;
  EXPECT_EQ(copp.process(rig.ctx), HopVerdict::kContinue);
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.events[0].router, rig.ctx.router);
  EXPECT_EQ(trace.events[0].time, rig.ctx.now);
  EXPECT_TRUE(trace.events[0].reply_leg);
  // A second consume at the same instant, which a one-token bucket would
  // police: the gate only records it; Network::settle decides.
  rig.ctx.leg = 0;
  EXPECT_EQ(copp.process(rig.ctx), HopVerdict::kContinue);
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_FALSE(trace.events[1].reply_leg);
  EXPECT_EQ(drops(rig.counters), 0u);  // optimistic: resolved in settle
}

// ------------------------------------------------------- fault elements

TEST(FaultInjectorElement, ChecksumCorruptionDoomsOnce) {
  FaultParams params;
  params.checksum_corrupt = 1.0;
  const FaultPlan plan{params};
  FaultInjectorElement fault;
  fault.plan = &plan;
  Rig rig{make_ping_rr()};
  const ProbeTrace& trace = rig.trace;
  rig.trace.events.push_back({1, 0.5, false});
  EXPECT_EQ(fault.process(rig.ctx), HopVerdict::kContinue);  // ghost walks on
  EXPECT_TRUE(rig.ctx.doomed);
  EXPECT_EQ(rig.counters.dropped_loss, 1u);  // charged at the fault hop
  EXPECT_EQ(rig.fault_counters.total(), 1u);
  EXPECT_TRUE(trace.doomed);
  EXPECT_TRUE(trace.doom_charged_loss);
  EXPECT_EQ(trace.doom_after_events, 1u);
  // Already doomed: the next corrupting hop cannot re-charge the drop.
  ++rig.ctx.hop;
  EXPECT_EQ(fault.process(rig.ctx), HopVerdict::kContinue);
  EXPECT_EQ(rig.counters.dropped_loss, 1u);
}

TEST(StormGateElement, ActiveWindowDoomsWithoutDropping) {
  FaultParams params;
  params.storm = 1.0;
  const FaultPlan plan{params};
  StormGateElement storm;
  storm.plan = &plan;
  // Find an active (router, time) window; at rate 1.0 one must exist.
  topo::RouterId router = topo::kNoRouter;
  double when = 0.0;
  for (topo::RouterId r = 0; r < 64 && router == topo::kNoRouter; ++r) {
    for (int t = 0; t < 100; ++t) {
      if (plan.storm_active(r, t * 0.5)) {
        router = r;
        when = t * 0.5;
        break;
      }
    }
  }
  ASSERT_NE(router, topo::kNoRouter) << "no storm window found at rate 1.0";
  Rig rig{make_ping_rr()};
  const ProbeTrace& trace = rig.trace;
  rig.ctx.router = router;
  rig.ctx.now = when;
  EXPECT_EQ(storm.process(rig.ctx), HopVerdict::kContinue);
  EXPECT_TRUE(rig.ctx.doomed);
  EXPECT_EQ(rig.counters.dropped_rate_limit, 1u);
  EXPECT_TRUE(trace.doomed);
  EXPECT_FALSE(trace.doom_charged_loss);  // charged as a rate-limit drop
}

// --------------------------------------------- stamping byte-for-byte parity

TEST(StampElements, TrustedPathMatchesFaultAwarePathByteForByte) {
  const FaultParams inert;  // all rates zero: byzantine draw never fires
  const FaultPlan plan{inert};
  StampElement aware;
  aware.plan = &plan;
  const TrustedStampElement trusted;
  Rig a{make_ping_rr()};
  Rig b{make_ping_rr()};
  for (std::size_t hop = 0; hop < 9; ++hop) {
    a.ctx.hop = b.ctx.hop = hop;
    EXPECT_EQ(aware.process(a.ctx), HopVerdict::kContinue);
    EXPECT_EQ(trusted.process(b.ctx), HopVerdict::kContinue);
    ASSERT_EQ(a.bytes, b.bytes) << "hop " << hop;
    EXPECT_EQ(header_fold(a.bytes), 0xFFFF);
  }
}

TEST(FusedTtlStamp, MatchesUnfusedPairAtEveryTtl) {
  const TtlDecrementElement ttl;
  const TrustedStampElement trusted;
  const TtlTrustedStampElement fused;
  for (const std::uint8_t start_ttl : {std::uint8_t{64}, std::uint8_t{2},
                                       std::uint8_t{1}, std::uint8_t{0}}) {
    Rig pair{make_ping_rr(start_ttl)};
    Rig one{make_ping_rr(start_ttl)};
    HopVerdict pair_verdict = ttl.process(pair.ctx);
    if (pair_verdict == HopVerdict::kContinue) {
      pair_verdict = trusted.process(pair.ctx);
    }
    const HopVerdict fused_verdict = fused.process(one.ctx);
    EXPECT_EQ(fused_verdict, pair_verdict) << "ttl " << int{start_ttl};
    ASSERT_EQ(one.bytes, pair.bytes) << "ttl " << int{start_ttl};
    EXPECT_EQ(one.counters.dropped_ttl, pair.counters.dropped_ttl);
    if (start_ttl > 1) {
      EXPECT_EQ(header_fold(one.bytes), 0xFFFF);
      const auto info = pkt::inspect_header(one.bytes);
      ASSERT_TRUE(info.has_value());
      const auto rr = pkt::rr_wire(one.bytes, info->rr_offset);
      ASSERT_EQ(rr.filled, 1u);
      EXPECT_EQ(pkt::rr_slot(one.bytes, rr, 0), kEgress);
    }
  }
}

TEST(FusedTtlStamp, FullRrOptionStillDecrementsAndValidates) {
  const TtlTrustedStampElement fused;
  Rig rig{make_ping_rr(64)};
  for (int hop = 0; hop < 12; ++hop) {  // 9 slots, then 3 full-option hops
    rig.ctx.hop = static_cast<std::size_t>(hop);
    EXPECT_EQ(fused.process(rig.ctx), HopVerdict::kContinue);
    EXPECT_EQ(header_fold(rig.bytes), 0xFFFF) << "hop " << hop;
  }
  EXPECT_EQ(rig.bytes[8], 64 - 12);
  const auto info = pkt::inspect_header(rig.bytes);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(pkt::rr_wire(rig.bytes, info->rr_offset).filled, 9u);
}

// Run a whole hop through the interpreter: the packed-list dispatch must
// execute elements in order and stop at the first non-continue verdict.
TEST(RunHop, ExecutesListInOrderAndShortCircuits) {
  const RunTable table = compile_run_table(PipelineConfig{});
  const ElementSet elements{};
  {
    Rig rig{make_ping_rr(64)};
    const auto verdict = run_hop(list_for(table, HopRow::kStamps, true),
                                 elements, rig.ctx);
    EXPECT_EQ(verdict, HopVerdict::kContinue);
    EXPECT_EQ(rig.bytes[8], 63);  // TTL element ran
    const auto info = pkt::inspect_header(rig.bytes);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(pkt::rr_wire(rig.bytes, info->rr_offset).filled, 1u);
  }
  {
    Rig rig{make_ping_rr(64)};
    rig.ctx.as_id = rig.ctx.dst_as;  // edge filter fires before TTL
    const auto verdict = run_hop(list_for(table, HopRow::kFiltersEdge, true),
                                 elements, rig.ctx);
    EXPECT_EQ(verdict, HopVerdict::kDrop);
    EXPECT_EQ(rig.bytes[8], 64);  // short-circuit: TTL element never ran
    EXPECT_EQ(rig.counters.dropped_filter, 1u);
  }
}

}  // namespace
}  // namespace rr::sim

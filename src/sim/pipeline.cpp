#include "sim/pipeline.h"

#include "routing/stitcher.h"

#ifndef NDEBUG
// Freeze-time verification: debug builds prove every run-list entry sound
// (abstract interpretation, tools/verify) before the table is ever walked.
// Header-only dependency on the verifier's API; rr_sim links rr_verify.
#include "verify/verify.h"
#endif

namespace rr::sim {

// The walk consumes routing/fib path spines hop by hop: each PathHop's
// router indexes the packed HopRow (and hence the run list) executed at
// that hop, and its egress is what the stamp elements record. The spine
// layout is part of the dataplane contract.
static_assert(sizeof(route::PathHop) ==
                  sizeof(topo::RouterId) + 2 * sizeof(net::IPv4Address),
              "PathHop must stay a packed (router, ingress, egress) row");

WalkResult walk_hops(HopContext& hc, std::span<const route::PathHop> path,
                     const PackedRunList* bank, const HopRow* rows,
                     const ElementSet& es, double hop_delay_s) {
  // The per-hop run list executes once per router per leg at campaign
  // scale; rropt_lint holds this body to the hot-path no-allocation rule.
  WalkResult result;
  double now = hc.now;
  for (std::size_t i = 0; i < path.size(); ++i) {
    now += hop_delay_s;
    const HopRow row = rows[path[i].router];
    hc.router = path[i].router;
    hc.egress = path[i].egress;
    hc.as_id = row.as_id;
    hc.hop = i;
    hc.now = now;
    switch (run_hop(bank[row.flags], es, hc)) {
      case HopVerdict::kContinue:
        break;
      case HopVerdict::kDrop:
        return result;
      case HopVerdict::kExpire:
        result.outcome = WalkResult::Outcome::kTtlExpired;
        result.expired_hop = static_cast<std::uint32_t>(i);
        result.time = now;
        return result;
    }
  }
  result.outcome = WalkResult::Outcome::kDelivered;
  result.doomed = hc.doomed;
  result.time = now + hop_delay_s;  // final hop to the device
  return result;
}

RunTable compile_run_table(const PipelineConfig& config) {
  RunTable table{};
  for (std::size_t flags = 0; flags < HopRow::kNumPersonalities; ++flags) {
    for (int options = 0; options < 2; ++options) {
      PackedRunList list = 0;
      const auto add = [&list](ElementOp op) {
        list = run_list_append(list, op);
      };
      // Element order is load-bearing for the pinned campaign hashes (a
      // storm doom must precede the CoPP gate so the doomed packet still
      // consumes budget; filters run after the gate; TTL after the whole
      // slow path; stamping last).
      if (config.faults_enabled) add(ElementOp::kFaultInject);
      if (config.base_loss > 0.0) add(ElementOp::kBaseLoss);
      if (options != 0) {
        if (config.options_extra_loss > 0.0) add(ElementOp::kSlowPathLoss);
        if (config.faults_enabled) add(ElementOp::kStormGate);
        if ((flags & HopRow::kRateLimited) != 0) add(ElementOp::kCoppGate);
        if ((flags & HopRow::kFiltersTransit) != 0) {
          add(ElementOp::kTransitFilter);
        } else if ((flags & HopRow::kFiltersEdge) != 0) {
          add(ElementOp::kEdgeFilter);
        }
      }
      const bool decrements = (flags & HopRow::kHidden) == 0;
      const bool stamps = options != 0 && (flags & HopRow::kStamps) != 0;
      if (decrements && stamps && !config.faults_enabled) {
        // Peephole fusion: the hottest personality (visible stamping
        // router, fault-free) collapses to one element with a single
        // combined checksum update. Deltas compose exactly, so the bytes
        // match the unfused pair (tests/element_test.cpp proves it).
        add(ElementOp::kTtlStampTrusted);
      } else {
        if (decrements) add(ElementOp::kTtl);
        if (stamps) {
          add(config.faults_enabled ? ElementOp::kStamp
                                    : ElementOp::kStampTrusted);
        }
      }
      table[(options != 0 ? HopRow::kNumPersonalities : 0) + flags] = list;
    }
  }
  return table;
}

CompiledPipeline CompiledPipeline::compile(const topo::Topology& topology,
                                           const Behaviors& behaviors,
                                           const FaultPlan* plan) {
  CompiledPipeline pipeline;
  const std::span<const topo::AsId> router_as = topology.router_as_ids();
  pipeline.rows_.reserve(router_as.size());
  for (topo::RouterId id = 0; id < router_as.size(); ++id) {
    HopRow row;
    row.as_id = router_as[id];
    row.flags = personality_flags(behaviors.router(id),
                                  behaviors.as_behavior(row.as_id));
    pipeline.rows_.push_back(row);
  }
  pipeline.elements_.fault.plan = plan;
  pipeline.elements_.storm.plan = plan;
  pipeline.elements_.stamp.plan = plan;
  const BehaviorParams& params = behaviors.params();
  pipeline.elements_.base_loss.probability = params.base_loss;
  pipeline.elements_.slow_loss.probability = params.options_extra_loss;
  pipeline.config_ = {plan != nullptr && plan->enabled(), params.base_loss,
                      params.options_extra_loss};
  pipeline.table_ = compile_run_table(pipeline.config_);
  // Freeze-time proof: the exact table the sim will run is sound for its
  // config (debug builds only — the tier-1 RroptVerify test and the CLI
  // cover release trains).
  assert(verify::run_table_sound(pipeline.table_, pipeline.config_) &&
         "compile: run table failed abstract-interpretation verification");
  return pipeline;
}

void CompiledPipeline::set_faults_enabled(bool enabled) {
  if (config_.faults_enabled == enabled) return;
  config_.faults_enabled = enabled;
  table_ = compile_run_table(config_);
  assert(verify::run_table_sound(table_, config_) &&
         "set_faults_enabled: recompiled run table failed verification");
}

}  // namespace rr::sim

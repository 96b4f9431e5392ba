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

namespace {

/// Single-opcode run lists the batched walk special-cases: the fused
/// visible-stamper personality (options bank, fault-free) and the plain
/// TTL personality (no-options bank). A one-nibble list's packed value is
/// its opcode.
constexpr PackedRunList kFusedStampList =
    static_cast<PackedRunList>(ElementOp::kTtlStampTrusted);
constexpr PackedRunList kTtlOnlyList =
    static_cast<PackedRunList>(ElementOp::kTtl);

/// Walks one batch slot to completion: bursts of single-op TTL/stamp hops
/// run against a *local copy* of the slot's header view, everything else
/// through the scalar run_hop interpreter on the slot's HopContext.
///
/// The burst is the whole point of the batched engine. Stores through the
/// packet's byte pointer may alias any object the compiler can't prove
/// disjoint — including the slot's HopContext and its Ipv4HeaderView,
/// whose addresses escape at bind — so a straight pass-major loop reloads
/// every cached header offset after every stamp. (We measured that
/// variant: 0.8x the scalar walk, with the reloads and per-slot-pass
/// bookkeeping outweighing the cross-slot overlap it was built for; see
/// DESIGN.md §12.) Copying the view into a local whose address never
/// escapes lets the compiler keep the offsets and checksum state in
/// registers across the run, and the copy is written back only at run
/// boundaries. Times accumulate (now += delay per hop) in the exact order
/// the scalar walk adds them, so every double compares bit-equal.
void walk_batch_slot(WalkBatch& b, std::size_t p, const HopRow* rows,
                     const ElementSet& es, double hop_delay_s) {
  HopContext& hc = b.hc[p];
  const std::span<const route::PathHop> path = b.hops[p];
  const PackedRunList* bank = b.banks[p];
  BatchWalkResult& r = b.results[p];
  const std::size_t n = path.size();
  std::size_t pass = 0;
  while (true) {
    if (pass >= n) {
      // A doomed slot that walked the full path is still "delivered" so
      // the endpoint raises its ghost reply; the caller must treat a
      // doomed delivery as unobservable (same contract as the scalar
      // walk).
      r.outcome = BatchWalkResult::Outcome::kDelivered;
      r.doomed = hc.doomed;
      r.time = hc.now + hop_delay_s;  // final hop to the device
      return;
    }
    const HopRow row = rows[path[pass].router];
    const PackedRunList list = bank[row.flags];
    if (list == kFusedStampList || list == kTtlOnlyList) {
      // Maximal run of the census's two dominant personalities (visible
      // stamping router / visible plain router, fault-free): the header
      // RMW runs on TrustedBurst registers and is folded back once at the
      // run boundary — one checksum read-modify-write per run instead of
      // per hop. Semantics are the element bodies' exactly; the batched-
      // vs-scalar differential test holds this path to bit-identity.
      pkt::Ipv4HeaderView::TrustedBurst burst{b.views[p]};
      if (burst.eligible()) [[likely]] {
        double now = hc.now;
        PackedRunList cur = list;
        const route::PathHop* hop = &path[pass];
        while (true) {
          now += hop_delay_s;
          const auto ttl = cur == kFusedStampList
                               ? burst.ttl_rr_stamp(hop->egress)
                               : burst.ttl_only();
          if (!ttl) [[unlikely]] {
            burst.commit();
            hc.now = now;
            if (!hc.doomed) ++hc.counters->dropped_ttl;
            return;  // malformed or already expired: default kDropped
          }
          if (*ttl == 0) [[unlikely]] {
            burst.commit();
            hc.now = now;
            if (hc.doomed) return;  // doomed TTL death is a silent drop
            r.outcome = BatchWalkResult::Outcome::kTtlExpired;
            r.expired_hop = static_cast<std::uint32_t>(pass);
            r.time = now;
            return;
          }
          ++pass;
          ++hop;
          if (pass >= n) {
            burst.commit();
            hc.now = now;
            r.outcome = BatchWalkResult::Outcome::kDelivered;
            r.doomed = hc.doomed;
            r.time = now + hop_delay_s;
            return;
          }
          if (pass + 1 < n) {
            RROPT_PREFETCH(&rows[hop[1].router]);
          }
          const HopRow next_row = rows[hop->router];
          const PackedRunList next_list = bank[next_row.flags];
          if (next_list != kFusedStampList && next_list != kTtlOnlyList) {
            // Hand the slot back to the interpreter at this pass.
            burst.commit();
            hc.now = now;
            break;
          }
          cur = next_list;
        }
        continue;
      }
      // Ineligible view (timestamp option, dirty checksum): same run, but
      // per-hop fused calls against a local view copy — still bit-exact,
      // just without the amortized checksum fold.
      pkt::Ipv4HeaderView view = b.views[p];
      double now = hc.now;
      PackedRunList cur = list;
      const route::PathHop* hop = &path[pass];
      while (true) {
        now += hop_delay_s;
        const auto ttl = cur == kFusedStampList
                             ? view.ttl_rr_stamp_trusted(hop->egress)
                             : view.decrement_ttl();
        if (!ttl) [[unlikely]] {
          b.views[p] = view;
          hc.now = now;
          if (!hc.doomed) ++hc.counters->dropped_ttl;
          return;  // malformed or already expired: default kDropped result
        }
        if (*ttl == 0) [[unlikely]] {
          b.views[p] = view;
          hc.now = now;
          if (hc.doomed) return;  // doomed TTL death is a silent drop
          r.outcome = BatchWalkResult::Outcome::kTtlExpired;
          r.expired_hop = static_cast<std::uint32_t>(pass);
          r.time = now;
          return;
        }
        if (cur == kFusedStampList && view.has_ts()) [[unlikely]] {
          view.ts_stamp(hop->egress,
                        static_cast<std::uint32_t>(now * 1000.0));
        }
        ++pass;
        ++hop;
        if (pass >= n) {
          b.views[p] = view;
          hc.now = now;
          r.outcome = BatchWalkResult::Outcome::kDelivered;
          r.doomed = hc.doomed;
          r.time = now + hop_delay_s;
          return;
        }
        if (pass + 1 < n) {
          RROPT_PREFETCH(&rows[hop[1].router]);
        }
        const HopRow next_row = rows[hop->router];
        const PackedRunList next_list = bank[next_row.flags];
        if (next_list != kFusedStampList && next_list != kTtlOnlyList) {
          // Hand the slot back to the interpreter at this pass.
          b.views[p] = view;
          hc.now = now;
          break;
        }
        cur = next_list;
      }
      continue;
    }
    // Interpreter hop: run lists with loss gates, filters, CoPP, or fault
    // elements — the exact scalar semantics on the slot's own context.
    hc.now += hop_delay_s;
    hc.router = path[pass].router;
    hc.egress = path[pass].egress;
    hc.as_id = row.as_id;
    hc.hop = pass;
    switch (run_hop(list, es, hc)) {
      case HopVerdict::kContinue:
        ++pass;
        break;
      case HopVerdict::kDrop:
        return;  // default kDropped result
      case HopVerdict::kExpire:
        r.outcome = BatchWalkResult::Outcome::kTtlExpired;
        r.expired_hop = static_cast<std::uint32_t>(pass);
        r.time = hc.now;
        return;
    }
  }
}

}  // namespace

void walk_batch_pipeline(WalkBatch& b, const HopRow* rows,
                         const ElementSet& es, double hop_delay_s) {
  // Every mutation below reproduces the scalar walk's order of operations
  // per slot, only the slot interleaving differs — and every cross-slot
  // interaction is either a counter-based draw (order-free) or a deferred
  // bucket event (recorded per slot), so the interleaving is
  // unobservable. Before any slot walks, prime the cache with every
  // slot's first HopRow: by the time slot k's burst dereferences its row,
  // the line has had k slots' worth of work to arrive — the batch analog
  // of the per-slot next-hop prefetch inside the burst.
  const std::uint32_t live = b.live;
  for (std::uint32_t m = live; m != 0; m &= m - 1) {
    const auto p = static_cast<std::size_t>(std::countr_zero(m));
    if (!b.hops[p].empty()) {
      RROPT_PREFETCH(&rows[b.hops[p][0].router]);
    }
  }
  for (std::uint32_t m = live; m != 0; m &= m - 1) {
    const auto p = static_cast<std::size_t>(std::countr_zero(m));
    walk_batch_slot(b, p, rows, es, hop_delay_s);
  }
  b.live = 0;
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

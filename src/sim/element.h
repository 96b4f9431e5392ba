// Composable per-hop behaviour elements — the Click-inspired dataplane.
//
// Network::walk used to be a monolithic branch forest: every router
// personality (stamping, hidden, rate-limited, edge-filtering, ...) and
// every fault mode was another hand-threaded branch inside one function.
// This header decomposes that forest into small, individually testable
// elements, each owning exactly one per-hop behaviour:
//
//   FaultInjectorElement   mid-path option corruption + checksum dooms
//   BaseLossElement        fast-path Bernoulli loss
//   SlowPathLossElement    extra loss risk on the options slow path
//   StormGateElement       rate-limit storm windows (fault plan)
//   CoppGateElement        CoPP options token bucket (live or deferred)
//   TransitFilterElement   AS drops options packets in transit
//   EdgeFilterElement      AS drops options packets at its own edge
//   TtlDecrementElement    TTL decrement + Time-Exceeded trigger
//   StampElement           RR/TS stamping, byzantine-stamper aware
//   TrustedStampElement    RR/TS stamping, compiled fault-free fast path
//
// An element reads and mutates one HopContext and returns a HopVerdict;
// sim/pipeline.h compiles per-personality run lists of these elements at
// topology freeze and Network::walk just executes the list. New router
// personalities become new element compositions, not new branches.
//
// Contract: element semantics reproduce the retired branch forest bit for
// bit. Every random decision is a counter-based draw via
// walk_draw_key/hash_chance below, so a packet's fate is a pure function of
// (seed, flow, leg, hop) no matter which kernel walks it or how many
// threads are running. tests/pipeline_differential_test.cpp pins whole
// campaigns (dataset content_hash plus every NetCounters field) to the
// values the branch forest produced, at fault rates {0, 1%, 10%} and
// threads {1, 2, 8}.
//
// Hot-path rules: element process() bodies are hot regions — rropt_lint
// bans heap allocation and stream IO inside them without needing explicit
// RROPT_HOT markers (tools/lint). The one allocation-shaped call, the
// deferred bucket event push, carries the standard RROPT_HOT_OK waiver:
// its vector's capacity is recycled across probes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netbase/address.h"
#include "packet/mutate.h"
#include "packet/view.h"
#include "sim/fault.h"
#include "sim/token_bucket.h"
#include "topology/types.h"
#include "util/rng.h"

namespace rr::sim {

// Purposes for per-hop counter-based draws; folded into the draw key so a
// hop's fast-path and slow-path loss draws are independent. Fault-plan
// decisions (sim/fault.h) key on their own 0xFA00+ purpose space inside
// FaultPlan, so enabling faults never perturbs these draws.
inline constexpr std::uint64_t kDrawBaseLoss = 1;
inline constexpr std::uint64_t kDrawOptionsLoss = 2;
inline constexpr std::uint64_t kDrawFaultAddress = 3;

[[nodiscard]] inline std::uint64_t walk_draw_key(std::uint64_t flow, int leg,
                                                 std::size_t hop,
                                                 std::uint64_t purpose) {
  return util::mix64(flow ^ (static_cast<std::uint64_t>(leg) << 62) ^
                     (static_cast<std::uint64_t>(hop) << 8) ^ purpose);
}

/// Bernoulli(p) as a pure function of the key: the draw is the same no
/// matter which thread evaluates it or in what order.
[[nodiscard]] inline bool hash_chance(std::uint64_t key, double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return static_cast<double>(util::mix64(key) >> 11) * 0x1.0p-53 < p;
}

/// Why a probe got no (useful) answer — simulator-side diagnostics used by
/// tests and sanity benches, never by the measurement pipeline itself.
struct NetCounters {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;          // reached the final device
  std::uint64_t responses = 0;          // any packet returned to the source
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_filter = 0;
  std::uint64_t dropped_rate_limit = 0;
  std::uint64_t dropped_ttl = 0;        // expired anonymously
  std::uint64_t dropped_unroutable = 0;
  std::uint64_t ttl_errors = 0;         // Time-Exceeded returned
  std::uint64_t port_unreachables = 0;

  /// Folds another tally into this one (per-worker accumulation).
  void merge(const NetCounters& other) noexcept {
    sent += other.sent;
    delivered += other.delivered;
    responses += other.responses;
    dropped_loss += other.dropped_loss;
    dropped_filter += other.dropped_filter;
    dropped_rate_limit += other.dropped_rate_limit;
    dropped_ttl += other.dropped_ttl;
    dropped_unroutable += other.dropped_unroutable;
    ttl_errors += other.ttl_errors;
    port_unreachables += other.port_unreachables;
  }

  [[nodiscard]] bool operator==(const NetCounters&) const = default;
};

/// One deferred options-token consume: a policed router saw an options
/// packet at a virtual time. Recorded in probe order (forward leg first,
/// then the reply leg); times increase within a leg.
struct BucketEvent {
  topo::RouterId router = topo::kNoRouter;
  double time = 0.0;
  bool reply_leg = false;
};

/// Per-send bookkeeping for deferred-bucket (concurrent) execution. The
/// counted_* flags remember which optimistic aggregate counters this send
/// incremented before any reply-leg bucket event, so the serial replay
/// phase (Campaign::run pass B) can reconstruct exactly the counters a
/// serial run would have recorded when a deferred consume fails: a
/// forward-leg kill keeps none of them, a reply-leg kill keeps all but
/// counted_response.
struct ProbeTrace {
  std::vector<BucketEvent> events;
  bool counted_delivered = false;
  bool counted_response = false;
  bool counted_ttl_error = false;
  bool counted_port_unreachable = false;
  // A fault doomed this exchange: the drop was charged when the fault
  // fired (as dropped_loss or dropped_rate_limit), after the first
  // `doom_after_events` bucket events had been recorded. The serial
  // replay uses this to reconstruct which drop a serial run would have
  // charged when a deferred consume fails: the doom charge stands only if
  // the serial walk actually reaches the doom point.
  bool doomed = false;
  bool doom_charged_loss = false;
  std::uint32_t doom_after_events = 0;

  void reset() {
    events.clear();
    counted_delivered = false;
    counted_response = false;
    counted_ttl_error = false;
    counted_port_unreachable = false;
    doomed = false;
    doom_charged_loss = false;
    doom_after_events = 0;
  }
};

/// Everything the per-hop run list reads about a router, packed into one
/// 8-byte row so the ~half-billion hop iterations of a census issue a
/// single indexed load instead of three dependent loads across the router
/// table, the topology and the per-AS behaviour array. The flags byte is
/// the router's *personality key*: sim/pipeline.h compiles one element run
/// list per distinct flags value, and the AS filter policy is folded per
/// router at freeze (see sim::personality_flags in behavior.h).
struct HopRow {
  static constexpr std::uint8_t kHidden = 1 << 0;
  static constexpr std::uint8_t kStamps = 1 << 1;
  static constexpr std::uint8_t kRateLimited = 1 << 2;
  static constexpr std::uint8_t kFiltersTransit = 1 << 3;
  static constexpr std::uint8_t kFiltersEdge = 1 << 4;
  /// Number of distinct personality keys (flags fit in 5 bits).
  static constexpr std::size_t kNumPersonalities = 1u << 5;
  std::uint32_t as_id = 0;
  std::uint8_t flags = 0;
};

/// What an element decided about the packet at this hop.
enum class HopVerdict : std::uint8_t {
  kContinue = 0,  // next element (or next hop)
  kDrop = 1,      // walk ends; WalkResult stays kDropped
  kExpire = 2,    // TTL hit zero here: Time-Exceeded handling
};

/// The per-hop state an element reads and mutates. One HopContext is set
/// up per leg; the per-hop fields (router, egress, as_id, hop, now) are
/// refreshed by the walk loop before each run list executes. Exactly one
/// of `trace` (deferred/concurrent mode) and `buckets` (serial mode, only
/// formed under the serial gate) is non-null when a CoppGateElement runs.
struct HopContext {
  // ------------------------------------------------------------ per leg
  pkt::Ipv4HeaderView* view = nullptr;
  std::span<std::uint8_t> bytes;  // same storage the view is bound to
  bool has_options = false;
  bool doomed = false;
  int leg = 0;
  std::uint64_t flow = 0;
  topo::AsId src_as = 0;
  topo::AsId dst_as = 0;
  NetCounters* counters = nullptr;
  FaultCounters* fault_counters = nullptr;
  ProbeTrace* trace = nullptr;      // deferred mode; null in serial mode
  TokenBucket* buckets = nullptr;   // serial mode; null in deferred mode
  // ------------------------------------------------------------ per hop
  topo::RouterId router = topo::kNoRouter;
  net::IPv4Address egress;
  std::uint32_t as_id = 0;
  std::size_t hop = 0;
  double now = 0.0;
};

/// Injected mid-path faults (sim/fault.h). Each draw is a pure function
/// of (fault seed, flow, leg, hop, kind), so a faulted packet's fate is
/// as reproducible as an unfaulted one, at any thread count. Faults only
/// corrupt or remove: a stripped/garbled/corrupted packet can lose
/// evidence of reachability downstream but can never fabricate it. They
/// rewrite option *content* in place without moving option boundaries, so
/// the view's cached offsets stay valid. Only compiled into run lists
/// when the installed fault plan is enabled.
struct FaultInjectorElement {
  const FaultPlan* plan = nullptr;

  HopVerdict process(HopContext& ctx) const noexcept {
    // "Stripping" blanks the option area to NOPs rather than erasing it:
    // the header geometry (and hence every router's slow-path and
    // filtering decision, and every host's drop policy) is identical to
    // the baseline walk, so the fault removes RR evidence and nothing
    // else. See pkt::blank_options.
    if (ctx.has_options && plan->strip_options(ctx.flow, ctx.leg, ctx.hop) &&
        pkt::blank_options(ctx.bytes)) {
      ctx.fault_counters->note(FaultKind::kOptionStrip);
    }
    if (ctx.has_options && plan->truncate_rr(ctx.flow, ctx.leg, ctx.hop) &&
        pkt::rr_truncate(ctx.bytes)) {
      ctx.fault_counters->note(FaultKind::kRrTruncate);
    }
    if (ctx.has_options && plan->garble_rr(ctx.flow, ctx.leg, ctx.hop) &&
        pkt::rr_garble(ctx.bytes,
                       plan->bogus_address(walk_draw_key(
                           ctx.flow, ctx.leg, ctx.hop, kDrawFaultAddress)))) {
      ctx.fault_counters->note(FaultKind::kRrGarble);
    }
    // A corrupted header checksum kills the packet at the next router's
    // header verification, so it dooms the exchange outright. Deliberately
    // NOT modelled by corrupting the bytes and letting an endpoint parse
    // fail: under two corruptions with TTL decrements in between, XOR
    // and one's-complement addition do not commute, and whether the
    // corruptions cancel would depend on the stored checksum value —
    // which includes the thread-order-dependent IP ID, breaking the
    // any-thread-count determinism contract. (The bytes stay intact so
    // the ghost exchange parses and walks exactly like the baseline.)
    if (!ctx.doomed && plan->corrupt_checksum(ctx.flow, ctx.leg, ctx.hop)) {
      ctx.fault_counters->note(FaultKind::kChecksumCorrupt);
      ++ctx.counters->dropped_loss;
      ctx.doomed = true;
      if (ctx.trace != nullptr) {
        ctx.trace->doomed = true;
        ctx.trace->doom_charged_loss = true;
        ctx.trace->doom_after_events =
            static_cast<std::uint32_t>(ctx.trace->events.size());
      }
    }
    return HopVerdict::kContinue;
  }
};

/// Plain fast-path loss. A doomed packet takes the same exits the
/// baseline walk would (so shared bucket state evolves identically) but
/// its drop was already charged at the fault hop.
struct BaseLossElement {
  double probability = 0.0;

  HopVerdict process(HopContext& ctx) const noexcept {
    if (!hash_chance(walk_draw_key(ctx.flow, ctx.leg, ctx.hop, kDrawBaseLoss),
                     probability)) {
      return HopVerdict::kContinue;
    }
    if (!ctx.doomed) ++ctx.counters->dropped_loss;
    return HopVerdict::kDrop;
  }
};

/// Slow path: the route processor sees this packet. Only compiled into
/// options run lists.
struct SlowPathLossElement {
  double probability = 0.0;

  HopVerdict process(HopContext& ctx) const noexcept {
    if (!hash_chance(
            walk_draw_key(ctx.flow, ctx.leg, ctx.hop, kDrawOptionsLoss),
            probability)) {
      return HopVerdict::kContinue;
    }
    if (!ctx.doomed) ++ctx.counters->dropped_loss;
    return HopVerdict::kDrop;
  }
};

/// A rate-limit storm closes the slow path outright for a window of
/// virtual time. The check is a stateless pure function of (router,
/// window), so serial and deferred modes agree without replay. The
/// packet is doomed — not dropped — so it still consumes this and every
/// downstream router's slow-path budget exactly as the baseline walk did.
/// Only compiled into options run lists when the fault plan is enabled.
struct StormGateElement {
  const FaultPlan* plan = nullptr;

  HopVerdict process(HopContext& ctx) const noexcept {
    if (ctx.doomed || !plan->storm_active(ctx.router, ctx.now)) {
      return HopVerdict::kContinue;
    }
    ctx.fault_counters->note(FaultKind::kStorm);
    ++ctx.counters->dropped_rate_limit;
    ctx.doomed = true;
    if (ctx.trace != nullptr) {
      ctx.trace->doomed = true;
      ctx.trace->doom_charged_loss = false;
      ctx.trace->doom_after_events =
          static_cast<std::uint32_t>(ctx.trace->events.size());
    }
    return HopVerdict::kContinue;
  }
};

/// CoPP options token bucket. In deferred (concurrent) mode the consume is
/// recorded for serial resolution and assumed to succeed — a failed
/// consume is a silent drop, so nothing later in the walk would have
/// differed. In serial mode the bucket is consulted live; the walk loop
/// only forms `ctx.buckets` under the serial gate, which is what makes
/// that access the caller's no-concurrency promise.
struct CoppGateElement {
  HopVerdict process(HopContext& ctx) const noexcept {
    if (ctx.trace != nullptr) {
      ctx.trace->events.push_back(  // RROPT_HOT_OK: capacity recycled
          {ctx.router, ctx.now, ctx.leg != 0});
      return HopVerdict::kContinue;
    }
    if (ctx.buckets[ctx.router].try_consume(ctx.now)) {
      return HopVerdict::kContinue;
    }
    if (!ctx.doomed) ++ctx.counters->dropped_rate_limit;
    return HopVerdict::kDrop;
  }
};

/// AS drops options packets even in transit (rare). Compiled for routers
/// whose AS filters transit traffic; it shadows the edge filter — a
/// transit filter drops everything the edge filter would have.
struct TransitFilterElement {
  HopVerdict process(HopContext& ctx) const noexcept {
    if (!ctx.doomed) ++ctx.counters->dropped_filter;
    return HopVerdict::kDrop;
  }
};

/// AS drops options packets at its edge: only when this router's AS is
/// the packet's source or destination AS (the paper's dominant RR failure
/// mode — filtering happens at the edges, not the core).
struct EdgeFilterElement {
  HopVerdict process(HopContext& ctx) const noexcept {
    if (ctx.as_id != ctx.src_as && ctx.as_id != ctx.dst_as) {
      return HopVerdict::kContinue;
    }
    if (!ctx.doomed) ++ctx.counters->dropped_filter;
    return HopVerdict::kDrop;
  }
};

/// TTL decrement; omitted from the run list for hidden routers (they
/// forward without decrementing). A doomed packet that would have expired
/// is discarded instead: no Time-Exceeded is raised, which is bucket-safe
/// because ICMP errors carry no options and consume no shared budget.
struct TtlDecrementElement {
  HopVerdict process(HopContext& ctx) const noexcept {
    const auto ttl = ctx.view->decrement_ttl();
    if (!ttl) {
      if (!ctx.doomed) ++ctx.counters->dropped_ttl;
      return HopVerdict::kDrop;  // malformed or already expired
    }
    if (*ttl == 0) {
      return ctx.doomed ? HopVerdict::kDrop : HopVerdict::kExpire;
    }
    return HopVerdict::kContinue;
  }
};

/// Record Route / Timestamp stamping of the outgoing interface, byzantine-
/// stamper aware: a byzantine stamper records a class-E bogus address
/// instead — noise that analysis must tolerate but can never mistake for a
/// real hop. Compiled into options run lists of stamping routers when the
/// fault plan is enabled.
struct StampElement {
  const FaultPlan* plan = nullptr;

  HopVerdict process(HopContext& ctx) const noexcept {
    net::IPv4Address egress = ctx.egress;
    if (plan->byzantine_stamp(ctx.flow, ctx.leg, ctx.hop)) {
      egress = plan->bogus_address(
          walk_draw_key(ctx.flow, ctx.leg, ctx.hop, kDrawFaultAddress));
      ctx.fault_counters->note(FaultKind::kByzantineStamp);
    }
    ctx.view->rr_stamp(egress);
    ctx.view->ts_stamp(egress, static_cast<std::uint32_t>(ctx.now * 1000.0));
    return HopVerdict::kContinue;
  }
};

/// Fault-free stamping fast path. With no fault elements in the run list,
/// nothing can rewrite option bytes between hops, so the per-stamp option
/// revalidation the fault-aware path performs is provably redundant —
/// the pipeline compiler selects this element exactly when that proof
/// holds (fault plan disabled), and the bytes produced are identical
/// (see Ipv4HeaderView::rr_stamp_trusted).
struct TrustedStampElement {
  HopVerdict process(HopContext& ctx) const noexcept {
    ctx.view->rr_stamp_trusted(ctx.egress);
    if (ctx.view->has_ts()) {
      ctx.view->ts_stamp(ctx.egress,
                         static_cast<std::uint32_t>(ctx.now * 1000.0));
    }
    return HopVerdict::kContinue;
  }
};

/// Peephole fusion of TtlDecrementElement + TrustedStampElement — the
/// census's single hottest personality (a visible stamping router on a
/// fault-free walk). One view call performs the TTL decrement and the RR
/// stamp under a single combined RFC 1624 checksum update; deltas compose
/// exactly, so the bytes match the unfused pair at every hop. The run-list
/// compiler emits this whenever both elements would be adjacent and the
/// trusted-stamp proof holds.
struct TtlTrustedStampElement {
  HopVerdict process(HopContext& ctx) const noexcept {
    const auto ttl = ctx.view->ttl_rr_stamp_trusted(ctx.egress);
    if (!ttl) {
      if (!ctx.doomed) ++ctx.counters->dropped_ttl;
      return HopVerdict::kDrop;  // malformed or already expired
    }
    if (*ttl == 0) {
      // Expired before stamping, exactly like the unfused pair (the view
      // call skips the stamp when the decremented TTL is zero).
      return ctx.doomed ? HopVerdict::kDrop : HopVerdict::kExpire;
    }
    if (ctx.view->has_ts()) {
      ctx.view->ts_stamp(ctx.egress,
                         static_cast<std::uint32_t>(ctx.now * 1000.0));
    }
    return HopVerdict::kContinue;
  }
};

}  // namespace rr::sim

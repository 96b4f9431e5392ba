// Per-personality element run lists, compiled at topology freeze.
//
// sim/element.h defines the behaviour elements; this header compiles them
// into the flat structure walk_hops executes:
//
//   * one packed HopRow per router (element.h) — as_id plus the 5-bit
//     personality flags byte, built from the frozen topology and the
//     behaviour assignment (the routing/fib path spines feed walk exactly
//     these rows: each route::PathHop names the router whose row — and
//     hence whose run list — the next hop executes);
//
//   * one *run list* per (personality flags, packet class) — the ordered
//     element sequence that personality applies to an options packet or a
//     plain packet. A run list is a single uint64: up to eight 4-bit
//     element opcodes, terminated by kEnd. run_hop() walks the nibbles in
//     a tight switch — no virtual dispatch, no per-hop memory traversal
//     beyond one table load, and nothing allocates (the interpreter is
//     subject to rropt_lint's hot-path rules like the element bodies).
//
// Compilation folds campaign-constant knowledge into the lists the way a
// compiler folds constants into code:
//
//   * zero-probability loss gates are elided (hash_chance(p<=0) is
//     identically false, so the element is a no-op);
//   * fault elements appear only when the installed plan is enabled —
//     and their absence *proves* option bytes cannot change mid-walk,
//     which licenses the trusted stamping fast path (TrustedStampElement)
//     that skips per-stamp option revalidation;
//   * a transit filter shadows an edge filter (it drops strictly more);
//   * hidden routers simply have no TTL element.
//
// The result reproduces the retired branch forest at every observable
// byte (tests/pipeline_differential_test.cpp pins its campaign hashes and
// counters) while making personalities data: a new router behaviour is a
// new element plus a compilation rule, not a new branch in the walk.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>

#include "routing/stitcher.h"
#include "sim/behavior.h"
#include "sim/element.h"
#include "topology/topology.h"

namespace rr::sim {

/// Element opcodes — nibble values in a packed run list. kEnd terminates
/// (and zero-initialised lists are therefore empty, not malformed).
enum class ElementOp : std::uint8_t {
  kEnd = 0,
  kFaultInject = 1,
  kBaseLoss = 2,
  kSlowPathLoss = 3,
  kStormGate = 4,
  kCoppGate = 5,
  kTransitFilter = 6,
  kEdgeFilter = 7,
  kTtl = 8,
  kStamp = 9,
  kStampTrusted = 10,
  /// Peephole fusion of kTtl + kStampTrusted (see TtlTrustedStampElement).
  kTtlStampTrusted = 11,
};

/// A run list packed into one machine word: nibble k holds step k's
/// ElementOp; the first kEnd nibble terminates. Eight steps of four bits
/// fit the longest legal composition (fault, base loss, slow loss, storm,
/// CoPP, edge filter, TTL, stamp) with room to spare.
using PackedRunList = std::uint64_t;

/// One configured instance of every element; run lists index into this.
/// Elements are a few words each, so the whole set stays in two cache
/// lines next to the run-list table.
struct ElementSet {
  FaultInjectorElement fault;
  BaseLossElement base_loss;
  SlowPathLossElement slow_loss;
  StormGateElement storm;
  CoppGateElement copp;
  TransitFilterElement transit;
  EdgeFilterElement edge;
  TtlDecrementElement ttl;
  StampElement stamp;
  TrustedStampElement stamp_trusted;
  TtlTrustedStampElement ttl_stamp_trusted;
};

/// Campaign-constant knowledge folded into run lists at compile time.
struct PipelineConfig {
  bool faults_enabled = false;
  double base_loss = 0.0;
  double options_extra_loss = 0.0;
};

/// Opcode capacity of a packed list. Eight steps of four bits fit the
/// longest legal composition (fault, base loss, slow loss, storm, CoPP,
/// one filter, TTL, stamp); the high eight nibbles stay zero so the
/// interpreter's first-kEnd termination always holds.
inline constexpr std::size_t kRunListCapacity = 8;

/// True when `list` already holds kRunListCapacity opcodes.
[[nodiscard]] constexpr bool run_list_full(PackedRunList list) noexcept {
  return ((list >> (4 * (kRunListCapacity - 1))) & 0xF) != 0;
}

/// Appends one opcode to a packed list (helper for compilation & tests).
/// Appending to a full list is a compile bug — the opcode would have been
/// silently dropped behaviour — so it asserts in debug builds and returns
/// the list unchanged in release builds (rropt_verify's "overflow"
/// invariant flags the truncated compile either way).
[[nodiscard]] constexpr PackedRunList run_list_append(PackedRunList list,
                                                      ElementOp op) noexcept {
  assert(!run_list_full(list) &&
         "run_list_append: packed run list already holds 8 opcodes");
  if (run_list_full(list)) return list;
  std::size_t shift = 0;
  while (((list >> shift) & 0xF) != 0) shift += 4;
  return list | (static_cast<PackedRunList>(op) << shift);
}

/// Number of steps in a packed list (tests & diagnostics).
[[nodiscard]] constexpr std::size_t run_list_size(PackedRunList list) noexcept {
  std::size_t n = 0;
  while ((list & 0xF) != 0) {
    ++n;
    list >>= 4;
  }
  return n;
}

/// Step `k` of a packed list (tests & diagnostics).
[[nodiscard]] constexpr ElementOp run_list_at(PackedRunList list,
                                              std::size_t k) noexcept {
  return static_cast<ElementOp>((list >> (4 * k)) & 0xF);
}

/// The run-list table: one packed list per (personality flags, packet
/// class). Index = flags | (has_options << 5).
using RunTable = std::array<PackedRunList, 2 * HopRow::kNumPersonalities>;

/// Compiles the run-list table for a configuration. Pure: the bench and
/// the property tests drive this directly, without a Network.
[[nodiscard]] RunTable compile_run_table(const PipelineConfig& config);

/// Executes one hop's run list over the context. Inline: this *is* the
/// per-hop inner loop of walk_hops — one table word in a register,
/// a predictable switch per element.
inline HopVerdict run_hop(PackedRunList list, const ElementSet& es,
                          HopContext& ctx) noexcept {
  // RROPT_HOT_BEGIN(pipeline-run-hop)
  for (PackedRunList w = list; (w & 0xF) != 0; w >>= 4) {
    HopVerdict verdict = HopVerdict::kContinue;
    switch (static_cast<ElementOp>(w & 0xF)) {
      case ElementOp::kFaultInject: verdict = es.fault.process(ctx); break;
      case ElementOp::kBaseLoss: verdict = es.base_loss.process(ctx); break;
      case ElementOp::kSlowPathLoss: verdict = es.slow_loss.process(ctx); break;
      case ElementOp::kStormGate: verdict = es.storm.process(ctx); break;
      case ElementOp::kCoppGate: verdict = es.copp.process(ctx); break;
      case ElementOp::kTransitFilter: verdict = es.transit.process(ctx); break;
      case ElementOp::kEdgeFilter: verdict = es.edge.process(ctx); break;
      case ElementOp::kTtl: verdict = es.ttl.process(ctx); break;
      case ElementOp::kStamp: verdict = es.stamp.process(ctx); break;
      case ElementOp::kStampTrusted:
        verdict = es.stamp_trusted.process(ctx);
        break;
      case ElementOp::kTtlStampTrusted:
        verdict = es.ttl_stamp_trusted.process(ctx);
        break;
      case ElementOp::kEnd: break;  // unreachable: loop guard
    }
    if (verdict != HopVerdict::kContinue) return verdict;
  }
  return HopVerdict::kContinue;
  // RROPT_HOT_END(pipeline-run-hop)
}

/// How one leg's hop walk ended. A default-constructed result is a drop
/// (time 0, not doomed).
struct WalkResult {
  enum class Outcome : std::uint8_t {
    kDropped = 0,
    kDelivered = 1,
    kTtlExpired = 2,
  };
  Outcome outcome = Outcome::kDropped;
  std::uint32_t expired_hop = 0;  // valid when kTtlExpired
  double time = 0.0;
  // The packet walked the full path — consuming every token a fault-free
  // walk would — but a fault discarded it; it must not be observed.
  bool doomed = false;
};

/// The hop walk: executes each hop's run list (`bank[rows[hop].flags]`)
/// over `hc`, advancing virtual time by `hop_delay_s` per hop from
/// `hc.now`. `hc` arrives with its per-leg fields filled (view, bytes,
/// flow, leg, ASes, counters, trace, doomed); the walk sets the
/// per-hop ones. Every leg of every send, forward or reply, runs this one
/// loop. A doomed packet that walks the full path is still
/// "delivered" so the endpoint raises its ghost reply; callers treat a
/// doomed delivery as unobservable.
WalkResult walk_hops(HopContext& hc, std::span<const route::PathHop> path,
                     const PackedRunList* bank, const HopRow* rows,
                     const ElementSet& es, double hop_delay_s);

/// The frozen dataplane: per-router HopRows plus the run-list table and
/// the configured element set. Built once when the Network binds a frozen
/// topology to a behaviour assignment; only the run-list table is
/// recompiled when a fault plan is installed (a serial-phase operation —
/// sends read the table lock-free).
class CompiledPipeline {
 public:
  CompiledPipeline() = default;

  /// Compiles rows and run lists. `plan` must outlive the pipeline (the
  /// fault elements keep a pointer; the Network passes its own member,
  /// whose address is stable across set_fault_plan installs).
  [[nodiscard]] static CompiledPipeline compile(const topo::Topology& topology,
                                                const Behaviors& behaviors,
                                                const FaultPlan* plan);

  /// Recompiles the run-list table after a fault plan install/remove.
  void set_faults_enabled(bool enabled);

  [[nodiscard]] HopRow row(topo::RouterId id) const noexcept {
    return rows_[id];
  }
  [[nodiscard]] std::span<const HopRow> rows() const noexcept { return rows_; }
  /// Bytes held by the HopRow table (the run lists are inline).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return rows_.capacity() * sizeof(HopRow);
  }

  /// Base of the 32-entry run-list bank for one packet class; index with
  /// the HopRow flags byte. Hoisting the bank selection out of the walk
  /// loop saves an add per hop.
  [[nodiscard]] const PackedRunList* list_bank(bool has_options)
      const noexcept {
    return table_.data() + (has_options ? HopRow::kNumPersonalities : 0);
  }
  [[nodiscard]] PackedRunList list(std::uint8_t flags,
                                   bool has_options) const noexcept {
    return list_bank(has_options)[flags];
  }

  [[nodiscard]] const ElementSet& elements() const noexcept {
    return elements_;
  }
  [[nodiscard]] const PipelineConfig& config() const noexcept {
    return config_;
  }

 private:
  std::vector<HopRow> rows_;
  RunTable table_{};
  ElementSet elements_;
  PipelineConfig config_;
};

}  // namespace rr::sim

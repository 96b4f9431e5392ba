// Deterministic fault injection for the probe/sim stack.
//
// The paper's central claim — that RR probing is viable despite hosts that
// drop, strip, or mis-stamp options, ASes that filter at edges, and routers
// that rate-limit the options slow path (§3.3, §3.5, §4.1) — is a claim
// about behaviour under adversarial conditions. sim::BehaviorParams models
// the *calibrated* probabilities; a FaultPlan layers byzantine misbehaviour
// on top of them so the measurement pipeline can be exercised (and its
// invariants proven) under hostile inputs:
//
//   * RR option truncation (a middlebox rewinds the pointer, erasing the
//     record) and slot garbling (a stamped address overwritten with junk),
//   * header checksum corruption in flight (receivers must reject, not
//     crash or mis-parse),
//   * mid-path IP-option stripping (the §3.3 "option is an option" pun:
//     some paths silently remove it),
//   * byzantine stampers that record a bogus address instead of their
//     egress interface (§3.5's mis-stamping routers, taken adversarial),
//   * ICMP errors whose quoted inner header is mangled (quotation-matching
//     probers must classify these as mismatches),
//   * duplicated and late (reordered) replies at the capture point,
//   * bursty rate-limit storms: windows of virtual time in which a
//     router's options slow path drops everything ("Your Router is My
//     Prober"-style policer bursts).
//
// Every decision is a counter-keyed draw — a pure function of
// (fault seed, flow key, leg, hop, fault kind) — exactly the discipline
// the parallel campaign engine uses for loss (see sim/network.h), so a
// faulted campaign is still bit-for-bit reproducible at any thread count,
// and a plan with all rates at zero is byte-identical to no plan at all.
//
// Corrupted addresses are always drawn from class E (240.0.0.0/4), which
// the topology generator never allocates: an injected fault can *remove*
// evidence of reachability but can never fabricate it. The differential
// test suite leans on exactly that monotonicity.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "netbase/address.h"
#include "topology/types.h"
#include "util/rng.h"

namespace rr::sim {

/// Injectable fault kinds (indices into FaultCounters::injected).
enum class FaultKind : std::uint8_t {
  kRrTruncate = 0,
  kRrGarble,
  kChecksumCorrupt,
  kOptionStrip,
  kByzantineStamp,
  kQuoteMangle,
  kDuplicateReply,
  kReorderReply,
  kStorm,
};
inline constexpr std::size_t kNumFaultKinds = 9;

[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

/// Per-kind injection probabilities. All zero (the default) means the plan
/// is inert and the simulator behaves exactly as if no plan existed.
struct FaultParams {
  std::uint64_t seed = 0xFA017BAD;

  double rr_truncate = 0.0;       // per hop, options packets
  double rr_garble = 0.0;         // per hop, options packets
  double checksum_corrupt = 0.0;  // per hop, any packet
  double option_strip = 0.0;      // per hop, options packets
  double byzantine_stamp = 0.0;   // per stamping router
  double quote_mangle = 0.0;      // per ICMP error emitted
  double duplicate_reply = 0.0;   // per delivered reply
  double reorder_reply = 0.0;     // per delivered reply (late arrival)
  double storm = 0.0;             // P(router storms in a given window)
  double storm_period_s = 0.5;    // storm window length (virtual seconds)
  double reorder_delay_s = 0.25;  // max extra delay of a reordered reply

  /// Every per-packet rate set to `rate` (storm windows included).
  [[nodiscard]] static FaultParams uniform(double rate) noexcept;

  /// True if any fault can ever fire.
  [[nodiscard]] bool any() const noexcept;

  [[nodiscard]] bool operator==(const FaultParams&) const = default;
};

/// Parses a --fault-plan specification:
///   "none"                  — inert plan
///   "0.01" / "uniform:0.01" — every rate at 1%
///   "rr_garble=0.1,storm=0.05,seed=7" — individual knobs
/// Parsing is strict (util::parse_double / util::parse_uint): every rate
/// must be a finite number in [0, 1], and storm_period_s and
/// reorder_delay_s finite and above zero. An unknown knob, an item with
/// no '=' or a bad value throws std::invalid_argument, whose message
/// starts "--fault-plan: " and names the knob and the text it rejects.
[[nodiscard]] FaultParams parse_fault_plan(std::string_view spec);

/// Human-readable one-line summary ("faults: rr_garble=0.1 storm=0.05").
[[nodiscard]] std::string to_string(const FaultParams& params);

/// Tally of injected faults by kind. Incremented with relaxed atomics from
/// concurrent walkers; totals are diagnostics (they count optimistic
/// walks, so unlike NetCounters they are not bit-identical across thread
/// counts — tests assert on them only in single-threaded runs or as > 0).
struct FaultCounters {
  std::array<std::atomic<std::uint64_t>, kNumFaultKinds> injected{};

  [[nodiscard]] std::uint64_t count(FaultKind kind) const noexcept {
    return injected[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& c : injected) sum += c.load(std::memory_order_relaxed);
    return sum;
  }
  void note(FaultKind kind) noexcept {
    injected[static_cast<std::size_t>(kind)].fetch_add(
        1, std::memory_order_relaxed);
  }
  void reset() noexcept {
    for (auto& c : injected) c.store(0, std::memory_order_relaxed);
  }
};

/// A seeded, counter-keyed schedule of faults. Copyable, immutable once
/// built; all draw methods are const and thread-safe.
class FaultPlan {
 public:
  /// The inert plan: enabled() is false and no draw ever fires.
  FaultPlan() = default;

  explicit FaultPlan(const FaultParams& params)
      : params_(params), enabled_(params.any()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const FaultParams& params() const noexcept { return params_; }

  // ------------------------------------------------------- per-hop draws
  // `flow` is the packet's flow key (sim/network.h), `leg` 0/1 for the
  // forward/reply walk, `hop` the hop index within the leg.
  [[nodiscard]] bool truncate_rr(std::uint64_t flow, int leg,
                                 std::size_t hop) const noexcept {
    return draw(FaultKind::kRrTruncate, flow, leg, hop, params_.rr_truncate);
  }
  [[nodiscard]] bool garble_rr(std::uint64_t flow, int leg,
                               std::size_t hop) const noexcept {
    return draw(FaultKind::kRrGarble, flow, leg, hop, params_.rr_garble);
  }
  [[nodiscard]] bool corrupt_checksum(std::uint64_t flow, int leg,
                                      std::size_t hop) const noexcept {
    return draw(FaultKind::kChecksumCorrupt, flow, leg, hop,
                params_.checksum_corrupt);
  }
  [[nodiscard]] bool strip_options(std::uint64_t flow, int leg,
                                   std::size_t hop) const noexcept {
    return draw(FaultKind::kOptionStrip, flow, leg, hop,
                params_.option_strip);
  }
  [[nodiscard]] bool byzantine_stamp(std::uint64_t flow, int leg,
                                     std::size_t hop) const noexcept {
    return draw(FaultKind::kByzantineStamp, flow, leg, hop,
                params_.byzantine_stamp);
  }

  // ---------------------------------------------------- per-packet draws
  [[nodiscard]] bool mangle_quote(std::uint64_t flow) const noexcept {
    return draw(FaultKind::kQuoteMangle, flow, 1, 0, params_.quote_mangle);
  }
  [[nodiscard]] bool duplicate_reply(std::uint64_t flow) const noexcept {
    return draw(FaultKind::kDuplicateReply, flow, 1, 0,
                params_.duplicate_reply);
  }
  [[nodiscard]] bool reorder_reply(std::uint64_t flow) const noexcept {
    return draw(FaultKind::kReorderReply, flow, 1, 0, params_.reorder_reply);
  }
  /// Extra delivery delay of a reordered reply, in (0, reorder_delay_s].
  [[nodiscard]] double reorder_delay(std::uint64_t flow) const noexcept;

  // -------------------------------------------------------------- storms
  /// Whether `router`'s options slow path is inside a storm window at
  /// virtual time `now`. Stateless — a pure function of (router, window) —
  /// so it needs no settle and cannot race.
  [[nodiscard]] bool storm_active(topo::RouterId router,
                                  double now) const noexcept;

  /// A corrupted address for byzantine stamps / garbled slots: always in
  /// class E (240.0.0.0/4), which the topology never allocates.
  [[nodiscard]] net::IPv4Address bogus_address(std::uint64_t key)
      const noexcept {
    return net::IPv4Address(
        0xF0000000u |
        static_cast<std::uint32_t>(util::mix64(params_.seed ^ key) &
                                   0x0FFFFFFFu));
  }

 private:
  [[nodiscard]] std::uint64_t key(FaultKind kind, std::uint64_t flow,
                                  int leg, std::size_t hop) const noexcept {
    return util::mix64(params_.seed ^ flow ^
                       (static_cast<std::uint64_t>(leg) << 62) ^
                       (static_cast<std::uint64_t>(hop) << 16) ^
                       (0xFA00 + static_cast<std::uint64_t>(kind)));
  }
  [[nodiscard]] bool draw(FaultKind kind, std::uint64_t flow, int leg,
                          std::size_t hop, double p) const noexcept;

  FaultParams params_;
  bool enabled_ = false;
};

}  // namespace rr::sim

// The base measurement campaign of §3.1:
//
//  * three plain pings to every destination from the single probe host,
//  * one ping-RR to every destination from every vantage point, probed in
//    a per-VP random order at a paced rate, with all VPs running
//    concurrently on the shared virtual timeline.
//
// The result is the dataset every later analysis consumes: per-destination
// ping responsiveness, a compact per-(VP, destination) Record Route
// observation, and the per-destination union of addresses ever seen in RR
// response headers (the input to alias resolution).
//
// Execution model: the campaign fans the per-VP probe streams across a
// worker pool (see util::ThreadPool and CampaignConfig::threads) in fixed
// chunks. All probe randomness is counter-based (sim::Network), so a
// probe's fate is a pure function of the probe; the one piece of shared
// mutable state — router token buckets — is resolved in a serial replay
// phase per chunk, in exactly the order a single-threaded run would have
// consumed tokens. Campaign contents are therefore bit-for-bit identical
// at any thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "measure/testbed.h"
#include "sim/fault.h"

namespace rr::measure {

/// Compact per-(VP, destination) record of one ping-RR exchange.
struct RrObservation {
  static constexpr std::uint8_t kResponded = 1 << 0;     // any reply came back
  static constexpr std::uint8_t kEchoReply = 1 << 1;     // reply was an echo
  static constexpr std::uint8_t kOptionPresent = 1 << 2;  // reply carried RR

  std::uint8_t flags = 0;
  std::uint8_t stamp_count = 0;  // addresses recorded in the reply's option
  std::uint8_t dest_slot = 0;    // 1-based slot holding the probed address
  std::uint8_t free_slots = 0;   // empty slots remaining in the reply

  [[nodiscard]] bool responded() const noexcept {
    return flags & kResponded;
  }
  /// The paper's RR-responsive test: an Echo Reply with the option copied.
  [[nodiscard]] bool rr_responsive() const noexcept {
    return (flags & kEchoReply) && (flags & kOptionPresent);
  }
  /// The paper's direct RR-reachable test: the probed address appears in
  /// the response header. dest_slot is then the RR hop distance.
  [[nodiscard]] bool rr_reachable() const noexcept { return dest_slot > 0; }

  [[nodiscard]] bool operator==(const RrObservation&) const = default;
};

struct CampaignConfig {
  double vp_pps = 20.0;      // §3.1: 20 probes/sec/machine
  int ping_attempts = 3;     // plain pings per destination
  std::uint64_t seed = 20161001;
  /// Probe only every k-th destination (1 = all); sub-sampling knob for
  /// fast iteration at large scales.
  int destination_stride = 1;
  /// Worker threads for campaign execution. 0 = inherit the testbed's
  /// setting, which itself defaults to RROPT_THREADS or the hardware
  /// concurrency; 1 = single-threaded. Results are identical at any value.
  int threads = 0;
  /// Fault-injection schedule applied to the network for this run (see
  /// sim/fault.h). The default is inert: a campaign with all fault rates
  /// at zero is bit-identical to one that predates fault injection.
  sim::FaultParams faults;
  /// Resolve campaign host paths through a compiled forwarding table
  /// (routing/fib.h) built per destination block instead of the shared
  /// path cache. Contents are bit-identical either way (asserted by the
  /// FIB equivalence test); this knob exists for A/B benchmarking and as
  /// a kill switch.
  bool use_compiled_fib = true;
  /// Probes driven through the network per batched walk in the ping-RR
  /// study (see sim::WalkBatch). 1 = the scalar probe_into path, kept as a
  /// differential baseline; values are clamped to
  /// [1, sim::WalkBatch::kMaxProbes]. Contents are bit-identical at any
  /// batch width: every per-probe decision is counter-based and token
  /// consumption is deferred to the serial replay either way.
  int probe_batch = 16;
  /// Streaming mode: process destinations in blocks of this many,
  /// compiling the forwarding table per block, so resident path state is
  /// bounded by the block size instead of the census size. 0 = one block
  /// spanning every destination, which is bit-identical to the
  /// pre-streaming campaign. Nonzero blocks reorder the per-VP probe
  /// sequences (block-major), so contents differ from block size to block
  /// size — but not with thread count or the FIB knob.
  std::size_t stream_block = 0;

  /// Sizes `stream_block` from a resident-memory budget for the per-block
  /// state (compiled FIB spines + raw sighting buffers) instead of a fixed
  /// count. The model is a calibrated per-destination cost: each block
  /// destination pins roughly `n_vps` spine-pair slots plus two spines'
  /// worth of path hops and its raw sighting buffer — ~0.2 KiB per
  /// (VP, destination) at census shape. Clamped to [1024, 65536] so a tiny
  /// budget still makes progress and a huge one still streams.
  ///
  /// NOTE: the block size shapes dataset *contents* (block-major probe
  /// order), so budget-sized runs are only hash-comparable to runs with
  /// the same resolved block size. Flagship comparisons pin
  /// stream_block = 8192 for exactly that reason.
  [[nodiscard]] static std::size_t stream_block_for_budget(
      std::size_t budget_mib, std::size_t n_vps) {
    constexpr std::size_t kBytesPerVpDest = 200;
    const std::size_t per_dest = kBytesPerVpDest * (n_vps > 0 ? n_vps : 1);
    const std::size_t dests = (budget_mib * 1024 * 1024) / per_dest;
    return std::clamp<std::size_t>(dests, 1024, 65536);
  }
};

/// Aggregate allocation telemetry for one campaign run: how many times the
/// reusable probe buffers and reply scratches had to grow. Each stream's
/// counters go flat once it has seen its largest probe/reply geometry, so
/// identical back-to-back runs report identical (and small) totals —
/// asserted by the steady-state allocation test.
struct CampaignAllocStats {
  std::uint64_t probe_buffer_growths = 0;  // Prober::buffer_growths() sum
  std::uint64_t reply_scratch_growths = 0;  // SendContext scratch growths
  std::uint64_t probe_streams = 0;  // probers contributing to the totals
  /// Distinct recycled probe buffers behind the totals: one per scalar
  /// stream plus one per batch slot. Growth is bounded per *buffer* (each
  /// climbs to its steady geometry once), so this — not probe_streams — is
  /// the denominator the steady-state allocation test checks against.
  std::uint64_t probe_buffers = 0;
};

/// Wall-time split of the ping-RR study: pass A (parallel probe streams)
/// vs pass B (the serial token replay — the campaign's serial tail). The
/// serial fraction pass_b / (pass_a + pass_b) is the Amdahl ceiling
/// benchmarks track.
struct CampaignPhaseStats {
  double pass_a_seconds = 0.0;
  double pass_b_seconds = 0.0;
  /// Always 0: pass B has one engine, the serial replay, so no chunk ever
  /// attempts a sharded replay. Kept because benchmark ledgers read them
  /// (a zero sum means "no chunk attempted sharding").
  std::uint64_t sharded_chunks = 0;
  std::uint64_t serial_fallback_chunks = 0;
  /// Probes this campaign drove through the network (ping + ping-RR
  /// studies), from the network's own send accounting — the uniform
  /// probing-cost figure benches report alongside stop-set savings.
  std::uint64_t probes_sent = 0;

  [[nodiscard]] double serial_fraction() const noexcept {
    const double total = pass_a_seconds + pass_b_seconds;
    return total > 0.0 ? pass_b_seconds / total : 0.0;
  }
};

class Campaign {
 public:
  /// Runs the full campaign on a testbed.
  static Campaign run(Testbed& testbed, const CampaignConfig& config = {});

  // ---------------------------------------------------------------- shape
  [[nodiscard]] std::size_t num_vps() const noexcept { return vps_.size(); }
  [[nodiscard]] std::size_t num_destinations() const noexcept {
    return dests_.size();
  }
  [[nodiscard]] const std::vector<const topo::VantagePoint*>& vps()
      const noexcept {
    return vps_;
  }
  [[nodiscard]] const std::vector<topo::HostId>& destinations()
      const noexcept {
    return dests_;
  }
  [[nodiscard]] const topo::Topology& topology() const noexcept {
    return *topology_;
  }

  // ----------------------------------------------------------------- data
  [[nodiscard]] bool ping_responsive(std::size_t dest_index) const noexcept {
    return ping_responsive_[dest_index] != 0;
  }
  [[nodiscard]] const RrObservation& at(std::size_t vp_index,
                                        std::size_t dest_index)
      const noexcept {
    return observations_[vp_index * dests_.size() + dest_index];
  }
  /// Union of addresses ever recorded in RR responses for a destination.
  [[nodiscard]] const std::vector<net::IPv4Address>& recorded_union(
      std::size_t dest_index) const noexcept {
    return recorded_union_[dest_index];
  }

  // ------------------------------------------------------- derived basics
  // Per-destination summaries are folded once at the end of run(), so the
  // predicates analyses hammer in tight loops are O(1) lookups rather than
  // O(num_vps) scans over the observation matrix.

  /// Destination answered at least one VP's ping-RR with the option copied.
  [[nodiscard]] bool rr_responsive(std::size_t dest_index) const noexcept {
    return rr_responsive_bits_[dest_index] != 0;
  }
  /// Number of VPs whose ping-RR the destination answered (option copied).
  [[nodiscard]] int responding_vp_count(std::size_t dest_index)
      const noexcept {
    return responding_vp_counts_[dest_index];
  }
  /// Minimum RR hop distance over a VP subset; 0 when unreachable from all.
  [[nodiscard]] int min_rr_distance(
      std::size_t dest_index,
      const std::vector<std::size_t>& vp_subset) const noexcept;
  /// Direct RR-reachability (the probed address appeared for some VP).
  [[nodiscard]] bool rr_reachable(std::size_t dest_index) const noexcept {
    return rr_reachable_bits_[dest_index] != 0;
  }

  /// Destination indices fulfilling a basic predicate.
  [[nodiscard]] std::vector<std::size_t> rr_responsive_indices() const;
  [[nodiscard]] std::vector<std::size_t> rr_reachable_indices() const;

  /// Allocation telemetry from the run (see CampaignAllocStats).
  [[nodiscard]] const CampaignAllocStats& alloc_stats() const noexcept {
    return alloc_stats_;
  }

  /// Ping-RR study wall-time split and probe accounting.
  [[nodiscard]] const CampaignPhaseStats& phase_stats() const noexcept {
    return phase_stats_;
  }

  /// Surrenders the raw observation matrix (row-major [vp][destination] —
  /// the exact layout data::CampaignDataset stores). At census scale the
  /// matrix is ~300 MB; freezing a campaign into a dataset moves it
  /// instead of copying. Afterwards at() must not be called, but the
  /// derived per-destination summaries (rr_responsive & co) stay valid.
  [[nodiscard]] std::vector<RrObservation> take_observations() noexcept {
    return std::move(observations_);
  }

 private:
  /// Single pass over the observation matrix filling the per-destination
  /// summary caches above.
  void finalize_derived();

  std::shared_ptr<const topo::Topology> topology_;
  std::vector<const topo::VantagePoint*> vps_;
  std::vector<topo::HostId> dests_;
  std::vector<std::uint8_t> ping_responsive_;
  std::vector<RrObservation> observations_;
  std::vector<std::vector<net::IPv4Address>> recorded_union_;
  std::vector<std::uint8_t> rr_responsive_bits_;
  std::vector<std::uint8_t> rr_reachable_bits_;
  std::vector<std::uint16_t> responding_vp_counts_;
  CampaignAllocStats alloc_stats_;
  CampaignPhaseStats phase_stats_;
};

}  // namespace rr::measure

// Trace census: every VP traceroutes every destination (the paper's
// traceroute companion campaign to the ping-RR census), with optional
// Doubletree stop sets (measure/stopset.h) eliminating intra- and
// inter-monitor redundancy.
//
// Execution is round-based so the global stop set stays deterministic at
// any thread count: within a round each VP traces a fixed slice of its
// (seeded, per-VP shuffled) destination order on pool workers, reading a
// *frozen* global set and buffering its own discoveries; between rounds
// the buffered insertions are committed in canonical VP order — the
// deferred pattern the token-bucket replay established — by one pool task
// per stripe of the global set (StopSet::commit). A VP's probe stream is
// therefore a pure function of (seed, stop-set contents at round
// boundaries), never of thread timing, and the census asserts that
// by folding every VP's schedule into schedule_hash. At the end, each
// VP's interface and link sets are sorted on the pool and merged pairwise
// into the census-wide sets. Every trace takes probe::TraceOptions'
// defaults (TTLs up to 30, two attempts per silent TTL), and with stop
// sets on it starts at DoubletreeGate::kFirstHop.
#pragma once

#include <cstdint>
#include <vector>

#include "measure/stopset.h"
#include "measure/testbed.h"

namespace rr::measure {

struct TraceCensusConfig {
  /// Destinations traced per VP (0 = the topology's whole destination
  /// list). Each VP walks its own shuffled order over the same set.
  std::size_t per_vp_dests = 0;
  double pps = 20.0;
  std::uint64_t seed = 0x7261CE;
  /// Master switch: off = classic full traces (the baseline the probe
  /// reduction is measured against).
  bool use_stop_sets = true;
  int threads = 0;     // 0 = testbed default / RROPT_THREADS
};

struct TraceCensusResult {
  std::uint64_t traces = 0;
  std::uint64_t reached = 0;
  std::uint64_t probes_sent = 0;
  /// TTL slots the backward rule provably skipped (lower bound — forward
  /// stops save an unknowable remaining distance; benches measure the
  /// full reduction by running the census off-vs-on).
  std::uint64_t probes_saved = 0;
  StopSetStats stats;  // merged across VPs (membership checks / hits)

  /// Topology discovered by the census — the redundancy-independent
  /// analysis output: distinct TTL-exceeded responder interfaces and
  /// distinct directed router-router adjacencies, with order-independent
  /// hashes over the sorted sets.
  std::uint64_t interfaces = 0;
  std::uint64_t links = 0;
  std::uint64_t interface_hash = 0;
  std::uint64_t link_hash = 0;
  /// Per-VP probe schedules (every trace's target, probe count, stop
  /// TTLs, and hop list) folded in canonical VP order: bit-identical
  /// schedules <=> equal hashes, at any thread count.
  std::uint64_t schedule_hash = 0;

  std::uint64_t local_keys = 0;   // summed across VPs
  std::uint64_t global_keys = 0;
  std::uint64_t stopset_overflows = 0;
};

/// Runs the census on `testbed` (serial phase: no concurrent sends may be
/// in flight; the census manages its own worker pool).
[[nodiscard]] TraceCensusResult run_trace_census(Testbed& testbed,
                                                 const TraceCensusConfig& config);

}  // namespace rr::measure

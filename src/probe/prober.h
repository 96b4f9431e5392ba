// A scamper-like probing engine bound to one vantage point.
//
// The prober owns a virtual send clock paced at a configurable packets-per-
// second rate (the paper's studies ran at 20 pps; §4.1 compares 10 and 100),
// builds real probe datagrams, injects them into the Network, and parses
// responses into ProbeResults, validating that a response actually matches
// the outstanding probe (id/seq for echoes, quoted headers for errors).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "probe/types.h"
#include "sim/network.h"

namespace rr::probe {

struct ProberOptions {
  double pps = 20.0;           // probing rate (paper default)
  std::uint16_t icmp_id = 0;   // 0 = derive from source host id
  double start_time = 0.0;     // virtual campaign start
};

/// Knobs for Prober::traceroute. The engine probes the forward sweep in
/// TTL windows through the batched dataplane (probe_batch_into), and —
/// when a TraceGate is installed — runs Doubletree's split: forward from
/// hop gate->begin(), then backward toward TTL 1, stopping either sweep
/// as soon as the gate recognizes a known interface.
struct TraceOptions {
  int max_ttl = 30;
  int attempts = 2;  // probes per unresponsive TTL
  /// Forward-sweep batch width (TTLs in flight per Network::send_batch),
  /// clamped to [1, sim::WalkBatch::kMaxProbes]. Purely an execution
  /// detail: outcomes per probe are unchanged, only the order probes hit
  /// the wire within a window (they are walked batch-major).
  int window = 4;
  /// Redundancy-aware stopping rules; nullptr = classic full trace.
  TraceGate* gate = nullptr;
  /// Sink for the trace's network counters. Traces always run the
  /// deferred (SendContext) dataplane mode; with a sink the tally is
  /// merged there (concurrent callers: one sink per worker, merge into
  /// the network at a serial point), without one it is folded straight
  /// into the network totals — serial callers only.
  sim::NetCounters* counters = nullptr;
};

class Prober {
 public:
  using Options = ProberOptions;

  Prober(sim::Network& network, topo::HostId source,
         ProberOptions options = ProberOptions{});

  /// Sends one probe at the next paced slot and returns its result.
  ProbeResult probe(const ProbeSpec& spec) { return probe(spec, nullptr); }

  /// Same, but routes simulator bookkeeping through `ctx` so that probes
  /// from different probers can run on concurrent threads (see
  /// sim::SendContext). The clock still advances one paced slot per call
  /// whether or not a response arrives, so send times — and therefore
  /// outcomes — depend only on the probe stream, not on thread timing.
  ProbeResult probe(const ProbeSpec& spec, sim::SendContext* ctx) {
    ProbeResult result;
    probe_into(spec, ctx, result);
    return result;
  }

  /// Allocation-free probe: builds the datagram in the prober's reusable
  /// buffer, sends it with Network::send_reusing, parses the response
  /// without materializing a Datagram, and reclaims the delivery's storage.
  /// `out` is reset first (its vectors keep their capacity), so a caller
  /// that reuses one result performs zero heap allocations per exchange
  /// once the buffers have warmed up.
  void probe_into(const ProbeSpec& spec, sim::SendContext* ctx,
                  ProbeResult& out);

  /// Batched variant: builds up to sim::WalkBatch::kMaxProbes datagrams
  /// into recycled per-slot buffers and hands them to Network::send_batch,
  /// which walks all forward legs (then all reply legs) slot-major.
  /// Each slot gets its own SendContext so counters and traces stay
  /// per-probe; pacing, sequence numbers, and parsing are identical to
  /// calling probe_into once per spec, in order. `specs`, `ctxs`, and
  /// `results` must have equal sizes.
  void probe_batch_into(std::span<const ProbeSpec> specs,
                        std::span<sim::SendContext> ctxs,
                        std::span<ProbeResult> results);

  /// Traceroute: TTL-limited pings until the target answers, a stop-set
  /// rule fires (options.gate), or the TTL budget is exhausted. Probes run
  /// in batched windows over the deferred dataplane, so a trace's probe
  /// outcomes are a pure function of its probe stream — identical whether
  /// traces run serially or on concurrent threads (with per-thread
  /// probers/counter sinks). Plain pings carry no IP options, so the
  /// deferred mode's optimistic bucket events never occur and no replay
  /// pass is needed.
  [[nodiscard]] TracerouteResult traceroute(net::IPv4Address target,
                                            const TraceOptions& options);

  /// Classic convenience form: full trace from TTL 1, no stop sets.
  [[nodiscard]] TracerouteResult traceroute(net::IPv4Address target,
                                            int max_ttl = 30,
                                            int attempts = 2);

  /// Virtual clock (seconds since campaign start).
  [[nodiscard]] double clock() const noexcept { return clock_; }
  void set_clock(double t) noexcept { clock_ = t; }
  void set_pps(double pps) noexcept { interval_ = 1.0 / pps; }

  [[nodiscard]] topo::HostId source() const noexcept { return source_; }
  [[nodiscard]] net::IPv4Address source_address() const noexcept {
    return source_address_;
  }

  /// Probes sent / responses matched (diagnostics).
  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t matched() const noexcept { return matched_; }
  [[nodiscard]] std::uint64_t mismatched() const noexcept {
    return mismatched_;
  }
  /// Times the reusable probe buffer's capacity grew across a probe — flat
  /// once the largest probe/reply geometry has been seen.
  [[nodiscard]] std::uint64_t buffer_growths() const noexcept {
    return buffer_growths_;
  }

 private:
  /// Serializes the probe datagram for `spec` into `buf` (reused storage),
  /// advancing the UDP destination-port rotation when applicable.
  void build_probe_into(const ProbeSpec& spec, std::uint16_t seq,
                        std::vector<std::uint8_t>& buf);

  void parse_response_into(const ProbeSpec& spec, std::uint16_t seq,
                           double send_time,
                           const sim::Network::Delivery& delivery,
                           ProbeResult& out);

  sim::Network* network_;
  topo::HostId source_;
  net::IPv4Address source_address_;
  std::uint16_t icmp_id_;
  std::uint16_t next_seq_ = 1;
  std::uint16_t next_udp_port_ = 0;
  double clock_;
  double interval_;
  std::uint64_t sent_ = 0;
  std::uint64_t matched_ = 0;
  std::uint64_t mismatched_ = 0;
  std::vector<std::uint8_t> buf_;  // probe/reply storage, recycled
  // Per-slot storage for probe_batch_into, recycled the same way; grows to
  // the batch width once and then stays flat.
  std::vector<std::vector<std::uint8_t>> batch_bufs_;
  std::uint64_t buffer_growths_ = 0;
  // Traceroute scratch (specs/contexts/results for one window, plus the
  // TTL-indexed hop buffer), reused across traces so a census performs no
  // steady-state allocation per trace.
  std::vector<ProbeSpec> trace_specs_;
  std::vector<sim::SendContext> trace_ctxs_;
  std::vector<ProbeResult> trace_results_;
  std::vector<TracerouteHop> trace_hops_;
};

}  // namespace rr::probe

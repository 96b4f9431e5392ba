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

/// Knobs for Prober::traceroute. The engine probes the forward sweep in
/// windows of four TTLs: every TTL of a window is sent (so a window can
/// probe past the destination) before the window is scanned for the
/// event that ends the sweep. When a TraceGate is installed it runs
/// Doubletree's split: forward from hop gate->begin(), then backward
/// toward TTL 1, stopping either sweep as soon as the gate recognizes a
/// known interface.
struct TraceOptions {
  int max_ttl = 30;
  int attempts = 2;  // probes per unresponsive TTL
  /// Redundancy-aware stopping rules; nullptr = classic full trace.
  TraceGate* gate = nullptr;
  /// Sink for the trace's network counters. A trace's probes are plain
  /// pings, which record no bucket consumes, so the tally needs no
  /// settle: with a sink it is merged there (concurrent callers: one sink
  /// per worker, merge into the network at a serial point), without one
  /// it is merged straight into the network totals — serial callers only.
  sim::NetCounters* counters = nullptr;
};

class Prober {
 public:
  /// A prober sending from `source` at `pps` probes per second of virtual
  /// time (the paper's studies ran at 20), its clock starting at 0.
  Prober(sim::Network& network, topo::HostId source, double pps = 20.0);

  /// Sends one probe at the next paced slot, settles it at once, and
  /// returns its result.
  ProbeResult probe(const ProbeSpec& spec) {
    ProbeResult result;
    probe_into(spec, nullptr, result);
    return result;
  }

  /// Allocation-free probe: builds the datagram in the prober's reusable
  /// buffer, sends it, inspects the response in place (packet/wire.h),
  /// and reclaims the delivery's storage. `out` is reset first (its
  /// vectors keep their capacity), so a caller that reuses one result
  /// performs zero heap allocations per exchange once the buffers have
  /// warmed up.
  ///
  /// With `ctx == nullptr` the probe is settled at once on the prober's
  /// own context (Network::send_settled). With a context it is a
  /// Network::send_reusing on it, so probes from different probers can
  /// run on concurrent threads; the caller settles or merges `ctx`. The
  /// clock advances one paced slot per call whether or not a response
  /// arrives, so send times — and therefore outcomes — depend only on the
  /// probe stream, not on thread timing.
  void probe_into(const ProbeSpec& spec, sim::SendContext* ctx,
                  ProbeResult& out);

  /// probe_into once per spec, in order, spec k on ctxs[k] into
  /// results[k]. `specs`, `ctxs`, and `results` must have equal sizes.
  /// Kept only because censusbench times it for its probe.rr_batch_ns_*
  /// metrics; retire the two together.
  void probe_batch_into(std::span<const ProbeSpec> specs,
                        std::span<sim::SendContext> ctxs,
                        std::span<ProbeResult> results);

  /// Traceroute: TTL-limited pings until the target answers, a stop-set
  /// rule fires (options.gate), or the TTL budget is exhausted. Every
  /// probe of a trace is a probe_into on the prober's own context, whose
  /// forward path scratch then stitches the trace's path once. Its probe
  /// outcomes are a pure function of its probe stream — identical whether
  /// traces run serially or on concurrent threads (with per-thread
  /// probers/counter sinks). Plain pings carry no IP options, so they
  /// record no bucket consumes and need no settle. `out` is reset first
  /// and its hop list keeps its capacity, so a caller that reuses one
  /// result allocates nothing per trace once warm.
  void traceroute_into(net::IPv4Address target, const TraceOptions& options,
                       TracerouteResult& out);

  /// traceroute_into into a fresh result.
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
  double clock_ = 0.0;
  double interval_;
  std::uint64_t sent_ = 0;
  std::uint64_t matched_ = 0;
  std::uint64_t mismatched_ = 0;
  std::vector<std::uint8_t> buf_;  // probe/reply storage, recycled
  std::uint64_t buffer_growths_ = 0;
  // The prober's own context: settled probes and every probe of a trace
  // send on it. With the trace's result and TTL-indexed hop buffer it is
  // reused across traces, so a census performs no steady-state
  // allocation per trace.
  sim::SendContext ctx_;
  ProbeResult trace_result_;
  std::vector<TracerouteHop> trace_hops_;
};

}  // namespace rr::probe

// Probe and response records — the prober's public vocabulary.
//
// A ProbeResult carries everything the measurement pipeline is allowed to
// know: what was sent, what came back, and what the RR option / quoted
// header contained. Simulator ground truth is never referenced.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "netbase/address.h"

namespace rr::probe {

enum class ProbeType : std::uint8_t {
  kPing = 0,        // plain ICMP echo request
  kPingRr = 1,      // echo request with a Record Route option
  kPingRrUdp = 2,   // UDP to a high closed port with Record Route
  kPingTs = 3,      // echo request with a Timestamp option (flag 1)
};

[[nodiscard]] const char* to_string(ProbeType type) noexcept;

enum class ResponseKind : std::uint8_t {
  kNone = 0,
  kEchoReply = 1,
  kTtlExceeded = 2,
  kPortUnreachable = 3,
};

[[nodiscard]] const char* to_string(ResponseKind kind) noexcept;

struct ProbeSpec {
  net::IPv4Address target;
  ProbeType type = ProbeType::kPing;
  std::uint8_t ttl = 64;
  int rr_slots = 9;  // used by the RR probe types

  [[nodiscard]] static ProbeSpec ping(net::IPv4Address target) {
    return {target, ProbeType::kPing, 64, 0};
  }
  [[nodiscard]] static ProbeSpec ping_rr(net::IPv4Address target,
                                         std::uint8_t ttl = 64) {
    return {target, ProbeType::kPingRr, ttl, 9};
  }
  [[nodiscard]] static ProbeSpec ping_rr_udp(net::IPv4Address target) {
    return {target, ProbeType::kPingRrUdp, 64, 9};
  }
  [[nodiscard]] static ProbeSpec ping_ts(net::IPv4Address target) {
    return {target, ProbeType::kPingTs, 64, 4};
  }
};

struct ProbeResult {
  net::IPv4Address target;
  ProbeType type = ProbeType::kPing;
  ResponseKind kind = ResponseKind::kNone;
  net::IPv4Address responder;  // outer source of the response

  /// Record Route data copied into the *reply* header (echo replies).
  bool rr_option_in_reply = false;
  std::vector<net::IPv4Address> rr_recorded;
  int rr_free_slots = 0;

  /// Timestamp-option data copied into the reply (ping-TS probes).
  bool ts_option_in_reply = false;
  std::vector<std::pair<net::IPv4Address, std::uint32_t>> ts_entries;
  int ts_overflow = 0;

  /// Record Route data recovered from the quoted datagram of an ICMP
  /// error (Time Exceeded / Port Unreachable).
  bool quoted_rr_present = false;
  std::vector<net::IPv4Address> quoted_rr;
  int quoted_rr_free_slots = 0;

  std::uint16_t reply_ip_id = 0;  // IP-ID of the response (alias resolution)
  double send_time = 0.0;
  double rtt = -1.0;  // seconds; negative when unanswered

  [[nodiscard]] bool responded() const noexcept {
    return kind != ResponseKind::kNone;
  }

  /// Returns the result to its default state while keeping the vectors'
  /// storage, so a reused result allocates nothing once warmed up.
  void reset() noexcept {
    target = net::IPv4Address{};
    type = ProbeType::kPing;
    kind = ResponseKind::kNone;
    responder = net::IPv4Address{};
    rr_option_in_reply = false;
    rr_recorded.clear();
    rr_free_slots = 0;
    ts_option_in_reply = false;
    ts_entries.clear();
    ts_overflow = 0;
    quoted_rr_present = false;
    quoted_rr.clear();
    quoted_rr_free_slots = 0;
    reply_ip_id = 0;
    send_time = 0.0;
    rtt = -1.0;
  }

  [[nodiscard]] std::string to_string() const;
};

/// One hop of a traceroute.
struct TracerouteHop {
  int ttl = 0;
  bool responded = false;
  net::IPv4Address address;            // responder (when responded)
  ResponseKind kind = ResponseKind::kNone;
};

/// Redundancy-aware probing hooks for Prober::traceroute (Doubletree stop
/// sets — implemented by measure::DoubletreeGate; the interface lives here
/// so probe/ stays independent of measure/). A gate-driven trace probes
/// *forward* from hop h = begin() until the destination answers or
/// stop_forward() recognizes an (interface, destination-prefix) fact,
/// then *backward* from h-1 down to 1 until stop_backward() recognizes an
/// (interface, TTL) fact this monitor has seen before.
class TraceGate {
 public:
  virtual ~TraceGate() = default;

  /// Starts a trace toward `target`; returns the TTL to begin forward
  /// probing at (Doubletree's h; clamped by the caller to [1, max_ttl]).
  virtual int begin(net::IPv4Address target) = 0;
  /// Forward stop: the path from `iface` to the target's prefix is
  /// already known to some monitor. The fact does not depend on TTL.
  virtual bool stop_forward(net::IPv4Address iface) = 0;
  /// Backward stop: this monitor has already seen `iface` at `ttl`.
  virtual bool stop_backward(net::IPv4Address iface, int ttl) = 0;
  /// Every TTL-exceeded responder observed by the trace.
  virtual void record(net::IPv4Address iface, int ttl) = 0;
};

struct TracerouteResult {
  net::IPv4Address target;
  std::vector<TracerouteHop> hops;  // ascending TTL; contiguous probed range
  bool reached = false;

  /// TTL the forward sweep started at (Doubletree's h; 1 = classic).
  int first_ttl = 1;
  /// >0: the global stop set ended the forward sweep at this TTL.
  int forward_stop_ttl = 0;
  /// >0: the local stop set ended the backward sweep at this TTL.
  int backward_stop_ttl = 0;
  std::uint64_t probes_sent = 0;
  /// TTL slots a stop fact excused this trace from probing.
  std::uint64_t probes_saved = 0;

  /// Number of probing hops to the destination (TTL at which the echo
  /// reply arrived); -1 when the destination was not reached.
  [[nodiscard]] int hop_count() const noexcept {
    return reached && !hops.empty() ? hops.back().ttl : -1;
  }

  /// Returns the result to its default state while keeping the hop
  /// list's storage, so a reused result allocates nothing once warmed up.
  void reset() noexcept {
    target = net::IPv4Address{};
    hops.clear();
    reached = false;
    first_ttl = 1;
    forward_stop_ttl = 0;
    backward_stop_ttl = 0;
    probes_sent = 0;
    probes_saved = 0;
  }
};

}  // namespace rr::probe

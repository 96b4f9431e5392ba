// The packet-level network simulator.
//
// Network::send_reusing() injects a serialized IPv4 datagram at a source
// host at a virtual time and returns the response datagram (if any)
// exactly as the probing host would capture it, unless Network::settle()
// later finds one of the send's token-bucket consumes refused. In
// between, the packet is walked hop by hop along the policy-routed
// forward path, each router applying its behaviour to the real wire
// bytes:
//
//   * slow-path diversion for packets with IP options (rate limiting,
//     AS edge/transit filtering),
//   * TTL decrement (unless hidden) with Time-Exceeded generation
//     (unless anonymous), quoting the packet *with its RR stamps so far*,
//   * Record Route stamping of the outgoing interface,
//   * random loss.
//
// Replies traverse the independently-routed reverse path with the same
// treatment, which is how a ping-RR reply keeps recording hops on the way
// back (the reverse-traceroute mechanism the paper builds on).
//
// It is the one send path: every probe — a campaign ping-RR, each TTL of
// a traceroute, a ping-sweep attempt, a lone study probe — is one call,
// and a caller that sends many probes reuses one SendContext (below)
// across them.
//
// Measurement code never sees simulator internals — only response bytes.
//
// Determinism and concurrency
// ---------------------------
// Every per-packet random decision (loss on either leg) is a counter-based
// draw keyed on (seed, source, destination, send time, leg, hop), so a
// packet's fate is a pure function of the packet — independent of how many
// other packets are in flight or of the order threads execute them. The
// only cross-packet state is the per-router options token buckets and the
// aggregate counters. A send touches neither: its counters accumulate in
// its SendContext, and its bucket consumes are not decided but *recorded*
// as BucketEvents (assumed to succeed). settle() then replays one send's
// events against the buckets, in whatever canonical order the caller
// feeds sends (the campaign uses virtual-time order), and merges its
// counters into the totals. A rate-limit drop is silent, so a send whose
// consume fails simply has its optimistic response discarded; nothing
// else about the walk would have differed. send_settled() is the lone
// send: a send_reusing plus its settle, for callers with one probe in
// flight.
//
// Buckets and aggregate counters sit behind a serial gate (util/mutex.h).
// A send never reads or writes them, so a gate holder — a settle(), a
// merge_counters() — may run beside sends; the campaign settles one
// chunk's probes while the next chunk's probes walk. A gate holder must
// never run beside another gate holder (a send_settled is one), and
// table or plan installs (set_compiled_fib, set_fault_plan, reset) never
// beside any send.
//
// Device IP-ID counters are atomics: response IP-IDs depend on global send
// order (they model background traffic on a shared counter), but they
// never enter campaign observations, so campaign output stays bit-for-bit
// reproducible at any thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "routing/fib.h"
#include "routing/stitcher.h"
#include "sim/behavior.h"
#include "sim/fault.h"
#include "sim/pipeline.h"
#include "sim/token_bucket.h"
#include "util/annotations.h"
#include "util/mutex.h"
#include "util/rng.h"

namespace rr::sim {

using topo::HostId;
using topo::RouterId;

struct NetParams {
  std::uint64_t seed = 0x51C0FFEE;
};

/// Reusable buffer for building replies whose geometry differs from the
/// request (stripped echo replies, ICMP errors). The network swaps it with
/// the probe buffer after building, so the two storages circulate between
/// the caller and the scratch and the steady state allocates nothing.
/// `growths` counts capacity growths — flat after warm-up.
struct ReplyScratch {
  std::vector<std::uint8_t> bytes;
  std::uint64_t growths = 0;
};

/// A send's forward hop list and the host pair it was resolved for. The
/// key is (network, source host, destination host), with `network` a
/// per-Network id (0 names no network), so a send through the same
/// network to the same host reuses the hops instead of stitching them
/// again: a traceroute's TTL probes share one forward path. Whatever
/// writes `hops` sets the key to what they now hold or clears it, so a
/// set key always names exactly the path in `hops`.
struct ForwardPath {
  std::vector<route::PathHop> hops;
  std::uint64_t network = 0;
  HostId src = topo::kNoHost;
  HostId dst = topo::kNoHost;

  [[nodiscard]] bool holds(std::uint64_t net, HostId from,
                           HostId to) const noexcept {
    return network == net && src == from && dst == to;
  }
};

/// Per-worker send state: a private counter tally (settled or merged into
/// the network by the caller) plus the trace of the most recent send. One
/// context must never be used by two threads at once.
struct SendContext {
  NetCounters counters;
  ProbeTrace trace;
  ReplyScratch scratch;
  /// Hop-list scratches for every path a send resolves: the compiled FIB
  /// (routing/fib.h) copies a spine into them, and the stitcher writes
  /// any other path straight into them, so a warmed-up context resolves
  /// paths without allocating. Forward and reverse are separate because
  /// the forward hops must stay valid while the reply leg resolves its
  /// own path (the reverse scratch serves every reply: host replies,
  /// router errors and router echo replies). Only the forward path is
  /// kept between sends; every reply path is resolved per send.
  ForwardPath fwd_path;
  std::vector<route::PathHop> rev_path_scratch;
};

class Network {
 public:
  Network(std::shared_ptr<const topo::Topology> topology,
          std::shared_ptr<const Behaviors> behaviors,
          const route::RoutingOracle& oracle, NetParams params = {});

  struct Delivery {
    std::vector<std::uint8_t> bytes;
    double time = 0.0;
    /// Host that actually received the response. Equals the injecting host
    /// unless the probe's header named another source (spoofing, as used
    /// by Reverse Traceroute): responses always follow the *header*.
    HostId receiver = topo::kNoHost;
    /// Number of *extra* identical copies the capture point saw (injected
    /// duplicate-reply faults). Diagnostics only: a dedup-correct prober
    /// ignores repeats, so campaign contents are unaffected.
    std::uint8_t duplicates = 0;
  };

  /// Injects `bytes` (a full IPv4 datagram) from `src` at virtual time
  /// `time` (seconds). Returns the response, delivered to whichever host
  /// owns the datagram's source address, or nullopt if nothing comes back
  /// (including when the named source is not a host).
  ///
  /// The probe is consumed from (and replies are built by recycling)
  /// `bytes`, whose storage ends up either in the returned Delivery
  /// (reclaim it from there) or back in `bytes`. Steady-state callers that
  /// reuse one buffer per worker — and reclaim the delivery's bytes after
  /// parsing — allocate nothing per exchange.
  ///
  /// Safe to run concurrently with other sends holding *different*
  /// contexts. Counters accumulate in `ctx.counters`, bucket consumes are
  /// recorded in `ctx.trace` (see the header comment), and the returned
  /// delivery is optimistic until the caller settles that trace.
  std::optional<Delivery> send_reusing(HostId src,
                                       std::vector<std::uint8_t>& bytes,
                                       double time, SendContext& ctx) {
    return exchange(src, bytes, time, ctx, /*salt=*/0);
  }

  /// A lone send, settled at once: send_reusing, then settle() on the
  /// send's own tally, which `ctx.counters` holds afterwards. Its flow key
  /// also folds in the network's running send count, so back-to-back
  /// retries of an identical packet redraw their luck. When a consume
  /// fails it returns nullopt, with the storage back in `bytes`. A gate
  /// holder: it must not run beside another one.
  std::optional<Delivery> send_settled(HostId src,
                                       std::vector<std::uint8_t>& bytes,
                                       double time, SendContext& ctx)
      RROPT_EXCLUDES(serial_gate_);

  /// Replays one send's recorded options-token consumes against the
  /// buckets, in order. At the first failed consume the rest never
  /// happen, and `tally` (the send's counters) becomes what a walk that
  /// met the empty bucket live would have counted. Then merges `tally`
  /// into the network totals and returns whether the exchange survived.
  /// Callers settle sends in their chosen canonical order (the campaign
  /// uses virtual-time order); concurrent calls are not allowed — the
  /// serial gate (util/mutex.h) turns that sentence into a capability the
  /// thread-safety analysis checks on every bucket access. Sends may be in
  /// flight meanwhile.
  bool settle(const ProbeTrace& trace, NetCounters& tally)
      RROPT_EXCLUDES(serial_gate_);

  /// Folds a per-worker counter tally into the network totals, for sends
  /// that recorded no bucket consumes (plain pings). Serial phase only:
  /// must not race other gate holders (sends never touch the totals).
  void merge_counters(const NetCounters& tally) RROPT_EXCLUDES(serial_gate_);

  /// Resets token buckets and counters (fresh measurement campaign).
  void reset() RROPT_EXCLUDES(serial_gate_);

  /// Installs a fault-injection schedule (see sim/fault.h). The default
  /// plan is inert; installing an inert plan restores exact no-fault
  /// behaviour — every fault draw uses its own key space, so baseline
  /// loss/bucket decisions are untouched either way. Installs are a
  /// serial-phase operation (sends read the plan lock-free). The pipeline
  /// recompiles its run lists so fault elements appear (or vanish) and the
  /// stamp elements flip between fault-aware and trusted.
  void set_fault_plan(const FaultPlan& plan) RROPT_EXCLUDES(serial_gate_) {
    util::SerialGateLock gate(serial_gate_);
    fault_plan_ = plan;
    pipeline_.set_faults_enabled(fault_plan_.enabled());
  }
  [[nodiscard]] const FaultPlan& fault_plan() const noexcept {
    return fault_plan_;
  }
  /// Installs (or, with nullptr, removes) a compiled forwarding table for
  /// host-to-host campaign traffic. While installed, sends resolve
  /// covered forward/reverse host paths from the table — bit-identical to
  /// the stitcher's output — and stitch pairs outside its coverage.
  /// Swapping tables between campaign blocks is a caller-serialized
  /// operation; concurrent sends must not be in flight.
  void set_compiled_fib(std::shared_ptr<const route::CompiledFib> fib)
      RROPT_EXCLUDES(serial_gate_) {
    util::SerialGateLock gate(serial_gate_);
    fib_ = std::move(fib);
  }

  /// Per-kind injected-fault tallies. Diagnostics only: they include
  /// faults on optimistically-walked probes that a settle later kills, so
  /// unlike NetCounters they are not thread-count-exact.
  [[nodiscard]] const FaultCounters& fault_counters() const noexcept {
    return fault_counters_;
  }

  [[nodiscard]] const NetCounters& counters() const noexcept {
    // Reading totals mid-campaign would race worker merges; callers read
    // them between phases, which is exactly the serial contract.
    serial_gate_.assert_held();
    return counters_;
  }
  [[nodiscard]] const topo::Topology& topology() const noexcept {
    return *topology_;
  }
  [[nodiscard]] const Behaviors& behaviors() const noexcept {
    return *behaviors_;
  }
  [[nodiscard]] route::PathStitcher& stitcher() noexcept { return stitcher_; }

  /// Always 0: the network has no path cache (each send reuses the one
  /// forward path its scratch holds, reads the compiled FIB or stitches
  /// into its own scratch), so nothing hits or misses. Kept only because
  /// benchmark ledgers read these two counters; retire it with their
  /// routing.path_cache_* metrics.
  struct PathCacheStats {
    [[nodiscard]] std::uint64_t hits() const noexcept { return 0; }
    [[nodiscard]] std::uint64_t misses() const noexcept { return 0; }
  };
  [[nodiscard]] PathCacheStats path_cache() const noexcept { return {}; }
  /// The compiled dataplane (sim/pipeline.h): per-router HopRows plus the
  /// per-personality element run lists walk executes.
  [[nodiscard]] const CompiledPipeline& pipeline() const noexcept {
    return pipeline_;
  }

 private:
  /// What a send resolves before its forward walk.
  struct StagedSend {
    std::uint64_t flow = 0;
    topo::AddressOwner owner;  // the destination address's owner
    net::IPv4Address dst_addr;
    HostId reply_to = topo::kNoHost;  // host owning the header's source
    topo::AsId src_as = 0;
    topo::AsId dst_as = 0;
    std::span<const route::PathHop> fwd_hops;  // views the forward scratch
  };

  /// One exchange, the body of send_reusing and send_settled. A nonzero
  /// `salt` is folded into the flow key (see send_settled).
  std::optional<Delivery> exchange(HostId src,
                                   std::vector<std::uint8_t>& bytes,
                                   double time, SendContext& ctx,
                                   std::uint64_t salt);

  /// The staging step of an exchange: trace reset, sent/unroutable
  /// accounting, flow key, owner and reply-to lookup, and forward-spine
  /// resolution (a probed router is trimmed off the spine: it answers
  /// rather than forwards). A host path already in the send's forward
  /// scratch is reused, else resolved. Returns false when the send ends
  /// here, with no delivery.
  bool stage_send(HostId src, std::span<const std::uint8_t> bytes,
                  double time, std::uint64_t salt, SendContext& ctx,
                  StagedSend& out);

  /// Settles a forward walk: a drop ends the exchange silently, a TTL
  /// expiry raises the router's Time-Exceeded error (unless the router is
  /// anonymous), and a delivery is counted unless doomed. Returns true
  /// only for a delivery, which the caller hands to the endpoint;
  /// otherwise `out` holds the exchange's final result.
  bool settle_forward(const WalkResult& fwd, const StagedSend& staged,
                      std::vector<std::uint8_t>& bytes, SendContext& ctx,
                      std::optional<Delivery>& out);

  /// Runs one leg through walk_hops over `hops`, mutating `bytes` in
  /// place. `flow` keys the packet's counter-based draws; `leg` is 0 on
  /// the forward walk and 1 on any reply walk. `doomed_in` marks a ghost
  /// continuation of an exchange a fault already discarded: the walk
  /// consumes shared state exactly as the baseline would but charges no
  /// further counters and the result stays doomed.
  WalkResult walk_pipeline(std::vector<std::uint8_t>& bytes,
                           std::span<const route::PathHop> hops, double start,
                           topo::AsId src_as, topo::AsId dst_as,
                           std::uint64_t flow, int leg, SendContext& ctx,
                           bool doomed_in = false);

  /// Host owning an address, if any (responses are routed to it).
  [[nodiscard]] std::optional<HostId> host_owning(
      net::IPv4Address addr) const;

  /// Builds + routes an ICMP error from a router back to `reply_to`. The
  /// error is built in the reply scratch and swapped into `offending`.
  std::optional<Delivery> emit_router_error(RouterId router,
                                            net::IPv4Address from,
                                            std::uint8_t icmp_type,
                                            std::uint8_t code,
                                            std::vector<std::uint8_t>& offending,
                                            HostId reply_to, double time,
                                            std::uint64_t flow,
                                            SendContext& ctx);

  /// Response from the destination host for an echo request / UDP probe.
  /// `doomed` continues a ghost exchange (see walk_pipeline()). The reply
  /// is built by mutating `bytes` in place (echo replies that keep the
  /// request's options) or by swapping in the reply scratch.
  std::optional<Delivery> host_respond(HostId dst, HostId reply_to,
                                       std::vector<std::uint8_t>& bytes,
                                       double time, std::uint64_t flow,
                                       SendContext& ctx, bool doomed);

  /// Response from a directly probed router interface.
  std::optional<Delivery> router_respond(RouterId router,
                                         net::IPv4Address probed,
                                         HostId reply_to,
                                         std::vector<std::uint8_t>& bytes,
                                         double time, std::uint64_t flow,
                                         SendContext& ctx, bool doomed);

  /// Walks a response along the reverse path to `receiver`, moving `bytes`
  /// into the returned Delivery on arrival (after the capture-point
  /// faults). A reply that is dropped, expires, or belongs to a fault
  /// ghost never arrives.
  std::optional<Delivery> deliver_back(std::vector<std::uint8_t>& bytes,
                                       std::span<const route::PathHop> hops,
                                       double start, topo::AsId src_as,
                                       topo::AsId dst_as, HostId receiver,
                                       std::uint64_t flow, SendContext& ctx,
                                       bool doomed);

  /// Resolves the host path `from` -> `to` into `out`: from the compiled
  /// FIB when one is installed and covers the pair, otherwise stitched.
  /// `reply` selects the table's direction: false for a probe leaving
  /// `from`, true for a reply returning to `to`. Returns false when
  /// unroutable.
  bool host_hops(HostId from, HostId to, bool reply,
                 std::vector<route::PathHop>& out);

  [[nodiscard]] std::uint16_t next_ip_id(bool is_router, std::uint32_t id,
                                         double now);

  std::shared_ptr<const topo::Topology> topology_;
  std::shared_ptr<const Behaviors> behaviors_;
  /// Process-unique and never 0: the `network` of the ForwardPath keys
  /// this network's sends set. Unlike the object's address, it is not
  /// reused by a later network, so a context that outlives one network
  /// cannot mistake its path for another's.
  const std::uint64_t id_;
  route::PathStitcher stitcher_;
  std::shared_ptr<const route::CompiledFib> fib_;
  NetParams params_;
  /// Phase capability for the caller-serialized state below. Not a lock
  /// (zero cost): it names the campaign's structural guarantee — buckets
  /// and aggregate counters are only touched by one serial actor at a
  /// time (a settle, a merge, reset), never by a send — so the compiler
  /// can reject code that touches them without it. `fault_plan_` and `fib_` are
  /// deliberately outside the capability: they are written only while no
  /// send is in flight but *read* concurrently by every send, so a
  /// guarded-by would demand a capability on the hot path; installs go
  /// through the gate-acquiring setters instead.
  mutable util::SerialGate serial_gate_;
  NetCounters counters_ RROPT_GUARDED_BY(serial_gate_);
  FaultPlan fault_plan_;
  FaultCounters fault_counters_;
  /// One bucket per router, indexed by RouterId and initialised from the
  /// router's behaviour at construction (satellite of the compiled
  /// forwarding plane: the old lazy hash map cost a probe-path lookup per
  /// policed hop).
  std::vector<TokenBucket> buckets_ RROPT_GUARDED_BY(serial_gate_);
  /// The compiled dataplane: HopRows + run lists + element set. Immutable
  /// after construction except for the serial-phase run-list recompile in
  /// set_fault_plan.
  CompiledPipeline pipeline_;
  std::vector<std::atomic<std::uint32_t>> router_ipid_count_;
  std::vector<std::atomic<std::uint32_t>> host_ipid_count_;
};

}  // namespace rr::sim

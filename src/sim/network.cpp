#include "sim/network.h"

#include <bit>
#include <utility>

#include "packet/view.h"
#include "packet/wire.h"

namespace rr::sim {

namespace {

/// Source of Network ids; 0 is never handed out (ForwardPath's "no key").
std::atomic<std::uint64_t> g_next_network_id{1};

/// Virtual time a packet spends per router hop (seconds).
constexpr double kHopDelaySeconds = 0.0005;

/// Payload bytes an ICMP error quotes past the offending header (RFC 792).
constexpr std::size_t kQuotedPayloadBytes = 8;

/// Runs a reply build against the scratch, counting capacity growths so
/// steady-state allocation-freedom is observable.
template <typename BuildFn>
void build_into_scratch(ReplyScratch& scratch, BuildFn&& build) {
  const std::size_t capacity = scratch.bytes.capacity();
  build(scratch.bytes);
  if (scratch.bytes.capacity() != capacity) ++scratch.growths;
}

/// The counters a walk that met an empty bucket live would have recorded
/// for a send whose `kill_index`th recorded consume fails: everything past
/// the policed router never happened, so keep only the optimistic counters
/// the walk accrued before the kill point (which the trace's counted_*
/// flags remember) and charge the policed drop itself. If a fault doomed
/// the exchange *before* the failed consume, the live walk charged the
/// fault's own drop at the fire point and suppressed the policed one; a
/// doom recorded after the kill point never happened. Works for any
/// exchange — echo replies, ICMP errors, UDP port unreachables.
NetCounters killed_counters(const ProbeTrace& trace, bool killed_reply,
                            std::size_t kill_index) {
  NetCounters live;
  live.sent = 1;
  if (trace.doomed && kill_index >= trace.doom_after_events &&
      trace.doom_charged_loss) {
    live.dropped_loss = 1;
  } else {
    live.dropped_rate_limit = 1;
  }
  if (killed_reply) {
    // The forward leg completed and the response was generated; only the
    // reply leg (and its counted_response) is rolled back. A forward-leg
    // doom left these flags unset, so a ghost exchange keeps none.
    live.delivered = trace.counted_delivered ? 1 : 0;
    live.ttl_errors = trace.counted_ttl_error ? 1 : 0;
    live.port_unreachables = trace.counted_port_unreachable ? 1 : 0;
  }
  return live;
}

}  // namespace

Network::Network(std::shared_ptr<const topo::Topology> topology,
                 std::shared_ptr<const Behaviors> behaviors,
                 const route::RoutingOracle& oracle, NetParams params)
    : topology_(std::move(topology)),
      behaviors_(std::move(behaviors)),
      id_(g_next_network_id.fetch_add(1, std::memory_order_relaxed)),
      stitcher_(topology_, oracle),
      params_(params),
      router_ipid_count_(topology_->routers().size()),
      host_ipid_count_(topology_->hosts().size()) {
  util::SerialGateLock gate(serial_gate_);
  buckets_.reserve(topology_->routers().size());
  for (RouterId id = 0; id < topology_->routers().size(); ++id) {
    const RouterBehavior& b = behaviors_->router(id);
    buckets_.emplace_back(b.options_rate_pps, b.options_burst);
  }
  // Freeze-time dataplane compilation: per-router HopRows plus the
  // per-personality element run lists (sim/pipeline.h). The fault elements
  // keep a pointer to our fault_plan_ member, whose address is stable
  // across set_fault_plan installs.
  pipeline_ = CompiledPipeline::compile(*topology_, *behaviors_, &fault_plan_);
}

void Network::reset() {
  util::SerialGateLock gate(serial_gate_);
  for (auto& bucket : buckets_) bucket.reset();
  counters_ = NetCounters{};
  fault_counters_.reset();
}

void Network::merge_counters(const NetCounters& tally) {
  util::SerialGateLock gate(serial_gate_);
  counters_.merge(tally);
}

bool Network::settle(const ProbeTrace& trace, NetCounters& tally) {
  util::SerialGateLock gate(serial_gate_);
  // RROPT_HOT_BEGIN(network-settle): runs once per campaign probe in pass
  // B; a bucket consume per recorded event, then a counter merge.
  bool survived = true;
  for (std::size_t e = 0; e < trace.events.size(); ++e) {
    const BucketEvent& event = trace.events[e];
    if (buckets_[event.router].try_consume(event.time)) continue;
    // A policed drop is silent: a forward-leg failure means the probe
    // never arrived anywhere, a reply-leg failure means the response never
    // came home. Later events would not have happened (reply events
    // always follow forward ones).
    tally = killed_counters(trace, event.reply_leg, e);
    survived = false;
    break;
  }
  counters_.merge(tally);
  // RROPT_HOT_END(network-settle)
  return survived;
}

std::optional<Network::Delivery> Network::send_settled(
    HostId src, std::vector<std::uint8_t>& bytes, double time,
    SendContext& ctx) {
  // The salt is this send's ordinal in the network's send count: the
  // settled totals so far plus this send.
  std::uint64_t salt = 0;
  {
    util::SerialGateLock gate(serial_gate_);
    salt = counters_.sent + 1;
  }
  ctx.counters = NetCounters{};
  std::optional<Delivery> out = exchange(src, bytes, time, ctx, salt);
  if (settle(ctx.trace, ctx.counters)) return out;
  if (out) bytes = std::move(out->bytes);
  return std::nullopt;
}

bool Network::host_hops(HostId from, HostId to, bool reply,
                        std::vector<route::PathHop>& out) {
  if (fib_ != nullptr) {
    switch (reply ? fib_->reverse(from, to, out)
                  : fib_->forward(from, to, out)) {
      case route::CompiledFib::Lookup::kHit:
        return true;
      case route::CompiledFib::Lookup::kUnroutable:
        return false;
      case route::CompiledFib::Lookup::kMiss:
        break;  // pair not compiled; stitch it
    }
  }
  return stitcher_.host_path(from, to, out);
}

std::uint16_t Network::next_ip_id(bool is_router, std::uint32_t id,
                                  double now) {
  const double velocity = is_router ? behaviors_->router_ipid_velocity(id)
                                    : behaviors_->host_ipid_velocity(id);
  std::atomic<std::uint32_t>& count =
      is_router ? router_ipid_count_[id] : host_ipid_count_[id];
  const std::uint32_t base = static_cast<std::uint32_t>(
      util::mix64((std::uint64_t{is_router} << 40) | id) & 0xffff);
  const std::uint32_t n = count.fetch_add(1, std::memory_order_relaxed) + 1;
  return static_cast<std::uint16_t>(
      (base + n + static_cast<std::uint32_t>(velocity * now)) & 0xffff);
}

WalkResult Network::walk_pipeline(std::vector<std::uint8_t>& bytes,
                                  std::span<const route::PathHop> hops,
                                  double start, topo::AsId src_as,
                                  topo::AsId dst_as, std::uint64_t flow,
                                  int leg, SendContext& ctx, bool doomed_in) {
  // One view per leg: option offsets are located once, and every per-hop
  // TTL decrement and RR/TS stamp is an O(1) in-place mutation with an
  // RFC 1624 incremental checksum update (see packet/view.h).
  pkt::Ipv4HeaderView view{bytes};
  HopContext hc;
  hc.view = &view;
  hc.bytes = bytes;
  hc.has_options = view.has_options();
  hc.now = start;
  hc.doomed = doomed_in;
  hc.leg = leg;
  hc.flow = flow;
  hc.src_as = src_as;
  hc.dst_as = dst_as;
  hc.counters = &ctx.counters;
  hc.fault_counters = &fault_counters_;
  // CoPP consumes are recorded into the trace for settle() (see the header
  // comment on Network).
  hc.trace = &ctx.trace;
  return walk_hops(hc, hops, pipeline_.list_bank(hc.has_options),
                   pipeline_.rows().data(), pipeline_.elements(),
                   kHopDelaySeconds);
}

std::optional<HostId> Network::host_owning(net::IPv4Address addr) const {
  const auto owner = topology_->owner_of(addr);
  if (!owner || owner->kind != topo::AddressOwner::Kind::kHost) {
    return std::nullopt;
  }
  return owner->id;
}

bool Network::stage_send(HostId src, std::span<const std::uint8_t> bytes,
                         double time, std::uint64_t salt, SendContext& ctx,
                         StagedSend& out) {
  NetCounters& c = ctx.counters;
  ctx.trace.reset();
  ++c.sent;
  const auto dst_addr = pkt::peek_destination(bytes);
  if (!dst_addr) return false;
  const auto owner = topology_->owner_of(*dst_addr);
  if (!owner) {
    ++c.dropped_unroutable;
    return false;
  }

  // Responses chase the header's source address, which may be spoofed.
  const auto src_addr = pkt::peek_source(bytes);
  if (!src_addr) return false;
  const auto reply_to = host_owning(*src_addr);
  if (!reply_to) {
    ++c.dropped_unroutable;
    return false;
  }

  // The packet's flow key: every random decision along both legs derives
  // from it, so the probe's fate is a pure function of (seed, injecting
  // host, destination address, send time). A settled send additionally
  // folds in its salt, the network's running send count, so that
  // back-to-back retries of an identical packet redraw their luck;
  // concurrent sends pass 0 and rely on unique send times instead.
  std::uint64_t flow = util::mix64(params_.seed ^ 0x5252464c4f57ULL);
  flow = util::mix64(flow ^
                     ((std::uint64_t{src} << 32) ^ dst_addr->value()));
  flow = util::mix64(flow ^ std::bit_cast<std::uint64_t>(time));
  if (salt != 0) flow = util::mix64(flow ^ salt);

  out.flow = flow;
  out.owner = *owner;
  out.dst_addr = *dst_addr;
  out.reply_to = *reply_to;
  out.src_as = topology_->host_at(src).as_id;
  // RROPT_HOT_BEGIN(network-stage-path): forward-path resolution runs once
  // per probe. A reuse reads the scratch as it is, and a resolve writes
  // into its recycled capacity, so a warm scratch resolves without
  // allocating.
  ForwardPath& fwd = ctx.fwd_path;
  if (owner->kind == topo::AddressOwner::Kind::kHost) {
    const HostId dst = owner->id;
    out.dst_as = topology_->host_at(dst).as_id;
    if (!fwd.holds(id_, src, dst)) {
      fwd.network = 0;
      if (!host_hops(src, dst, /*reply=*/false, fwd.hops)) {
        ++c.dropped_unroutable;
        return false;
      }
      fwd.network = id_;
      fwd.src = src;
      fwd.dst = dst;
    }
    out.fwd_hops = fwd.hops;
    return true;
  }
  fwd.network = 0;  // the hops are about to hold a router-target path
  out.dst_as = topology_->router_at(owner->id).as_id;
  if (!stitcher_.host_to_router_path(src, owner->id, fwd.hops)) {
    ++c.dropped_unroutable;
    return false;
  }
  // The probed router is the final element; it answers rather than
  // forwards, so exclude it from the forwarding walk.
  out.fwd_hops =
      std::span<const route::PathHop>{fwd.hops}.first(fwd.hops.size() - 1);
  // RROPT_HOT_END(network-stage-path)
  return true;
}

bool Network::settle_forward(const WalkResult& fwd, const StagedSend& staged,
                             std::vector<std::uint8_t>& bytes,
                             SendContext& ctx, std::optional<Delivery>& out) {
  NetCounters& c = ctx.counters;
  switch (fwd.outcome) {
    case WalkResult::Outcome::kDropped:
      return false;
    case WalkResult::Outcome::kTtlExpired: {
      const route::PathHop& hop = staged.fwd_hops[fwd.expired_hop];
      if (behaviors_->router(hop.router).anonymous) {
        ++c.dropped_ttl;
        return false;
      }
      ++c.ttl_errors;
      ctx.trace.counted_ttl_error = true;
      out = emit_router_error(
          hop.router, hop.ingress,
          static_cast<std::uint8_t>(pkt::IcmpType::kTimeExceeded),
          pkt::kCodeTtlExceededInTransit, bytes, staged.reply_to, fwd.time,
          staged.flow, ctx);
      return false;
    }
    case WalkResult::Outcome::kDelivered:
      break;
  }
  if (!fwd.doomed) {
    ++c.delivered;
    ctx.trace.counted_delivered = true;
  }
  return true;
}

std::optional<Network::Delivery> Network::exchange(
    HostId src, std::vector<std::uint8_t>& bytes, double time,
    SendContext& ctx, std::uint64_t salt) {
  StagedSend staged;
  if (!stage_send(src, bytes, time, salt, ctx, staged)) return std::nullopt;
  const WalkResult fwd =
      walk_pipeline(bytes, staged.fwd_hops, time, staged.src_as,
                    staged.dst_as, staged.flow, /*leg=*/0, ctx);
  std::optional<Delivery> out;
  if (!settle_forward(fwd, staged, bytes, ctx, out)) return out;
  if (staged.owner.kind == topo::AddressOwner::Kind::kHost) {
    return host_respond(staged.owner.id, staged.reply_to, bytes, fwd.time,
                        staged.flow, ctx, fwd.doomed);
  }
  return router_respond(staged.owner.id, staged.dst_addr, staged.reply_to,
                        bytes, fwd.time, staged.flow, ctx, fwd.doomed);
}

std::optional<Network::Delivery> Network::emit_router_error(
    RouterId router, net::IPv4Address from, std::uint8_t icmp_type,
    std::uint8_t code, std::vector<std::uint8_t>& offending, HostId reply_to,
    double time, std::uint64_t flow, SendContext& ctx) {
  const auto probe_src = pkt::peek_source(offending);
  if (!probe_src) return std::nullopt;

  const std::uint16_t ip_id = next_ip_id(/*is_router=*/true, router, time);
  ReplyScratch& scratch = ctx.scratch;
  build_into_scratch(scratch, [&](std::vector<std::uint8_t>& out) {
    pkt::build_icmp_error(out, icmp_type, code, from, *probe_src, ip_id,
                          offending, kQuotedPayloadBytes);
  });
  // A buggy/byzantine error generator quotes a mangled inner header: the
  // message still parses, but quotation matching must reject it.
  if (fault_plan_.enabled() && fault_plan_.mangle_quote(flow) &&
      pkt::mangle_icmp_quote(scratch.bytes)) {
    fault_counters_.note(FaultKind::kQuoteMangle);
  }
  std::swap(offending, scratch.bytes);

  // Route the error from the originating router back to the prober. The
  // error itself carries no options, so edge filters leave it alone.
  std::vector<route::PathHop>& hops = ctx.rev_path_scratch;
  if (!stitcher_.router_path(router, reply_to, hops)) {
    ++ctx.counters.dropped_unroutable;
    return std::nullopt;
  }
  const topo::AsId router_as = topology_->router_at(router).as_id;
  const topo::AsId reply_as = topology_->host_at(reply_to).as_id;
  return deliver_back(offending, hops, time, router_as, reply_as, reply_to,
                      flow, ctx, /*doomed=*/false);
}

std::optional<Network::Delivery> Network::host_respond(
    HostId dst, HostId reply_to, std::vector<std::uint8_t>& bytes, double time,
    std::uint64_t flow, SendContext& ctx, bool doomed) {
  NetCounters& c = ctx.counters;
  const HostBehavior& hb = behaviors_->host(dst);
  const auto info = pkt::inspect_datagram(bytes);
  if (!info) return std::nullopt;

  // A host that ignores options packets ignores them for every transport.
  const bool has_options = info->options_present;
  if (has_options && hb.rr_handling == RrHandling::kDrop) return std::nullopt;

  // The host's IP-ID counter ticks for any accepted datagram, matching the
  // legacy reply construction which drew the ID before deciding whether a
  // reply would actually be produced.
  const std::uint16_t ip_id = next_ip_id(/*is_router=*/false, dst, time);

  if (info->protocol == static_cast<std::uint8_t>(pkt::IpProto::kIcmp)) {
    if (info->icmp_type !=
        static_cast<std::uint8_t>(pkt::IcmpType::kEchoRequest)) {
      return std::nullopt;
    }
    if (!hb.ping_responsive) return std::nullopt;
    if (has_options && hb.rr_handling == RrHandling::kCopy) {
      // RFC 1122 behaviour: the reply carries the request's Record Route
      // option; the destination records itself if a slot remains (and some
      // devices record an alias rather than the probed address). Same
      // geometry as the request, so the reply is the request buffer
      // transformed in place.
      pkt::echo_reply_inplace(bytes, *info, ip_id);
      if (hb.stamps_self) {
        // The view edits the reply while its header checksum is still
        // stale; finalize_checksums recomputes it from scratch below.
        pkt::Ipv4HeaderView view{bytes};
        view.rr_stamp(hb.stamp_address);
        view.ts_stamp(hb.stamp_address,
                      static_cast<std::uint32_t>(time * 1000.0));
      }
      pkt::finalize_checksums(bytes, info->header_bytes, info->total_length);
    } else {
      ReplyScratch& scratch = ctx.scratch;
      build_into_scratch(scratch, [&](std::vector<std::uint8_t>& out_bytes) {
        pkt::build_echo_reply_stripped(out_bytes, bytes, *info, ip_id);
      });
      std::swap(bytes, scratch.bytes);
    }
  } else {
    // inspect_datagram only accepts ICMP or UDP, so this is the UDP
    // branch: every probed UDP port is closed in this world.
    if (!hb.ping_responsive || !hb.responds_udp) return std::nullopt;
    if (!doomed) {
      ++c.port_unreachables;
      ctx.trace.counted_port_unreachable = true;
    }
    // Port unreachable, quoting the datagram as it arrived — including
    // any RR stamps it accrued on the forward path.
    const std::uint16_t error_id = next_ip_id(false, dst, time);
    ReplyScratch& scratch = ctx.scratch;
    build_into_scratch(scratch, [&](std::vector<std::uint8_t>& out_bytes) {
      pkt::build_icmp_error(
          out_bytes, static_cast<std::uint8_t>(pkt::IcmpType::kDestUnreachable),
          pkt::kCodePortUnreachable, info->destination, info->source, error_id,
          bytes, kQuotedPayloadBytes);
    });
    if (fault_plan_.enabled() && fault_plan_.mangle_quote(flow) &&
        pkt::mangle_icmp_quote(scratch.bytes)) {
      fault_counters_.note(FaultKind::kQuoteMangle);
    }
    std::swap(bytes, scratch.bytes);
  }

  std::vector<route::PathHop>& hops = ctx.rev_path_scratch;
  if (!host_hops(dst, reply_to, /*reply=*/true, hops)) {
    ++c.dropped_unroutable;
    return std::nullopt;
  }
  return deliver_back(bytes, hops, time, topology_->host_at(dst).as_id,
                      topology_->host_at(reply_to).as_id, reply_to, flow, ctx,
                      doomed);
}

std::optional<Network::Delivery> Network::router_respond(
    RouterId router, net::IPv4Address probed, HostId reply_to,
    std::vector<std::uint8_t>& bytes, double time, std::uint64_t flow,
    SendContext& ctx, bool doomed) {
  const RouterBehavior& rb = behaviors_->router(router);
  if (!rb.responds_ping) return std::nullopt;
  const auto info = pkt::inspect_datagram(bytes);
  if (!info) return std::nullopt;
  if (info->protocol != static_cast<std::uint8_t>(pkt::IpProto::kIcmp) ||
      info->icmp_type !=
          static_cast<std::uint8_t>(pkt::IcmpType::kEchoRequest)) {
    return std::nullopt;
  }

  const std::uint16_t ip_id = next_ip_id(/*is_router=*/true, router, time);
  if (info->options_present && rb.stamps) {
    // The reply keeps the request's options; the probed interface stamps
    // itself. `probed` is the request's destination address, so the
    // in-place transform already puts it in the source field.
    pkt::echo_reply_inplace(bytes, *info, ip_id);
    pkt::Ipv4HeaderView{bytes}.rr_stamp(probed);
    pkt::finalize_checksums(bytes, info->header_bytes, info->total_length);
  } else {
    ReplyScratch& scratch = ctx.scratch;
    build_into_scratch(scratch, [&](std::vector<std::uint8_t>& out) {
      pkt::build_echo_reply_stripped(out, bytes, *info, ip_id);
    });
    std::swap(bytes, scratch.bytes);
  }
  std::vector<route::PathHop>& hops = ctx.rev_path_scratch;
  if (!stitcher_.router_path(router, reply_to, hops)) {
    ++ctx.counters.dropped_unroutable;
    return std::nullopt;
  }
  return deliver_back(bytes, hops, time, topology_->router_at(router).as_id,
                      topology_->host_at(reply_to).as_id, reply_to, flow,
                      ctx, doomed);
}

std::optional<Network::Delivery> Network::deliver_back(
    std::vector<std::uint8_t>& bytes, std::span<const route::PathHop> hops,
    double start, topo::AsId src_as, topo::AsId dst_as, HostId receiver,
    std::uint64_t flow, SendContext& ctx, bool doomed) {
  const WalkResult result = walk_pipeline(bytes, hops, start, src_as, dst_as,
                                          flow, /*leg=*/1, ctx, doomed);
  if (result.outcome != WalkResult::Outcome::kDelivered || result.doomed) {
    // A reply that expires or is dropped on the way back simply never
    // arrives (errors about errors are not generated, RFC 1122) — and the
    // ghost leg of a fault-doomed exchange consumed the reverse path's
    // budget exactly as in the baseline, but nothing arrives either.
    return std::nullopt;
  }
  ++ctx.counters.responses;
  ctx.trace.counted_response = true;
  Delivery delivery{std::move(bytes), result.time, receiver};
  if (fault_plan_.enabled()) {
    // Capture-point faults: an extra identical copy, or a late arrival.
    // Neither changes the bytes, so campaign contents are untouched; the
    // prober dedups repeats and timestamps are not observations.
    if (fault_plan_.duplicate_reply(flow)) {
      delivery.duplicates = 1;
      fault_counters_.note(FaultKind::kDuplicateReply);
    }
    if (fault_plan_.reorder_reply(flow)) {
      delivery.time += fault_plan_.reorder_delay(flow);
      fault_counters_.note(FaultKind::kReorderReply);
    }
  }
  return delivery;
}

}  // namespace rr::sim

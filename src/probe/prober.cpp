#include "probe/prober.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "packet/wire.h"

namespace rr::probe {

namespace {

/// TTLs per forward-sweep window of Prober::traceroute. A window's TTLs
/// are all sent before it is scanned, so the width fixes which TTLs past
/// the destination a trace still probes: it is part of the probe
/// schedule (and of the trace census's schedule hash).
constexpr int kTraceWindow = 4;

}  // namespace

const char* to_string(ProbeType type) noexcept {
  switch (type) {
    case ProbeType::kPing: return "ping";
    case ProbeType::kPingRr: return "ping-RR";
    case ProbeType::kPingRrUdp: return "ping-RRudp";
    case ProbeType::kPingTs: return "ping-TS";
  }
  return "?";
}

const char* to_string(ResponseKind kind) noexcept {
  switch (kind) {
    case ResponseKind::kNone: return "none";
    case ResponseKind::kEchoReply: return "echo-reply";
    case ResponseKind::kTtlExceeded: return "ttl-exceeded";
    case ResponseKind::kPortUnreachable: return "port-unreachable";
  }
  return "?";
}

std::string ProbeResult::to_string() const {
  std::string out = std::string{probe::to_string(type)} + " " +
                    target.to_string() + " -> " + probe::to_string(kind);
  if (rr_option_in_reply) {
    out += " rr[";
    for (std::size_t i = 0; i < rr_recorded.size(); ++i) {
      out += (i ? "," : "") + rr_recorded[i].to_string();
    }
    out += "]+" + std::to_string(rr_free_slots);
  }
  if (quoted_rr_present) {
    out += " quoted-rr(" + std::to_string(quoted_rr.size()) + "+" +
           std::to_string(quoted_rr_free_slots) + " free)";
  }
  return out;
}

Prober::Prober(sim::Network& network, topo::HostId source, double pps)
    : network_(&network),
      source_(source),
      source_address_(network.topology().host_at(source).address),
      icmp_id_(static_cast<std::uint16_t>(0x4000 | (source & 0x3fff))),
      interval_(1.0 / pps) {}

void Prober::probe_into(const ProbeSpec& spec, sim::SendContext* ctx,
                        ProbeResult& out) {
  // RROPT_HOT_BEGIN(prober-probe): one exchange per call at campaign rate;
  // probe bytes are built into the recycled buffer and the delivery's
  // storage is reclaimed below, so the steady state allocates nothing —
  // rropt_lint keeps it that way by banning unwaived allocation here.
  out.reset();
  const double send_time = clock_;
  clock_ += interval_;
  ++sent_;
  const std::uint16_t seq = next_seq_++;

  const std::size_t capacity_before = buf_.capacity();
  build_probe_into(spec, seq, buf_);

  out.target = spec.target;
  out.type = spec.type;
  out.send_time = send_time;

  auto delivery =
      ctx != nullptr
          ? network_->send_reusing(source_, buf_, send_time, *ctx)
          : network_->send_settled(source_, buf_, send_time, ctx_);
  if (delivery) {
    parse_response_into(spec, seq, send_time, *delivery, out);
    // Reclaim the response's storage (it was the probe buffer, or a reply
    // scratch swapped for it): the next probe builds into it.
    buf_ = std::move(delivery->bytes);
  }
  if (buf_.capacity() != capacity_before) ++buffer_growths_;
  // RROPT_HOT_END(prober-probe)
}

void Prober::build_probe_into(const ProbeSpec& spec, std::uint16_t seq,
                              std::vector<std::uint8_t>& buf) {
  // RROPT_HOT_BEGIN(prober-build): serialization into recycled storage.
  if (spec.type == ProbeType::kPingRrUdp) {
    const std::uint16_t dst_port = static_cast<std::uint16_t>(
        pkt::kUdpProbePortBase + (next_udp_port_++ % 256));
    pkt::build_udp_probe(buf, source_address_, spec.target,
                         static_cast<std::uint16_t>(0x8000 | seq), dst_port,
                         spec.ttl, spec.rr_slots);
  } else if (spec.type == ProbeType::kPingTs) {
    pkt::build_ping_ts(buf, source_address_, spec.target, icmp_id_, seq,
                       spec.ttl, spec.rr_slots);
  } else {
    const int slots = spec.type == ProbeType::kPingRr ? spec.rr_slots : 0;
    pkt::build_ping(buf, source_address_, spec.target, icmp_id_, seq,
                    spec.ttl, slots);
  }
  // RROPT_HOT_END(prober-build)
}

void Prober::probe_batch_into(std::span<const ProbeSpec> specs,
                              std::span<sim::SendContext> ctxs,
                              std::span<ProbeResult> results) {
  assert(specs.size() == ctxs.size() && specs.size() == results.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    probe_into(specs[k], &ctxs[k], results[k]);
  }
}

void Prober::parse_response_into(const ProbeSpec& spec, std::uint16_t seq,
                                 double send_time,
                                 const sim::Network::Delivery& delivery,
                                 ProbeResult& out) {
  const auto info = pkt::inspect_datagram(delivery.bytes);
  if (!info) return;
  if (info->protocol != static_cast<std::uint8_t>(pkt::IpProto::kIcmp)) {
    return;
  }

  out.responder = info->source;
  out.reply_ip_id = info->identification;

  if (info->icmp_type == static_cast<std::uint8_t>(pkt::IcmpType::kEchoReply)) {
    if (info->echo_identifier != icmp_id_ || info->echo_sequence != seq) {
      ++mismatched_;
      return;
    }
    out.kind = ResponseKind::kEchoReply;
    out.rtt = delivery.time - send_time;
    if (info->rr_offset != 0) {
      const auto rr = pkt::rr_wire(delivery.bytes, info->rr_offset);
      out.rr_option_in_reply = true;
      for (std::size_t i = 0; i < rr.filled; ++i) {
        out.rr_recorded.push_back(  // RROPT_HOT_OK: recycled capacity
            pkt::rr_slot(delivery.bytes, rr, i));
      }
      out.rr_free_slots = rr.capacity - rr.filled;
    }
    if (info->ts_offset != 0) {
      const auto ts = pkt::ts_wire(delivery.bytes, info->ts_offset);
      out.ts_option_in_reply = true;
      for (std::size_t i = 0; i < ts.filled; ++i) {
        const auto entry = pkt::ts_entry(delivery.bytes, ts, i);
        out.ts_entries.emplace_back(  // RROPT_HOT_OK: recycled capacity
            entry.address, entry.timestamp_ms);
      }
      out.ts_overflow = ts.overflow;
    }
    ++matched_;
    return;
  }

  // ICMP errors: validate against the quoted datagram. Echo *requests*
  // (the only other whitelisted type) carry no quote and fall out here,
  // exactly like the legacy error_body() == nullptr path.
  if (info->quote_offset == 0) return;
  const auto quoted = std::span<const std::uint8_t>{delivery.bytes}.subspan(
      info->quote_offset, info->quote_length);
  const auto q = pkt::inspect_header(quoted);
  if (!q || q->destination != spec.target || q->source != source_address_) {
    ++mismatched_;
    return;
  }

  if (info->icmp_type ==
      static_cast<std::uint8_t>(pkt::IcmpType::kTimeExceeded)) {
    out.kind = ResponseKind::kTtlExceeded;
  } else if (info->icmp_type ==
                 static_cast<std::uint8_t>(pkt::IcmpType::kDestUnreachable) &&
             info->icmp_code == pkt::kCodePortUnreachable) {
    out.kind = ResponseKind::kPortUnreachable;
  } else {
    ++mismatched_;
    return;
  }
  out.rtt = delivery.time - send_time;
  if (q->rr_offset != 0) {
    const auto rr = pkt::rr_wire(quoted, q->rr_offset);
    out.quoted_rr_present = true;
    for (std::size_t i = 0; i < rr.filled; ++i) {
      out.quoted_rr.push_back(  // RROPT_HOT_OK: recycled capacity
          pkt::rr_slot(quoted, rr, i));
    }
    out.quoted_rr_free_slots = rr.capacity - rr.filled;
  }
  ++matched_;
}

TracerouteResult Prober::traceroute(net::IPv4Address target, int max_ttl,
                                    int attempts) {
  TraceOptions options;
  options.max_ttl = max_ttl;
  options.attempts = attempts;
  return traceroute(target, options);
}

TracerouteResult Prober::traceroute(net::IPv4Address target,
                                    const TraceOptions& options) {
  TracerouteResult result;
  traceroute_into(target, options, result);
  return result;
}

void Prober::traceroute_into(net::IPv4Address target,
                             const TraceOptions& options,
                             TracerouteResult& result) {
  result.reset();
  result.target = target;
  const int max_ttl = std::max(1, options.max_ttl);
  const int attempts = std::max(1, options.attempts);
  TraceGate* const gate = options.gate;

  int first = 1;
  if (gate != nullptr) first = std::clamp(gate->begin(target), 1, max_ttl);
  result.first_ttl = first;

  // Per-trace scratch reset; the hop buffer grows once, then stays flat
  // across traces.
  ctx_.counters = sim::NetCounters{};
  if (static_cast<int>(trace_hops_.size()) < max_ttl + 1) {
    trace_hops_.resize(static_cast<std::size_t>(max_ttl) + 1);
  }
  for (int t = 0; t <= max_ttl; ++t) {
    trace_hops_[static_cast<std::size_t>(t)] = TracerouteHop{};
  }

  std::uint64_t sent = 0;
  int reach_ttl = 0;  // lowest TTL that drew an echo reply; 0 = none yet
  // One TTL-limited ping on the trace context; true when it drew a reply,
  // which then sits in trace_result_.
  const auto probe_ttl = [&](int ttl) {
    ProbeSpec spec = ProbeSpec::ping(target);
    spec.ttl = static_cast<std::uint8_t>(ttl);
    probe_into(spec, &ctx_, trace_result_);
    ++sent;
    return trace_result_.responded();
  };

  // ------------------------------------------------- forward sweep
  // TTL windows from `first` upward; extra attempts re-probe only the
  // window's unresponsive TTLs.
  bool forward_done = false;
  for (int base = first; base <= max_ttl && !forward_done; ) {
    const int w = std::min(kTraceWindow, max_ttl - base + 1);
    for (int round = 0; round < attempts; ++round) {
      bool probed = false;
      for (int t = base; t < base + w; ++t) {
        TracerouteHop& hop = trace_hops_[static_cast<std::size_t>(t)];
        if (round > 0 && hop.responded) continue;
        probed = true;
        if (!probe_ttl(t)) continue;
        hop.ttl = t;
        hop.responded = true;
        hop.address = trace_result_.responder;
        hop.kind = trace_result_.kind;
      }
      if (!probed) break;
    }
    // Scan the window in TTL order for the event that ends the sweep.
    for (int t = base; t < base + w; ++t) {
      TracerouteHop& hop = trace_hops_[static_cast<std::size_t>(t)];
      if (hop.ttl == 0) hop.ttl = t;  // probed, silent
      if (!hop.responded) continue;
      if (hop.kind == ResponseKind::kEchoReply) {
        reach_ttl = t;
        forward_done = true;
        break;
      }
      if (gate != nullptr) {
        // Stop *before* record: the stop reflects knowledge from earlier
        // traces, never the fact this hop is about to add.
        const bool stop = gate->stop_forward(hop.address);
        gate->record(hop.address, t);
        if (stop) {
          result.forward_stop_ttl = t;
          forward_done = true;
          break;
        }
      }
    }
    base += w;
  }

  // ------------------------------------------------ backward sweep
  // Doubletree's second half: from first-1 down toward TTL 1, one TTL at
  // a time so each hop can consult the gate before the next probe.
  if (gate != nullptr && first > 1) {
    for (int t = first - 1; t >= 1; --t) {
      TracerouteHop& hop = trace_hops_[static_cast<std::size_t>(t)];
      hop.ttl = t;
      for (int attempt = 0; attempt < attempts; ++attempt) {
        if (!probe_ttl(t)) continue;
        hop.responded = true;
        hop.address = trace_result_.responder;
        hop.kind = trace_result_.kind;
        break;
      }
      if (!hop.responded) continue;
      if (hop.kind == ResponseKind::kEchoReply) {
        // The destination is nearer than Doubletree's h; keep walking
        // down to find the true distance and the path below it.
        if (reach_ttl == 0 || t < reach_ttl) reach_ttl = t;
        continue;
      }
      const bool stop = gate->stop_backward(hop.address, t);
      gate->record(hop.address, t);
      if (stop) {
        result.backward_stop_ttl = t;
        result.probes_saved += static_cast<std::uint64_t>(t - 1);
        break;
      }
    }
  }

  // ------------------------------------------------------ assembly
  // Ascending TTL; trimmed at the echo (overshot window probes past the
  // destination are dropped, like the classic engine that never sent
  // them) or at the forward stop. probes_saved counts only the TTL slots
  // a backward stop provably skipped — a forward stop's savings depend on
  // the unprobed distance, so benches measure them off-vs-on instead.
  result.probes_sent = sent;
  int end_ttl = max_ttl;
  if (reach_ttl > 0) {
    result.reached = true;
    end_ttl = reach_ttl;
  } else if (result.forward_stop_ttl > 0) {
    end_ttl = result.forward_stop_ttl;
  }
  result.hops.reserve(static_cast<std::size_t>(end_ttl));
  for (int t = 1; t <= end_ttl; ++t) {
    const TracerouteHop& hop = trace_hops_[static_cast<std::size_t>(t)];
    if (hop.ttl == t) result.hops.push_back(hop);
  }

  if (options.counters != nullptr) {
    options.counters->merge(ctx_.counters);
  } else {
    network_->merge_counters(ctx_.counters);
  }
}

}  // namespace rr::probe

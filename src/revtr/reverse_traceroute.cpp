#include "revtr/reverse_traceroute.h"

#include <algorithm>
#include <span>
#include <unordered_set>
#include <utility>

#include "packet/wire.h"
#include "probe/prober.h"
#include "util/log.h"

namespace rr::revtr {

const char* to_string(HopSource source) noexcept {
  switch (source) {
    case HopSource::kSpoofedRr: return "rr";
    case HopSource::kAssumedSymmetric: return "sym";
    case HopSource::kSource: return "src";
  }
  return "?";
}

ReverseTraceroute::ReverseTraceroute(measure::Testbed& testbed,
                                     const measure::Campaign* campaign,
                                     RevTrConfig config)
    : testbed_(&testbed),
      campaign_(campaign),
      config_(config),
      rng_(config.seed) {
  if (campaign_ != nullptr) {
    dest_index_.reserve(campaign_->num_destinations());
    for (std::size_t d = 0; d < campaign_->num_destinations(); ++d) {
      dest_index_.emplace(
          campaign_->topology()
              .host_at(campaign_->destinations()[d])
              .address.value(),
          d);
    }
  }
}

std::vector<topo::HostId> ReverseTraceroute::candidate_vps(
    net::IPv4Address target) const {
  std::vector<topo::HostId> out;

  // Atlas lookup: if the campaign probed this exact destination, order the
  // VPs that proved in-range (a stamp at slot <= 8 leaves room for at
  // least one reverse hop) by their RR distance.
  if (campaign_ != nullptr) {
    const auto it = dest_index_.find(target.value());
    if (it != dest_index_.end()) {
      const std::size_t d = it->second;
      std::vector<std::pair<int, topo::HostId>> ranked;
      for (std::size_t v = 0; v < campaign_->num_vps(); ++v) {
        const auto& obs = campaign_->at(v, d);
        if (obs.rr_reachable() && obs.dest_slot <= 8) {
          ranked.emplace_back(obs.dest_slot, campaign_->vps()[v]->host);
        }
      }
      std::sort(ranked.begin(), ranked.end());
      for (const auto& [dist, host] : ranked) out.push_back(host);
    }
  }

  // Fallback candidates: M-Lab first (closest to the fabric), then the
  // rest, in a deterministic shuffled order.
  std::vector<topo::HostId> mlab, others;
  for (const auto* vp : testbed_->vps()) {
    (vp->platform == topo::Platform::kMLab ? mlab : others)
        .push_back(vp->host);
  }
  util::Rng order_rng{util::hash_label("revtr-vps") ^ target.value()};
  order_rng.shuffle(mlab);
  order_rng.shuffle(others);
  out.insert(out.end(), mlab.begin(), mlab.end());
  out.insert(out.end(), others.begin(), others.end());

  // Deduplicate, keeping the first (best-ranked) occurrence.
  std::unordered_set<topo::HostId> seen;
  std::vector<topo::HostId> unique;
  for (const topo::HostId host : out) {
    if (seen.insert(host).second) unique.push_back(host);
  }
  return unique;
}

std::optional<ReverseTraceroute::SpoofResult>
ReverseTraceroute::spoof_segment(topo::HostId vp_host,
                                 net::IPv4Address target,
                                 topo::HostId source) {
  const auto source_addr = testbed_->topology().host_at(source).address;
  const std::uint16_t id = ++next_id_;
  // The probe claims to come from S; V merely injects it.
  pkt::build_ping(probe_buf_, source_addr, target, id, /*sequence=*/1,
                  /*ttl=*/64, /*rr_slots=*/9);

  clock_ += 1.0 / config_.pps;
  auto delivery =
      testbed_->network().send_settled(vp_host, probe_buf_, clock_, ctx_);
  if (!delivery) return std::nullopt;
  // The reply's storage becomes the next probe's buffer.
  probe_buf_ = std::move(delivery->bytes);
  if (delivery->receiver != source) return std::nullopt;  // mis-delivered

  const std::span<const std::uint8_t> reply{probe_buf_};
  const auto info = pkt::inspect_datagram(reply);
  if (!info ||
      info->protocol != static_cast<std::uint8_t>(pkt::IpProto::kIcmp) ||
      info->icmp_type !=
          static_cast<std::uint8_t>(pkt::IcmpType::kEchoReply) ||
      info->echo_identifier != id || info->rr_offset == 0) {
    return std::nullopt;
  }
  const pkt::RrWire rr = pkt::rr_wire(reply, info->rr_offset);
  std::size_t slot = 0;
  while (slot < rr.filled && pkt::rr_slot(reply, rr, slot) != target) ++slot;
  if (slot == rr.filled) {
    // The target did not record itself (too far from this VP, or a
    // non-stamping device): this VP cannot anchor the segment.
    return std::nullopt;
  }

  SpoofResult result;
  result.responded = true;
  for (++slot; slot < rr.filled; ++slot) {
    result.reverse_hops.push_back(pkt::rr_slot(reply, rr, slot));
  }
  result.slots_remained = rr.filled < rr.capacity;
  return result;
}

ReversePath ReverseTraceroute::measure(net::IPv4Address destination,
                                       topo::HostId source_host) {
  ReversePath path;
  path.destination = destination;
  path.source_host = source_host;

  std::unordered_set<std::uint32_t> visited{destination.value()};
  net::IPv4Address current = destination;

  for (int segment = 0; segment < kMaxSegments; ++segment) {
    std::optional<SpoofResult> best;
    auto vps = candidate_vps(current);
    // The source itself is the cheapest vantage point when in range.
    vps.insert(vps.begin(), source_host);
    int tried = 0;
    // Each VP gets a few tries: loss and rate limiting kill some probes.
    constexpr int kAttemptsPerVp = 3;
    for (const topo::HostId vp : vps) {
      if (tried >= config_.vps_to_try) break;
      ++tried;
      for (int attempt = 0; attempt < kAttemptsPerVp; ++attempt) {
        best = spoof_segment(vp, current, source_host);
        if (best && (!best->reverse_hops.empty() || best->slots_remained)) {
          break;
        }
        best.reset();
      }
      if (best) break;
    }

    if (!best) break;  // no vantage point could anchor this segment
    ++path.segments_used;

    bool advanced = false;
    for (const auto& hop : best->reverse_hops) {
      if (!visited.insert(hop.value()).second) continue;  // routing loop?
      path.hops.push_back(ReverseHop{hop, HopSource::kSpoofedRr});
      advanced = true;
    }
    if (best->slots_remained) {
      // The reply reached S with slots to spare: every stamping reverse
      // router is on record — the path is complete.
      path.complete = true;
      return path;
    }
    if (!advanced) break;  // stuck: slots exhausted with nothing new
    current = path.hops.back().address;
  }

  if (config_.allow_symmetric_fallback) {
    // Forward traceroute S -> current, reversed, marked as an assumption
    // (exactly how the real system degrades).
    auto prober = testbed_->make_prober(source_host, config_.pps);
    const auto trace = prober.traceroute(current, 30);
    if (trace.reached) {
      std::vector<net::IPv4Address> forward;
      for (const auto& hop : trace.hops) {
        if (hop.responded &&
            hop.kind == probe::ResponseKind::kTtlExceeded) {
          forward.push_back(hop.address);
        }
      }
      for (auto it = forward.rbegin(); it != forward.rend(); ++it) {
        if (!visited.insert(it->value()).second) continue;
        path.hops.push_back(ReverseHop{*it, HopSource::kAssumedSymmetric});
      }
      path.complete = true;
      return path;
    }
    path.failure = "no vantage point in range and the symmetric fallback "
                   "traceroute did not reach the target";
    return path;
  }

  path.failure = "slots exhausted before reaching the source and fallback "
                 "disabled";
  return path;
}

}  // namespace rr::revtr

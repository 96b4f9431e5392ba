// Reverse Traceroute (Katz-Bassett et al., NSDI 2010) on top of the Record
// Route option — the system whose operational needs motivate the paper's
// whole reassessment ("within the 8 hop limit necessary to measure reverse
// paths from them to any host we control").
//
// To measure the path *from* destination D *back to* a source S we
// control, without any cooperation from D:
//
//   1. Find a vantage point V within 8 RR hops of D (so a ping-RR from V
//      arrives at D with at least one slot free).
//   2. V sends an RR ping to D spoofing S's address as the source. D's
//      echo reply — which carries the RR option — therefore travels the
//      D→S path, recording reverse routers in the remaining slots, and is
//      captured at S.
//   3. If the slots ran out before the reply reached S, take the last
//      recovered reverse hop H, and repeat from step 1 with H as the new
//      target (destination-based routing means H's path to S is a suffix
//      of D's).
//   4. When no VP is within range of the current hop, optionally fall
//      back to assuming the remaining path is the reverse of a forward
//      traceroute (marked as an assumption, exactly as the real system
//      reports it). The fallback is a classic full trace from TTL 1: a
//      stop set would skip the very hops the fallback reports.
//
// The result is the reverse path D → S at router granularity, a path no
// traceroute can observe.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <string>
#include <vector>

#include "measure/campaign.h"
#include "measure/testbed.h"

namespace rr::revtr {

struct RevTrConfig {
  int vps_to_try = 12;            // candidate VPs tested per segment
  double pps = 20.0;
  bool allow_symmetric_fallback = true;
  std::uint64_t seed = 0x4E7;
};

enum class HopSource : std::uint8_t {
  kSpoofedRr = 0,    // recovered from a spoofed ping-RR reply
  kAssumedSymmetric = 1,  // forward traceroute, assumed symmetric
  kSource = 2,       // the measuring source itself
};

[[nodiscard]] const char* to_string(HopSource source) noexcept;

struct ReverseHop {
  net::IPv4Address address;
  HopSource source = HopSource::kSpoofedRr;
};

struct ReversePath {
  net::IPv4Address destination;
  topo::HostId source_host = topo::kNoHost;
  /// Hops from the destination toward the source (destination excluded,
  /// source's first-hop routers included when recovered).
  std::vector<ReverseHop> hops;
  bool complete = false;      // reached the source's network
  int segments_used = 0;      // spoofed measurements consumed
  std::string failure;        // set when !complete and no fallback applied

  [[nodiscard]] std::size_t measured_hops() const noexcept {
    std::size_t count = 0;
    for (const auto& hop : hops) {
      if (hop.source == HopSource::kSpoofedRr) ++count;
    }
    return count;
  }
};

/// Reverse-path measurement engine bound to a testbed. An optional
/// campaign seeds the VP-proximity hints (the real system keeps exactly
/// such an atlas); without one, candidate VPs are probed on demand.
class ReverseTraceroute {
 public:
  /// Spoofed measurements one reverse path may take.
  static constexpr int kMaxSegments = 10;

  ReverseTraceroute(measure::Testbed& testbed,
                    const measure::Campaign* campaign = nullptr,
                    RevTrConfig config = {});

  /// Measures the reverse path from `destination` back to `source_host`
  /// (one of our hosts — typically a VP or the probe host).
  [[nodiscard]] ReversePath measure(net::IPv4Address destination,
                                    topo::HostId source_host);

 private:
  struct SpoofResult {
    bool responded = false;
    std::vector<net::IPv4Address> reverse_hops;  // after the target's stamp
    bool slots_remained = false;  // reply arrived at S with room to spare
  };

  /// One spoofed ping-RR from `vp_host` to `target` with S's address; the
  /// reply (if it arrives at S) yields reverse hops of target -> S.
  [[nodiscard]] std::optional<SpoofResult> spoof_segment(
      topo::HostId vp_host, net::IPv4Address target, topo::HostId source);

  /// VP candidates ordered by (known) proximity to `target`.
  [[nodiscard]] std::vector<topo::HostId> candidate_vps(
      net::IPv4Address target) const;

  measure::Testbed* testbed_;
  const measure::Campaign* campaign_;
  RevTrConfig config_;
  util::Rng rng_;
  std::uint16_t next_id_ = 0x7a00;
  double clock_ = 0.0;
  std::vector<std::uint8_t> probe_buf_;  // spoofed probe/reply, recycled
  sim::SendContext ctx_;  // every spoofed probe is settled on it
  /// Atlas index: probed address -> campaign destination index, built once
  /// so per-target candidate lookup is O(1) instead of a campaign scan.
  std::unordered_map<std::uint32_t, std::size_t> dest_index_;
};

}  // namespace rr::revtr

// MIDAR-style IP alias resolution (Keys et al., IEEE/ACM ToN 2013),
// simplified to the two-stage core:
//
//  1. Estimation: each candidate address is pinged twice a fixed interval
//     apart; the IP-ID delta gives a velocity estimate (ids/second).
//     Addresses that do not return monotonically-advancing IDs are
//     discarded, as MIDAR does.
//  2. Elimination: candidates are sorted by velocity and grouped into
//     overlapping shards of similar velocity; within a shard, several
//     interleaved probe rounds build per-address time series, and the
//     Monotonic Bounds Test (MBT) is applied to nearby pairs: two addresses
//     share a counter iff their *merged* series still advances at the
//     common velocity (disjoint counters produce wild modular jumps).
//
// Pairs that pass are merged with union-find into alias sets. The
// simulator gives routers one IP-ID counter per device across all
// interfaces, so this rediscovers (a subset of) the ground-truth alias
// sets from measurements alone — exactly the role MIDAR plays in §3.3.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "netbase/address.h"
#include "probe/prober.h"

namespace rr::measure {

struct MidarConfig {
  double pps = 100.0;              // alias probing is gentler than scanning
  std::size_t shard_size = 1024;   // addresses per elimination shard
  std::size_t max_addresses = 250000;
  std::uint64_t seed = 0x41D5;
};

/// Union-find over addresses; exposes the discovered alias sets.
class AliasSets {
 public:
  void add_pair(net::IPv4Address a, net::IPv4Address b);

  [[nodiscard]] bool same_device(net::IPv4Address a,
                                 net::IPv4Address b) const;

  /// True if `addr` is aliased to anything in `candidates`.
  [[nodiscard]] bool aliased_to_any(
      net::IPv4Address addr,
      const std::vector<net::IPv4Address>& candidates) const;

  /// All sets with at least two members.
  [[nodiscard]] std::vector<std::vector<net::IPv4Address>> sets() const;

  [[nodiscard]] std::size_t pair_count() const noexcept { return pairs_; }

 private:
  [[nodiscard]] std::uint32_t find(std::uint32_t x) const;
  std::uint32_t intern(net::IPv4Address addr);

  std::unordered_map<std::uint32_t, std::uint32_t> index_;  // addr -> node
  std::vector<net::IPv4Address> addresses_;
  mutable std::vector<std::uint32_t> parent_;
  std::size_t pairs_ = 0;
};

/// Runs the full MIDAR-lite pipeline from one probing host.
[[nodiscard]] AliasSets run_midar(probe::Prober& prober,
                                  std::vector<net::IPv4Address> candidates,
                                  const MidarConfig& config = {});

}  // namespace rr::measure

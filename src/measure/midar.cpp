#include "measure/midar.h"

#include <algorithm>
#include <cmath>

#include "util/log.h"
#include "util/rng.h"

namespace rr::measure {

namespace {

struct Sample {
  double time = 0.0;
  std::uint16_t ip_id = 0;
};

struct Candidate {
  net::IPv4Address address;
  double velocity = 0.0;  // ids per second
  std::vector<Sample> samples;
};

/// Forward distance between two 16-bit counter readings.
std::uint32_t id_delta(std::uint16_t from, std::uint16_t to) noexcept {
  return static_cast<std::uint16_t>(to - from);
}

/// Monotonic Bounds Test over the merged series of two candidates: every
/// consecutive gap must advance by roughly velocity * dt (same shared
/// counter); independent counters have random offsets and blow through the
/// bound almost surely.
bool mbt_pass(const Candidate& a, const Candidate& b, double velocity,
              double slack) {
  struct Tagged {
    Sample sample;
    bool from_a;
  };
  std::vector<Tagged> merged;
  merged.reserve(a.samples.size() + b.samples.size());
  for (const auto& s : a.samples) merged.push_back({s, true});
  for (const auto& s : b.samples) merged.push_back({s, false});
  std::sort(merged.begin(), merged.end(), [](const Tagged& x, const Tagged& y) {
    return x.sample.time < y.sample.time;
  });
  // MIDAR only draws an inference when the two series genuinely overlap:
  // without enough alternation between sources, a pair can look consistent
  // by accident. Require several source switches in time order.
  int alternations = 0;
  for (std::size_t i = 1; i < merged.size(); ++i) {
    if (merged[i].from_a != merged[i - 1].from_a) ++alternations;
  }
  if (alternations < 3) return false;
  for (std::size_t i = 1; i < merged.size(); ++i) {
    const double dt = merged[i].sample.time - merged[i - 1].sample.time;
    const double expected = velocity * dt;
    const double actual = static_cast<double>(
        id_delta(merged[i - 1].sample.ip_id, merged[i].sample.ip_id));
    // Relative headroom absorbs velocity-estimation error on long gaps;
    // the small absolute slack covers per-probe increments on short ones.
    // Keeping the absolute term tight is what rejects distinct counters
    // whose base offsets happen to be close.
    if (actual > expected * 1.3 + slack) return false;
    // The counter can also never regress: a "small negative" delta shows
    // up as a near-65536 jump, which the bound above rejects.
  }
  return true;
}

/// Targeted confirmation (MIDAR's corroboration stage): probe the pair in
/// a tight A,B,A,B,A interleave. On a shared counter every consecutive
/// delta is a couple of increments; on distinct counters the base-offset
/// difference shows up with opposite signs in the two directions, so at
/// least one direction jumps — unless the offsets collide within a few
/// ids, which is orders of magnitude rarer than the shard test's window.
bool confirm_pair(probe::Prober& prober, net::IPv4Address a,
                  net::IPv4Address b, double velocity, double slack) {
  std::vector<Sample> merged;
  for (int i = 0; i < 5; ++i) {
    const auto r = prober.probe(
        probe::ProbeSpec::ping((i % 2 == 0) ? a : b));
    if (r.kind != probe::ResponseKind::kEchoReply) return false;
    merged.push_back(Sample{r.send_time + r.rtt, r.reply_ip_id});
  }
  for (std::size_t i = 1; i < merged.size(); ++i) {
    const double dt = merged[i].time - merged[i - 1].time;
    const double expected = velocity * std::max(dt, 0.0);
    const double actual = static_cast<double>(
        id_delta(merged[i - 1].ip_id, merged[i].ip_id));
    if (actual > expected * 1.3 + slack) return false;
  }
  return true;
}

}  // namespace

// ------------------------------------------------------------- AliasSets

std::uint32_t AliasSets::intern(net::IPv4Address addr) {
  const auto [it, inserted] =
      index_.try_emplace(addr.value(),
                         static_cast<std::uint32_t>(addresses_.size()));
  if (inserted) {
    addresses_.push_back(addr);
    parent_.push_back(it->second);
  }
  return it->second;
}

std::uint32_t AliasSets::find(std::uint32_t x) const {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

void AliasSets::add_pair(net::IPv4Address a, net::IPv4Address b) {
  const std::uint32_t ra = find(intern(a));
  const std::uint32_t rb = find(intern(b));
  if (ra != rb) parent_[ra] = rb;
  ++pairs_;
}

bool AliasSets::same_device(net::IPv4Address a, net::IPv4Address b) const {
  const auto ia = index_.find(a.value());
  const auto ib = index_.find(b.value());
  if (ia == index_.end() || ib == index_.end()) return false;
  return find(ia->second) == find(ib->second);
}

bool AliasSets::aliased_to_any(
    net::IPv4Address addr,
    const std::vector<net::IPv4Address>& candidates) const {
  const auto it = index_.find(addr.value());
  if (it == index_.end()) return false;
  const std::uint32_t root = find(it->second);
  for (const auto& candidate : candidates) {
    if (candidate == addr) continue;
    const auto jt = index_.find(candidate.value());
    if (jt != index_.end() && find(jt->second) == root) return true;
  }
  return false;
}

std::vector<std::vector<net::IPv4Address>> AliasSets::sets() const {
  std::unordered_map<std::uint32_t, std::vector<net::IPv4Address>> by_root;
  for (std::uint32_t i = 0; i < addresses_.size(); ++i) {
    by_root[find(i)].push_back(addresses_[i]);
  }
  std::vector<std::vector<net::IPv4Address>> out;
  for (auto& [root, members] : by_root) {
    if (members.size() < 2) continue;
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  return out;
}

// ------------------------------------------------------------- pipeline

AliasSets run_midar(probe::Prober& prober,
                    std::vector<net::IPv4Address> candidates,
                    const MidarConfig& config) {
  AliasSets sets;
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  util::Rng rng{config.seed};
  rng.shuffle(candidates);
  if (candidates.size() > config.max_addresses) {
    candidates.resize(config.max_addresses);
  }

  prober.set_pps(config.pps);

  // ---------------------------------------------------- stage 1: estimate
  // Two probes per address, kEstimationGapSeconds apart, processed in
  // batches so the gap is realized by interleaving rather than idle
  // waiting.
  constexpr double kEstimationGapSeconds = 2.0;
  std::vector<Candidate> usable;
  const std::size_t batch = std::max<std::size_t>(
      1, static_cast<std::size_t>(config.pps * kEstimationGapSeconds));
  for (std::size_t begin = 0; begin < candidates.size(); begin += batch) {
    const std::size_t end = std::min(begin + batch, candidates.size());
    std::vector<Sample> first(end - begin);
    std::vector<std::uint8_t> have(end - begin, 0);
    for (std::size_t i = begin; i < end; ++i) {
      const auto r = prober.probe(probe::ProbeSpec::ping(candidates[i]));
      if (r.kind != probe::ResponseKind::kEchoReply) continue;
      first[i - begin] = Sample{r.send_time + r.rtt, r.reply_ip_id};
      have[i - begin] = 1;
    }
    for (std::size_t i = begin; i < end; ++i) {
      if (!have[i - begin]) continue;
      const auto r = prober.probe(probe::ProbeSpec::ping(candidates[i]));
      if (r.kind != probe::ResponseKind::kEchoReply) continue;
      const Sample second{r.send_time + r.rtt, r.reply_ip_id};
      const double dt = second.time - first[i - begin].time;
      if (dt <= 1e-6) continue;
      const double delta = static_cast<double>(
          id_delta(first[i - begin].ip_id, second.ip_id));
      if (delta > 20000.0) continue;  // wrapped or not a counter; discard
      Candidate c;
      c.address = candidates[i];
      c.velocity = delta / dt;
      c.samples.push_back(first[i - begin]);
      c.samples.push_back(second);
      usable.push_back(std::move(c));
    }
  }

  // --------------------------------------------------- stage 2: eliminate
  std::sort(usable.begin(), usable.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.velocity < b.velocity;
            });

  const std::size_t shard_size = std::max<std::size_t>(8, config.shard_size);
  const std::size_t step = shard_size / 2;  // 50% overlap between shards
  for (std::size_t begin = 0; begin < usable.size(); begin += step) {
    const std::size_t end = std::min(begin + shard_size, usable.size());

    // Interleaved rounds: fresh, closely spaced samples for the MBT.
    constexpr int kEliminationRounds = 5;
    for (int round = 0; round < kEliminationRounds; ++round) {
      for (std::size_t i = begin; i < end; ++i) {
        const auto r =
            prober.probe(probe::ProbeSpec::ping(usable[i].address));
        if (r.kind != probe::ResponseKind::kEchoReply) continue;
        usable[i].samples.push_back(Sample{r.send_time + r.rtt,
                                           r.reply_ip_id});
      }
    }

    // Pairwise MBT within the velocity window (a relative velocity
    // difference of kVelocityTolerance), with an absolute IP-ID slack for
    // the bounds test and a tighter one for the confirmation probes.
    // Addresses are velocity-sorted, so only a forward neighbourhood
    // needs testing.
    constexpr double kVelocityTolerance = 0.08;
    constexpr double kMbtSlackIds = 30.0;
    constexpr double kConfirmSlackIds = 6.0;
    for (std::size_t i = begin; i < end; ++i) {
      const Candidate& a = usable[i];
      for (std::size_t j = i + 1; j < end; ++j) {
        const Candidate& b = usable[j];
        const double scale = std::max({a.velocity, b.velocity, 1.0});
        if ((b.velocity - a.velocity) / scale > kVelocityTolerance) {
          break;  // sorted: nothing further can match
        }
        if (sets.same_device(a.address, b.address)) continue;
        const double velocity = 0.5 * (a.velocity + b.velocity);
        if (mbt_pass(a, b, velocity, kMbtSlackIds) &&
            confirm_pair(prober, a.address, b.address, velocity,
                         kConfirmSlackIds)) {
          sets.add_pair(a.address, b.address);
        }
      }
    }
    if (end == usable.size()) break;
  }

  util::log_info() << "midar: " << candidates.size() << " candidates, "
                   << usable.size() << " with usable IP-ID, "
                   << sets.pair_count() << " alias pairs";
  return sets;
}

}  // namespace rr::measure

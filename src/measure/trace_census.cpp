#include "measure/trace_census.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <numeric>
#include <span>
#include <unordered_set>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace rr::measure {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

[[nodiscard]] std::uint64_t fnv_fold(std::uint64_t h,
                                     std::uint64_t word) noexcept {
  return (h ^ word) * kFnvPrime;
}

/// One VP's census state — prober (persistent clock), gate over its own
/// local set, deferred global discoveries, the trace result every trace
/// reuses, and private result tallies. Workers touch only their own PerVp
/// plus lock-free global-set reads.
struct PerVp {
  std::unique_ptr<probe::Prober> prober;
  std::unique_ptr<StopSet> local;
  std::unique_ptr<DoubletreeGate> gate;
  std::vector<std::uint32_t> order;  // destination indices, seeded shuffle
  probe::TracerouteResult trace;
  sim::NetCounters tally;

  std::uint64_t traces = 0;
  std::uint64_t reached = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t probes_saved = 0;
  std::uint64_t schedule_hash = kFnvOffset;
  std::unordered_set<std::uint32_t> ifaces;
  std::unordered_set<std::uint64_t> links;
};

void harvest(PerVp& p, const probe::TracerouteResult& trace) {
  ++p.traces;
  if (trace.reached) ++p.reached;
  p.probes_sent += trace.probes_sent;
  p.probes_saved += trace.probes_saved;

  std::uint64_t h = p.schedule_hash;
  h = fnv_fold(h, trace.target.value());
  h = fnv_fold(h, trace.probes_sent);
  h = fnv_fold(h, static_cast<std::uint64_t>(trace.first_ttl) |
                      (static_cast<std::uint64_t>(trace.forward_stop_ttl)
                       << 16) |
                      (static_cast<std::uint64_t>(trace.backward_stop_ttl)
                       << 32) |
                      (static_cast<std::uint64_t>(trace.reached) << 48));

  // Router interfaces and directed router-router adjacencies — the
  // redundancy-independent discovery set. Echo hops (the destination) are
  // excluded: a forward stop elides the last-router->destination pair for
  // *this* destination by design, while router facts are covered by the
  // trace that seeded the stop.
  std::uint32_t prev_iface = 0;
  int prev_ttl = -2;
  for (const auto& hop : trace.hops) {
    h = fnv_fold(h, static_cast<std::uint64_t>(hop.ttl) |
                        (static_cast<std::uint64_t>(hop.responded) << 8) |
                        (static_cast<std::uint64_t>(hop.kind) << 10) |
                        (static_cast<std::uint64_t>(hop.address.value())
                         << 16));
    if (hop.responded && hop.kind == probe::ResponseKind::kTtlExceeded) {
      const std::uint32_t iface = hop.address.value();
      p.ifaces.insert(iface);
      if (prev_iface != 0 && prev_ttl + 1 == hop.ttl) {
        p.links.insert((static_cast<std::uint64_t>(prev_iface) << 32) |
                       iface);
      }
      prev_iface = iface;
      prev_ttl = hop.ttl;
    } else {
      prev_iface = 0;
      prev_ttl = -2;
    }
  }
  p.schedule_hash = h;
}

/// Union of sorted, duplicate-free runs, merged pairwise on the pool: each
/// level halves the run count, and std::set_union keeps one copy of a key
/// that two runs share.
template <typename T>
std::vector<T> sorted_union(std::vector<std::vector<T>> runs,
                            util::ThreadPool& pool) {
  if (runs.empty()) return {};
  for (std::size_t width = 1; width < runs.size(); width *= 2) {
    const std::size_t pairs = (runs.size() + width - 1) / (2 * width);
    pool.parallel_for(pairs, [&](std::size_t i) {
      std::vector<T>& a = runs[2 * width * i];
      std::vector<T>& b = runs[2 * width * i + width];
      std::vector<T> merged;
      merged.reserve(a.size() + b.size());
      std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                     std::back_inserter(merged));
      a = std::move(merged);
      b = std::vector<T>{};
    });
  }
  return std::move(runs.front());
}

}  // namespace

TraceCensusResult run_trace_census(Testbed& testbed,
                                   const TraceCensusConfig& config) {
  const auto& topology = testbed.topology();
  const auto dests = topology.destinations();
  const std::size_t n_all = dests.size();
  const std::size_t n_dests = config.per_vp_dests == 0
                                  ? n_all
                                  : std::min(config.per_vp_dests, n_all);
  const auto vps = testbed.vps();
  const std::size_t n_vps = vps.size();
  // Destinations each VP advances per commit round (global stop-set
  // insertions become visible at round boundaries only). Smaller rounds
  // surface inter-monitor facts sooner (more savings) at the cost of more
  // serial commit points; 16 keeps the first blind round under a seventh
  // of typical bench samples.
  constexpr std::size_t kRound = 16;
  const std::size_t round =
      std::max<std::size_t>(1, std::min(kRound, n_dests));
  const int threads = util::resolve_thread_count(
      config.threads > 0 ? config.threads : testbed.threads());

  // Destination sample shared by every VP: per_vp_dests subsamples the
  // *census*, not each VP's view — all VPs still probe the same targets,
  // which is where the inter-monitor redundancy the global set exploits
  // lives. A seeded shuffle picks the sample; each VP then walks it in
  // its own seeded order.
  std::vector<std::uint32_t> sample(n_all);
  std::iota(sample.begin(), sample.end(), 0u);
  {
    util::Rng sample_rng(config.seed);
    sample_rng.shuffle(sample);
  }
  sample.resize(n_dests);

  // The shared (frozen-per-round) global set. Capacity is a heuristic
  // sized to the key population — roughly the per-prefix union of
  // interfaces over all VP paths; a saturated stripe only rejects new
  // facts (costing savings, never correctness), so a miss-estimate
  // degrades gracefully.
  StopSet global(4096 + n_dests * 256);

  std::vector<std::unique_ptr<PerVp>> per_vp;
  per_vp.reserve(n_vps);
  for (std::size_t v = 0; v < n_vps; ++v) {
    auto p = std::make_unique<PerVp>();
    p->prober = std::make_unique<probe::Prober>(testbed.network(),
                                                vps[v]->host, config.pps);
    if (config.use_stop_sets) {
      // Local facts are (interface, TTL) pairs near this VP, shared by
      // most of its traces: a default-scale census stores ~0.4 per
      // destination, so n_dests / 2 plus a floor leaves ample headroom.
      p->local = std::make_unique<StopSet>(4096 + n_dests / 2);
      p->gate = std::make_unique<DoubletreeGate>(*p->local, global);
    }
    p->order = sample;
    util::Rng rng(config.seed ^ (0x9e3779b97f4a7c15ULL * (v + 1)));
    rng.shuffle(p->order);
    per_vp.push_back(std::move(p));
  }

  util::ThreadPool pool(threads);
  std::vector<std::span<const std::uint64_t>> pending(n_vps);

  for (std::size_t begin = 0; begin < n_dests; begin += round) {
    const std::size_t end = std::min(begin + round, n_dests);
    pool.parallel_for(n_vps, [&](std::size_t v) {
      PerVp& p = *per_vp[v];
      probe::TraceOptions options;
      options.gate = p.gate.get();
      options.counters = &p.tally;
      for (std::size_t i = begin; i < end; ++i) {
        const auto target =
            topology.host_at(dests[p.order[i]]).address;
        p.prober->traceroute_into(target, options, p.trace);
        harvest(p, p.trace);
      }
    });
    // Commit this round's global discoveries in canonical VP order (one
    // pool task per stripe, StopSet::commit): every worker of the next
    // round sees the identical set no matter how many threads ran this one.
    if (config.use_stop_sets) {
      for (std::size_t v = 0; v < n_vps; ++v) {
        pending[v] = per_vp[v]->gate->pending_global();
      }
      global.commit(pending, pool);
      for (auto& p : per_vp) p->gate->pending_global().clear();
    }
  }

  // Each VP's discoveries, sorted on the pool; the per-VP hash sets are
  // released there too.
  std::vector<std::vector<std::uint32_t>> iface_runs(n_vps);
  std::vector<std::vector<std::uint64_t>> link_runs(n_vps);
  pool.parallel_for(n_vps, [&](std::size_t v) {
    PerVp& p = *per_vp[v];
    iface_runs[v].assign(p.ifaces.begin(), p.ifaces.end());
    std::sort(iface_runs[v].begin(), iface_runs[v].end());
    link_runs[v].assign(p.links.begin(), p.links.end());
    std::sort(link_runs[v].begin(), link_runs[v].end());
    p.ifaces = {};
    p.links = {};
  });

  TraceCensusResult result;
  result.schedule_hash = kFnvOffset;
  for (std::size_t v = 0; v < n_vps; ++v) {
    PerVp& p = *per_vp[v];
    testbed.network().merge_counters(p.tally);
    result.traces += p.traces;
    result.reached += p.reached;
    result.probes_sent += p.probes_sent;
    result.probes_saved += p.probes_saved;
    result.schedule_hash = fnv_fold(result.schedule_hash, p.schedule_hash);
    if (p.gate != nullptr) {
      result.stats.merge(p.gate->stats());
      result.local_keys += p.local->size();
      result.stopset_overflows += p.local->overflows();
    }
  }
  result.stats.probes_sent = result.probes_sent;
  result.stats.probes_saved = result.probes_saved;
  if (config.use_stop_sets) {
    result.global_keys = global.size();
    result.stopset_overflows += global.overflows();
  }

  const auto iface_sorted = sorted_union(std::move(iface_runs), pool);
  const auto link_sorted = sorted_union(std::move(link_runs), pool);
  result.interfaces = iface_sorted.size();
  result.links = link_sorted.size();
  std::uint64_t ih = kFnvOffset;
  for (const auto a : iface_sorted) ih = fnv_fold(ih, a);
  result.interface_hash = ih;
  std::uint64_t lh = kFnvOffset;
  for (const auto l : link_sorted) lh = fnv_fold(lh, l);
  result.link_hash = lh;
  return result;
}

}  // namespace rr::measure

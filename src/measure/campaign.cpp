#include "measure/campaign.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <span>
#include <utility>

#include "util/log.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rr::measure {

namespace {

/// One VP's pass A send state, reused by every probe of its stream.
/// Cache-line aligned: neighbouring VPs' streams run on different workers
/// and write their context and result on every probe.
struct alignas(64) VpStream {
  sim::SendContext ctx;
  probe::ProbeResult result;
};

/// One optimistic ping-RR exchange awaiting its Network::settle.
/// Buffers (recorded, trace.events) are recycled across chunks via swap.
struct PendingProbe {
  std::uint32_t dest = 0;
  RrObservation obs;
  std::vector<net::IPv4Address> recorded;
  sim::ProbeTrace trace;
  sim::NetCounters counters;
};

/// Folds a probe result into the compact observation, extracting the
/// recorded RR addresses for the per-destination union.
RrObservation observe(const probe::ProbeResult& result,
                      net::IPv4Address target,
                      std::vector<net::IPv4Address>& recorded_out) {
  RrObservation obs;
  recorded_out.clear();
  if (!result.responded()) return obs;
  obs.flags |= RrObservation::kResponded;
  if (result.kind == probe::ResponseKind::kEchoReply) {
    obs.flags |= RrObservation::kEchoReply;
  }
  if (result.rr_option_in_reply) {
    obs.flags |= RrObservation::kOptionPresent;
    obs.stamp_count = static_cast<std::uint8_t>(result.rr_recorded.size());
    obs.free_slots = static_cast<std::uint8_t>(result.rr_free_slots);
    const auto it = std::find(result.rr_recorded.begin(),
                              result.rr_recorded.end(), target);
    if (it != result.rr_recorded.end()) {
      obs.dest_slot =
          static_cast<std::uint8_t>((it - result.rr_recorded.begin()) + 1);
    }
    recorded_out.assign(result.rr_recorded.begin(), result.rr_recorded.end());
  }
  return obs;
}

}  // namespace

Campaign Campaign::run(Testbed& testbed, const CampaignConfig& config) {
  Campaign campaign;
  campaign.topology_ = testbed.topology_ptr();
  const auto testbed_vps = testbed.vps();
  campaign.vps_.assign(testbed_vps.begin(), testbed_vps.end());

  const auto all_dests = testbed.topology().destinations();
  const int stride = std::max(1, config.destination_stride);
  for (std::size_t i = 0; i < all_dests.size();
       i += static_cast<std::size_t>(stride)) {
    campaign.dests_.push_back(all_dests[i]);
  }
  const std::size_t n_dests = campaign.dests_.size();
  const std::size_t n_vps = campaign.vps_.size();

  campaign.ping_responsive_.assign(n_dests, 0);
  campaign.observations_.assign(n_vps * n_dests, RrObservation{});
  campaign.recorded_union_.assign(n_dests, {});

  sim::Network& net = testbed.network();
  net.reset();
  const std::uint64_t net_sent_before = net.counters().sent;
  // Install the run's fault schedule (inert by default). Setting it every
  // run also clears any plan a previous campaign left on the network.
  net.set_fault_plan(sim::FaultPlan{config.faults});

  const int threads = util::resolve_thread_count(
      config.threads > 0 ? config.threads : testbed.threads());
  util::ThreadPool pool(threads);
  const double interval = 1.0 / config.vp_pps;
  const topo::HostId probe_host = testbed.topology().probe_host();
  const int attempts = std::max(1, config.ping_attempts);

  // Hosts that originate campaign probes — the compiled forwarding
  // table's row set. Stable across blocks.
  std::vector<topo::HostId> fib_sources;
  fib_sources.reserve(n_vps + 1);
  for (const auto* vp : campaign.vps_) fib_sources.push_back(vp->host);
  if (probe_host != topo::kNoHost) fib_sources.push_back(probe_host);

  // Streaming: destinations are processed in blocks (stream_block == 0 is
  // one block over the whole census, bit-identical to the pre-streaming
  // campaign). Per block: compile the forwarding table for the block's
  // destinations, run the plain-ping sweep and the ping-RR study over the
  // block, then fold the block's RR sightings into the per-destination
  // unions. Probers, their virtual clocks, the token buckets, and the
  // per-destination ping slots all carry across blocks, so the schedule a
  // destination experiences depends only on its global index and the
  // per-VP probe order — not on how blocks chop the census.
  const std::size_t block_size =
      config.stream_block == 0 ? std::max<std::size_t>(1, n_dests)
                               : config.stream_block;

  // ping-RR state persisting across blocks (see the study comment below).
  util::Rng order_rng{config.seed};
  std::vector<probe::Prober> probers;
  probers.reserve(n_vps);
  for (std::size_t v = 0; v < n_vps; ++v) {
    probers.push_back(
        testbed.make_prober(campaign.vps_[v]->host, config.vp_pps));
  }
  constexpr std::size_t kChunkSteps = 64;
  std::vector<std::vector<std::uint32_t>> orders(n_vps);
  // One stream per VP; each probe's counters and trace move from the
  // stream's context into the probe's pending slot.
  std::vector<VpStream> streams(n_vps);
  // Probe (j, v)'s pending slot is v * kChunkSteps + j: each VP owns one
  // contiguous row, so pass A's writers touch disjoint cache lines instead
  // of interleaving every VP's slots within a step. Two buffers: pass A
  // fills one chunk's while pass B replays the previous chunk's.
  std::array<std::vector<PendingProbe>, 2> pending;
  for (auto& buffer : pending) buffer.resize(kChunkSteps * n_vps);
  // Raw per-destination address sightings, deduplicated per block.
  std::vector<std::vector<net::IPv4Address>> collected(n_dests);

  // Pass B for one chunk: settle + result application, serially in the
  // canonical (step, VP) order described in the study comment.
  const auto replay = [&](std::vector<PendingProbe>& chunk,
                          std::size_t steps) {
    const auto pass_b_begin = std::chrono::steady_clock::now();  // rropt-lint: allow(no-wallclock)
    for (std::size_t j = 0; j < steps; ++j) {
      for (std::size_t v = 0; v < n_vps; ++v) {
        PendingProbe& p = chunk[v * kChunkSteps + j];
        if (!net.settle(p.trace, p.counters)) {
          p.obs = RrObservation{};
          p.recorded.clear();
        }
        campaign.observations_[v * n_dests + p.dest] = p.obs;
        if (!p.recorded.empty()) {
          auto& sightings = collected[p.dest];
          sightings.insert(sightings.end(), p.recorded.begin(),
                           p.recorded.end());
        }
      }
    }
    campaign.phase_stats_.pass_b_seconds +=
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - pass_b_begin)  // rropt-lint: allow(no-wallclock)
            .count();
  };

  for (std::size_t block_begin = 0; block_begin < n_dests;
       block_begin += block_size) {
    const std::size_t block_end = std::min(block_begin + block_size, n_dests);
    const std::size_t block_len = block_end - block_begin;

    // Release the previous block's table *before* compiling the next one:
    // the network held the only remaining reference, so this frees the
    // old spine arenas immediately and two block tables never coexist —
    // peak RSS sees one compiled FIB, not two. The rows compile across
    // the pool; no send is in flight here.
    const auto fib_begin = std::chrono::steady_clock::now();  // rropt-lint: allow(no-wallclock)
    net.set_compiled_fib(nullptr);
    auto fib = route::CompiledFib::build(
        net.stitcher(), fib_sources,
        std::span<const topo::HostId>{campaign.dests_}.subspan(block_begin,
                                                               block_len),
        &pool);
    campaign.phase_stats_.peak_block_fib_bytes = std::max(
        campaign.phase_stats_.peak_block_fib_bytes, fib->memory_bytes());
    net.set_compiled_fib(std::move(fib));
    campaign.phase_stats_.fib_seconds +=
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - fib_begin)  // rropt-lint: allow(no-wallclock)
            .count();

    // ------------------------------------------------- plain-ping study
    // Three pings per destination from the probe host (USC in the paper).
    // Each destination owns a reserved slot block keyed by its *global*
    // index, so its probe times — and therefore its outcome — do not
    // depend on how many attempts earlier destinations consumed, nor on
    // the streaming block size. Plain pings carry no IP options, so no
    // token bucket is involved and destinations are fully independent:
    // the sweep parallelizes over destination ranges with no resolution
    // phase.
    {
      constexpr std::size_t kPingChunk = 256;
      const std::size_t n_chunks = (block_len + kPingChunk - 1) / kPingChunk;
      std::vector<sim::NetCounters> tallies(n_chunks);
      std::vector<std::uint64_t> chunk_buf_growths(n_chunks, 0);
      std::vector<std::uint64_t> chunk_scratch_growths(n_chunks, 0);
      pool.parallel_for(n_chunks, [&](std::size_t chunk) {
        const std::size_t begin = block_begin + chunk * kPingChunk;
        const std::size_t end = std::min(begin + kPingChunk, block_end);
        auto prober = testbed.make_prober(probe_host, config.vp_pps);
        sim::SendContext ctx;
        probe::ProbeResult result;
        for (std::size_t d = begin; d < end; ++d) {
          const auto target =
              testbed.topology().host_at(campaign.dests_[d]).address;
          prober.set_clock(static_cast<double>(attempts) *
                           static_cast<double>(d) * interval);
          for (int attempt = 0; attempt < attempts; ++attempt) {
            prober.probe_into(probe::ProbeSpec::ping(target), &ctx, result);
            if (result.kind == probe::ResponseKind::kEchoReply) {
              campaign.ping_responsive_[d] = 1;
              break;
            }
          }
        }
        tallies[chunk] = ctx.counters;
        chunk_buf_growths[chunk] = prober.buffer_growths();
        chunk_scratch_growths[chunk] = ctx.scratch.growths;
      });
      for (std::size_t chunk = 0; chunk < n_chunks; ++chunk) {
        net.merge_counters(tallies[chunk]);
        campaign.alloc_stats_.probe_buffer_growths +=
            chunk_buf_growths[chunk];
        campaign.alloc_stats_.reply_scratch_growths +=
            chunk_scratch_growths[chunk];
      }
      campaign.alloc_stats_.probe_streams += n_chunks;
    }

    // ---------------------------------------------------- ping-RR study
    // Every VP probes every destination of the block once, in its own
    // random order; all VPs run concurrently on the shared virtual
    // timeline, so shared rate limiters see the aggregate load. Prober
    // clocks continue across blocks: with one block, the schedule is the
    // pre-streaming campaign's exactly.
    //
    // Execution is chunked: pass A advances every VP's probe stream a
    // fixed number of steps in parallel (per-VP prober and context,
    // counter-based randomness — no shared mutable state), each send
    // recording its would-be token-bucket consumes instead of performing
    // them. Pass B then settles the probes serially in (step, VP) order —
    // the order a single-threaded run sends them — and Network::settle
    // cancels any probe or reply whose consume fails and substitutes the
    // counters a walk that met the empty bucket would have produced.
    // Chunk size is fixed, and chunk boundaries are invisible to both
    // passes, so contents are identical at any thread count.
    //
    // Chunk k's pass B runs as one more task of chunk k+1's pass A region
    // (index 0, claimed first), so the serial replay hides under the
    // parallel walk. The overlap is exact: sends never read what the
    // replay writes (token buckets, network counters, observations,
    // sightings), and the two chunks' pending probes sit in different
    // buffers. Replays still run one at a time in chunk order, so tokens
    // are consumed in the same serial order as before.
    for (std::size_t v = 0; v < n_vps; ++v) {
      auto& order = orders[v];
      order.resize(block_len);
      for (std::size_t d = 0; d < block_len; ++d) {
        order[d] = static_cast<std::uint32_t>(block_begin + d);
      }
      order_rng.shuffle(order);
    }

    // The chunk awaiting its replay sits in pending[back]; pass A fills
    // the other buffer. The block's first region has nothing to replay.
    std::size_t back = 0;
    std::size_t back_steps = 0;
    for (std::size_t k0 = 0; k0 < block_len; k0 += kChunkSteps) {
      const std::size_t steps = std::min(kChunkSteps, block_len - k0);
      std::vector<PendingProbe>& front = pending[1 - back];

      // Pass A: per-VP probe streams, one worker at a time per VP; index
      // 0 replays the previous chunk meanwhile.
      const auto pass_a_begin = std::chrono::steady_clock::now();  // rropt-lint: allow(no-wallclock)
      pool.parallel_for(n_vps + 1, [&](std::size_t task) {
        if (task == 0) {
          replay(pending[back], back_steps);
          return;
        }
        const std::size_t v = task - 1;
        PendingProbe* vp_pending = front.data() + v * kChunkSteps;
        sim::SendContext& ctx = streams[v].ctx;
        probe::ProbeResult& result = streams[v].result;
        for (std::size_t j = 0; j < steps; ++j) {
          PendingProbe& p = vp_pending[j];
          const std::size_t d = orders[v][k0 + j];
          const net::IPv4Address target =
              campaign.topology_->host_at(campaign.dests_[d]).address;
          p.dest = static_cast<std::uint32_t>(d);
          ctx.counters = sim::NetCounters{};
          probers[v].probe_into(probe::ProbeSpec::ping_rr(target), &ctx,
                                result);
          p.counters = ctx.counters;
          std::swap(p.trace, ctx.trace);
          p.obs = observe(result, target, p.recorded);
        }
      });
      campaign.phase_stats_.pass_a_seconds +=
          std::chrono::duration<double>(
              std::chrono::steady_clock::now() - pass_a_begin)  // rropt-lint: allow(no-wallclock)
              .count();
      back = 1 - back;
      back_steps = steps;
    }
    // Drain the block's last replay before the union fold, so the next
    // block's FIB swap and ping sweep never run beside a replay.
    replay(pending[back], back_steps);

    // Deduplicate each block destination's sightings in one sort instead
    // of the old per-probe sorted-insert (quadratic in popular
    // destinations). Folding per block keeps the raw sighting buffers
    // bounded by the block, not the census.
    std::size_t sighting_bytes = 0;
    for (std::size_t d = block_begin; d < block_end; ++d) {
      sighting_bytes += collected[d].capacity() * sizeof(net::IPv4Address);
    }
    campaign.phase_stats_.peak_block_sighting_bytes = std::max(
        campaign.phase_stats_.peak_block_sighting_bytes, sighting_bytes);
    pool.parallel_for(block_len, [&](std::size_t i) {
      const std::size_t d = block_begin + i;
      auto& sightings = collected[d];
      std::sort(sightings.begin(), sightings.end());
      sightings.erase(std::unique(sightings.begin(), sightings.end()),
                      sightings.end());
      sightings.shrink_to_fit();
      campaign.recorded_union_[d] = std::move(sightings);
    });
  }
  net.set_compiled_fib(nullptr);

  for (std::size_t v = 0; v < n_vps; ++v) {
    campaign.alloc_stats_.probe_buffer_growths += probers[v].buffer_growths();
  }
  for (const VpStream& stream : streams) {
    campaign.alloc_stats_.reply_scratch_growths += stream.ctx.scratch.growths;
  }
  campaign.alloc_stats_.probe_streams += n_vps;

  campaign.phase_stats_.probes_sent = net.counters().sent - net_sent_before;
  campaign.finalize_derived();

  util::log_info() << "campaign complete: " << n_vps << " VPs x " << n_dests
                   << " destinations, " << threads << " threads";
  return campaign;
}

std::size_t Campaign::memory_bytes() const noexcept {
  std::size_t bytes = observations_.capacity() * sizeof(RrObservation) +
                      recorded_union_.capacity() *
                          sizeof(std::vector<net::IPv4Address>);
  for (const auto& sightings : recorded_union_) {
    bytes += sightings.capacity() * sizeof(net::IPv4Address);
  }
  return bytes;
}

void Campaign::finalize_derived() {
  const std::size_t n_dests = dests_.size();
  rr_responsive_bits_.assign(n_dests, 0);
  rr_reachable_bits_.assign(n_dests, 0);
  responding_vp_counts_.assign(n_dests, 0);
  for (std::size_t v = 0; v < vps_.size(); ++v) {
    const RrObservation* row = observations_.data() + v * n_dests;
    for (std::size_t d = 0; d < n_dests; ++d) {
      if (row[d].rr_responsive()) {
        rr_responsive_bits_[d] = 1;
        ++responding_vp_counts_[d];
      }
      if (row[d].rr_reachable()) rr_reachable_bits_[d] = 1;
    }
  }
}

int Campaign::min_rr_distance(
    std::size_t dest_index,
    const std::vector<std::size_t>& vp_subset) const noexcept {
  int best = 0;
  for (std::size_t v : vp_subset) {
    const RrObservation& obs = at(v, dest_index);
    if (!obs.rr_reachable()) continue;
    if (best == 0 || obs.dest_slot < best) best = obs.dest_slot;
  }
  return best;
}

std::vector<std::size_t> Campaign::rr_responsive_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t d = 0; d < dests_.size(); ++d) {
    if (rr_responsive(d)) out.push_back(d);
  }
  return out;
}

std::vector<std::size_t> Campaign::rr_reachable_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t d = 0; d < dests_.size(); ++d) {
    if (rr_reachable(d)) out.push_back(d);
  }
  return out;
}

}  // namespace rr::measure

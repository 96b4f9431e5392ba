#include "routing/fib.h"

#include <cassert>

#include "util/thread_pool.h"

namespace rr::route {

std::shared_ptr<const CompiledFib> CompiledFib::build(
    PathStitcher& stitcher, std::span<const HostId> sources,
    std::span<const HostId> dests, util::ThreadPool* pool) {
  std::shared_ptr<CompiledFib> fib{new CompiledFib};
  const topo::Topology& topo = stitcher.topology();
  fib->topology_ = &topo;
  fib->source_slot_.assign(topo.hosts().size(), kNoSlot);
  fib->ar_slot_.assign(topo.routers().size(), kNoSlot);

  // Columns: one per distinct destination access router, represented by
  // the first destination that uses it. The spine-identity argument needs
  // every host behind a column to share the representative's AS; the
  // generator guarantees that, but a mismatched column is demoted to
  // kMiss (PathCache fallback) rather than trusted.
  std::vector<HostId> reps;
  std::vector<RouterId> column_ar;
  std::vector<std::uint8_t> poisoned;
  for (const HostId d : dests) {
    const topo::Host& host = topo.host_at(d);
    std::uint32_t& slot = fib->ar_slot_[host.access_router];
    if (slot == kNoSlot) {
      slot = static_cast<std::uint32_t>(reps.size());
      reps.push_back(d);
      column_ar.push_back(host.access_router);
      poisoned.push_back(0);
    } else if (topo.host_at(reps[slot]).as_id != host.as_id) {
      poisoned[slot] = 1;
    }
  }
  for (std::size_t c = 0; c < reps.size(); ++c) {
    if (poisoned[c]) fib->ar_slot_[column_ar[c]] = kNoSlot;
  }

  std::vector<HostId> rows;
  for (const HostId s : sources) {
    if (fib->source_slot_[s] != kNoSlot) continue;
    fib->source_slot_[s] = static_cast<std::uint32_t>(rows.size());
    rows.push_back(s);
  }

  fib->columns_ = reps.size();
  fib->pairs_.assign(rows.size() * reps.size(), SpinePair{});
  fib->arenas_.resize(rows.size());
  // One row per task: it writes only its own pairs and arena, and the
  // stitcher is safe for concurrent callers. The row grows in a scratch
  // and is copied out exact-size, so the table holds no doubling slack.
  const auto build_row = [&](std::size_t r) {
    SpinePair* row_pairs = fib->pairs_.data() + r * fib->columns_;
    std::vector<PathHop> row_hops;
    std::vector<PathHop> hops;
    for (std::size_t c = 0; c < reps.size(); ++c) {
      SpinePair& pair = row_pairs[c];
      if (stitcher.host_path(rows[r], reps[c], hops)) {
        assert(hops.size() < 0x10000);
        pair.fwd_off = static_cast<std::uint32_t>(row_hops.size());
        pair.fwd_len = static_cast<std::uint16_t>(hops.size());
        pair.flags |= kFwdRoutable;
        row_hops.insert(row_hops.end(), hops.begin(), hops.end());
      }
      if (stitcher.host_path(reps[c], rows[r], hops)) {
        assert(hops.size() < 0x10000);
        pair.rev_off = static_cast<std::uint32_t>(row_hops.size());
        pair.rev_len = static_cast<std::uint16_t>(hops.size());
        pair.flags |= kRevRoutable;
        row_hops.insert(row_hops.end(), hops.begin(), hops.end());
      }
    }
    fib->arenas_[r] = std::vector<PathHop>(row_hops.begin(), row_hops.end());
  };
  if (pool != nullptr) {
    pool->parallel_for(rows.size(), build_row);
  } else {
    for (std::size_t r = 0; r < rows.size(); ++r) build_row(r);
  }
  return fib;
}

CompiledFib::Lookup CompiledFib::forward(HostId src, HostId dst,
                                         std::vector<PathHop>& out) const {
  const std::uint32_t row = source_slot_[src];
  if (row == kNoSlot) return Lookup::kMiss;
  const std::uint32_t col =
      ar_slot_[topology_->host_at(dst).access_router];
  if (col == kNoSlot) return Lookup::kMiss;
  const SpinePair& pair = pairs_[row * columns_ + col];
  if (!(pair.flags & kFwdRoutable)) return Lookup::kUnroutable;
  const std::vector<PathHop>& arena = arenas_[row];
  out.assign(arena.begin() + pair.fwd_off,
             arena.begin() + pair.fwd_off + pair.fwd_len);
  // The spine was stitched toward the column's representative host; only
  // the final egress pick depends on the actual destination.
  out.back().egress = PathStitcher::pick_interface(
      *topology_, out.back().router, PathStitcher::kDstSaltTag | dst);
  return Lookup::kHit;
}

CompiledFib::Lookup CompiledFib::reverse(HostId dst, HostId reply_to,
                                         std::vector<PathHop>& out) const {
  const std::uint32_t row = source_slot_[reply_to];
  if (row == kNoSlot) return Lookup::kMiss;
  const std::uint32_t col =
      ar_slot_[topology_->host_at(dst).access_router];
  if (col == kNoSlot) return Lookup::kMiss;
  const SpinePair& pair = pairs_[row * columns_ + col];
  if (!(pair.flags & kRevRoutable)) return Lookup::kUnroutable;
  const std::vector<PathHop>& arena = arenas_[row];
  out.assign(arena.begin() + pair.rev_off,
             arena.begin() + pair.rev_off + pair.rev_len);
  // Mirror image of forward(): the reply's source host picks the first
  // hop's ingress.
  out.front().ingress = PathStitcher::pick_interface(
      *topology_, out.front().router, PathStitcher::kSrcHostSaltTag | dst);
  return Lookup::kHit;
}

}  // namespace rr::route

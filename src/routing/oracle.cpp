#include "routing/oracle.h"

#include <algorithm>

#include "util/log.h"
#include "util/thread_pool.h"

namespace rr::route {

namespace {

/// Per-thread tree-computation scratch for the construction sweep. Reused
/// across every block a worker processes (and across oracle builds on the
/// same thread), so the sweep's steady state allocates only for results.
TreeScratch& thread_scratch() {
  thread_local TreeScratch scratch;
  return scratch;
}

}  // namespace

RoutingOracle::RoutingOracle(std::shared_ptr<const topo::Topology> topology,
                             Epoch epoch, std::vector<AsId> source_ases,
                             int threads)
    : engine_(std::move(topology), epoch), sources_(std::move(source_ases)) {
  std::sort(sources_.begin(), sources_.end());
  sources_.erase(std::unique(sources_.begin(), sources_.end()),
                 sources_.end());

  const std::size_t n = engine_.topology().ases().size();
  const std::size_t n_sources = sources_.size();
  source_slot_.assign(n, kNotSource);
  for (std::uint32_t i = 0; i < sources_.size(); ++i) {
    source_slot_[sources_[i]] = i;
  }
  forward_offsets_.assign(n_sources * n, 0);

  // Simple stubs need no tree. Let d have no customers, no peers and one
  // provider P. Then d's tree is P's tree with every reachable length +1,
  // except P -> (d, 1, customer) and d -> self:
  //  * phase 1 (customer BFS) from d reaches only P at level 1, then runs
  //    P's BFS one level deeper. d never reappears: it has no customers,
  //    so it is no AS's provider;
  //  * phase 2 (peer routes) sees every customer distance +1, and d is no
  //    AS's peer, so every AS picks the same peer at length +1;
  //  * phase 3 (provider routes) is seeded with the same relaxations at
  //    +1, plus, in P's tree only, P relaxing its customer d. Settling d
  //    pushes nothing (d has no customers), so every other AS settles
  //    with the same parent at length +1.
  // So a source's path to d is its path to P followed by d. P itself is
  // never a simple stub (d is its customer), so P's path has a tree.
  // StubLemma.* (tests/routing_test.cpp) checks this on every simple stub.
  stub_provider_.assign(n, topo::kNoAs);
  for (AsId as = 0; as < n; ++as) {
    const auto providers = engine_.providers_of(as);
    if (providers.size() == 1 && engine_.customers_of(as).empty() &&
        engine_.peers_of(as).empty()) {
      stub_provider_[as] = providers.front();
    }
  }

  util::ThreadPool pool(util::resolve_thread_count(threads));

  // Pin the trees toward each source (reverse-path service).
  pinned_.resize(n);
  pool.parallel_for(n_sources, [&](std::size_t i) {
    TreeScratch& scratch = thread_scratch();
    engine_.compute_tree_into(sources_[i], scratch);
    pinned_[sources_[i]] =
        std::make_unique<RouteTree>(sources_[i], scratch.entries);
  });

  // The destination sweep: one tree per destination AS that is not a
  // simple stub, extracting each source's path. A block's worker writes
  // only that block's arena and its columns of forward_offsets_, so the
  // blocks need no merge and the result is the same at any thread count.
  arenas_.resize((n + kSweepBlock - 1) / kSweepBlock);
  pool.parallel_for(arenas_.size(), [&](std::size_t b) {
    const AsId begin = static_cast<AsId>(b * kSweepBlock);
    const AsId end = static_cast<AsId>(std::min(n, (b + 1) * kSweepBlock));
    TreeScratch& scratch = thread_scratch();
    std::vector<AsId> arena;
    std::vector<AsId> path;
    for (AsId dst = begin; dst < end; ++dst) {
      if (stub_provider_[dst] != topo::kNoAs) continue;
      engine_.compute_tree_into(dst, scratch);
      RouteTree tree{dst, std::move(scratch.entries)};
      for (std::uint32_t si = 0; si < n_sources; ++si) {
        tree.as_path_into(sources_[si], path);
        if (path.empty()) continue;
        forward_offsets_[si * n + dst] =
            static_cast<std::uint32_t>(arena.size() + 1);
        arena.push_back(static_cast<AsId>(path.size()));
        arena.insert(arena.end(), path.begin(), path.end());
      }
      scratch.entries = tree.release_entries();
    }
    arenas_[b] = std::vector<AsId>(arena.begin(), arena.end());
  });

  util::log_debug() << "routing oracle: " << n_sources << " sources, " << n
                    << " destinations, arenas " << arena_bytes() / 1024
                    << " KiB";
}

std::vector<AsId> RoutingOracle::as_path(AsId src, AsId dst) const {
  std::vector<AsId> storage;
  const auto view = path_view(src, dst, storage);
  if (view.data() == storage.data()) return storage;
  return {view.begin(), view.end()};
}

std::span<const AsId> RoutingOracle::path_view(
    AsId src, AsId dst, std::vector<AsId>& storage) const {
  if (src == dst) {
    storage.assign(1, src);
    return {storage.data(), 1};
  }

  if (const std::uint32_t slot = source_slot_[src]; slot != kNotSource) {
    const AsId provider = stub_provider_[dst];
    if (provider == topo::kNoAs) return arena_path(slot, dst);
    // A simple stub: the path to its provider, then the stub (the lemma in
    // the constructor). The bound keeps as_path_into's unreachable verdict.
    const auto to_provider = arena_path(slot, provider);
    if (to_provider.empty() ||
        to_provider.size() >= RouteTree::kMaxPathAses) {
      return {};
    }
    storage.assign(to_provider.begin(), to_provider.end());
    storage.push_back(dst);
    return {storage.data(), storage.size()};
  }

  if (const RouteTree* tree = pinned_[dst].get(); tree != nullptr) {
    tree->as_path_into(src, storage);
    return {storage.data(), storage.size()};
  }

  engine_.compute_tree(dst).as_path_into(src, storage);
  return {storage.data(), storage.size()};
}

std::span<const AsId> RoutingOracle::arena_path(std::uint32_t slot,
                                                AsId dst) const noexcept {
  const std::size_t n = engine_.topology().ases().size();
  const std::uint32_t offset = forward_offsets_[slot * n + dst];
  if (offset == 0) return {};
  const std::vector<AsId>& arena = arenas_[dst / kSweepBlock];
  return {arena.data() + offset, static_cast<std::size_t>(arena[offset - 1])};
}

std::size_t RoutingOracle::arena_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& arena : arenas_) bytes += arena.capacity() * sizeof(AsId);
  return bytes;
}

std::size_t RoutingOracle::memory_bytes() const noexcept {
  std::size_t bytes = engine_.memory_bytes() + arena_bytes() +
                      arenas_.capacity() * sizeof(arenas_.front()) +
                      (forward_offsets_.capacity() + source_slot_.capacity()) *
                          sizeof(std::uint32_t) +
                      (sources_.capacity() + stub_provider_.capacity()) *
                          sizeof(AsId) +
                      pinned_.capacity() * sizeof(pinned_.front());
  for (const auto& tree : pinned_) {
    if (tree != nullptr) bytes += tree->memory_bytes();
  }
  return bytes;
}

bool RoutingOracle::reachable(AsId src, AsId dst) const {
  if (src == dst) return true;
  std::vector<AsId> storage;
  return !path_view(src, dst, storage).empty();
}

}  // namespace rr::route

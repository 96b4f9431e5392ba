#include "routing/bgp.h"

#include <algorithm>

namespace rr::route {

namespace {
constexpr int class_rank(RouteClass c) noexcept { return static_cast<int>(c); }
}  // namespace

void RouteTree::as_path_into(AsId src, std::vector<AsId>& out) const {
  out.clear();
  AsId current = src;
  for (std::size_t guard = 0; guard < kMaxPathAses; ++guard) {
    out.push_back(current);
    if (current == destination_) return;
    const RouteEntry& entry = entries_[current];
    if (!entry.reachable() || entry.next_hop == topo::kNoAs) {
      out.clear();
      return;
    }
    current = entry.next_hop;
  }
  out.clear();  // loop guard tripped: treat as unreachable
}

BgpEngine::BgpEngine(std::shared_ptr<const topo::Topology> topology,
                     Epoch epoch)
    : topology_(std::move(topology)), epoch_(epoch) {
  const std::size_t n = topology_->ases().size();

  // Two passes over the link table: degree count, then placement. The
  // placement order is link-table order; a final per-AS sort restores the
  // ascending neighbour order that every tie-break in compute_tree_into
  // depends on (identical to the old vector-of-vectors construction).
  std::vector<std::uint32_t> deg_customers(n, 0), deg_providers(n, 0),
      deg_peers(n, 0);
  for (const auto& link : topology_->links()) {
    if (!link.exists_in(epoch_)) continue;
    if (link.kind == topo::LinkKind::kCustomerProvider) {
      // link.a is the customer of link.b.
      ++deg_providers[link.a];
      ++deg_customers[link.b];
    } else {
      ++deg_peers[link.a];
      ++deg_peers[link.b];
    }
  }
  const auto make_offsets = [n](Csr& csr,
                                const std::vector<std::uint32_t>& degree) {
    csr.offsets.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      csr.offsets[i + 1] = csr.offsets[i] + degree[i];
    }
    csr.flat.resize(csr.offsets[n]);
  };
  make_offsets(customers_, deg_customers);
  make_offsets(providers_, deg_providers);
  make_offsets(peers_, deg_peers);

  std::vector<std::uint32_t> fill_customers(customers_.offsets.begin(),
                                            customers_.offsets.end() - 1);
  std::vector<std::uint32_t> fill_providers(providers_.offsets.begin(),
                                            providers_.offsets.end() - 1);
  std::vector<std::uint32_t> fill_peers(peers_.offsets.begin(),
                                        peers_.offsets.end() - 1);
  for (const auto& link : topology_->links()) {
    if (!link.exists_in(epoch_)) continue;
    if (link.kind == topo::LinkKind::kCustomerProvider) {
      providers_.flat[fill_providers[link.a]++] = link.b;
      customers_.flat[fill_customers[link.b]++] = link.a;
    } else {
      peers_.flat[fill_peers[link.a]++] = link.b;
      peers_.flat[fill_peers[link.b]++] = link.a;
    }
  }
  const auto sort_rows = [n](Csr& csr) {
    for (std::size_t i = 0; i < n; ++i) {
      std::sort(csr.flat.begin() + csr.offsets[i],
                csr.flat.begin() + csr.offsets[i + 1]);
    }
  };
  sort_rows(customers_);
  sort_rows(providers_);
  sort_rows(peers_);
}

RouteTree BgpEngine::compute_tree(AsId destination) const {
  TreeScratch scratch;
  compute_tree_into(destination, scratch);
  return RouteTree{destination, std::move(scratch.entries)};
}

void BgpEngine::compute_tree_into(AsId destination,
                                  TreeScratch& scratch) const {
  const std::size_t n = topology_->ases().size();
  auto& entries = scratch.entries;
  entries.assign(n, RouteEntry{});

  // Phase 1 — customer routes: BFS from the destination along
  // customer->provider edges. An AS X on such a chain learned the route
  // from the customer below it.
  auto& customer_dist = scratch.customer_dist;
  customer_dist.assign(n, std::numeric_limits<std::uint16_t>::max());
  customer_dist[destination] = 0;
  entries[destination] = RouteEntry{destination, 0, RouteClass::kSelf};
  auto& frontier = scratch.frontier;
  auto& next_frontier = scratch.next_frontier;
  frontier.clear();
  frontier.push_back(destination);
  std::uint16_t level = 0;
  while (!frontier.empty()) {
    ++level;
    next_frontier.clear();
    for (AsId below : frontier) {
      for (AsId provider : providers_.neighbors(below)) {
        const std::uint16_t seen = customer_dist[provider];
        if (seen == std::numeric_limits<std::uint16_t>::max()) {
          customer_dist[provider] = level;
          entries[provider] = RouteEntry{below, level, RouteClass::kCustomer};
          next_frontier.push_back(provider);
        } else if (seen == level && below < entries[provider].next_hop) {
          // Tie-break without sorting the frontier: the historical rule —
          // first claimant in ascending-frontier order — is exactly "the
          // smallest same-level neighbour wins", so track the minimum
          // explicitly and the frontier order stops mattering. Phases 2
          // and 3 scan by AS index, so no other order dependence exists.
          entries[provider].next_hop = below;
        }
      }
    }
    std::swap(frontier, next_frontier);
  }

  // Phase 2 — peer routes: one peer edge, then a customer chain down.
  // Only ASes without a customer route take these.
  for (AsId as = 0; as < n; ++as) {
    if (class_rank(entries[as].route_class) <=
        class_rank(RouteClass::kCustomer)) {
      continue;
    }
    RouteEntry best = entries[as];
    for (AsId peer : peers_.neighbors(as)) {
      if (customer_dist[peer] == std::numeric_limits<std::uint16_t>::max()) {
        continue;
      }
      const std::uint16_t len =
          static_cast<std::uint16_t>(customer_dist[peer] + 1);
      if (best.route_class != RouteClass::kPeer || len < best.length ||
          (len == best.length && peer < best.next_hop)) {
        best = RouteEntry{peer, len, RouteClass::kPeer};
      }
    }
    entries[as] = best;
  }

  // Phase 3 — provider routes: shortest chains over provider->customer
  // edges, seeded by every AS that already selected a (customer/peer/self)
  // route. An AS exports its selected route to its customers, so provider
  // routes chain downward with unit cost per hop.
  //
  // A Dial bucket queue: bucket[L] collects the (parent, as) relaxations
  // pending at length L, drained in ascending L and in any order within a
  // bucket. The selection equals the historical heap Dijkstra, which
  // popped (len, parent, as) tuples in ascending order, because:
  //  * bucket[L] is complete before its drain begins — every relaxation in
  //    it comes from the seed scan (before any drain) or from settling an
  //    AS in bucket[L-1] (unit edge weights: a settle pushes only at L+1);
  //  * an AS settles at the first length any relaxation reaches, which is
  //    the heap's first pop of it, and the heap's next pops of that AS at
  //    the same length carry larger parents, which lose the tie-break —
  //    so its parent is the smallest one in that bucket, whatever the
  //    order the bucket is drained in;
  //  * what a settle pushes, (len+1, as, customer), depends on the AS and
  //    not on its parent, so pushing only on the first settle queues the
  //    same relaxations the heap did. bucket[L+1] thus holds the same
  //    multiset whatever order bucket[L] drained in.
  // RouteTreePins (tests/routing_test.cpp) pins the resulting trees to the
  // heap-ordered engine's bytes.
  auto& buckets = scratch.buckets;
  for (auto& bucket : buckets) bucket.clear();
  std::size_t max_len = 0;  // highest non-empty bucket index
  const auto push = [&buckets, &max_len](std::uint16_t len, AsId parent,
                                         AsId as) {
    if (buckets.size() <= len) buckets.resize(len + 1);
    if (len > max_len) max_len = len;
    buckets[len].emplace_back(parent, as);
  };
  const auto push_customers = [&](AsId as, std::uint16_t len) {
    for (AsId customer : customers_.neighbors(as)) {
      if (class_rank(entries[customer].route_class) <=
          class_rank(RouteClass::kPeer)) {
        continue;
      }
      push(len, as, customer);
    }
  };
  for (AsId as = 0; as < n; ++as) {
    if (entries[as].reachable()) {
      push_customers(as, static_cast<std::uint16_t>(entries[as].length + 1));
    }
  }
  for (std::size_t len = 0; len <= max_len; ++len) {
    // Index-based access throughout: `push` may grow the outer vector,
    // which would invalidate a cached reference to buckets[len].
    for (std::size_t k = 0; k < buckets[len].size(); ++k) {
      const auto [parent, as] = buckets[len][k];
      RouteEntry& entry = entries[as];
      if (class_rank(entry.route_class) <= class_rank(RouteClass::kPeer)) {
        continue;  // prefers better
      }
      if (entry.route_class == RouteClass::kProvider) {
        // Settled in an earlier bucket, or earlier in this one: only a
        // smaller same-length parent changes the route.
        if (entry.length == len && parent < entry.next_hop) {
          entry.next_hop = parent;
        }
        continue;
      }
      entry = RouteEntry{parent, static_cast<std::uint16_t>(len),
                         RouteClass::kProvider};
      push_customers(as, static_cast<std::uint16_t>(len + 1));
    }
    buckets[len].clear();
  }
}

}  // namespace rr::route

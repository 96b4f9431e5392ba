#include "routing/bgp.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace rr::route {

std::size_t append_as_path(std::span<const RouteEntry> entries,
                           AsId destination, AsId src,
                           std::vector<AsId>& out) {
  const std::size_t start = out.size();
  AsId current = src;
  for (std::size_t length = 1; length <= RouteTree::kMaxPathAses; ++length) {
    out.push_back(current);
    if (current == destination) return length;
    const RouteEntry& entry = entries[current];
    if (!entry.reachable() || entry.next_hop == topo::kNoAs) break;
    current = entry.next_hop;
  }
  out.resize(start);  // unreachable, or the length guard tripped
  return 0;
}

void TreeScratch::clear(std::span<const AsId> order) noexcept {
  for (const AsId as : cone) entries[as] = RouteEntry{};
  for (const AsId as : peered) entries[as] = RouteEntry{};
  for (const AsId as : order) entries[as] = RouteEntry{};
}

BgpEngine::BgpEngine(std::shared_ptr<const topo::Topology> topology,
                     Epoch epoch)
    : topology_(std::move(topology)), epoch_(epoch) {
  const std::size_t n = topology_->ases().size();

  // Two passes over the link table: degree count, then placement. The
  // placement order is link-table order; a final per-AS sort restores the
  // ascending neighbour order that every tie-break in select_routes
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

  // The provider-first order (Kahn's algorithm over provider -> customer
  // edges): an AS enters once its last provider has, starting from the
  // ASes with none in ascending id order, so the order is deterministic.
  // ASes on a provider cycle never enter it.
  std::vector<std::uint32_t>& waiting = deg_providers;  // providers not yet in
  provider_order_.reserve(n);
  for (AsId as = 0; as < n; ++as) {
    if (waiting[as] == 0) provider_order_.push_back(as);
  }
  for (std::size_t next = 0; next < provider_order_.size(); ++next) {
    for (const AsId customer : customers_.neighbors(provider_order_[next])) {
      if (--waiting[customer] == 0) provider_order_.push_back(customer);
    }
  }
  if (provider_order_.size() != n) {
    throw std::logic_error(
        "BgpEngine: the provider graph has a cycle through " +
        std::to_string(n - provider_order_.size()) +
        " ASes; provider routes need every AS after its providers");
  }
}

RouteTree BgpEngine::compute_tree(AsId destination) const {
  TreeScratch scratch;
  select_routes(destination, provider_order_, scratch);
  return RouteTree{destination, std::move(scratch.entries)};
}

void BgpEngine::select_routes(AsId destination, std::span<const AsId> order,
                              TreeScratch& scratch) const {
  auto& entries = scratch.entries;
  if (entries.empty()) entries.resize(topology_->ases().size());

  // Phase 1 — customer routes: BFS from the destination along
  // customer->provider edges (the destination's provider cone). An AS on
  // such a chain learned the route from the customer below it. `cone` is
  // the BFS queue, so it ends up holding the cone in ascending length.
  auto& cone = scratch.cone;
  cone.clear();
  cone.push_back(destination);
  entries[destination] = RouteEntry{destination, 0, RouteClass::kSelf};
  for (std::size_t head = 0; head < cone.size(); ++head) {
    const AsId below = cone[head];
    const auto level = static_cast<std::uint16_t>(entries[below].length + 1);
    for (const AsId provider : providers_.neighbors(below)) {
      RouteEntry& entry = entries[provider];
      if (entry.route_class == RouteClass::kNone) {
        entry = RouteEntry{below, level, RouteClass::kCustomer};
        cone.push_back(provider);
      } else if (entry.length == level && below < entry.next_hop) {
        // The smallest same-level customer wins, tracked as a minimum so
        // the queue's order within a level does not matter.
        entry.next_hop = below;
      }
    }
  }

  // Phase 2 — peer routes: one peer edge into the cone, then its customer
  // chain down. Only ASes outside the cone take these; each keeps the
  // shortest, then the smallest peer, so the cone's scan order does not
  // matter either.
  auto& peered = scratch.peered;
  peered.clear();
  for (const AsId member : cone) {
    const auto len = static_cast<std::uint16_t>(entries[member].length + 1);
    for (const AsId peer : peers_.neighbors(member)) {
      RouteEntry& entry = entries[peer];
      if (entry.route_class == RouteClass::kNone) {
        entry = RouteEntry{member, len, RouteClass::kPeer};
        peered.push_back(peer);
      } else if (entry.route_class == RouteClass::kPeer &&
                 (len < entry.length ||
                  (len == entry.length && member < entry.next_hop))) {
        entry = RouteEntry{member, len, RouteClass::kPeer};
      }
    }
  }

  // Phase 3 — provider routes. An AS exports its selected route, of any
  // class, to its customers, so an AS left without a customer or peer
  // route takes its shortest provider's route one hop longer, and the
  // smallest such provider on equal length. One pass in provider-first
  // order settles every AS: its providers were settled before it. This
  // selects what the Dijkstra over provider->customer edges (and the Dial
  // bucket drain that replaced it) selected: with unit edge weights on an
  // acyclic graph, an AS's Dijkstra length is the minimum over its
  // providers of their length + 1, the equation this pass evaluates, and
  // Dijkstra kept the smallest parent among those reaching that minimum.
  // RouteTreePins (tests/routing_test.cpp) pins every tree to the
  // sorted-bucket engine's bytes.
  for (const AsId as : order) {
    RouteEntry& entry = entries[as];
    if (entry.route_class != RouteClass::kNone) continue;  // self/cust/peer
    for (const AsId provider : providers_.neighbors(as)) {
      const RouteEntry& up = entries[provider];
      if (!up.reachable()) continue;
      const auto len = static_cast<std::uint16_t>(up.length + 1);
      // Providers ascend, so a strict < keeps the smallest on equal length
      // (an unreachable entry's length is the maximum).
      if (len < entry.length) {
        entry = RouteEntry{provider, len, RouteClass::kProvider};
      }
    }
  }
}

}  // namespace rr::route
